/**
 * @file
 * The benchmark suite: the first 14 Lawrence Livermore loops (§2.1),
 * hand-compiled to the model ISA the way CFT compiled them for the
 * CRAY-1 scalar unit — scalar code, loop counters and invariants in
 * A/B/T registers, branch conditions computed into A0 or S0.
 *
 * Every kernel carries an independent C++ reference implementation
 * (mirroring the assembly's floating-point operation order exactly),
 * whose outputs are recorded as expected memory contents; the test
 * suite validates the functional simulator against them bit-for-bit.
 */

#ifndef RUU_KERNELS_LLL_HH
#define RUU_KERNELS_LLL_HH

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "asm/program.hh"
#include "sim/machine.hh"

namespace ruu
{

/** One benchmark kernel: program + reference-computed expectations. */
struct Kernel
{
    std::string name;        //!< "lll01" .. "lll14"
    std::string description; //!< e.g. "hydro fragment"
    Program program;
    /** Expected output-memory words per the C++ reference. */
    std::vector<std::pair<Addr, Word>> expected;
};

/** @{ Individual kernel constructors (one translation unit each). */
Kernel makeLll01(); //!< hydro fragment
Kernel makeLll02(); //!< incomplete Cholesky conjugate gradient
Kernel makeLll03(); //!< inner product
Kernel makeLll04(); //!< banded linear equations
Kernel makeLll05(); //!< tri-diagonal elimination, below diagonal
Kernel makeLll06(); //!< general linear recurrence equations
Kernel makeLll07(); //!< equation of state fragment
Kernel makeLll08(); //!< ADI integration
Kernel makeLll09(); //!< integrate predictors
Kernel makeLll10(); //!< difference predictors
Kernel makeLll11(); //!< first sum
Kernel makeLll12(); //!< first difference
Kernel makeLll13(); //!< 2-D particle in cell
Kernel makeLll14(); //!< 1-D particle in cell
/** @} */

/** All 14 kernels, built once and cached. */
const std::vector<Kernel> &livermoreKernels();

/**
 * Workloads (program + functional trace) for all 14 kernels, built
 * once and cached — the input of every paper-table bench.
 */
const std::vector<Workload> &livermoreWorkloads();

/**
 * The workload of the one kernel named @p name ("lll01".."lll14"),
 * built on its own — that kernel's constructor and functional run,
 * none of the others — and owned by the caller. std::nullopt for any
 * other name, "suite" included.
 */
std::optional<Workload> livermoreWorkload(const std::string &name);

/**
 * The workload of the kernel named @p name, built the first time any
 * thread asks for it and kept for the rest of the process: each
 * kernel builds once, and a caller asking for a kernel mid-build waits
 * for that build. Kernels build one at a time: a build holds a dense
 * 8 MiB functional image until its golden image is compacted, and a
 * daemon resolving the suite on every pool thread at once would hold
 * one per thread. nullptr for any other name. Resolve names before forking: a child forked
 * mid-build must only read references it was handed.
 */
const Workload *sharedLivermoreWorkload(const std::string &name);

} // namespace ruu

#endif // RUU_KERNELS_LLL_HH
