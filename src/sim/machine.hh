/**
 * @file
 * The top-level simulation facade.
 *
 * A Workload bundles a program with its functional execution (trace +
 * final architectural state); cores are created through a factory by
 * CoreKind. Helpers cover the recurring experiment patterns: verifying
 * that a timing core committed the sequential state, and the fault-
 * inject / interrupt / resume flow of the precise-interrupt studies.
 */

#ifndef RUU_SIM_MACHINE_HH
#define RUU_SIM_MACHINE_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/func_sim.hh"
#include "common/error.hh"
#include "core/core.hh"

namespace ruu
{

/** The issue mechanisms this library models. */
enum class CoreKind
{
    Simple,   //!< §2 baseline (Table 1)
    Tomasulo, //!< §3.2.1 Tag Unit + distributed RS (Figure 2)
    Rstu,     //!< §3.2.3 merged pool (Tables 2-3)
    Ruu,      //!< §5 Register Update Unit (Tables 4-6)
    SpecRuu,  //!< §7 conditional-execution extension
    History,  //!< §4 history-buffer alternative (Smith & Pleszkun)
};

/** Printable core name ("simple", "rstu", ...). */
const char *coreKindName(CoreKind kind);

/**
 * The CoreKind whose coreKindName() is @p name, or std::nullopt for an
 * unknown name (e.g. a test-only core). Lets layers that only hold a
 * Core& (trap::TrapController) recover the scheme for scheme-keyed
 * analyses like lint::cachedWcirtBound.
 */
std::optional<CoreKind> coreKindFromName(const std::string &name);

/** Instantiate a core of @p kind with @p config. */
std::unique_ptr<Core> makeCore(CoreKind kind, const UarchConfig &config);

/** A program plus its functional execution. */
struct Workload
{
    std::string name;
    std::shared_ptr<const Program> program;

    /**
     * The functional run. Its finalMemory is compacted
     * (compactGolden) by makeWorkload and makeWorkloadChecked.
     */
    FuncResult func;

    /**
     * traceContentHash of the trace, taken once by makeWorkload and
     * makeWorkloadChecked when the functional run finishes (0 in a
     * Workload built by hand): the serve result cache keys on it, so a
     * cache probe never rehashes.
     */
    std::uint64_t contentHash = 0;

    /** The dynamic trace. */
    const Trace &trace() const { return func.trace; }
};

/**
 * Fit @p func's final memory to the highest word its program
 * initialized or stored (Memory::compact). Its logical contents do not
 * change; use it only on a golden image that is compared, never run on.
 */
void compactGolden(FuncResult &func);

/**
 * Run @p program functionally and wrap the result; an error when the
 * program faults organically or never halts. This is the form for
 * code that handles hostile input — the serve daemon builds client-
 * submitted programs with it, so a bad program is a per-job error
 * response, never a dead server.
 */
Expected<Workload> makeWorkloadChecked(Program program,
                                       const FuncSimOptions &options = {});

/** Assemble @p source and build a workload; an error on bad input. */
Expected<Workload> workloadFromSourceChecked(
    const std::string &source, const std::string &name = "program");

/**
 * Run @p program functionally and wrap the result.
 * Fatal when the program faults organically or never halts.
 */
Workload makeWorkload(Program program, const FuncSimOptions &options = {});

/** Assemble @p source and build a workload; fatal on assembly errors. */
Workload workloadFromSource(const std::string &source,
                            const std::string &name = "program");

/**
 * True when a timing run committed exactly the sequential
 * architectural state (registers and memory).
 */
bool matchesFunctional(const RunResult &run, const FuncResult &func);

/**
 * Dynamic instructions where a fault may be injected for the
 * precise-interrupt experiments: loads (page fault) and arithmetic
 * instructions (exception); branches and bare opcodes are excluded.
 */
std::vector<SeqNum> faultableSeqs(const Trace &trace);

/**
 * First faultable dynamic instruction at or after @p from, or
 * kNoSeqNum when none remains. Fault annotations on branches, NOP and
 * HALT never surface (those instructions update no state and do not
 * occupy commit slots), so schedulers and fault experiments round
 * their positions forward with this helper.
 */
SeqNum nextFaultable(const Trace &trace, SeqNum from);

/** Result of a fault-inject / interrupt / resume experiment. */
struct FaultExperiment
{
    RunResult faulted;  //!< the run that took the interrupt
    RunResult resumed;  //!< continuation after "servicing" the fault
    bool precise = false;       //!< faulted state == sequential prefix
    bool resumedExact = false;  //!< resumed final state == clean run
};

/**
 * Inject @p fault at dynamic instruction @p seq of @p workload, run
 * @p core until the interrupt, then clear the fault and resume from
 * the interrupted state.
 *
 * `precise` compares the interrupted register/memory state against
 * runPrefix(program, seq); `resumedExact` compares the resumed final
 * state against the fault-free functional execution.
 */
FaultExperiment runFaultAndResume(Core &core, const Workload &workload,
                                  SeqNum seq, Fault fault);

} // namespace ruu

#endif // RUU_SIM_MACHINE_HH
