/**
 * @file
 * Dynamic instruction traces.
 *
 * The paper's methodology (§2.1) feeds instruction traces produced by a
 * CRAY-1 simulator into each issue-logic simulator. Trace is our
 * equivalent: the functional simulator (arch/func_sim.hh) executes a
 * Program and records, for every dynamic instruction, everything a
 * timing model needs — the decoded instruction, its memory address,
 * branch outcome, and the architecturally correct result value (so
 * timing cores can verify the values they commit).
 *
 * Faults can be annotated onto trace positions after generation; this
 * is how the precise-interrupt experiments inject page faults and
 * arithmetic exceptions at arbitrary dynamic instructions.
 */

#ifndef RUU_TRACE_TRACE_HH
#define RUU_TRACE_TRACE_HH

#include <memory>
#include <string>
#include <vector>

#include "arch/executor.hh"
#include "asm/program.hh"
#include "common/types.hh"
#include "isa/instruction.hh"

namespace ruu
{

/** One dynamic instruction in a trace. */
struct TraceRecord
{
    Instruction inst;        //!< decoded instruction
    std::size_t staticIndex; //!< index within the source Program
    ParcelAddr pc;           //!< parcel address (precise-interrupt PC)
    Addr memAddr = 0;        //!< word address (loads/stores)
    Word result = 0;         //!< destination value (register writers)
    Word storeValue = 0;     //!< value stored (stores)
    bool taken = false;      //!< branch outcome
    Fault fault = Fault::None; //!< injected or organic fault
};

/** A complete dynamic execution of one program. */
class Trace
{
  public:
    Trace() = default;

    /** Create a trace over @p program (shared with the simulators). */
    explicit Trace(std::shared_ptr<const Program> program)
        : _program(std::move(program))
    {}

    /** The program this trace executes. */
    const Program &program() const { return *_program; }

    /** Shared handle to the program. */
    const std::shared_ptr<const Program> &programPtr() const
    {
        return _program;
    }

    /** Number of dynamic instructions. */
    std::size_t size() const { return _records.size(); }

    bool empty() const { return _records.empty(); }

    /** Record for dynamic instruction @p seq. */
    const TraceRecord &at(SeqNum seq) const;

    /** All records. */
    const std::vector<TraceRecord> &records() const { return _records; }

    /** Append a record (functional simulator only). */
    void append(TraceRecord record) { _records.push_back(record); }

    /**
     * Annotate dynamic instruction @p seq with @p fault.
     * Used by the precise-interrupt experiments; the timing cores then
     * surface the fault when that instruction tries to commit. Note:
     * annotations on branches, NOP and HALT never surface (they update
     * no state); use nextFaultable() to round positions forward.
     */
    void injectFault(SeqNum seq, Fault fault);

    /** Remove all fault annotations. */
    void clearFaults();

    /** Count of dynamic conditional branches. */
    std::size_t countCondBranches() const;

    /** Count of dynamic loads + stores. */
    std::size_t countMemOps() const;

  private:
    std::shared_ptr<const Program> _program;
    std::vector<TraceRecord> _records;
};

/**
 * Full content hash of @p trace: its program's instructions and data
 * initializers, and every record's instruction, pc, memAddr and taken
 * bit. Fault annotations are left out. Each mixing step is a
 * bijection of the running hash, so traces that differ in any one of
 * those fields always hash apart. O(program + trace): callers that
 * probe by it repeatedly keep it (Workload::contentHash).
 */
std::uint64_t traceContentHash(const Trace &trace);

} // namespace ruu

#endif // RUU_TRACE_TRACE_HH
