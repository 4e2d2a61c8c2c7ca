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

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <typeindex>
#include <utility>
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

/** Process-wide lookup/hit counters of one kind of trace artifact. */
struct ArtifactCounters
{
    std::atomic<std::uint64_t> lookups{0};
    std::atomic<std::uint64_t> hits{0};
};

/**
 * The values derived from one trace's content: the compiled stream
 * (engine/stream.hh) and the lint bounds, each stored under its type
 * and the configuration fields it reads. A table belongs to its trace
 * and is freed with the last Trace holding it, so an entry can never
 * answer for another trace built at the same address. Thread-safe;
 * entries are never replaced, so a returned artifact stays valid while
 * the table lives.
 */
class TraceArtifacts
{
  public:
    /**
     * The @p T stored under @p fields, made by @p make on a miss (made
     * outside the lock: the artifacts are deterministic, so a racing
     * duplicate is wasted work, not wrong work).
     */
    template <class T, class Make>
    std::shared_ptr<const T> get(std::vector<std::uint64_t> fields,
                                 ArtifactCounters &counters, Make &&make)
    {
        Key key(std::type_index(typeid(T)), std::move(fields));
        ++counters.lookups;
        {
            std::lock_guard<std::mutex> lock(_mutex);
            auto it = _entries.find(key);
            if (it != _entries.end()) {
                ++counters.hits;
                return std::static_pointer_cast<const T>(it->second);
            }
        }
        std::shared_ptr<const void> made = std::make_shared<T>(make());
        std::lock_guard<std::mutex> lock(_mutex);
        _taken = true;
        return std::static_pointer_cast<const T>(
            _entries.emplace(std::move(key), std::move(made))
                .first->second);
    }

    /** True once any artifact was stored. */
    bool taken() const { return _taken; }

  private:
    using Key = std::pair<std::type_index, std::vector<std::uint64_t>>;

    std::mutex _mutex;
    std::map<Key, std::shared_ptr<const void>> _entries;
    std::atomic<bool> _taken{false};
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

    /**
     * Append a record (functional simulator only). The content
     * changes, so any artifacts taken, or shared with a copy, are
     * dropped.
     */
    void append(TraceRecord record)
    {
        if (!_artifacts || _artifacts.use_count() > 1 ||
            _artifacts->taken())
            _artifacts = std::make_shared<TraceArtifacts>();
        _records.push_back(record);
    }

    /**
     * The artifacts derived from this trace. A copy shares its
     * source's table: fault annotations, the only thing a copy may
     * change, feed no artifact.
     */
    TraceArtifacts &artifacts() const;

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
    std::shared_ptr<TraceArtifacts> _artifacts =
        std::make_shared<TraceArtifacts>();
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

/**
 * Full content hash of @p program: its instructions, data
 * initializers and handler flag, mixed as traceContentHash mixes them.
 */
std::uint64_t programContentHash(const Program &program);

} // namespace ruu

#endif // RUU_TRACE_TRACE_HH
