/**
 * @file
 * Lockstep differential co-simulation of a timing core's commit stream.
 *
 * CommitOracle attaches to a timing run (RunOptions::observer) and
 * re-executes the program on the sequential machine (arch/executor.hh)
 * in lockstep with the core's architectural commits. For every
 * committed instruction it cross-checks:
 *
 *   - the record the core committed is the trace's record for that seq;
 *   - the commit stream obeys the core's declared CommitOrder
 *     discipline (no duplicates, state-changers in program order for
 *     the precise machines, fully sequential for the Total machines);
 *   - independently re-executing the instruction reproduces the PC,
 *     destination value, memory address, store value and branch outcome
 *     the trace carries — so a corrupted trace, a broken executor, or a
 *     core committing the wrong values is caught at the first
 *     divergent instruction, not at end-of-run;
 *   - control flow is continuous: each instruction's successor is the
 *     next record's static index.
 *
 * finish() closes the books: on a clean run every dynamic instruction
 * must have committed exactly once and the core's final registers and
 * memory must equal the lockstep machine's; on an interrupted run of a
 * precise core, exactly the pre-fault instructions must have committed
 * and the interrupted state must equal the sequential prefix.
 *
 * The first divergence is reported with a disassembled window of the
 * dynamic trace around the offending instruction.
 */

#ifndef RUU_ORACLE_COMMIT_ORACLE_HH
#define RUU_ORACLE_COMMIT_ORACLE_HH

#include <optional>
#include <string>
#include <vector>

#include "core/core.hh"

namespace ruu::oracle
{

/** Lockstep commit checker; one instance per timing run. */
class CommitOracle : public CommitObserver
{
  public:
    /**
     * Check a run of @p core over @p trace. Reads the core's
     * CommitOrder and precise-interrupt contract; @p options must be
     * the RunOptions the run will use (startSeq / initial state).
     */
    CommitOracle(const Trace &trace, const Core &core,
                 const RunOptions &options = {});

    /** Explicit-contract form (used by the oracle's own tests). */
    CommitOracle(const Trace &trace, CommitOrder order, bool precise,
                 const RunOptions &options = {});

    void onCommit(SeqNum seq, const TraceRecord &record) override;

    /**
     * Verify end-of-run conditions against @p result (completeness,
     * fault bookkeeping, final registers and memory).
     * @return ok().
     */
    bool finish(const RunResult &result);

    /** No divergence observed so far. */
    bool ok() const { return _message.empty(); }

    /** Commits observed. */
    std::uint64_t commits() const { return _commits; }

    /**
     * Seed the lockstep machine's trap-register context. Unseeded,
     * lockstep MFEPC / MFCAUSE read 0 — matching traces produced by
     * the plain functional simulator. The trap controller seeds every
     * handler segment with the live trap registers so the lockstep
     * values match the handler trace it generated from them.
     */
    void seedTrapRegs(const TrapRegs &regs) { _trap = regs; }

    /**
     * Human-readable verdict: "ok" or the first divergence, with a
     * disassembled trace window around it.
     */
    std::string report() const;

  private:
    void fail(SeqNum seq, std::string message);
    void stepLockstep();
    bool stepOne(SeqNum seq);

    const Trace &_trace;
    CommitOrder _order;
    bool _precise;
    SeqNum _startSeq;

    // Lockstep sequential machine.
    ArchState _state;
    Memory _memory;
    std::optional<TrapRegs> _trap; //!< trap context (seedTrapRegs)
    SeqNum _stepped; //!< next dynamic instruction to re-execute
    std::optional<std::size_t> _expectIndex; //!< successor static index

    std::vector<bool> _committed;
    SeqNum _committedEnd = 0; //!< one past the youngest committed seq
    std::uint64_t _commits = 0;
    // Last commit per order class. Under DataInOrder each class must be
    // internally sequential but the classes may interleave freely:
    // branches are reported from decode (RuuCore, HistoryCore), and
    // NOP/HALT commit from the RUU head but from the decode stage of
    // the history machine — so neither is ordered against the other
    // two classes, only against itself.
    std::optional<SeqNum> _lastEffectful; //!< register writers + stores
    std::optional<SeqNum> _lastBranch;    //!< branches
    std::optional<SeqNum> _lastBare;      //!< NOP and HALT

    // First divergence.
    std::string _message;
    SeqNum _failSeq = kNoSeqNum;
};

/** True when @p record changes architectural state when it commits. */
bool isEffectful(const TraceRecord &record);

} // namespace ruu::oracle

#endif // RUU_ORACLE_COMMIT_ORACLE_HH
