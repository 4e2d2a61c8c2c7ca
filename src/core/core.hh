/**
 * @file
 * The common interface of every issue-logic core.
 *
 * A core is a trace-driven, cycle-level timing model of one of the
 * paper's instruction-issue mechanisms. All cores consume the same
 * Trace, commit the architecturally correct values carried in it, and
 * report cycle counts plus detailed stall statistics through a StatSet.
 */

#ifndef RUU_CORE_CORE_HH
#define RUU_CORE_CORE_HH

#include <memory>
#include <string>

#include "arch/memory.hh"
#include "arch/state.hh"
#include "core/commit_observer.hh"
#include "engine/engine.hh"
#include "lint/invariant_checker.hh"
#include "stats/stat_set.hh"
#include "trace/trace.hh"
#include "uarch/config.hh"

namespace ruu
{

namespace inject
{
class MachineTap;
} // namespace inject

namespace engine
{
struct CompiledStream;
} // namespace engine

/** Options controlling one timing run. */
struct RunOptions
{
    /** First dynamic instruction to execute (resume after interrupt). */
    SeqNum startSeq = 0;

    /** Register state to start from (resume); zeroed when null. */
    const ArchState *initialState = nullptr;

    /**
     * Memory image to start from (resume); when null, memory is built
     * from the trace's program data initializers.
     */
    const Memory *initialMemory = nullptr;

    /** Model the CRAY-1 instruction buffers instead of assuming hits. */
    bool modelIBuffers = false;

    /**
     * Receives every architecturally-committed instruction of the run
     * (oracle::CommitOracle attaches here); null disables observation.
     */
    CommitObserver *observer = nullptr;

    /**
     * Watchdog budget: when a run exceeds this many cycles the core
     * stops with RunResult::wedged set and a structured pipeline dump
     * instead of hanging (or aborting) the simulator.
     */
    std::uint64_t maxCycles = 2'000'000'000ull;

    /**
     * Cycle at which an asynchronous external interrupt arrives
     * (kNoCycle: never). From that cycle on the core stops decoding new
     * instructions, drains every instruction already fetched to
     * completion, and reports Fault::Interrupt with faultSeq = the
     * first undecoded dynamic instruction — which makes the interrupt
     * *precise on every core*, since the drained state equals the
     * sequential prefix. A synchronous fault that surfaces while
     * draining wins (it is architecturally older); the interrupt then
     * stays pending with its source. Trap delivery itself — exchange
     * package, handler trace, RTI — is the trap controller's job
     * (src/trap/controller.hh); the core only provides the drain.
     */
    Cycle interruptAt = kNoCycle;

    /**
     * Earliest dynamic instruction allowed to be cut off by
     * interruptAt. The drain point p satisfies p >= interruptMinSeq:
     * decode keeps running until then even past the interrupt cycle.
     * The controller uses this to keep a nested interrupt from landing
     * before the EINT that re-enabled interrupts inside a handler.
     */
    SeqNum interruptMinSeq = 0;

    /**
     * Machine tap for fault injection and snapshot/restore
     * (src/inject): when set, the core registers every flippable state
     * bit of its live pipeline structures as FaultPorts at run start
     * and calls the tap at the top of every cycle. Null (the default)
     * skips registration entirely — plain runs pay nothing.
     */
    inject::MachineTap *tap = nullptr;
};

/** Outcome of one timing run. */
struct RunResult
{
    /** Total clock cycles consumed. */
    Cycle cycles = 0;

    /** Dynamic instructions completed/committed (includes HALT). */
    std::uint64_t instructions = 0;

    /** An instruction-generated trap surfaced. */
    bool interrupted = false;

    /** Kind of trap (valid when interrupted). */
    Fault fault = Fault::None;

    /** Dynamic index of the faulting instruction. */
    SeqNum faultSeq = kNoSeqNum;

    /** Parcel address of the faulting instruction (the precise PC). */
    ParcelAddr faultPc = 0;

    /**
     * Cycle the drain to the stopping point began: the first cycle the
     * decode stage observed the interrupt stop condition, or the cycle
     * a synchronous fault was detected in its unit — whichever came
     * first. kNoCycle when the run ended without either. The measured
     * residue `cycles - drainStartCycle` is asserted against the
     * certified WCIRT cut ceiling (lint/wcirt.hh) on every delivery.
     */
    Cycle drainStartCycle = kNoCycle;

    /**
     * Register state at the end of the run. For the RUU this is the
     * precise committed state; for the imprecise cores it is whatever
     * the register file contains when the machine stops.
     */
    ArchState state;

    /**
     * Memory state at the end of the run. Empty (zero words) until
     * Core::makeInitialResult materializes it — a default-sized image
     * is 8 MiB of memset, paid once per core restart, and the trap
     * controller restarts the core once per interrupt delivery.
     */
    Memory memory{0};

    /**
     * The watchdog fired: the run exceeded RunOptions::maxCycles
     * without finishing. The partial results above are whatever the
     * machine held when it was stopped; diagnostic carries the
     * structured pipeline-state dump.
     */
    bool wedged = false;

    /** Pipeline-state dump of a wedged run (empty otherwise). */
    std::string diagnostic;

    /** Instructions per cycle ("instruction issue rate" in the paper). */
    double issueRate() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/** Abstract issue-logic core. */
class Core
{
  public:
    explicit Core(const UarchConfig &config);
    virtual ~Core() = default;

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /** Short machine-readable name ("simple", "rstu", "ruu", ...). */
    virtual const char *name() const = 0;

    /**
     * The ordering discipline of this core's commit stream; the commit
     * oracle (src/oracle) verifies the stream against it.
     */
    virtual CommitOrder commitOrder() const = 0;

    /**
     * True when the core guarantees precise interrupts: at any fault
     * the architectural state equals the sequential execution of every
     * instruction before the faulting one, and nothing else (§5). The
     * interrupt-sweep harness holds precise cores to that contract at
     * every interrupt point and only *measures* imprecision on the
     * others.
     */
    virtual bool preciseInterrupts() const = 0;

    /**
     * Simulate @p trace.
     * Statistics are reset at the start of every run.
     */
    RunResult run(const Trace &trace, const RunOptions &options = {});

    /** Statistics of the most recent run. */
    const StatSet &stats() const { return _stats; }
    StatSet &stats() { return _stats; }

    /** The configuration this core was built with. */
    const UarchConfig &config() const { return _config; }

    /**
     * The engine the most recent (or currently executing) run used.
     * run() resolves it per run: RUU_ENGINE / the process default,
     * forced to Interp when a fault tap is attached
     * (engine::activeFor).
     */
    engine::Kind activeEngine() const { return _activeEngine; }

  protected:
    /** Subclass timing loop. */
    virtual RunResult runImpl(const Trace &trace,
                              const RunOptions &options) = 0;

    /**
     * Build the initial RunResult: state/memory from the options or
     * from the trace's program image.
     */
    RunResult makeInitialResult(const Trace &trace,
                                const RunOptions &options) const;

    /**
     * The run's invariant checker, or null when checking is off
     * (UarchConfig::checkInvariants / RUU_CHECK_INVARIANTS). Core
     * timing loops report tag, bus, commit, and scoreboard events to
     * it; run() panics when a run ends with violations.
     */
    lint::InvariantChecker *invariants() { return _invariants.get(); }

    /**
     * Report that dynamic instruction @p seq architecturally committed
     * @p record. Cores call this at every commit point — including
     * branches, NOP and HALT, which carry no state change but occupy a
     * position in the sequential execution the lockstep oracle replays.
     * Also feeds the invariant checker's commit-order check for cores
     * whose stream is totally ordered.
     */
    void notifyCommit(SeqNum seq, const TraceRecord &record)
    {
        if (_observer)
            _observer->onCommit(seq, record);
    }

    /**
     * Fill in @p result for a run the watchdog stopped at @p cycle:
     * sets wedged and builds the pipeline-state dump from the header
     * (core, cycle budget, next undecoded instruction of @p trace at
     * @p decodeSeq) plus the core-specific occupancy lines in
     * @p detail (one per line: per-FU busy state, per-entry contents,
     * oldest unissued instruction).
     */
    void markWedged(RunResult &result, const Trace &trace, Cycle cycle,
                    const RunOptions &options, SeqNum decodeSeq,
                    const std::string &detail) const;

    /** Dead cycles after a branch with outcome @p taken. */
    unsigned branchPenalty(bool taken) const
    {
        return taken ? _config.branchTakenPenalty
                     : _config.branchUntakenPenalty;
    }

    /**
     * The pre-decoded stream of the current run's trace; non-null
     * exactly when activeEngine() == Compiled. Set by run() before
     * runImpl, from engine::cachedStream (the trace's own memo).
     */
    const engine::CompiledStream &stream() const { return *_stream; }

    UarchConfig _config;
    StatSet _stats;

  private:
    std::unique_ptr<lint::InvariantChecker> _invariants;
    CommitObserver *_observer = nullptr;
    engine::Kind _activeEngine = engine::Kind::Interp;
    std::shared_ptr<const engine::CompiledStream> _stream;
};

} // namespace ruu

#endif // RUU_CORE_CORE_HH
