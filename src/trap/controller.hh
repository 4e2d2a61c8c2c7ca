/**
 * @file
 * End-to-end interrupt servicing over the trace-driven timing cores.
 *
 * The cores are trace replayers: they can stop decoding at a cycle
 * (RunOptions::interruptAt) and drain to the sequential prefix, but
 * they cannot fetch a handler — there is no handler in their trace.
 * The TrapController closes the loop by running the machine as a
 * sequence of *segments*:
 *
 *   1. run the core on the current context's trace, with interruptAt
 *      set to the next eligible InterruptSource event (or to nothing);
 *   2. at an interrupt cut — or a synchronous fault on a precise
 *      core — perform the architectural delivery between segments:
 *      exchange packages (trap/trap.hh), cause/epc update, a charged
 *      exchange latency;
 *   3. generate the handler's trace functionally (the handler is a
 *      real in-ISA program; MFEPC/MFCAUSE read the live trap
 *      registers) and run it as the next segment *on the same core* —
 *      handlers pay the same structural hazards as any other code;
 *   4. at the handler's RTI, exchange back and resume the interrupted
 *      context at the restored epc. An asynchronously cut program
 *      keeps its trace — and with it its compiled stream and watchdog
 *      budget — when the RTI provably resumes the very sequential
 *      state it was cut in: the restored registers equal the cut's,
 *      the restored epc is the next record's pc, IE is what the trace
 *      implies there, and no word written since the cut (a handler
 *      store at any nesting level, or an exchange-package word) is
 *      loaded by the trace from there on. Otherwise the remaining
 *      trace is regenerated from the restored state: after a
 *      synchronous fault (a repair handler), a handler that edited the
 *      saved frame or epc or the IE bit of the saved status, a handler
 *      store the program later reads, and on every return into a
 *      handler level;
 *   5. nested interrupts: inside a handler's EINT..DINT window a
 *      higher-priority event may cut the handler segment itself, and
 *      delivery recurses one level deeper. The per-level exchange
 *      packages are the nesting stack.
 *
 * Every delivery is recorded in a log ordered by global committed-
 * instruction count; replayFunctional() re-executes the whole run —
 * program, handlers, exchanges — on the sequential machine from that
 * log alone. A timing run and its replay must agree bit-exactly on
 * final registers, memory and trap state; that is the storm sweep's
 * whole-run oracle.
 */

#ifndef RUU_TRAP_CONTROLLER_HH
#define RUU_TRAP_CONTROLLER_HH

#include <memory>
#include <string>
#include <vector>

#include "core/core.hh"
#include "trap/handlers.hh"
#include "trap/interrupt_source.hh"
#include "trap/trap.hh"

namespace ruu::trap
{

/** Controller configuration. */
struct TrapConfig
{
    TrapLayout layout;

    /** Cycles charged for each exchange (delivery and RTI). */
    Cycle exchangeCycles = 8;

    /**
     * Data-memory capacity in words for the run and its replay. The
     * exchange packages must fit below it (TrapLayout::fits). Every
     * segment copies the memory image, so fitTrapMemory() places the
     * trap area just above the program's data and ends the image
     * there: a storm's per-segment cost then tracks the program's
     * footprint, not the default 8 MiB.
     */
    std::size_t memoryWords = Memory::kDefaultWords;

    /** The handler kernel; counterHandler() when null. */
    std::shared_ptr<const Program> handler;

    /** Per-segment watchdog budget (RunOptions::maxCycles). */
    std::uint64_t maxCyclesPerSegment = 2'000'000'000ull;

    /** Handler runaway guard (dynamic instructions per activation). */
    std::uint64_t maxHandlerInstructions = 100'000;

    /** Total-delivery guard against synchronous fault storms. */
    std::uint64_t maxDeliveries = 1u << 20;

    /** Attach the lockstep commit oracle to every segment. */
    bool checkOracle = false;
};

/** One delivered interrupt or fault, in chronological (DFS) order. */
struct Delivery
{
    Word cause = 0;
    unsigned level = 0;   //!< handler level entered
    bool sync = false;    //!< synchronous fault (else external)
    ParcelAddr epc = 0;   //!< saved exception PC

    /**
     * Instructions committed — across all contexts — before this
     * delivery. replayFunctional() steps the sequential machine to
     * exactly this count before performing the exchange.
     */
    std::uint64_t globalInstr = 0;

    Cycle cycle = 0;        //!< global delivery cycle
    Cycle handlerCycles = 0; //!< delivery to matching RTI, nested incl.

    /**
     * Global cycle the external request was raised. kNoCycle for
     * synchronous faults, which have no external arrival.
     */
    Cycle arrivalCycle = kNoCycle;

    /**
     * Arrival to handler entry, exchange included (async deliveries;
     * kNoCycle when unmeasured). Asserted against the certified
     * end-to-end response ceiling (lint::WcirtBound::responseCeiling)
     * when the arrival process makes that ceiling applicable — a
     * purely periodic source with no synchronous deliveries in play.
     */
    Cycle responseCycles = kNoCycle;

    /**
     * Measured drain residue of the cut segment: cycles from the
     * first cycle the core held the stop condition (or detected the
     * fault) to the end of the segment. kNoCycle when the core did
     * not report a drain start. Asserted <= the certified WCIRT cut
     * ceiling (lint::WcirtBreakdown::cut) on every delivery.
     */
    Cycle drainCycles = kNoCycle;
};

/** Outcome of one interrupt-serviced run. */
struct TrapRunResult
{
    bool completed = false; //!< the program ran to HALT
    bool failed = false;    //!< unrecoverable servicing error
    bool wedged = false;    //!< a segment tripped the cycle watchdog
    std::string error;      //!< diagnostic when failed or wedged

    Cycle cycles = 0;                  //!< total, exchanges included
    std::uint64_t instructions = 0;    //!< committed, all contexts
    std::uint64_t handlerInstructions = 0;
    std::uint64_t dropped = 0; //!< events pending at program end
    unsigned maxDepth = 0;     //!< deepest handler level reached

    /**
     * Synchronous deliveries taken from an imprecise machine state
     * (non-precise core): serviced best-effort, but the run is no
     * longer replayable bit-exactly.
     */
    std::uint64_t impreciseSyncDeliveries = 0;

    ArchState state;
    /** Final memory; empty (zero words) until a run materializes it. */
    Memory memory{0};
    TrapRegs trapRegs;
    std::vector<Delivery> deliveries;

    /** First per-segment commit-oracle divergence (empty when none). */
    std::string oracleFailure;

    /**
     * Certified worst-case delivery ceiling for this (core scheme,
     * config) — lint::WcirtBound::cycles, i.e. drain + restart +
     * exchange. 0 when the core's scheme could not be resolved
     * (test-only cores) and no bound was asserted.
     */
    std::uint64_t wcirtCeiling = 0;

    /**
     * Worst measured delivery latency across all deliveries: drain
     * residue + exchange. 0 when no delivery reported a measured
     * drain. Always <= wcirtCeiling when the ceiling is nonzero —
     * the controller asserts this per delivery, in-run.
     */
    Cycle maxDeliveryLatency = 0;

    /**
     * Contexts re-derived functionally at an RTI because the keep rule
     * (step 4 of the file comment) did not hold. Diagnostic only: it
     * appears in no report or JSON.
     */
    std::uint64_t regenerations = 0;

    /** Worst measured drain residue across deliveries (0 when none). */
    Cycle maxDrainCycles() const;

    bool ok() const
    {
        return completed && !failed && !wedged && oracleFailure.empty();
    }

    double meanHandlerCycles() const;
    Cycle maxHandlerCycles() const;
};

/** Segmented trap-servicing executor over one timing core. */
class TrapController
{
  public:
    TrapController(Core &core, TrapConfig config);

    /**
     * Run @p trace's program on the core, delivering interrupts from
     * @p source and servicing synchronous faults.
     *
     * @p injectAt lists outer-program dynamic-instruction positions to
     * annotate with @p injectKind — positions count committed outer
     * instructions, so they stay meaningful across the resume
     * boundaries where the trace is regenerated. Each injected fault
     * fires once and is then considered repaired by the handler.
     */
    TrapRunResult run(const Trace &trace, InterruptSource source,
                      const std::vector<SeqNum> &injectAt = {},
                      Fault injectKind = Fault::PageFault);

    const TrapConfig &config() const { return _config; }

  private:
    Core &_core;
    TrapConfig _config;
};

/**
 * Place @p config's exchange packages and scratch area just above the
 * highest data word @p trace's program touches (loads, stores and data
 * initializers), and end the data memory with the stock handlers'
 * scratch words (kScratchWords). Both areas start on a multiple of
 * 0x800, so every package and scratch word sits in the same memory
 * bank (address mod UarchConfig::memoryBanks) as under the default
 * layout, for up to 2048 banks.
 */
void fitTrapMemory(TrapConfig &config, const Trace &trace);

/** Outcome of a functional replay of a delivery log. */
struct ReplayResult
{
    bool ok = false;
    std::string error;
    ArchState state;
    /** Final memory; empty (zero words) until a replay materializes it. */
    Memory memory{0};
    TrapRegs trapRegs;
    std::uint64_t instructions = 0;
};

/**
 * Re-execute a TrapController run purely functionally: the program and
 * handler step on the sequential machine, and each logged delivery's
 * exchange is performed when the global committed-instruction count
 * reaches its recorded position. The delivery log alone determines the
 * replay — injected faults need no replica here, because a faulting
 * instruction never executes before its delivery and restarts cleanly
 * from the restored epc afterwards. The timing run's final state,
 * memory and trap registers must match this bit-exactly (async-only
 * runs and precise-core sync runs; see
 * TrapRunResult::impreciseSyncDeliveries).
 */
ReplayResult replayFunctional(std::shared_ptr<const Program> program,
                              const TrapConfig &config,
                              const std::vector<Delivery> &deliveries);

} // namespace ruu::trap

#endif // RUU_TRAP_CONTROLLER_HH
