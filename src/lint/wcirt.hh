/**
 * @file
 * Certified worst-case interrupt-response bound (WCIRT): a static
 * per-(trace, handler, configuration, core-scheme) *upper* bound on
 * the cycles from interrupt arrival to handler entry — the dual of
 * lint/resource_bound.hh's lower bound on throughput.
 *
 * The paper's claim is that aggressive issue logic can stay
 * *interruptable*; the WCIRT analysis certifies that claim statically.
 * The ceiling is assembled from provable worst cases of the drain-to-
 * precise-state cut every scheme shares:
 *
 *   - drain: when decode stops, at most the scheme's window occupancy
 *     (pool/TU/RS/history-buffer entries, or the deepest latency for
 *     the interlocked in-order core) is in flight. Each in-flight
 *     operation resolves within the deepest functional-unit latency
 *     plus its bank, result-bus and commit-slot serialization, and a
 *     dependence chain through the window is at most occupancy long.
 *   - restart: schemes without precise synchronous interrupts
 *     (simple, tomasulo, rstu) may keep issuing until the detected
 *     fault reaches the freeze point; one more full drain covers the
 *     restart penalty of Sohi & Vajapeyam's imprecise cut.
 *   - cut = drain + restart: the per-delivery *hard* ceiling on the
 *     measured decode-stop-to-segment-end residue. trap::TrapController
 *     and oracle::sweepInterrupts assert every measured drain against
 *     it, exactly as sim::Experiment asserts the PR 6 cycle floor.
 *   - cycles = cut + exchangeCycles: the certified arrival-to-handler-
 *     entry ceiling reported as WCIRT by analyze/verify/storm.
 *   - handler: a CFG worst-case path bound over the `.handler` program
 *     (entry to RTI, RTI-reachable paths only, building on RUU-W301/
 *     W302); kWcirtUnbounded when a loop can stand between entry and
 *     RTI (see RUU-W303 for handlers with *no* RTI-reachable exit).
 *   - shadow / maskedStretch: the one-instruction RTI shadow and the
 *     worst DINT..EINT masked stretch of the outer trace, both charged
 *     at serialized worst cost.
 *   - responseCeiling(): end-to-end arrival-to-entry ceiling including
 *     preemption by up to maxLevels-1 nested handler levels — asserted
 *     only for single periodic sources (coalescing guarantees at most
 *     one pending tick, so no queueing term is needed).
 *   - segmentCeiling(): a whole-run serialized ceiling of the outer
 *     trace; trap::TrapController derives its per-segment watchdog
 *     limits from it (with slack) instead of the magic constants, and
 *     `ruusim storm` prunes arrival periods the ceiling proves cannot
 *     deliver (the run completes before the first tick).
 *
 * Like the resource bound, the WCIRT ceiling is load-bearing: the
 * soundness assertions run on every delivery of every storm, fuzz and
 * verify run, and scripts/ci_wcirt_smoke.sh gates finiteness,
 * tightness over the old watchdog constants, and pruned-vs-unpruned
 * byte-identity in CI.
 */

#ifndef RUU_LINT_WCIRT_HH
#define RUU_LINT_WCIRT_HH

#include <cstdint>

#include "asm/program.hh"
#include "lint/dataflow_bound.hh"
#include "sim/machine.hh"
#include "trace/trace.hh"
#include "uarch/config.hh"

namespace ruu::lint
{

/** Sentinel: a ceiling the analysis cannot certify finite. */
inline constexpr std::uint64_t kWcirtUnbounded =
    std::numeric_limits<std::uint64_t>::max();

/** Trap-architecture parameters the ceiling depends on. */
struct WcirtParams
{
    /** Charged exchange latency per delivery and per RTI. */
    Cycle exchangeCycles = 8;

    /** Nesting depth of the trap architecture (TrapLayout::maxLevels). */
    unsigned maxLevels = 4;
};

/** Every component of one WCIRT ceiling, for reporting. */
struct WcirtBreakdown
{
    /** In-flight window the scheme can hold at the decode stop. */
    std::uint64_t occupancy = 0;

    /** Worst resolution cost of one in-flight operation. */
    std::uint64_t perOpDrain = 0;

    /** Worst drain of a full window after the decode stop. */
    std::uint64_t drain = 0;

    /** Restart allowance of imprecise schemes (0 when precise). */
    std::uint64_t restart = 0;

    /** drain + restart: the per-delivery hard ceiling on the residue. */
    std::uint64_t cut = 0;

    /** CFG worst entry-to-RTI path cost, or kWcirtUnbounded. */
    std::uint64_t handlerPath = 0;

    /** handlerPath plus the handler's own drain, or kWcirtUnbounded. */
    std::uint64_t handler = 0;

    /** One RTI-shadow instruction at serialized worst cost. */
    std::uint64_t shadow = 0;

    /** Worst masked DINT..EINT stretch of the outer trace. */
    std::uint64_t maskedStretch = 0;

    /** Whole-outer-trace serialized ceiling (watchdog/prune basis). */
    std::uint64_t segment = 0;
};

/** The certified WCIRT ceiling of one (trace, handler, config, core). */
struct WcirtBound
{
    /**
     * Certified ceiling on cycles from interrupt arrival to handler
     * entry when the machine is unmasked outer code: cut + exchange.
     * Always finite.
     */
    std::uint64_t cycles = 0;

    WcirtBreakdown breakdown;

    /** Parameters the ceiling was computed with. */
    Cycle exchangeCycles = 0;
    unsigned maxLevels = 0;

    /** True when the handler-path component is certified finite. */
    bool handlerFinite() const
    {
        return breakdown.handler != kWcirtUnbounded;
    }

    /**
     * End-to-end arrival-to-handler-entry ceiling including worst-case
     * preemption: up to maxLevels-1 in-progress handler levels (each
     * paying handler + exchange + RTI shadow), the worst masked
     * stretch, then the delivery itself. Sound for a single periodic
     * source (InterruptSource coalescing holds pending ticks to one);
     * kWcirtUnbounded when the handler path is not certified finite.
     */
    std::uint64_t responseCeiling() const;

    /**
     * Whole-segment ceiling of the outer trace: serialized execution
     * of every record plus a final drain. An interrupt-free run of the
     * trace completes within it, so (a) watchdog limits derive from it
     * and (b) arrival periods beyond it provably deliver nothing.
     */
    std::uint64_t segmentCeiling() const;

    /** A measured latency as a percentage of the ceiling. */
    double pctOfCeiling(std::uint64_t measured) const
    {
        return cycles ? 100.0 * static_cast<double>(measured) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/**
 * Compute the WCIRT ceiling of @p trace under @p config on scheme
 * @p kind, with deliveries entering @p handler. Linear in trace length
 * plus one CFG pass over the handler.
 */
WcirtBound wcirtBound(const Trace &trace, const Program &handler,
                      const UarchConfig &config, CoreKind kind,
                      const WcirtParams &params = {});

/**
 * Memoized wcirtBound, kept among the trace's artifacts
 * (trace/trace.hh) under the handler's full content
 * (programContentHash), the core scheme, the trap parameters, and
 * every configuration field the ceiling reads. Thread-safe; the
 * returned reference is valid while the trace lives and is not
 * appended to — sweep workers under -j share one computation per key.
 */
const WcirtBound &cachedWcirtBound(const Trace &trace,
                                   const Program &handler,
                                   const UarchConfig &config,
                                   CoreKind kind,
                                   const WcirtParams &params = {});

/** Counters of cachedWcirtBound since process start (delta-assert). */
BoundCacheStats wcirtBoundCacheStats();

/**
 * Serialized whole-trace ceiling of a bare @p trace segment on scheme
 * @p kind: every record at serialized worst cost plus a final drain.
 * TrapController uses it to derive watchdog limits for regenerated
 * resume segments and generated handler traces, whose content the
 * outer bound cannot see.
 */
std::uint64_t wcirtTraceCeiling(const Trace &trace,
                                const UarchConfig &config,
                                CoreKind kind);

/**
 * CFG worst-case entry-to-RTI path cost of @p handler under
 * @p config: the longest RTI-terminated path with every instruction
 * charged its serialized worst cost. kWcirtUnbounded when no RTI is
 * reachable or a CFG cycle lies on an entry-to-RTI path.
 */
std::uint64_t wcirtHandlerPathBound(const Program &handler,
                                    const UarchConfig &config);

} // namespace ruu::lint

#endif // RUU_LINT_WCIRT_HH
