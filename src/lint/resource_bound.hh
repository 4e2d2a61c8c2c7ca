/**
 * @file
 * Resource-aware static performance bound: a certified lower bound on
 * the cycle count of *any* of the modeled issue mechanisms for a given
 * (trace, configuration) pair, strictly at least as tight as the pure
 * dependence bound of lint/dataflow_bound.hh.
 *
 * The certified bound is the maximum over independent *floors*, each a
 * provable consequence of a structural resource every core shares:
 *
 *   - schedule: a unified decode x dependence critical path. Every
 *     core decodes at most one trace record per cycle and stalls
 *     decode after a taken branch by at least
 *     min(branchTakenPenalty-1, predictedTakenPenalty,
 *     mispredictPenalty-1) cycles, so record i can neither start
 *     before its decode slot nor before its operands; its result then
 *     lands its minimum cost later.
 *   - decode: the decode-slot count alone (every record, plus the
 *     taken-branch bubbles) — the paper's one-instruction-per-cycle
 *     issue ceiling.
 *   - dependence: the dependence critical path alone (the PR 2 bound's
 *     first component).
 *   - fu:<class>: dynamic operations of a functional-unit class divided
 *     by the configured unit count (UarchConfig::fuCount). Units are
 *     fully pipelined with initiation interval one, so N ops on m units
 *     need ceil(N/m) distinct initiation cycles after the class's first
 *     decode slot, plus the cheapest class member's drain.
 *   - bus: every non-store operation broadcasts on a result bus;
 *     resultBuses deliveries fit per cycle and none can land before
 *     cycle 2.
 *   - commit: stores and register writers occupy commit slots,
 *     commitWidth per cycle, none before cycle 2.
 *
 * sim::Experiment asserts cycles >= resourceBound(...).cycles on every
 * run it executes; oracle::verify and the benches report %Limit against
 * it; sim::sweepPoolSize uses it to derive dominated sweep points
 * without simulating them.
 *
 * Alongside the certified bound, the analyzer computes a fast
 * analytical *estimate* in the style of Carroll & Lin's M/M/m queueing
 * model of functional-unit and issue-queue configuration: per-class
 * Erlang-C waiting inflates the certified bound, and Little's law
 * yields the expected issue-queue occupancy. The estimate is reported
 * and cross-validated (ruusim analyze, bench/BENCH_bounds.json) but
 * never asserted.
 */

#ifndef RUU_LINT_RESOURCE_BOUND_HH
#define RUU_LINT_RESOURCE_BOUND_HH

#include <array>
#include <cstdint>
#include <string>

#include "lint/dataflow_bound.hh"
#include "trace/trace.hh"
#include "uarch/config.hh"

namespace ruu::lint
{

/** Which structural resource a ResourceBound is limited by. */
enum class BoundResource : std::uint8_t
{
    Dependence, //!< the dependence critical path alone
    Decode,     //!< decode slots + taken-branch bubbles alone
    Schedule,   //!< the mixed decode x dependence path (neither alone)
    FuClass,    //!< a functional-unit class service floor
    ResultBus,  //!< result-bus bandwidth
    Commit,     //!< commit bandwidth
    NumResources,
};

/** Printable resource name ("dependence", "decode", "fu", ...). */
const char *boundResourceName(BoundResource resource);

/** Every floor of one resource bound, for reporting. */
struct BoundBreakdown
{
    /** Dependence critical path alone (PR 2's critPathCycles + 1). */
    std::uint64_t dependence = 0;

    /** Decode slots (every record) plus taken-branch bubbles. */
    std::uint64_t decode = 0;

    /** Unified decode x dependence critical path; >= both above. */
    std::uint64_t schedule = 0;

    /** Per-class service floors; 0 for classes with no operations. */
    std::array<std::uint64_t, kNumFuKinds> fuClass{};

    /** Result-bus bandwidth floor. */
    std::uint64_t resultBus = 0;

    /** Commit bandwidth floor. */
    std::uint64_t commit = 0;

    /** The resource whose floor equals the certified bound. */
    BoundResource binding = BoundResource::Dependence;

    /** The binding class when binding == FuClass. */
    FuKind bindingFu = FuKind::None;
};

/** The resource-aware lower bound of one trace under one config. */
struct ResourceBound
{
    /** Certified lower bound on any core's cycle count (max floor). */
    std::uint64_t cycles = 0;

    /** Every floor and the binding resource. */
    BoundBreakdown breakdown;

    /** The PR 2 dependence-only bound, for tightness comparison. */
    DataflowBound dataflow;

    /**
     * Carroll & Lin-style M/M/m estimate of the achievable cycle
     * count: certified bound plus per-class Erlang-C queueing delay.
     * Reported and cross-validated, never asserted.
     */
    double estimateCycles = 0.0;

    /**
     * Expected in-flight operations (Little's law over the per-class
     * service + queueing times): the analytical issue-queue occupancy
     * the estimate implies. Compare against poolEntries.
     */
    double estimateOccupancy = 0.0;

    /** The bound as a percentage of an observed cycle count. */
    double pctOfLimit(std::uint64_t observedCycles) const
    {
        return observedCycles ? 100.0 * static_cast<double>(cycles) /
                                    static_cast<double>(observedCycles)
                              : 0.0;
    }

    /** Binding resource as text: "dependence", "fu:memory", ... */
    std::string bindingName() const;
};

/**
 * Compute the resource bound of @p trace under @p config. Linear in
 * trace length. The result is always >= dataflowBound(...).cycles.
 */
ResourceBound resourceBound(const Trace &trace,
                            const UarchConfig &config);

/**
 * Memoized resourceBound, kept among the trace's artifacts
 * (trace/trace.hh) under every configuration field the floors read:
 * fuLatency, fuCount, forwardLatency, storeLatency, resultBuses,
 * commitWidth, and the branch penalties. Invariant across pool-size
 * sweep points, so sweeps share one computation per trace.
 * Thread-safe; the returned reference is valid while the trace lives
 * and is not appended to.
 */
const ResourceBound &cachedResourceBound(const Trace &trace,
                                         const UarchConfig &config);

/**
 * Counters of cachedResourceBound since process start. Like
 * boundCacheStats(), the counters are process-global: concurrent
 * lookups from a parallel sweep all count, so tests must assert on
 * deltas, not absolute values.
 */
BoundCacheStats resourceBoundCacheStats();

} // namespace ruu::lint

#endif // RUU_LINT_RESOURCE_BOUND_HH
