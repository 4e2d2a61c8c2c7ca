/**
 * @file
 * Static dataflow-bound analysis: a certified lower bound on the cycle
 * count of *any* of the modeled issue mechanisms for a given trace.
 *
 * The analyzer builds the dynamic dependence graph of a trace —
 * register RAW edges through the last writer of each register, plus
 * memory edges from a store to later loads of the same word — and
 * weights each node with the *minimum* latency any core could achieve
 * for it (forwarded-load latency for loads, zero for stores and
 * effect-free instructions, the functional-unit latency otherwise).
 * The longest path through that graph is the dataflow limit the paper's
 * issue-logic comparison is chasing: no amount of issue logic can beat
 * the dependences in the program.
 *
 * Two results follow:
 *
 *   - a soundness oracle: every timing core must report
 *     cycles >= bound.cycles, and sim::Experiment enforces that on
 *     every run it executes;
 *   - a figure of merit: bound.cycles / run.cycles ("% of dataflow
 *     limit") says how close each mechanism comes to pure dataflow
 *     execution, complementing the paper's issue-rate tables.
 *
 * The bound also includes the decode floor: the machines decode at most
 * one instruction per cycle, so a trace with N non-branch instructions
 * needs at least N cycles regardless of dependences. (Branches are
 * excluded: a zero-penalty branch can share its decode cycle.)
 */

#ifndef RUU_LINT_DATAFLOW_BOUND_HH
#define RUU_LINT_DATAFLOW_BOUND_HH

#include <cstdint>

#include "common/types.hh"
#include "trace/trace.hh"
#include "uarch/config.hh"

namespace ruu::lint
{

/** The dataflow lower bound of one trace under one configuration. */
struct DataflowBound
{
    /** Certified lower bound on any core's cycle count. */
    std::uint64_t cycles = 0;

    /** Length of the dependence critical path alone, in cycles. */
    std::uint64_t critPathCycles = 0;

    /** Dynamic instruction ending the critical path (for reporting). */
    SeqNum critTail = kNoSeqNum;

    /** Number of dynamic instructions on the critical path. */
    std::size_t critLength = 0;

    /** Decode floor: dynamic non-branch instructions. */
    std::uint64_t decodeFloor = 0;

    /** The bound as a percentage of an observed cycle count. */
    double pctOfLimit(std::uint64_t observedCycles) const
    {
        return observedCycles ? 100.0 * static_cast<double>(cycles) /
                                    static_cast<double>(observedCycles)
                              : 0.0;
    }
};

/**
 * Compute the dataflow bound of @p trace under @p config.
 * Linear in trace length; memory edges resolve through the trace's
 * recorded addresses.
 */
DataflowBound dataflowBound(const Trace &trace,
                            const UarchConfig &config);

/**
 * The cheapest any mechanism could execute @p record: forwarded-load
 * latency for loads, nothing for stores (the data just has to be
 * ready), nothing for branches/NOP/HALT (they resolve in the issue
 * stage), the functional-unit latency otherwise. Shared by the
 * dataflow bound above and the resource bound
 * (lint/resource_bound.hh).
 */
std::uint64_t minRecordCost(const TraceRecord &record,
                            const UarchConfig &config);

/** Hit/lookup counters of one bound memo, summed over every trace. */
struct BoundCacheStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
};

/**
 * Memoized dataflowBound. The bound depends only on the trace and the
 * latency-related configuration fields (fuLatency, forwardLatency) —
 * it is invariant across pool-size sweep points — so the sweep drivers
 * share one computation per (trace, latency profile) instead of
 * recomputing it at every point. Kept among the trace's artifacts
 * (trace/trace.hh) under those fields. Thread-safe; the returned
 * reference is valid while the trace lives and is not appended to.
 */
const DataflowBound &cachedDataflowBound(const Trace &trace,
                                         const UarchConfig &config);

/** Counters of cachedDataflowBound since process start. */
BoundCacheStats boundCacheStats();

/**
 * Cheap sampled fingerprint of @p trace (FNV-1a over the pc, address
 * and static index of up to 64 evenly spaced records; never the
 * instruction). No memo keys on it any more: the bounds belong to
 * their trace. Kept for perfbench's traced serve replay.
 */
std::uint64_t boundTraceFingerprint(const Trace &trace);

} // namespace ruu::lint

#endif // RUU_LINT_DATAFLOW_BOUND_HH
