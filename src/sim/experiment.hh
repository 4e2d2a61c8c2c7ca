/**
 * @file
 * Experiment-sweep helpers used by the paper-reproduction benches:
 * run a set of workloads through a core configuration and aggregate
 * cycles/instructions the way the paper does (totals over all loops,
 * speedups relative to the simple issue mechanism).
 */

#ifndef RUU_SIM_EXPERIMENT_HH
#define RUU_SIM_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "par/pool.hh"
#include "sim/machine.hh"

namespace ruu
{

/** Aggregate outcome of running many workloads on one configuration. */
struct AggregateResult
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;

    /** Instructions per cycle over the whole suite. */
    double issueRate() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** Speedup of this configuration relative to @p baseline cycles. */
    double speedupOver(Cycle baseline) const
    {
        return cycles ? static_cast<double>(baseline) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/** One row of a pool-size sweep. */
struct SweepPoint
{
    unsigned entries = 0;   //!< pool/RUU size
    AggregateResult total;  //!< suite aggregate at this size
    double speedup = 0.0;   //!< vs the provided baseline cycles

    /** Workload simulations actually run at this size (vs derived). */
    std::size_t simulated = 0;

    /** True when every workload's value was derived, none simulated. */
    bool derived = false;
};

/** Knobs of sweepPoolSize. */
struct SweepOptions
{
    /**
     * Bound-guided pruning: per workload, once a simulated point hits
     * its certified resource bound (lint/resource_bound.hh) — no
     * larger pool can beat a lower bound — or two consecutive sizes
     * produce identical aggregates (the size sweep has plateaued),
     * derive every remaining size from the last simulated value
     * instead of simulating it. Points actually simulated are
     * byte-identical to an unpruned sweep (same jobs, same configs);
     * scripts/ci_analyze_smoke.sh additionally gates that the derived
     * values match the unpruned simulations. Requires strictly
     * increasing sizes; pruning silently disables itself otherwise.
     */
    bool prune = false;
};

/**
 * Reusable per-worker simulation state: one core, rebuilt only when
 * the (kind, config) identity changes between jobs. Cores carry their
 * pipeline structures and an 8 MiB memory image; re-running a core is
 * free of those allocations, so a worker that processes a run of jobs
 * with the same configuration pays the construction cost once. Cores
 * reset completely between runs (the serial suites have always reused
 * one core across all 14 workloads), so reuse never changes results.
 */
class SuiteArena
{
  public:
    /** The arena's core for (@p kind, @p config), built on demand. */
    Core &core(CoreKind kind, const UarchConfig &config);

  private:
    std::string _signature;
    std::unique_ptr<Core> _core;
};

/**
 * Run @p workload on @p core (configured by @p config) and verify the
 * run as every table run is verified; fatal when it is interrupted,
 * commits other than the functional state or instruction count, or
 * finishes below its certified resource bound
 * (lint/resource_bound.hh) — the benches must never report numbers
 * from a broken simulation.
 */
RunResult runOneWorkload(Core &core, const Workload &workload,
                         const UarchConfig &config,
                         const RunOptions &options = {});

/**
 * Run every workload on a core of @p kind configured by @p config;
 * fatal when any run fails value verification against its functional
 * execution (the benches must never report numbers from a broken
 * simulation). With a multi-worker @p pool the workloads run
 * concurrently (one arena-cached core per worker) and the aggregate is
 * reduced in workload order — identical to the serial result.
 */
AggregateResult runSuite(CoreKind kind, const UarchConfig &config,
                         const std::vector<Workload> &workloads,
                         par::Pool *pool = nullptr);

/**
 * Sweep `config.poolEntries` over @p sizes. With a multi-worker
 * @p pool the workloads run concurrently, each processing its sizes in
 * order (pruning decisions are per-workload and scheduling-
 * independent); reduction is in workload order, so the points are
 * byte-identical to a serial sweep at any worker count.
 * @param baseline_cycles cycles of the simple issue mechanism on the
 *        same workloads (denominator of the paper's relative speedup).
 */
std::vector<SweepPoint> sweepPoolSize(CoreKind kind, UarchConfig config,
                                      const std::vector<unsigned> &sizes,
                                      const std::vector<Workload> &workloads,
                                      Cycle baseline_cycles,
                                      par::Pool *pool = nullptr,
                                      const SweepOptions &options = {});

} // namespace ruu

#endif // RUU_SIM_EXPERIMENT_HH
