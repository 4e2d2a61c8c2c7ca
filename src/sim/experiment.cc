#include "sim/experiment.hh"

#include <algorithm>

#include "common/logging.hh"
#include "lint/resource_bound.hh"
#include "sim/json.hh"

namespace ruu
{

RunResult
runOneWorkload(Core &core, const Workload &workload,
               const UarchConfig &config, const RunOptions &options)
{
    RunResult run = core.run(workload.trace(), options);
    if (run.interrupted)
        ruu_fatal("workload '%s' unexpectedly interrupted on %s",
                  workload.name.c_str(), core.name());
    if (!matchesFunctional(run, workload.func) ||
        run.instructions != workload.trace().size())
        ruu_fatal("workload '%s' committed wrong state on %s "
                  "(simulator bug)",
                  workload.name.c_str(), core.name());
    // No issue mechanism can beat the program's dataflow or its
    // structural floors: a cycle count below the certified resource
    // bound means the core (or the bound) is broken, and the tables
    // must not be printed from it. The bound is invariant across
    // pool-size sweep points, so it comes from the trace's memo.
    const lint::ResourceBound &bound =
        lint::cachedResourceBound(workload.trace(), config);
    if (run.cycles < bound.cycles)
        ruu_fatal("workload '%s' on %s finished in %llu cycles, "
                  "below its %s-bound resource lower bound of %llu "
                  "(simulator bug)",
                  workload.name.c_str(), core.name(),
                  static_cast<unsigned long long>(run.cycles),
                  bound.bindingName().c_str(),
                  static_cast<unsigned long long>(bound.cycles));
    return run;
}

Core &
SuiteArena::core(CoreKind kind, const UarchConfig &config)
{
    std::string signature =
        std::string(coreKindName(kind)) + configToJson(config);
    if (!_core || signature != _signature) {
        _core = makeCore(kind, config);
        _signature = std::move(signature);
    }
    return *_core;
}

AggregateResult
runSuite(CoreKind kind, const UarchConfig &config,
         const std::vector<Workload> &workloads, par::Pool *pool)
{
    std::vector<SuiteArena> arenas(pool ? pool->workers() : 1);
    return par::mapReduce<AggregateResult>(
        pool, workloads.size(), AggregateResult{},
        [&](std::size_t job, unsigned worker) {
            RunResult run = runOneWorkload(
                arenas[worker].core(kind, config), workloads[job], config);
            return AggregateResult{run.cycles, run.instructions};
        },
        [](AggregateResult &total, const AggregateResult &one,
           std::size_t) {
            total.cycles += one.cycles;
            total.instructions += one.instructions;
        });
}

namespace
{

/** One workload's pass over every sweep size. */
struct WorkloadSweep
{
    std::vector<AggregateResult> bySize;
    std::vector<char> simulated;
};

/** Accumulated per-size totals plus simulation counts. */
struct SweepTotals
{
    std::vector<AggregateResult> totals;
    std::vector<std::size_t> simulated;
};

} // namespace

std::vector<SweepPoint>
sweepPoolSize(CoreKind kind, UarchConfig config,
              const std::vector<unsigned> &sizes,
              const std::vector<Workload> &workloads,
              Cycle baseline_cycles, par::Pool *pool,
              const SweepOptions &options)
{
    // One job per workload, sizes processed in order inside the job:
    // pruning decisions depend only on that workload's own results, so
    // they are identical at any worker count. Reduction is in workload
    // order, keeping the totals byte-identical to a serial sweep.
    bool prune = options.prune &&
                 std::is_sorted(sizes.begin(), sizes.end()) &&
                 std::adjacent_find(sizes.begin(), sizes.end()) ==
                     sizes.end();
    std::vector<SuiteArena> arenas(pool ? pool->workers() : 1);

    SweepTotals init;
    init.totals.resize(sizes.size());
    init.simulated.assign(sizes.size(), 0);
    SweepTotals reduced = par::mapReduce<WorkloadSweep, SweepTotals>(
        pool, workloads.size(), std::move(init),
        [&](std::size_t job, unsigned worker) {
            const Workload &workload = workloads[job];
            WorkloadSweep sweep;
            sweep.bySize.resize(sizes.size());
            sweep.simulated.assign(sizes.size(), 0);
            // The certified bound is invariant across pool sizes; one
            // cached computation serves the whole row.
            const lint::ResourceBound &bound =
                lint::cachedResourceBound(workload.trace(), config);
            bool derive = false;
            AggregateResult last;
            for (std::size_t s = 0; s < sizes.size(); ++s) {
                if (derive) {
                    sweep.bySize[s] = last;
                    continue;
                }
                UarchConfig point_config = config;
                point_config.poolEntries = sizes[s];
                RunResult run = runOneWorkload(
                    arenas[worker].core(kind, point_config), workload,
                    point_config);
                AggregateResult one{run.cycles, run.instructions};
                sweep.bySize[s] = one;
                sweep.simulated[s] = 1;
                if (prune) {
                    // Floor hit: the measurement equals the certified
                    // lower bound, so no larger pool can improve it.
                    // Plateau: two consecutive sizes agreed exactly;
                    // the sweep has saturated.
                    if (one.cycles == bound.cycles ||
                        (s > 0 && sweep.simulated[s - 1] &&
                         sweep.bySize[s - 1].cycles == one.cycles)) {
                        derive = true;
                    }
                }
                last = one;
            }
            return sweep;
        },
        [](SweepTotals &acc, const WorkloadSweep &one, std::size_t) {
            for (std::size_t s = 0; s < acc.totals.size(); ++s) {
                acc.totals[s].cycles += one.bySize[s].cycles;
                acc.totals[s].instructions += one.bySize[s].instructions;
                acc.simulated[s] += one.simulated[s];
            }
        });

    std::vector<SweepPoint> points;
    points.reserve(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        SweepPoint point;
        point.entries = sizes[i];
        point.total = reduced.totals[i];
        point.speedup = point.total.speedupOver(baseline_cycles);
        point.simulated = reduced.simulated[i];
        point.derived = reduced.simulated[i] == 0;
        points.push_back(point);
    }
    return points;
}

} // namespace ruu
