#include "trap/storm.hh"

#include "common/logging.hh"
#include "trap/handlers.hh"
#include "trap/interrupt_source.hh"

namespace ruu::trap
{

namespace
{

/** The cell's controller configuration: oracle on, trap area fitted. */
TrapConfig
stormConfig(const Trace &trace)
{
    TrapConfig config;
    config.checkOracle = true;
    fitTrapMemory(config, trace);
    // Pinned, so the controller's WCIRT bound lookup and the cell's
    // pruning decision share one cache entry.
    config.handler = std::make_shared<const Program>(counterHandler());
    return config;
}

const lint::WcirtBound &
stormBound(const Trace &trace, const TrapConfig &config,
           const UarchConfig &uarch, CoreKind kind)
{
    lint::WcirtParams params;
    params.exchangeCycles = config.exchangeCycles;
    params.maxLevels = config.layout.maxLevels;
    return lint::cachedWcirtBound(trace, *config.handler, uarch, kind,
                                  params);
}

/** @p part as a percentage of @p whole (0 when @p whole is 0). */
double
percent(double part, double whole)
{
    return whole ? 100.0 * part / whole : 0.0;
}

} // namespace

double
StormRun::degradationPct() const
{
    return percent(static_cast<double>(result.cycles) -
                       static_cast<double>(baselineCycles),
                   static_cast<double>(baselineCycles));
}

double
StormRun::pctCeiling() const
{
    return percent(static_cast<double>(result.maxDeliveryLatency),
                   static_cast<double>(result.wcirtCeiling));
}

StormCell::StormCell(const Workload &workload, CoreKind kind,
                     const UarchConfig &config)
    : _workload(workload), _kind(kind),
      _config(stormConfig(workload.trace())),
      _core(makeCore(kind, config)),
      _baseline(_core->run(workload.trace())),
      _bound(stormBound(workload.trace(), _config, config, kind))
{
}

StormRun
StormCell::run(Cycle period, bool prune)
{
    StormRun out;
    out.period = period;
    out.baselineCycles = _baseline.cycles;
    // kWcirtUnbounded never satisfies the >.
    if (prune && period > _bound.segmentCeiling()) {
        out.pruned = true;
        out.result.completed = true;
        out.result.cycles = _baseline.cycles;
        out.result.instructions = _baseline.instructions;
        out.result.wcirtCeiling = _bound.cycles;
        return out;
    }
    TrapController controller(*_core, _config);
    out.result = controller.run(_workload.trace(),
                                InterruptSource::periodic(period, 1));
    out.failure = checkStormRun(_workload.program, _config, out.result);
    return out;
}

std::string
StormCell::json(const StormRun &run) const
{
    const TrapRunResult &res = run.result;
    return detail::vformat(
        "{\"workload\": \"%s\", \"core\": \"%s\", "
        "\"k\": %llu, \"deliveries\": %zu, "
        "\"handler_mean_cycles\": %.2f, "
        "\"handler_max_cycles\": %llu, "
        "\"cycles\": %llu, \"baseline_cycles\": %llu, "
        "\"degradation_pct\": %.2f, \"wcirt\": %llu, "
        "\"max_delivery_latency\": %llu, "
        "\"pct_ceiling\": %.2f, \"ok\": %s, \"pruned\": %s}",
        _workload.name.c_str(), coreKindName(_kind),
        static_cast<unsigned long long>(run.period),
        res.deliveries.size(), res.meanHandlerCycles(),
        static_cast<unsigned long long>(res.maxHandlerCycles()),
        static_cast<unsigned long long>(res.cycles),
        static_cast<unsigned long long>(run.baselineCycles),
        run.degradationPct(),
        static_cast<unsigned long long>(res.wcirtCeiling),
        static_cast<unsigned long long>(res.maxDeliveryLatency),
        run.pctCeiling(), run.ok() ? "true" : "false",
        run.pruned ? "true" : "false");
}

std::string
checkStormRun(const std::shared_ptr<const Program> &program,
              const TrapConfig &config, const TrapRunResult &res)
{
    if (!res.ok()) {
        if (!res.error.empty())
            return res.error;
        if (!res.oracleFailure.empty())
            return res.oracleFailure;
        return "the program did not run to HALT";
    }
    ReplayResult replay =
        replayFunctional(program, config, res.deliveries);
    if (!replay.ok)
        return replay.error;
    if (replay.state != res.state || replay.memory != res.memory ||
        replay.trapRegs != res.trapRegs)
        return "timing run and functional replay disagree on the final "
               "state";
    return {};
}

} // namespace ruu::trap
