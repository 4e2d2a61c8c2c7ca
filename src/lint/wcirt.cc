#include "lint/wcirt.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "lint/cfg.hh"

namespace ruu::lint
{

namespace
{

std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return b ? (a + b - 1) / b : a;
}

/** a + b with kWcirtUnbounded absorbing. */
std::uint64_t
satAdd(std::uint64_t a, std::uint64_t b)
{
    if (a == kWcirtUnbounded || b == kWcirtUnbounded)
        return kWcirtUnbounded;
    if (a > kWcirtUnbounded - b)
        return kWcirtUnbounded;
    return a + b;
}

/** a * b with kWcirtUnbounded absorbing. */
std::uint64_t
satMul(std::uint64_t a, std::uint64_t b)
{
    if (a == 0 || b == 0)
        return 0;
    if (a == kWcirtUnbounded || b == kWcirtUnbounded)
        return kWcirtUnbounded;
    if (a > kWcirtUnbounded / b)
        return kWcirtUnbounded;
    return a * b;
}

/** Deepest functional-unit latency any operation can occupy. */
std::uint64_t
deepestLatency(const UarchConfig &config)
{
    std::uint64_t deepest = 1;
    for (unsigned lat : config.fuLatency)
        deepest = std::max<std::uint64_t>(deepest, lat);
    deepest = std::max<std::uint64_t>(deepest, config.storeLatency);
    deepest = std::max<std::uint64_t>(deepest, config.forwardLatency);
    return deepest;
}

/** Worst decode-dead cycles any scheme pays for a branch. */
std::uint64_t
worstBranchPenalty(const UarchConfig &config)
{
    return std::max({config.branchTakenPenalty,
                     config.branchUntakenPenalty,
                     config.predictedTakenPenalty,
                     config.mispredictPenalty});
}

/**
 * Serialized worst cost of one instruction: its decode slot, the
 * deepest unit it could occupy (plus a bank reservation when banks
 * are modeled), its result-bus delivery and commit slot, and the
 * worst branch penalty for branches. An execution that runs the
 * instruction *alone* finishes within this; summing it over a path
 * upper-bounds any pipelined execution of the path, because every
 * stall cycle of the pipelined run is attributable to some
 * instruction's slot in the serialized schedule.
 */
std::uint64_t
serializedInstCost(const Instruction &inst, const UarchConfig &config)
{
    std::uint64_t cost = 1; // the decode slot
    if (isBranch(inst.op)) {
        cost += worstBranchPenalty(config);
        return cost;
    }
    if (inst.op == Opcode::HALT || isNopLike(inst.op))
        return cost + 1;
    FuKind kind = isMemory(inst.op) ? FuKind::Memory : inst.fu();
    cost += config.latency(kind);
    if (isMemory(inst.op) && config.memoryBanks > 0)
        cost += config.bankBusyCycles;
    cost += 2; // result-bus delivery + commit slot
    return cost;
}

/**
 * In-flight window the scheme can hold when decode stops. The
 * interlocked in-order core issues at most one operation per cycle
 * and the oldest completes within the deepest latency, so its window
 * is the deepest latency itself; every buffered scheme is capped by
 * its buffer capacity plus the load registers that can hold memory
 * operations outside it. The +2 absorbs the instruction in decode and
 * the one at the commit point.
 */
std::uint64_t
schemeOccupancy(CoreKind kind, const UarchConfig &config)
{
    std::uint64_t window = 0;
    switch (kind) {
      case CoreKind::Simple:
        window = deepestLatency(config);
        break;
      case CoreKind::Tomasulo:
        window = static_cast<std::uint64_t>(config.rsPerFu) *
                 kNumFuKinds;
        break;
      case CoreKind::Rstu:
        window = config.tuEntries;
        break;
      case CoreKind::Ruu:
      case CoreKind::SpecRuu:
        window = config.poolEntries;
        break;
      case CoreKind::History:
        window = config.historyEntries;
        break;
    }
    if (kind != CoreKind::Simple)
        window += config.loadRegisters;
    return window + 2;
}

/** True when scheme @p kind surfaces synchronous faults precisely. */
bool
schemePrecise(CoreKind kind)
{
    switch (kind) {
      case CoreKind::Ruu:
      case CoreKind::SpecRuu:
      case CoreKind::History:
        return true;
      case CoreKind::Simple:
      case CoreKind::Tomasulo:
      case CoreKind::Rstu:
        return false;
    }
    return false;
}

/**
 * Worst drain of a full window of @p occupancy operations after the
 * decode stop: a dependence chain through the window is at most
 * occupancy deep, each link costing the deepest latency plus its bank
 * reservation; the drained results then serialize over the result
 * buses and the commit point. A resolving branch can add one worst
 * penalty, and the +8 absorbs the fixed pipeline stages around the
 * stop.
 */
std::uint64_t
drainCeiling(std::uint64_t occupancy, const UarchConfig &config)
{
    std::uint64_t per_op = deepestLatency(config) + 1;
    if (config.memoryBanks > 0)
        per_op += config.bankBusyCycles;
    std::uint64_t drain = satMul(occupancy, per_op);
    drain = satAdd(drain, ceilDiv(occupancy, config.resultBuses));
    drain = satAdd(drain, ceilDiv(occupancy, config.commitWidth));
    drain = satAdd(drain, worstBranchPenalty(config));
    return satAdd(drain, 8);
}

} // namespace

std::uint64_t
wcirtHandlerPathBound(const Program &handler, const UarchConfig &config)
{
    if (handler.empty())
        return kWcirtUnbounded;
    Cfg cfg = Cfg::build(handler);
    const std::size_t nb = cfg.size();

    // exitCost[b]: serialized cost of block b up to and including its
    // first RTI, or kWcirtUnbounded when b contains none. fullCost[b]:
    // the whole block (the cost of passing through).
    std::vector<std::uint64_t> exit_cost(nb, kWcirtUnbounded);
    std::vector<std::uint64_t> full_cost(nb, 0);
    for (std::size_t b = 0; b < nb; ++b) {
        const BasicBlock &block = cfg.blocks[b];
        std::uint64_t cost = 0;
        for (std::size_t i = block.first; i <= block.last; ++i) {
            cost += serializedInstCost(handler.inst(i), config);
            if (handler.inst(i).op == Opcode::RTI &&
                exit_cost[b] == kWcirtUnbounded) {
                exit_cost[b] = cost;
            }
        }
        full_cost[b] = cost;
    }

    // canReachRti[b]: some path from b reaches an RTI. Backward
    // fixpoint over the block graph.
    std::vector<char> can_reach(nb, 0);
    for (std::size_t b = 0; b < nb; ++b)
        can_reach[b] = exit_cost[b] != kWcirtUnbounded ? 1 : 0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t b = 0; b < nb; ++b) {
            if (can_reach[b])
                continue;
            for (std::size_t s : cfg.blocks[b].succs) {
                if (can_reach[s]) {
                    can_reach[b] = 1;
                    changed = true;
                    break;
                }
            }
        }
    }
    if (!cfg.blocks.empty() && !can_reach[0])
        return kWcirtUnbounded; // no RTI reachable from the entry

    // Longest entry-to-RTI path over the relevant subgraph R =
    // {reachable from entry} ∩ {can reach RTI}. Kahn's algorithm: a
    // cycle inside R means an unboundable path, so any R node left
    // unprocessed makes the bound infinite. Edges from a block
    // containing an RTI are still followed — the handler may branch
    // around its RTI — but the path *ends* at an RTI, so the answer
    // maxes over exit costs.
    std::vector<char> relevant(nb, 0);
    for (std::size_t b = 0; b < nb; ++b)
        relevant[b] = (cfg.blocks[b].reachable && can_reach[b]) ? 1 : 0;
    std::vector<std::size_t> indegree(nb, 0);
    for (std::size_t b = 0; b < nb; ++b) {
        if (!relevant[b])
            continue;
        for (std::size_t s : cfg.blocks[b].succs)
            if (relevant[s])
                ++indegree[s];
    }
    std::vector<std::uint64_t> dist(nb, 0); // cost to reach block start
    std::vector<std::size_t> ready;
    for (std::size_t b = 0; b < nb; ++b)
        if (relevant[b] && indegree[b] == 0)
            ready.push_back(b);
    std::size_t processed = 0;
    std::uint64_t best = 0;
    bool any_exit = false;
    while (!ready.empty()) {
        std::size_t b = ready.back();
        ready.pop_back();
        ++processed;
        if (exit_cost[b] != kWcirtUnbounded) {
            best = std::max(best, satAdd(dist[b], exit_cost[b]));
            any_exit = true;
        }
        for (std::size_t s : cfg.blocks[b].succs) {
            if (!relevant[s])
                continue;
            dist[s] = std::max(dist[s], satAdd(dist[b], full_cost[b]));
            if (--indegree[s] == 0)
                ready.push_back(s);
        }
    }
    std::size_t relevant_count = 0;
    for (std::size_t b = 0; b < nb; ++b)
        relevant_count += relevant[b];
    if (processed != relevant_count || !any_exit)
        return kWcirtUnbounded; // a cycle lies on an entry-to-RTI path
    return best;
}

std::uint64_t
wcirtTraceCeiling(const Trace &trace, const UarchConfig &config,
                  CoreKind kind)
{
    std::uint64_t total = 0;
    for (const TraceRecord &rec : trace.records())
        total = satAdd(total, serializedInstCost(rec.inst, config));
    return satAdd(total,
                  drainCeiling(schemeOccupancy(kind, config), config));
}

std::uint64_t
WcirtBound::responseCeiling() const
{
    if (breakdown.handler == kWcirtUnbounded)
        return kWcirtUnbounded;
    // Worst case: maxLevels-1 handler levels are in progress or become
    // pending ahead of this delivery, each finishing its handler path,
    // its RTI exchange and its one-instruction RTI shadow; then the
    // worst masked stretch of the interrupted code runs to its EINT,
    // and the delivery itself drains and exchanges.
    std::uint64_t unwind =
        satAdd(breakdown.handler,
               satAdd(exchangeCycles, breakdown.shadow));
    std::uint64_t levels = maxLevels > 0 ? maxLevels - 1 : 0;
    std::uint64_t ceiling = satMul(levels, unwind);
    ceiling = satAdd(ceiling, breakdown.shadow);
    ceiling = satAdd(ceiling, breakdown.maskedStretch);
    return satAdd(ceiling, cycles);
}

std::uint64_t
WcirtBound::segmentCeiling() const
{
    return satAdd(breakdown.segment, breakdown.cut);
}

WcirtBound
wcirtBound(const Trace &trace, const Program &handler,
           const UarchConfig &config, CoreKind kind,
           const WcirtParams &params)
{
    WcirtBound bound;
    bound.exchangeCycles = params.exchangeCycles;
    bound.maxLevels = params.maxLevels;
    WcirtBreakdown &bd = bound.breakdown;

    bd.occupancy = schemeOccupancy(kind, config);
    bd.perOpDrain = deepestLatency(config) + 1 +
                    (config.memoryBanks > 0 ? config.bankBusyCycles : 0);
    bd.drain = drainCeiling(bd.occupancy, config);
    bd.restart = schemePrecise(kind) ? 0 : bd.drain;
    bd.cut = satAdd(bd.drain, bd.restart);
    bound.cycles = satAdd(bd.cut, params.exchangeCycles);

    bd.handlerPath = wcirtHandlerPathBound(handler, config);
    bd.handler = satAdd(bd.handlerPath, bd.drain);

    // Worst single-record serialized cost: the RTI shadow instruction
    // the controller lets through after a return.
    std::uint64_t worst_record = 0;
    std::uint64_t segment = 0;
    std::uint64_t masked = 0;       // current DINT..EINT stretch
    std::uint64_t worst_masked = 0;
    bool in_window = false;
    for (const TraceRecord &rec : trace.records()) {
        std::uint64_t cost = serializedInstCost(rec.inst, config);
        worst_record = std::max(worst_record, cost);
        segment = satAdd(segment, cost);
        if (rec.inst.op == Opcode::DINT) {
            in_window = true;
            masked = 0;
        }
        if (in_window) {
            masked = satAdd(masked, cost);
            worst_masked = std::max(worst_masked, masked);
        }
        if (rec.inst.op == Opcode::EINT)
            in_window = false;
    }
    bd.shadow = satAdd(worst_record, 2);
    // A masked stretch delays the cut by its own serialized execution
    // on top of the in-flight drain already counted in `cut`.
    bd.maskedStretch = worst_masked;
    bd.segment = segment;

    ruu_assert(bound.cycles != kWcirtUnbounded,
               "delivery ceiling must be finite");
    return bound;
}

namespace
{

ArtifactCounters wcirtCounters;

} // namespace

const WcirtBound &
cachedWcirtBound(const Trace &trace, const Program &handler,
                 const UarchConfig &config, CoreKind kind,
                 const WcirtParams &params)
{
    std::vector<std::uint64_t> fields(config.fuLatency.begin(),
                                      config.fuLatency.end());
    fields.insert(
        fields.end(),
        {programContentHash(handler), static_cast<std::uint64_t>(kind),
         params.exchangeCycles, params.maxLevels, config.forwardLatency,
         config.storeLatency, config.resultBuses, config.commitWidth,
         config.memoryBanks, config.bankBusyCycles,
         config.branchTakenPenalty, config.branchUntakenPenalty,
         config.predictedTakenPenalty, config.mispredictPenalty,
         config.poolEntries, config.tuEntries, config.rsPerFu,
         config.historyEntries, config.loadRegisters});
    return *trace.artifacts().get<WcirtBound>(
        std::move(fields), wcirtCounters,
        [&] { return wcirtBound(trace, handler, config, kind, params); });
}

BoundCacheStats
wcirtBoundCacheStats()
{
    return {wcirtCounters.lookups.load(), wcirtCounters.hits.load()};
}

} // namespace ruu::lint
