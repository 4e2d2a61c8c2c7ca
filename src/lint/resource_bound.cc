#include "lint/resource_bound.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.hh"
#include "isa/reg.hh"

namespace ruu::lint
{

namespace
{

std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return b ? (a + b - 1) / b : a;
}

/**
 * Decode-dead cycles every mechanism pays after a taken branch, beyond
 * the branch's own decode slot. The in-order cores stall decode for
 * branchTakenPenalty cycles from the branch's decode (one of which is
 * the shared slot); the speculative core pays predictedTakenPenalty
 * after the slot on a correct prediction and mispredictPenalty from
 * resolution otherwise. The floor takes the cheapest.
 */
unsigned
takenBranchBubble(const UarchConfig &config)
{
    unsigned taken = config.branchTakenPenalty > 0
                         ? config.branchTakenPenalty - 1
                         : 0;
    unsigned mispredict = config.mispredictPenalty > 0
                              ? config.mispredictPenalty - 1
                              : 0;
    return std::min({taken, config.predictedTakenPenalty, mispredict});
}

/** True when @p op occupies a functional-unit initiation slot. */
bool
usesFunctionalUnit(Opcode op)
{
    return !isBranch(op) && !isNopLike(op) && op != Opcode::HALT;
}

/** Dispatch class of @p inst: all memory traffic shares the one port. */
FuKind
dispatchClass(const Instruction &inst)
{
    return isMemory(inst.op) ? FuKind::Memory : inst.fu();
}

/**
 * Erlang-C probability that an arrival to an M/M/m queue with offered
 * load @p a (= lambda * service) waits. Valid for a < m.
 */
double
erlangC(unsigned m, double a)
{
    double term = 1.0; // a^k / k!
    double sum = 1.0;  // sum over k < m
    for (unsigned k = 1; k < m; ++k) {
        term *= a / k;
        sum += term;
    }
    term *= a / m;                      // a^m / m!
    double wait = term * m / (m - a);   // the waiting-state term
    return wait / (sum + wait);
}

} // namespace

const char *
boundResourceName(BoundResource resource)
{
    switch (resource) {
      case BoundResource::Dependence: return "dependence";
      case BoundResource::Decode: return "decode";
      case BoundResource::Schedule: return "schedule";
      case BoundResource::FuClass: return "fu";
      case BoundResource::ResultBus: return "bus";
      case BoundResource::Commit: return "commit";
      case BoundResource::NumResources: break;
    }
    return "?";
}

std::string
ResourceBound::bindingName() const
{
    if (breakdown.binding == BoundResource::FuClass) {
        return std::string("fu:") + fuKindName(breakdown.bindingFu);
    }
    return boundResourceName(breakdown.binding);
}

ResourceBound
resourceBound(const Trace &trace, const UarchConfig &config)
{
    ResourceBound bound;
    bound.dataflow = dataflowBound(trace, config);

    const auto &records = trace.records();
    if (records.empty())
        return bound;

    BoundBreakdown &bd = bound.breakdown;
    bd.dependence = bound.dataflow.critPathCycles + 1;

    const unsigned bubble = takenBranchBubble(config);
    std::uint64_t bubbles = 0; // taken-branch dead cycles so far

    // Unified decode x dependence path: finish times through the last
    // writer of each register and the last store to each word, with
    // every node's start also held back to its decode slot.
    std::array<std::uint64_t, kNumArchRegs> regFinish{};
    std::unordered_map<Addr, std::uint64_t> storedWords;

    struct ClassStats
    {
        std::uint64_t count = 0;
        std::uint64_t firstPos = 0;
        std::uint64_t minCost = 0;
        std::uint64_t sumCost = 0;
    };
    std::array<ClassStats, kNumFuKinds> classes{};
    std::uint64_t busUses = 0;
    std::uint64_t commitSlots = 0;
    std::uint64_t pos = 0;

    for (SeqNum seq = 0; seq < records.size(); ++seq) {
        const TraceRecord &rec = records[seq];
        const Instruction &inst = rec.inst;
        // Every core decodes at most one record per cycle, the first
        // no earlier than cycle 1, with `bubbles` dead cycles injected
        // by the taken branches decoded so far.
        pos = seq + 1 + bubbles;
        std::uint64_t cost = minRecordCost(rec, config);

        std::uint64_t ready = pos;
        for (RegId src : inst.rawSrcs()) {
            if (src.valid())
                ready = std::max(ready, regFinish[src.flat()]);
        }
        if (isLoad(inst.op)) {
            auto it = storedWords.find(rec.memAddr);
            if (it != storedWords.end())
                ready = std::max(ready, it->second);
        }
        std::uint64_t finish = ready + cost;
        if (inst.dst.valid())
            regFinish[inst.dst.flat()] = finish;
        if (isStore(inst.op))
            storedWords[rec.memAddr] = finish;
        bd.schedule = std::max(bd.schedule, finish);

        if (usesFunctionalUnit(inst.op)) {
            ClassStats &cls =
                classes[static_cast<unsigned>(dispatchClass(inst))];
            if (cls.count == 0) {
                cls.firstPos = pos;
                cls.minCost = cost;
            }
            ++cls.count;
            cls.minCost = std::min(cls.minCost, cost);
            cls.sumCost += cost;
            if (!isStore(inst.op))
                ++busUses;
        }
        if (isStore(inst.op) || inst.dst.valid())
            ++commitSlots;

        if (isBranch(inst.op) && rec.taken)
            bubbles += bubble;
    }

    bd.decode = pos;
    for (unsigned i = 0; i < kNumFuKinds; ++i) {
        const ClassStats &cls = classes[i];
        if (cls.count == 0)
            continue;
        // N initiations on m fully pipelined units need ceil(N/m)
        // distinct cycles, starting no earlier than the class's first
        // decode slot; the last one drains at least the cheapest class
        // member's latency.
        bd.fuClass[i] =
            cls.firstPos +
            (ceilDiv(cls.count, config.fuCount[i]) - 1) + cls.minCost;
    }
    if (busUses) {
        // Deliveries start no earlier than cycle 2 (decode slot 1 plus
        // a latency of at least one), resultBuses of them per cycle.
        bd.resultBus = ceilDiv(busUses, config.resultBuses) + 1;
    }
    if (commitSlots) {
        bd.commit = ceilDiv(commitSlots, config.commitWidth) + 1;
    }

    std::uint64_t fuMax = 0;
    FuKind fuMaxKind = FuKind::None;
    for (unsigned i = 0; i < kNumFuKinds; ++i) {
        if (bd.fuClass[i] > fuMax) {
            fuMax = bd.fuClass[i];
            fuMaxKind = static_cast<FuKind>(i);
        }
    }

    bound.cycles = std::max({bd.schedule, fuMax, bd.resultBus,
                             bd.commit});
    ruu_assert(bound.cycles >= bound.dataflow.cycles,
               "resource bound %llu below dataflow bound %llu",
               static_cast<unsigned long long>(bound.cycles),
               static_cast<unsigned long long>(bound.dataflow.cycles));

    // Binding resource: the simplest explanation that reaches the max.
    if (bound.cycles == bd.dependence) {
        bd.binding = BoundResource::Dependence;
    } else if (bound.cycles == bd.decode) {
        bd.binding = BoundResource::Decode;
    } else if (bound.cycles == bd.schedule) {
        bd.binding = BoundResource::Schedule;
    } else if (bound.cycles == fuMax) {
        bd.binding = BoundResource::FuClass;
        bd.bindingFu = fuMaxKind;
    } else if (bound.cycles == bd.resultBus) {
        bd.binding = BoundResource::ResultBus;
    } else {
        bd.binding = BoundResource::Commit;
    }

    // Carroll & Lin-style M/M/m estimate: treat each class's
    // initiations as Poisson arrivals over the certified horizon into
    // m pipelined servers (service = one initiation cycle); Erlang-C
    // waiting inflates the bound, and Little's law over the real
    // service times gives the implied issue-queue occupancy.
    double horizon = static_cast<double>(bound.cycles);
    double wait_cycles = 0.0;
    double occupancy = 0.0;
    for (unsigned i = 0; i < kNumFuKinds; ++i) {
        const ClassStats &cls = classes[i];
        if (cls.count == 0)
            continue;
        unsigned m = config.fuCount[i];
        double lambda = static_cast<double>(cls.count) / horizon;
        double a = lambda; // offered load, one-cycle initiations
        double wq = a < static_cast<double>(m)
                        ? erlangC(m, a) / (static_cast<double>(m) - a)
                        : horizon;
        wait_cycles += static_cast<double>(cls.count) * wq;
        double mean_service = static_cast<double>(cls.sumCost) /
                              static_cast<double>(cls.count);
        occupancy += lambda * (mean_service + wq);
    }
    bound.estimateCycles = horizon + wait_cycles;
    bound.estimateOccupancy = occupancy;
    return bound;
}

namespace
{

ArtifactCounters resourceCounters;

} // namespace

const ResourceBound &
cachedResourceBound(const Trace &trace, const UarchConfig &config)
{
    std::vector<std::uint64_t> fields(config.fuLatency.begin(),
                                      config.fuLatency.end());
    fields.insert(fields.end(), config.fuCount.begin(),
                  config.fuCount.end());
    fields.insert(fields.end(),
                  {config.forwardLatency, config.storeLatency,
                   config.resultBuses, config.commitWidth,
                   config.branchTakenPenalty, config.predictedTakenPenalty,
                   config.mispredictPenalty});
    return *trace.artifacts().get<ResourceBound>(
        std::move(fields), resourceCounters,
        [&] { return resourceBound(trace, config); });
}

BoundCacheStats
resourceBoundCacheStats()
{
    return {resourceCounters.lookups.load(), resourceCounters.hits.load()};
}

} // namespace ruu::lint
