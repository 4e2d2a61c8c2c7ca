#include "lint/dataflow_bound.hh"

#include <algorithm>
#include <unordered_map>

#include "isa/reg.hh"

namespace ruu::lint
{

namespace
{

/** Finish time and critical-path bookkeeping of one producer. */
struct NodeInfo
{
    std::uint64_t finish = 0; //!< cycle the value is available
    std::size_t length = 0;   //!< instructions on the path ending here
    SeqNum seq = kNoSeqNum;   //!< producer (for reporting)
};

} // namespace

std::uint64_t
minRecordCost(const TraceRecord &record, const UarchConfig &config)
{
    const Instruction &inst = record.inst;
    if (isLoad(inst.op)) {
        return std::min<std::uint64_t>(config.latency(FuKind::Memory),
                                       config.forwardLatency);
    }
    if (isStore(inst.op) || isBranch(inst.op) ||
        isNopLike(inst.op) || inst.op == Opcode::HALT) {
        return 0;
    }
    return config.latency(inst.fu());
}

DataflowBound
dataflowBound(const Trace &trace, const UarchConfig &config)
{
    DataflowBound bound;
    std::array<NodeInfo, kNumArchRegs> regs{};
    std::unordered_map<Addr, NodeInfo> storedWords;
    NodeInfo best;

    const auto &records = trace.records();
    for (SeqNum seq = 0; seq < records.size(); ++seq) {
        const TraceRecord &rec = records[seq];
        const Instruction &inst = rec.inst;

        if (!isBranch(inst.op))
            ++bound.decodeFloor;

        // Earliest start: all register sources and, for a load, the
        // last store to the same word, must have produced their values.
        NodeInfo start;
        for (RegId src : inst.rawSrcs()) {
            if (src.valid() && regs[src.flat()].finish >= start.finish &&
                regs[src.flat()].seq != kNoSeqNum) {
                start = regs[src.flat()];
            }
        }
        if (isLoad(inst.op)) {
            auto it = storedWords.find(rec.memAddr);
            if (it != storedWords.end() &&
                it->second.finish >= start.finish) {
                start = it->second;
            }
        }

        NodeInfo node;
        node.finish = start.finish + minRecordCost(rec, config);
        node.length = start.length + 1;
        node.seq = seq;

        if (inst.dst.valid())
            regs[inst.dst.flat()] = node;
        if (isStore(inst.op))
            storedWords[rec.memAddr] = node;
        if (node.finish > best.finish ||
            (node.finish == best.finish && node.length > best.length)) {
            best = node;
        }
    }

    bound.critPathCycles = best.finish;
    bound.critTail = best.seq;
    bound.critLength = best.length;
    // Even a dependence-free instruction occupies the decode stage for
    // a cycle, and the last producer's result lands one cycle after the
    // machine's first decode cycle at the very earliest.
    bound.cycles = std::max<std::uint64_t>(bound.critPathCycles + 1,
                                           bound.decodeFloor);
    return bound;
}

namespace
{

ArtifactCounters dataflowCounters;

} // namespace

std::uint64_t
boundTraceFingerprint(const Trace &trace)
{
    const auto &records = trace.records();
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x100000001b3ull;
    };
    std::size_t n = records.size();
    std::size_t step = n > 64 ? n / 64 : 1;
    for (std::size_t i = 0; i < n; i += step) {
        const TraceRecord &rec = records[i];
        mix(rec.pc);
        mix(rec.memAddr);
        mix(static_cast<std::uint64_t>(rec.staticIndex));
    }
    return h;
}

const DataflowBound &
cachedDataflowBound(const Trace &trace, const UarchConfig &config)
{
    std::vector<std::uint64_t> fields(config.fuLatency.begin(),
                                      config.fuLatency.end());
    fields.push_back(config.forwardLatency);
    return *trace.artifacts().get<DataflowBound>(
        std::move(fields), dataflowCounters,
        [&] { return dataflowBound(trace, config); });
}

BoundCacheStats
boundCacheStats()
{
    return {dataflowCounters.lookups.load(), dataflowCounters.hits.load()};
}

} // namespace ruu::lint
