#include "engine/stream.hh"

#include <array>
#include <unordered_map>

#include "isa/reg.hh"

namespace ruu::engine
{

namespace
{

ArtifactCounters streamCounters;

} // namespace

CompiledStream
compileStream(const Trace &trace)
{
    const auto &records = trace.records();
    const std::size_t n = records.size();

    CompiledStream st;
    st.flags.resize(n);
    st.fu.resize(n);
    st.op.resize(n);
    st.dst.resize(n);
    st.src1.resize(n);
    st.src2.resize(n);
    st.depSrc1.resize(n);
    st.depSrc2.resize(n);
    st.depMem.resize(n);

    std::array<SeqNum, kNumArchRegs> lastWriter;
    lastWriter.fill(kNoSeqNum);
    std::unordered_map<Addr, SeqNum> lastStore;

    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &rec = records[i];
        const Instruction &inst = rec.inst;

        std::uint16_t f = 0;
        if (isBranch(inst.op))
            f |= kOpBranch;
        if (isCondBranch(inst.op))
            f |= kOpCondBranch;
        if (isLoad(inst.op))
            f |= kOpLoad;
        if (isStore(inst.op))
            f |= kOpStore;
        if (isMemory(inst.op))
            f |= kOpMem;
        if (isNopLike(inst.op))
            f |= kOpNopLike;
        if (isProgramExit(inst.op))
            f |= kOpProgramExit;
        if (inst.op == Opcode::HALT)
            f |= kOpHalt;
        if (inst.writesReg())
            f |= kOpWritesReg;
        if (rec.taken)
            f |= kOpTaken;
        st.flags[i] = f;

        st.fu[i] = inst.fu();
        st.op[i] = inst.op;
        st.dst[i] = inst.dst.valid()
                        ? static_cast<std::int16_t>(inst.dst.flat())
                        : std::int16_t{-1};
        st.src1[i] = inst.src1.valid()
                         ? static_cast<std::int16_t>(inst.src1.flat())
                         : std::int16_t{-1};
        st.src2[i] = inst.src2.valid()
                         ? static_cast<std::int16_t>(inst.src2.flat())
                         : std::int16_t{-1};

        st.depSrc1[i] = inst.src1.valid()
                            ? lastWriter[inst.src1.flat()]
                            : kNoSeqNum;
        st.depSrc2[i] = inst.src2.valid()
                            ? lastWriter[inst.src2.flat()]
                            : kNoSeqNum;
        if (f & kOpLoad) {
            auto it = lastStore.find(rec.memAddr);
            st.depMem[i] =
                it != lastStore.end() ? it->second : kNoSeqNum;
        } else {
            st.depMem[i] = kNoSeqNum;
        }

        if (inst.writesReg())
            lastWriter[inst.dst.flat()] = i;
        if (f & kOpStore)
            lastStore[rec.memAddr] = i;
    }
    return st;
}

std::shared_ptr<const CompiledStream>
cachedStream(const Trace &trace)
{
    return trace.artifacts().get<CompiledStream>(
        {}, streamCounters, [&] { return compileStream(trace); });
}

StreamCacheStats
streamCacheStats()
{
    return {streamCounters.lookups.load(), streamCounters.hits.load()};
}

} // namespace ruu::engine
