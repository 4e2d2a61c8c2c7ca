#include "trace/trace.hh"

#include "common/logging.hh"

namespace ruu
{

const TraceRecord &
Trace::at(SeqNum seq) const
{
    ruu_assert(seq < _records.size(), "trace index %llu out of range",
               static_cast<unsigned long long>(seq));
    return _records[seq];
}

void
Trace::injectFault(SeqNum seq, Fault fault)
{
    ruu_assert(seq < _records.size(), "fault index %llu out of range",
               static_cast<unsigned long long>(seq));
    _records[seq].fault = fault;
}

void
Trace::clearFaults()
{
    for (auto &record : _records)
        record.fault = Fault::None;
}

std::uint64_t
traceContentHash(const Trace &trace)
{
    // (h ^ v) * odd and h ^= h >> 32 are both invertible, so a change
    // in any one input word survives to the result.
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 32;
    };
    auto reg = [](RegId r) {
        return std::uint64_t{static_cast<std::uint8_t>(r.file())} << 8 |
               r.index();
    };
    auto mixInst = [&](const Instruction &inst) {
        mix(static_cast<std::uint64_t>(inst.op) | reg(inst.dst) << 8 |
            reg(inst.src1) << 24 | reg(inst.src2) << 40);
        mix(static_cast<std::uint64_t>(inst.imm));
        mix(inst.target);
    };

    const Program &program = trace.program();
    mix(program.size());
    for (const Instruction &inst : program.instructions())
        mixInst(inst);
    mix(program.dataInits().size());
    for (const DataInit &init : program.dataInits()) {
        mix(init.addr);
        mix(init.value);
    }
    mix(trace.size());
    for (const TraceRecord &record : trace.records()) {
        mixInst(record.inst);
        mix(std::uint64_t{record.pc} |
            std::uint64_t{record.taken} << 32);
        mix(record.memAddr);
    }
    return h;
}

std::size_t
Trace::countCondBranches() const
{
    std::size_t n = 0;
    for (const auto &record : _records)
        if (isCondBranch(record.inst.op))
            ++n;
    return n;
}

std::size_t
Trace::countMemOps() const
{
    std::size_t n = 0;
    for (const auto &record : _records)
        if (isMemory(record.inst.op))
            ++n;
    return n;
}

} // namespace ruu
