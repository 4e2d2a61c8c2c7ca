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

TraceArtifacts &
Trace::artifacts() const
{
    ruu_assert(_artifacts != nullptr, "artifacts of a moved-from trace");
    return *_artifacts;
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

namespace
{

/**
 * The content hash's mixer: (h ^ v) * odd and h ^= h >> 32 are both
 * invertible, so a change in any one input word survives to the
 * result.
 */
class ContentHasher
{
  public:
    void
    mix(std::uint64_t v)
    {
        _h = (_h ^ v) * 0x9e3779b97f4a7c15ull;
        _h ^= _h >> 32;
    }

    void
    mixInst(const Instruction &inst)
    {
        mix(static_cast<std::uint64_t>(inst.op) | reg(inst.dst) << 8 |
            reg(inst.src1) << 24 | reg(inst.src2) << 40);
        mix(static_cast<std::uint64_t>(inst.imm));
        mix(inst.target);
    }

    void
    mixProgram(const Program &program)
    {
        mix(program.size());
        for (const Instruction &inst : program.instructions())
            mixInst(inst);
        mix(program.dataInits().size());
        for (const DataInit &init : program.dataInits()) {
            mix(init.addr);
            mix(init.value);
        }
    }

    std::uint64_t value() const { return _h; }

  private:
    static std::uint64_t
    reg(RegId r)
    {
        return std::uint64_t{static_cast<std::uint8_t>(r.file())} << 8 |
               r.index();
    }

    std::uint64_t _h = 0xcbf29ce484222325ull;
};

} // namespace

std::uint64_t
traceContentHash(const Trace &trace)
{
    ContentHasher h;
    h.mixProgram(trace.program());
    h.mix(trace.size());
    for (const TraceRecord &record : trace.records()) {
        h.mixInst(record.inst);
        h.mix(std::uint64_t{record.pc} |
              std::uint64_t{record.taken} << 32);
        h.mix(record.memAddr);
    }
    return h.value();
}

std::uint64_t
programContentHash(const Program &program)
{
    ContentHasher h;
    h.mixProgram(program);
    h.mix(program.isHandler() ? 1 : 0);
    return h.value();
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
