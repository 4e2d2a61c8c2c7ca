#include "oracle/commit_oracle.hh"

#include <algorithm>

#include "arch/executor.hh"
#include "common/logging.hh"
#include "isa/disasm.hh"

namespace ruu::oracle
{

using detail::vformat;

bool
isEffectful(const TraceRecord &record)
{
    return record.inst.dst.valid() || isStore(record.inst.op);
}

namespace
{

/** Initial lockstep memory: the program's data image, like a core run. */
Memory
initialMemory(const Trace &trace, const RunOptions &options)
{
    if (options.initialMemory)
        return *options.initialMemory;
    Memory memory;
    if (trace.programPtr()) {
        for (const auto &init : trace.program().dataInits())
            memory.set(init.addr, init.value);
    }
    return memory;
}

} // namespace

CommitOracle::CommitOracle(const Trace &trace, const Core &core,
                           const RunOptions &options)
    : CommitOracle(trace, core.commitOrder(), core.preciseInterrupts(),
                   options)
{
}

CommitOracle::CommitOracle(const Trace &trace, CommitOrder order,
                           bool precise, const RunOptions &options)
    : _trace(trace), _order(order), _precise(precise),
      _startSeq(options.startSeq),
      _state(options.initialState ? *options.initialState : ArchState{}),
      _memory(initialMemory(trace, options)), _stepped(options.startSeq),
      _committed(trace.size(), false)
{
}

void
CommitOracle::fail(SeqNum seq, std::string message)
{
    if (!ok())
        return; // only the first divergence is reported
    _message = std::move(message);
    _failSeq = seq;
}

void
CommitOracle::onCommit(SeqNum seq, const TraceRecord &record)
{
    if (!ok())
        return;

    if (seq >= _trace.size()) {
        fail(seq, vformat("committed seq %llu beyond trace end (%zu)",
                          static_cast<unsigned long long>(seq),
                          _trace.size()));
        return;
    }
    const TraceRecord &expect = _trace.at(seq);
    if (!(record.inst == expect.inst) ||
        record.staticIndex != expect.staticIndex ||
        record.pc != expect.pc || record.memAddr != expect.memAddr ||
        record.result != expect.result ||
        record.storeValue != expect.storeValue ||
        record.taken != expect.taken) {
        fail(seq, vformat("committed record does not match the trace's "
                          "record for seq %llu",
                          static_cast<unsigned long long>(seq)));
        return;
    }
    if (seq < _startSeq) {
        fail(seq, vformat("committed seq %llu before the run's start "
                          "seq %llu",
                          static_cast<unsigned long long>(seq),
                          static_cast<unsigned long long>(_startSeq)));
        return;
    }
    if (_committed[seq]) {
        fail(seq, vformat("seq %llu committed twice",
                          static_cast<unsigned long long>(seq)));
        return;
    }
    if (expect.fault != Fault::None) {
        fail(seq, vformat("committed seq %llu, which faults (%s) — a "
                          "faulting instruction must not become "
                          "architectural",
                          static_cast<unsigned long long>(seq),
                          faultName(expect.fault)));
        return;
    }

    // Order discipline. Total: the whole stream is sequential.
    // DataInOrder: each order class — state-changers, branches, and
    // NOP/HALT — is sequential among itself, but the classes may
    // interleave (decode stages report branches early; see the member
    // comment). None: any order.
    bool effectful = isEffectful(expect);
    std::optional<SeqNum> &last =
        effectful                  ? _lastEffectful
        : isBranch(expect.inst.op) ? _lastBranch
                                   : _lastBare;
    switch (_order) {
      case CommitOrder::Total: {
        SeqNum newest = _startSeq - 1;
        for (const auto &classLast :
             {_lastEffectful, _lastBranch, _lastBare}) {
            if (classLast && (newest == _startSeq - 1 ||
                              *classLast > newest)) {
                newest = *classLast;
            }
        }
        SeqNum expected = newest + 1;
        // A faulting instruction never commits; an imprecise sequential
        // machine (SimpleCore) legitimately commits the instructions
        // already in flight behind it, so the expected seq skips
        // annotated positions.
        while (expected < _trace.size() &&
               _trace.at(expected).fault != Fault::None) {
            ++expected;
        }
        if (seq != expected) {
            fail(seq, vformat("total-order core committed seq %llu, "
                              "expected %llu",
                              static_cast<unsigned long long>(seq),
                              static_cast<unsigned long long>(expected)));
            return;
        }
        break;
      }
      case CommitOrder::DataInOrder:
        if (last && seq < *last) {
            fail(seq, vformat("%s seq %llu committed after younger "
                              "%s seq %llu",
                              effectful ? "state-changing" : "effect-free",
                              static_cast<unsigned long long>(seq),
                              effectful ? "state-changing" : "effect-free",
                              static_cast<unsigned long long>(*last)));
            return;
        }
        break;
      case CommitOrder::None:
        break;
    }
    last = seq;

    _committed[seq] = true;
    _committedEnd = std::max(_committedEnd, seq + 1);
    ++_commits;
    stepLockstep();
}

void
CommitOracle::stepLockstep()
{
    // Re-execute the contiguous committed prefix. Out-of-order commit
    // streams (None / early effect-free reports) buffer until the gap
    // fills; the sequential machine itself always steps in order.
    while (ok() && _stepped < _trace.size() && _committed[_stepped]) {
        if (!stepOne(_stepped))
            return;
        ++_stepped;
    }
}

bool
CommitOracle::stepOne(SeqNum seq)
{
    const TraceRecord &rec = _trace.at(seq);
    const Program &program = _trace.program();

    if (rec.staticIndex >= program.size()) {
        fail(seq, vformat("static index %zu beyond program end",
                          rec.staticIndex));
        return false;
    }
    if (_expectIndex && rec.staticIndex != *_expectIndex) {
        fail(seq, vformat("control-flow break: predecessor's successor "
                          "is static %zu but seq %llu is static %zu",
                          *_expectIndex,
                          static_cast<unsigned long long>(seq),
                          rec.staticIndex));
        return false;
    }
    if (program.pc(rec.staticIndex) != rec.pc) {
        fail(seq, vformat("trace pc %llu differs from program pc %llu",
                          static_cast<unsigned long long>(rec.pc),
                          static_cast<unsigned long long>(
                              program.pc(rec.staticIndex))));
        return false;
    }

    ExecOutcome out = execute(program, rec.staticIndex, _state, _memory,
                              _trap ? &*_trap : nullptr);

    if (out.fault != Fault::None) {
        fail(seq, vformat("lockstep execution faults (%s) where the "
                          "trace does not",
                          faultName(out.fault)));
        return false;
    }
    if (rec.inst.dst.valid() && out.value != rec.result) {
        fail(seq, vformat("destination value diverges: lockstep %llu, "
                          "trace %llu",
                          static_cast<unsigned long long>(out.value),
                          static_cast<unsigned long long>(rec.result)));
        return false;
    }
    if (isMemory(rec.inst.op) && out.memAddr != rec.memAddr) {
        fail(seq, vformat("memory address diverges: lockstep %llu, "
                          "trace %llu",
                          static_cast<unsigned long long>(out.memAddr),
                          static_cast<unsigned long long>(rec.memAddr)));
        return false;
    }
    if (isStore(rec.inst.op) && out.storeValue != rec.storeValue) {
        fail(seq, vformat("store value diverges: lockstep %llu, "
                          "trace %llu",
                          static_cast<unsigned long long>(out.storeValue),
                          static_cast<unsigned long long>(rec.storeValue)));
        return false;
    }
    if (isBranch(rec.inst.op) && out.taken != rec.taken) {
        fail(seq, vformat("branch outcome diverges: lockstep %staken, "
                          "trace %staken",
                          out.taken ? "" : "not ",
                          rec.taken ? "" : "not "));
        return false;
    }
    if (out.halted != (rec.inst.op == Opcode::HALT)) {
        fail(seq, "halt disagreement between lockstep and trace");
        return false;
    }
    _expectIndex = out.nextIndex;
    return true;
}

bool
CommitOracle::finish(const RunResult &result)
{
    if (!ok())
        return false;

    if (result.interrupted) {
        // Fault bookkeeping must be exact on every core, precise or not.
        if (result.faultSeq >= _trace.size()) {
            fail(result.faultSeq, "reported fault seq beyond trace end");
            return false;
        }
        const TraceRecord &frec = _trace.at(result.faultSeq);
        if (result.fault == Fault::Interrupt) {
            // Asynchronous cut: the core stopped decoding at the cut
            // seq, so even a fault annotation on that record is moot —
            // the instruction never issued. (A cut past an annotated
            // record cannot happen: the older synchronous fault wins
            // and takes the other branch.)
        } else if (frec.fault != result.fault) {
            fail(result.faultSeq,
                 vformat("reported fault %s but the trace faults with "
                         "%s at seq %llu",
                         faultName(result.fault), faultName(frec.fault),
                         static_cast<unsigned long long>(result.faultSeq)));
            return false;
        }
        if (frec.pc != result.faultPc) {
            fail(result.faultSeq,
                 vformat("reported fault pc %llu but seq %llu is at "
                         "pc %llu",
                         static_cast<unsigned long long>(result.faultPc),
                         static_cast<unsigned long long>(result.faultSeq),
                         static_cast<unsigned long long>(frec.pc)));
            return false;
        }
        // An asynchronous drain must land on the sequential prefix on
        // EVERY core — the machine keeps nothing speculative in flight
        // once decode stops, so even the imprecise cores are held to
        // the exact-prefix contract here. Synchronous faults on an
        // imprecise core are merely measured, not failed.
        if (!_precise && result.fault != Fault::Interrupt)
            return ok();

        // Exactly the state-changing instructions older than the fault
        // must have committed, and nothing younger.
        for (SeqNum seq = _startSeq; seq < result.faultSeq; ++seq) {
            if (isEffectful(_trace.at(seq)) && !_committed[seq]) {
                fail(seq, vformat("precise interrupt lost seq %llu, "
                                  "older than the fault at %llu",
                                  static_cast<unsigned long long>(seq),
                                  static_cast<unsigned long long>(
                                      result.faultSeq)));
                return false;
            }
        }
        // Nothing past the youngest commit is marked, so the scan stops
        // there rather than at the end of a trace a later segment resumes.
        for (SeqNum seq = result.faultSeq; seq < _committedEnd; ++seq) {
            if (isEffectful(_trace.at(seq)) && _committed[seq]) {
                fail(seq, vformat("precise interrupt committed seq "
                                  "%llu, younger than the fault at %llu",
                                  static_cast<unsigned long long>(seq),
                                  static_cast<unsigned long long>(
                                      result.faultSeq)));
                return false;
            }
        }
        if (_stepped < result.faultSeq) {
            fail(_stepped, vformat("effect-free seq %llu never "
                                   "committed before the interrupt",
                                   static_cast<unsigned long long>(
                                       _stepped)));
            return false;
        }
    } else {
        // Clean run: everything from startSeq on committed exactly once.
        for (SeqNum seq = _startSeq; seq < _trace.size(); ++seq) {
            if (!_committed[seq]) {
                fail(seq, vformat("seq %llu never committed",
                                  static_cast<unsigned long long>(seq)));
                return false;
            }
        }
        if (result.instructions != _commits) {
            fail(kNoSeqNum,
                 vformat("core counted %llu committed instructions but "
                         "reported %llu commits",
                         static_cast<unsigned long long>(
                             result.instructions),
                         static_cast<unsigned long long>(_commits)));
            return false;
        }
    }

    // The core's architectural state must equal the lockstep machine's
    // (for interrupted precise runs, that is the sequential prefix).
    if (result.state != _state) {
        fail(_stepped ? _stepped - 1 : 0,
             vformat("final register state diverges from lockstep "
                     "execution\n-- core:\n%s-- lockstep:\n%s",
                     result.state.dump().c_str(), _state.dump().c_str()));
        return false;
    }
    if (result.memory != _memory) {
        Addr bad = 0;
        for (Addr a = 0; a < _memory.sizeWords(); ++a) {
            if (result.memory.at(a) != _memory.at(a)) {
                bad = a;
                break;
            }
        }
        fail(_stepped ? _stepped - 1 : 0,
             vformat("final memory diverges from lockstep execution: "
                     "word %llu is %llu, lockstep has %llu",
                     static_cast<unsigned long long>(bad),
                     static_cast<unsigned long long>(
                         result.memory.at(bad)),
                     static_cast<unsigned long long>(_memory.at(bad))));
        return false;
    }
    return ok();
}

std::string
CommitOracle::report() const
{
    if (ok())
        return "commit oracle: ok";

    std::string out = "commit oracle: " + _message + "\n";
    if (_failSeq == kNoSeqNum || _trace.empty())
        return out;

    SeqNum center = std::min<SeqNum>(_failSeq, _trace.size() - 1);
    SeqNum first = center >= 4 ? center - 4 : 0;
    SeqNum last = std::min<SeqNum>(center + 4, _trace.size() - 1);
    out += "dynamic trace around the divergence:\n";
    for (SeqNum seq = first; seq <= last; ++seq) {
        const TraceRecord &rec = _trace.at(seq);
        out += vformat("%s %6llu  pc %-6llu %s\n",
                       seq == _failSeq ? ">" : " ",
                       static_cast<unsigned long long>(seq),
                       static_cast<unsigned long long>(rec.pc),
                       disassemble(rec.inst).c_str());
    }
    return out;
}

} // namespace ruu::oracle
