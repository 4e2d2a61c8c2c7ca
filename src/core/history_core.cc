#include "core/history_core.hh"

#include <algorithm>
#include <deque>
#include <sstream>
#include <vector>

#include "core/ooo_support.hh"
#include "engine/view.hh"
#include "inject/ports.hh"
#include "uarch/banks.hh"
#include "uarch/fu.hh"
#include "uarch/scoreboard.hh"

namespace ruu
{

namespace
{

/** One history-buffer entry: what to restore if we must unwind. */
struct HistoryEntry
{
    bool valid = false;
    SeqNum seq = kNoSeqNum;
    ParcelAddr pc = 0;
    unsigned regFlat = kNumArchRegs; //!< destination; kNumArchRegs = none
    Word oldValue = 0;               //!< register contents at issue
    bool isStore = false;
    Addr memAddr = 0;
    Word oldMemValue = 0;  //!< memory contents just before the store
    bool memWritten = false;
    bool done = false;      //!< instruction completed (or was cancelled)
    bool wroteReg = false;  //!< register update actually happened
    bool faulted = false;
};

} // namespace

HistoryCore::HistoryCore(const UarchConfig &config) : Core(config)
{
}

RunResult
HistoryCore::runImpl(const Trace &trace, const RunOptions &options)
{
    if (activeEngine() == engine::Kind::Compiled)
        return runLoop(trace, options,
                       engine::CompiledView(trace, stream()));
    return runLoop(trace, options, engine::InterpView(trace));
}

template <class View>
RunResult
HistoryCore::runLoop(const Trace &trace, const RunOptions &options,
                     const View &view)
{
    RunResult result = makeInitialResult(trace, options);
    const unsigned pool_size = _config.poolEntries;
    const unsigned hb_size = _config.historyEntries;

    std::vector<InflightOp> pool(pool_size);
    std::vector<HistoryEntry> hb(hb_size);
    unsigned hb_head = 0, hb_tail = 0, hb_count = 0;
    // Pool slot -> history index, for cross-marking at completion.
    std::vector<unsigned> hb_of_slot(pool_size, 0);

    std::vector<unsigned> mem_queue;
    std::deque<SeqNum> store_queue;
    BusyBits busy;
    LoadRegisters load_regs(_config.loadRegisters);
    FuPipes pipes(_config);
    MemoryBanks banks(_config.memoryBanks, _config.bankBusyCycles);
    typename View::Bus bus(_config.resultBuses);

    Counter &c_insts = _stats.counter("instructions");
    Counter &c_branches = _stats.counter("branches");
    Counter &c_dead = _stats.counter("branch_dead_cycles");
    Counter &c_branch_wait = _stats.counter("stall_branch_cond_cycles");
    Counter &c_no_slot = _stats.counter("stall_no_pool_slot_cycles");
    Counter &c_no_hb = _stats.counter("stall_history_full_cycles");
    Counter &c_waw = _stats.counter("stall_dest_busy_cycles");
    Counter &c_no_lr = _stats.counter("stall_no_load_reg_cycles");
    Counter &c_dispatched = _stats.counter("dispatches");
    Counter &c_forwarded = _stats.counter("forwarded_loads");
    Counter &c_rollback = _stats.counter("rollback_cycles");
    Histogram &h_hb = _stats.histogram("history_occupancy");

    SeqNum decode_seq = options.startSeq;
    Cycle next_decode = 0;
    Cycle last_event = 0;
    bool halted = false;
    bool draining = false;  //!< a fault reached the head; unwinding soon
    bool unwinding = false; //!< restoring old values, one per cycle
    const auto &records = trace.records();
    lint::InvariantChecker *ck = invariants();
    // A faulted or cancelled op leaves its busy bit set until the
    // unwind; the scoreboard cross-check is meaningless from then on.
    bool fault_seen = false;

    // Fault/snapshot port registration (only when a tap is attached).
    // History sequence numbers index the trace, so they wrap to its
    // length; the slot-to-history map and the cursors wrap to the
    // buffer size. regFlat keeps its "no destination" sentinel
    // (kNumArchRegs) representable by wrapping one past it.
    inject::FaultPortSet fault_ports;
    if (options.tap) {
        for (unsigned i = 0; i < pool_size; ++i)
            inject::exposeInflightOp(
                fault_ports, "pool[" + std::to_string(i) + "]",
                pool[i], records.size());
        for (unsigned i = 0; i < hb_size; ++i) {
            std::string name = "hb[" + std::to_string(i) + "]";
            HistoryEntry &h = hb[i];
            fault_ports.addFlag(name + ".valid", h.valid);
            fault_ports.add(name + ".seq", inject::PortClass::Sequence,
                            h.seq, 32, records.size());
            fault_ports.add(name + ".pc", inject::PortClass::Address,
                            h.pc, 32);
            fault_ports.add(name + ".regFlat", inject::PortClass::Tag,
                            h.regFlat, 32, kNumArchRegs + 1);
            fault_ports.add(name + ".oldValue",
                            inject::PortClass::Data, h.oldValue, 64);
            fault_ports.addFlag(name + ".isStore", h.isStore);
            fault_ports.add(name + ".memAddr",
                            inject::PortClass::Address, h.memAddr, 32);
            fault_ports.add(name + ".oldMemValue",
                            inject::PortClass::Data, h.oldMemValue,
                            64);
            fault_ports.addFlag(name + ".memWritten", h.memWritten);
            fault_ports.addFlag(name + ".done", h.done);
            fault_ports.addFlag(name + ".wroteReg", h.wroteReg);
            fault_ports.addFlag(name + ".faulted", h.faulted);
        }
        inject::exposeCursor(fault_ports, "hbHead", hb_head, hb_size);
        inject::exposeCursor(fault_ports, "hbTail", hb_tail, hb_size);
        inject::exposeCursor(fault_ports, "hbCount", hb_count,
                             hb_size + 1);
        for (unsigned i = 0; i < pool_size; ++i)
            inject::exposeCursor(fault_ports,
                                 "hbOfSlot[" + std::to_string(i) + "]",
                                 hb_of_slot[i], hb_size);
        busy.exposePorts(fault_ports, "busy");
        load_regs.exposePorts(fault_ports, "loadReg");
        pipes.exposePorts(fault_ports, "fu");
        banks.exposePorts(fault_ports, "banks");
        bus.exposePorts(fault_ports, "bus");
        result.state.exposePorts(fault_ports, "regs");
        fault_ports.add("decodeSeq", inject::PortClass::Sequence,
                        decode_seq, 32, records.size() + 1);
        fault_ports.add("nextDecode", inject::PortClass::Sequence,
                        next_decode, 32);
        options.tap->onRunStart(fault_ports);
    }

    auto occupancy = [&]() {
        unsigned n = 0;
        for (const auto &e : pool)
            n += e.valid ? 1 : 0;
        return n;
    };

    auto free_slot = [&]() -> int {
        for (unsigned i = 0; i < pool_size; ++i)
            if (!pool[i].valid)
                return static_cast<int>(i);
        return -1;
    };

    auto wedge_detail = [&]() {
        std::ostringstream os;
        os << "  pool occupancy " << occupancy() << "/" << pool_size
           << ", history buffer " << hb_count << "/" << hb_size
           << (unwinding  ? ", unwinding"
               : draining ? ", draining after fault"
                          : "")
           << "\n";
        for (unsigned i = 0; i < pool_size; ++i) {
            const InflightOp &e = pool[i];
            if (!e.valid)
                continue;
            FuKind kind = e.isMem() ? FuKind::Memory : e.rec->inst.fu();
            os << "    slot " << i << ": seq " << e.seq << " "
               << fuKindName(kind)
               << (e.executed          ? " executed"
                   : e.dispatched      ? " dispatched"
                   : e.readyToDispatch() ? " ready (no unit/bus)"
                                         : " waiting on operands")
               << "\n";
        }
        return os.str();
    };

    std::vector<unsigned> candidates; // reused every cycle
    std::vector<unsigned> completing; // reused every cycle
    for (Cycle cycle = 0;; ++cycle) {
        if (cycle > options.maxCycles) {
            markWedged(result, trace, cycle, options, decode_seq,
                       wedge_detail());
            return result;
        }
        if (options.tap)
            options.tap->onCycle(cycle, fault_ports);
        if (ck)
            ck->beginCycle(cycle);

        // ---- rollback: unwind the buffer one entry per cycle ---------
        if (unwinding) {
            if (hb_count == 1) {
                // Only the faulting entry remains: the state is the
                // sequential prefix before it. Interrupt delivered.
                HistoryEntry &f = hb[hb_head];
                result.interrupted = true;
                result.fault = records[f.seq].fault;
                result.faultSeq = f.seq;
                result.faultPc = f.pc;
                result.cycles = cycle + 1;
                break;
            }
            unsigned slot = (hb_head + hb_count - 1) % hb_size;
            HistoryEntry &e = hb[slot];
            if (e.wroteReg)
                result.state.write(RegId::fromFlat(e.regFlat),
                                   e.oldValue);
            if (e.memWritten) {
                bool ok = result.memory.store(e.memAddr, e.oldMemValue);
                ruu_assert(ok, "rollback store out of range");
            }
            // The entry was counted when it executed, but it is no
            // longer part of the committed prefix the interrupted
            // RunResult reports (the "instructions" stat keeps its
            // executed semantics; c_rollback records the difference).
            if (e.wroteReg || e.memWritten)
                --result.instructions;
            e.valid = false;
            --hb_count;
            ++c_rollback;
            last_event = cycle;
            continue;
        }

        // ---- dispatch (before completions: wakeup-to-select takes a
        //      cycle, as in the other out-of-order cores) --------------
        {
            candidates.clear();
            for (unsigned i = 0; i < pool_size; ++i)
                if (pool[i].valid && pool[i].readyToDispatch())
                    candidates.push_back(i);
            std::sort(candidates.begin(), candidates.end(),
                      [&](unsigned a, unsigned b) {
                          bool am = pool[a].isMem(), bm = pool[b].isMem();
                          if (am != bm)
                              return am;
                          return pool[a].seq < pool[b].seq;
                      });
            unsigned started = 0;
            bool store_started = false;
            for (unsigned slot : candidates) {
                if (started == _config.dispatchPaths)
                    break;
                InflightOp &e = pool[slot];
                if (e.isStore &&
                    (store_started || store_queue.empty() ||
                     store_queue.front() != e.seq)) {
                    continue;
                }
                FuKind kind = e.isMem() ? FuKind::Memory
                                        : view.fuAt(e.seq);
                unsigned latency =
                    e.isStore ? _config.storeLatency
                    : e.forwarded ? _config.forwardLatency
                                  : _config.latency(kind);
                if (!pipes.canStart(kind, cycle))
                    continue;
                bool to_memory = e.isMem() && !e.forwarded;
                if (to_memory &&
                    !banks.canAccess(e.rec->memAddr, cycle)) {
                    continue;
                }
                bool needs_bus = !e.isStore;
                if (needs_bus && !bus.free(cycle + latency))
                    continue;
                pipes.start(kind, cycle);
                if (to_memory)
                    banks.access(e.rec->memAddr, cycle);
                if (needs_bus)
                    bus.reserve(cycle + latency, e.destTag,
                                e.rec->result, e.seq);
                if (e.isStore) {
                    store_queue.pop_front();
                    store_started = true;
                }
                e.dispatched = true;
                e.completeCycle = cycle + latency;
                ++c_dispatched;
                ++started;
            }
        }

        // ---- completions (in seq order within the cycle) --------------
        {
            completing.clear();
            for (unsigned i = 0; i < pool_size; ++i) {
                const InflightOp &e = pool[i];
                if (e.valid && e.dispatched && !e.executed &&
                    e.completeCycle == cycle) {
                    completing.push_back(i);
                }
            }
            std::sort(completing.begin(), completing.end(),
                      [&](unsigned a, unsigned b) {
                          return pool[a].seq < pool[b].seq;
                      });
            for (unsigned slot : completing) {
                InflightOp &e = pool[slot];
                e.executed = true;
                last_event = cycle;
                HistoryEntry &h = hb[hb_of_slot[slot]];

                if (e.rec->fault != Fault::None) {
                    // No state change; the entry surfaces the fault
                    // when it reaches the buffer head.
                    h.done = true;
                    h.faulted = true;
                    fault_seen = true;
                    if (result.drainStartCycle == kNoCycle)
                        result.drainStartCycle = cycle;
                    if (e.isMem())
                        load_regs.complete(
                            static_cast<unsigned>(e.loadReg));
                    e.valid = false;
                    std::erase(mem_queue, slot);
                    continue;
                }

                Tag tag = e.isStore ? storeTagFor(e.seq) : e.destTag;
                Word value = e.isStore ? e.rec->storeValue
                                       : e.rec->result;
                for (auto &other : pool)
                    if (other.valid)
                        other.wakeup(tag);
                load_regs.onBroadcast(tag, value);
                if (ck) {
                    if (e.isStore)
                        ck->onStoreBroadcast(tag);
                    else
                        ck->onResultBroadcast(cycle, tag);
                    // The register file updates right here, so the tag
                    // dies with its broadcast.
                    ck->onTagReleased(tag);
                }

                // The register file updates immediately — this is the
                // defining difference from the RUU.
                if (e.rec->inst.dst.valid()) {
                    result.state.write(e.rec->inst.dst, e.rec->result);
                    busy.clear(e.rec->inst.dst);
                    h.wroteReg = true;
                }
                if (e.isStore) {
                    h.oldMemValue = result.memory.at(e.rec->memAddr);
                    h.memWritten = true;
                    bool ok = result.memory.store(e.rec->memAddr,
                                                  e.rec->storeValue);
                    ruu_assert(ok, "store to unmapped address");
                }
                if (e.isMem())
                    load_regs.complete(static_cast<unsigned>(e.loadReg));

                h.done = true;
                ++c_insts;
                ++result.instructions;
                e.valid = false;
                std::erase(mem_queue, slot);
            }
        }

        // ---- retire done entries from the head; surface faults -------
        while (hb_count > 0 && hb[hb_head].done) {
            if (hb[hb_head].faulted) {
                if (!draining) {
                    // Cancel everything not yet dispatched: without the
                    // faulting result their operands may never arrive.
                    draining = true;
                    for (unsigned i = 0; i < pool_size; ++i) {
                        InflightOp &e = pool[i];
                        if (e.valid && !e.dispatched) {
                            if (e.isMem() && e.addrResolved)
                                load_regs.complete(
                                    static_cast<unsigned>(e.loadReg));
                            hb[hb_of_slot[i]].done = true;
                            e.valid = false;
                            std::erase(mem_queue, i);
                        }
                    }
                }
                // Unwind once every younger entry has drained.
                bool all_done = true;
                for (unsigned i = 0, s = hb_head; i < hb_count;
                     ++i, s = (s + 1) % hb_size) {
                    all_done &= hb[s].done;
                }
                if (all_done && occupancy() == 0)
                    unwinding = true;
                break;
            }
            if (ck)
                ck->onCommit(hb[hb_head].seq);
            notifyCommit(hb[hb_head].seq, records[hb[hb_head].seq]);
            hb[hb_head].valid = false;
            hb_head = (hb_head + 1) % hb_size;
            --hb_count;
        }

        // ---- memory-address resolution, in program order --------------
        for (unsigned slot : mem_queue) {
            InflightOp &e = pool[slot];
            if (e.addrResolved)
                continue;
            if (!e.src[0].ready)
                break;
            if (!resolveMemOp(e, load_regs))
                break;
            if (e.forwarded)
                ++c_forwarded;
        }

        // ---- decode and issue ------------------------------------------
        // An external interrupt stops decode; everything already issued
        // drains and retires through the history buffer, so the cut at
        // decode_seq is the sequential prefix. A synchronous fault
        // surfacing during the drain wins (it is architecturally older
        // and takes the rollback path instead).
        const bool irq_stop = options.interruptAt != kNoCycle &&
                              cycle >= options.interruptAt &&
                              decode_seq >= options.interruptMinSeq;
        if (irq_stop && result.drainStartCycle == kNoCycle)
            result.drainStartCycle = cycle;
        if (!irq_stop && !halted && !draining &&
            decode_seq < records.size() && cycle >= next_decode) {
            const TraceRecord &rec = records[decode_seq];
            const Instruction &inst = rec.inst;

            if (view.haltAt(decode_seq)) {
                halted = true;
                last_event = std::max(last_event, cycle);
                ++c_insts;
                ++result.instructions;
                notifyCommit(decode_seq, rec);
                ++decode_seq;
            } else if (view.nopLikeAt(decode_seq)) {
                last_event = std::max(last_event, cycle);
                ++c_insts;
                ++result.instructions;
                notifyCommit(decode_seq, rec);
                ++decode_seq;
                next_decode = cycle + 1;
            } else if (view.branchAt(decode_seq)) {
                if (inst.src1.valid() && busy.busy(inst.src1)) {
                    ++c_branch_wait;
                } else {
                    ++c_branches;
                    ++c_insts;
                    ++result.instructions;
                    notifyCommit(decode_seq, rec);
                    unsigned penalty = branchPenalty(rec.taken);
                    c_dead += penalty;
                    next_decode = cycle + penalty;
                    last_event = std::max(last_event, cycle);
                    ++decode_seq;
                }
            } else {
                int slot = free_slot();
                if (slot < 0) {
                    ++c_no_slot;
                } else if (hb_count == hb_size) {
                    ++c_no_hb;
                } else if (inst.dst.valid() && busy.busy(inst.dst)) {
                    // The scoreboard interlock: one writer at a time.
                    ++c_waw;
                } else if (view.memAt(decode_seq) &&
                           !load_regs.hasFree()) {
                    ++c_no_lr;
                } else {
                    InflightOp &e = pool[static_cast<unsigned>(slot)];
                    e = InflightOp{};
                    e.valid = true;
                    e.seq = decode_seq;
                    e.rec = &rec;
                    e.isLoad = view.loadAt(decode_seq);
                    e.isStore = view.storeAt(decode_seq);
                    e.destTag = inst.dst.valid()
                                    ? static_cast<Tag>(inst.dst.flat())
                                    : kNoTag;
                    if (ck && e.destTag != kNoTag)
                        ck->onTagAllocated(e.destTag, e.seq);
                    if (ck && e.isStore)
                        ck->onTagAllocated(storeTagFor(e.seq), e.seq);

                    for (unsigned s = 0; s < 2; ++s) {
                        RegId reg = s == 0 ? inst.src1 : inst.src2;
                        if (!reg.valid())
                            continue;
                        e.src[s].needed = true;
                        if (busy.busy(reg)) {
                            e.src[s].ready = false;
                            e.src[s].tag =
                                static_cast<Tag>(reg.flat());
                        }
                    }

                    HistoryEntry &h = hb[hb_tail];
                    h = HistoryEntry{};
                    h.valid = true;
                    h.seq = decode_seq;
                    h.pc = rec.pc;
                    if (inst.dst.valid()) {
                        h.regFlat = inst.dst.flat();
                        h.oldValue = result.state.read(inst.dst);
                        busy.setBusy(inst.dst);
                    }
                    h.isStore = e.isStore;
                    h.memAddr = rec.memAddr;
                    hb_of_slot[static_cast<unsigned>(slot)] = hb_tail;
                    hb_tail = (hb_tail + 1) % hb_size;
                    ++hb_count;

                    if (e.isMem())
                        mem_queue.push_back(
                            static_cast<unsigned>(slot));
                    if (e.isStore)
                        store_queue.push_back(e.seq);

                    ++decode_seq;
                    next_decode = cycle + 1;
                }
            }
        }

        h_hb.sample(hb_count);

        if (ck && !fault_seen) {
            // The scoreboard's busy bits must match the set of
            // in-flight register writers (§4's one-writer interlock).
            unsigned writers = 0;
            for (const InflightOp &e : pool)
                if (e.valid && e.rec->inst.dst.valid())
                    ++writers;
            ck->onScoreboardSample(busy.countBusy(), writers);
            ck->require(hb_count <= hb_size,
                        "history buffer exceeds capacity");
        }

        if ((halted || decode_seq >= records.size() || irq_stop) &&
            occupancy() == 0 && hb_count == 0) {
            if (irq_stop && !halted && decode_seq < records.size()) {
                result.interrupted = true;
                result.fault = Fault::Interrupt;
                result.faultSeq = decode_seq;
                result.faultPc = records[decode_seq].pc;
            }
            result.cycles = last_event + 1;
            break;
        }
        bus.retireBefore(cycle);
    }

    _stats.counter("cycles") += result.cycles;
    return result;
}

} // namespace ruu
