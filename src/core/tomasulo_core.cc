#include "core/tomasulo_core.hh"

#include <algorithm>
#include <array>
#include <deque>
#include <sstream>
#include <vector>

#include "core/ooo_support.hh"
#include "engine/view.hh"
#include "inject/ports.hh"
#include "uarch/banks.hh"
#include "uarch/fu.hh"
#include "uarch/ibuffer.hh"
#include "uarch/scoreboard.hh"

namespace ruu
{

namespace
{

/** One Tag Unit entry (§3.2.1): a tag for a currently active register. */
struct TuEntry
{
    bool free = true;
    bool latest = false;  //!< newest tag for its register
    unsigned regFlat = 0; //!< flat register number
};

} // namespace

TomasuloCore::TomasuloCore(const UarchConfig &config) : Core(config)
{
}

RunResult
TomasuloCore::runImpl(const Trace &trace, const RunOptions &options)
{
    if (activeEngine() == engine::Kind::Compiled)
        return runLoop(trace, options,
                       engine::CompiledView(trace, stream()));
    return runLoop(trace, options, engine::InterpView(trace));
}

template <class View>
RunResult
TomasuloCore::runLoop(const Trace &trace, const RunOptions &options,
                      const View &view)
{
    RunResult result = makeInitialResult(trace, options);

    // Tag Unit.
    std::vector<TuEntry> tu(_config.tuEntries);
    std::array<int, kNumArchRegs> latest_slot;
    latest_slot.fill(-1);
    BusyBits busy;

    // Distributed reservation stations: one private pool per unit.
    std::array<std::vector<InflightOp>, kNumFuKinds> rs;
    for (auto &pool : rs)
        pool.resize(_config.rsPerFu);

    // Dispatched instructions in their functional units.
    std::vector<InflightOp> flight;

    // Unresolved memory operations, in program order (RS indices in
    // the memory unit's pool).
    std::deque<unsigned> mem_queue;

    // Undispatched stores, in program order: stores reach memory in
    // program order so same-address updates land in sequence.
    std::deque<SeqNum> store_queue;

    LoadRegisters load_regs(_config.loadRegisters);
    FuPipes pipes(_config);
    MemoryBanks banks(_config.memoryBanks, _config.bankBusyCycles);
    typename View::Bus bus(_config.resultBuses);
    IBuffers ibuffers;

    Counter &c_insts = _stats.counter("instructions");
    Counter &c_branches = _stats.counter("branches");
    Counter &c_dead = _stats.counter("branch_dead_cycles");
    Counter &c_branch_wait = _stats.counter("stall_branch_cond_cycles");
    Counter &c_no_rs = _stats.counter("stall_no_rs_cycles");
    Counter &c_no_tu = _stats.counter("stall_no_tu_cycles");
    Counter &c_no_lr = _stats.counter("stall_no_load_reg_cycles");
    Counter &c_dispatched = _stats.counter("dispatches");
    Counter &c_forwarded = _stats.counter("forwarded_loads");
    Histogram &h_rs_busy = _stats.histogram("rs_occupancy");

    SeqNum decode_seq = options.startSeq;
    Cycle next_decode = 0;
    Cycle last_event = 0;
    bool halted = false;
    bool fault_raised = false;
    const auto &records = trace.records();
    lint::InvariantChecker *ck = invariants();

    // Fault/snapshot port registration (only when a tap is attached):
    // the reservation stations, the Tag Unit, the per-register latest
    // maps, the scoreboard and the shared latches. Entries copied into
    // `flight` and the program-order deques live in dynamic containers
    // whose addresses move, so they are not ports. Destination tags
    // index the Tag Unit, so they wrap to its capacity.
    inject::FaultPortSet fault_ports;
    if (options.tap) {
        for (unsigned k = 0; k < kNumFuKinds; ++k) {
            auto &pool = rs[k];
            for (unsigned i = 0; i < pool.size(); ++i)
                inject::exposeInflightOp(
                    fault_ports,
                    std::string("rs.") +
                        fuKindName(static_cast<FuKind>(k)) + "[" +
                        std::to_string(i) + "]",
                    pool[i], records.size(), _config.tuEntries);
        }
        for (unsigned i = 0; i < tu.size(); ++i) {
            std::string name = "tu[" + std::to_string(i) + "]";
            fault_ports.addFlag(name + ".free", tu[i].free);
            fault_ports.addFlag(name + ".latest", tu[i].latest);
            fault_ports.add(name + ".regFlat",
                            inject::PortClass::Tag, tu[i].regFlat, 32,
                            kNumArchRegs);
        }
        for (unsigned f = 0; f < kNumArchRegs; ++f)
            fault_ports.add("latestSlot." +
                                RegId::fromFlat(f).toString(),
                            inject::PortClass::Tag, latest_slot[f], 32,
                            _config.tuEntries);
        busy.exposePorts(fault_ports, "busy");
        load_regs.exposePorts(fault_ports, "loadReg");
        pipes.exposePorts(fault_ports, "fu");
        banks.exposePorts(fault_ports, "banks");
        bus.exposePorts(fault_ports, "bus");
        if (options.modelIBuffers)
            ibuffers.exposePorts(fault_ports, "ibuf");
        result.state.exposePorts(fault_ports, "regs");
        fault_ports.add("decodeSeq", inject::PortClass::Sequence,
                        decode_seq, 32, records.size() + 1);
        fault_ports.add("nextDecode", inject::PortClass::Sequence,
                        next_decode, 32);
        options.tap->onRunStart(fault_ports);
    }

    auto rs_occupancy = [&]() {
        unsigned n = 0;
        for (const auto &pool : rs)
            for (const auto &e : pool)
                n += e.valid ? 1 : 0;
        return n;
    };

    auto wake_all = [&](Tag tag) {
        for (auto &pool : rs)
            for (auto &e : pool)
                if (e.valid)
                    e.wakeup(tag);
    };

    auto wedge_detail = [&]() {
        std::ostringstream os;
        for (unsigned k = 0; k < kNumFuKinds; ++k) {
            const auto &pool = rs[k];
            unsigned n = 0;
            for (const auto &e : pool)
                n += e.valid ? 1 : 0;
            if (n == 0)
                continue;
            os << "  " << fuKindName(static_cast<FuKind>(k))
               << " rs: " << n << "/" << pool.size() << " busy\n";
            for (const auto &e : pool) {
                if (!e.valid)
                    continue;
                os << "    seq " << e.seq
                   << (e.readyToDispatch() ? " ready (no unit/bus)"
                                           : " waiting on operands")
                   << "\n";
            }
        }
        os << "  in flight: " << flight.size() << " op(s)\n";
        for (const auto &e : flight)
            os << "    seq " << e.seq << " completes cycle "
               << e.completeCycle << "\n";
        return os.str();
    };

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

        // ---- phase 3: dispatch (each unit may accept one per cycle) ----
        // The memory unit gets bus priority (§5), then the other units.
        static constexpr std::array<FuKind, 11> kDispatchOrder = {
            FuKind::Memory,    FuKind::AddrAdd,   FuKind::AddrMul,
            FuKind::ScalarAdd, FuKind::ScalarLogical,
            FuKind::ScalarShift, FuKind::PopLz,   FuKind::FpAdd,
            FuKind::FpMul,     FuKind::FpRecip,   FuKind::Transmit,
        };
        for (FuKind kind : kDispatchOrder) {
            auto &pool = rs[static_cast<unsigned>(kind)];
            int best = -1;
            for (unsigned i = 0; i < pool.size(); ++i) {
                if (pool[i].valid && pool[i].readyToDispatch() &&
                    (best < 0 || pool[i].seq <
                                     pool[static_cast<unsigned>(best)]
                                         .seq)) {
                    best = static_cast<int>(i);
                }
            }
            if (best < 0)
                continue;
            InflightOp &e = pool[static_cast<unsigned>(best)];
            if (e.isStore && (store_queue.empty() ||
                              store_queue.front() != e.seq)) {
                continue;
            }
            unsigned latency = e.isStore ? _config.storeLatency
                               : e.forwarded
                                   ? _config.forwardLatency
                                   : _config.latency(kind);
            if (!pipes.canStart(kind, cycle))
                continue;
            bool to_memory = e.isMem() && !e.forwarded;
            if (to_memory && !banks.canAccess(e.rec->memAddr, cycle))
                continue;
            bool needs_bus = !e.isStore;
            if (needs_bus && !bus.free(cycle + latency))
                continue;
            pipes.start(kind, cycle);
            if (needs_bus)
                bus.reserve(cycle + latency, e.destTag, e.rec->result,
                            e.seq);
            if (to_memory)
                banks.access(e.rec->memAddr, cycle);
            e.dispatched = true;
            e.completeCycle = cycle + latency;
            if (e.isStore)
                store_queue.pop_front();
            ++c_dispatched;
            // The reservation station is released at dispatch (§3.1).
            flight.push_back(e);
            e.valid = false;
        }
        // ---- phase 1: completions ----------------------------------------
        for (auto it = flight.begin(); it != flight.end();) {
            InflightOp &e = *it;
            if (e.completeCycle != cycle) {
                ++it;
                continue;
            }
            last_event = cycle;

            if (e.rec->fault != Fault::None) {
                result.interrupted = true;
                result.fault = e.rec->fault;
                result.faultSeq = e.seq;
                result.faultPc = e.rec->pc;
                fault_raised = true;
                if (result.drainStartCycle == kNoCycle)
                    result.drainStartCycle = cycle;
                ++it;
                continue;
            }

            Tag tag = e.isStore ? storeTagFor(e.seq) : e.destTag;
            Word value = e.isStore ? e.rec->storeValue : e.rec->result;
            wake_all(tag);
            load_regs.onBroadcast(tag, value);
            if (ck) {
                if (e.isStore)
                    ck->onStoreBroadcast(tag);
                else
                    ck->onResultBroadcast(cycle, tag);
            }

            RegId dst = e.rec->inst.dst;
            if (dst.valid()) {
                TuEntry &slot = tu[e.destTag];
                if (slot.latest) {
                    result.state.write(dst, e.rec->result);
                    busy.clear(dst);
                    latest_slot[dst.flat()] = -1;
                }
                slot = TuEntry{}; // release the tag
                if (ck)
                    ck->onTagReleased(e.destTag);
            }
            if (ck && e.isStore)
                ck->onTagReleased(tag);
            if (e.isStore) {
                bool ok = result.memory.store(e.rec->memAddr,
                                              e.rec->storeValue);
                ruu_assert(ok, "store to unmapped address in trace");
            }
            if (e.isMem())
                load_regs.complete(static_cast<unsigned>(e.loadReg));

            ++c_insts;
            ++result.instructions;
            notifyCommit(e.seq, *e.rec);
            it = flight.erase(it);
        }

        if (fault_raised) {
            result.cycles = cycle + 1;
            break;
        }

        // ---- phase 2: memory-address resolution, in program order ------
        auto &mem_rs = rs[static_cast<unsigned>(FuKind::Memory)];
        while (!mem_queue.empty()) {
            InflightOp &e = mem_rs[mem_queue.front()];
            if (!e.src[0].ready)
                break;
            if (!resolveMemOp(e, load_regs))
                break;
            if (e.forwarded)
                ++c_forwarded;
            mem_queue.pop_front();
        }


        // ---- phase 4: decode and issue ------------------------------------
        // An external interrupt stops decode; everything already in the
        // machine drains, so the cut at decode_seq is the sequential
        // prefix. A synchronous fault raised during the drain wins (it
        // is architecturally older).
        const bool irq_stop = options.interruptAt != kNoCycle &&
                              cycle >= options.interruptAt &&
                              decode_seq >= options.interruptMinSeq;
        if (irq_stop && result.drainStartCycle == kNoCycle)
            result.drainStartCycle = cycle;
        if (!irq_stop && !halted && decode_seq < records.size() &&
            cycle >= next_decode) {
            const TraceRecord &rec = records[decode_seq];
            const Instruction &inst = rec.inst;
            bool stalled = false;

            if (options.modelIBuffers) {
                Cycle avail = ibuffers.fetch(rec.pc, cycle);
                if (avail > cycle) {
                    next_decode = avail;
                    stalled = true;
                }
            }

            if (!stalled && view.haltAt(decode_seq)) {
                halted = true;
                last_event = std::max(last_event, cycle);
                ++c_insts;
                ++result.instructions;
                notifyCommit(decode_seq, rec);
                ++decode_seq;
            } else if (!stalled && view.nopLikeAt(decode_seq)) {
                last_event = std::max(last_event, cycle);
                ++c_insts;
                ++result.instructions;
                notifyCommit(decode_seq, rec);
                ++decode_seq;
                next_decode = cycle + 1;
            } else if (!stalled && view.branchAt(decode_seq)) {
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
            } else if (!stalled) {
                FuKind kind = view.memAt(decode_seq)
                                  ? FuKind::Memory
                                  : view.fuAt(decode_seq);
                auto &pool = rs[static_cast<unsigned>(kind)];
                int rs_slot = -1;
                for (unsigned i = 0; i < pool.size(); ++i) {
                    if (!pool[i].valid) {
                        rs_slot = static_cast<int>(i);
                        break;
                    }
                }
                int tu_slot = -1;
                if (inst.dst.valid()) {
                    for (unsigned i = 0; i < tu.size(); ++i) {
                        if (tu[i].free) {
                            tu_slot = static_cast<int>(i);
                            break;
                        }
                    }
                }

                if (rs_slot < 0) {
                    ++c_no_rs;
                } else if (inst.dst.valid() && tu_slot < 0) {
                    ++c_no_tu;
                } else if (view.memAt(decode_seq) &&
                           !load_regs.hasFree()) {
                    ++c_no_lr;
                } else {
                    InflightOp &e = pool[static_cast<unsigned>(rs_slot)];
                    e = InflightOp{};
                    e.valid = true;
                    e.seq = decode_seq;
                    e.rec = &rec;
                    e.isLoad = view.loadAt(decode_seq);
                    e.isStore = view.storeAt(decode_seq);

                    for (unsigned s = 0; s < 2; ++s) {
                        RegId reg = s == 0 ? inst.src1 : inst.src2;
                        if (!reg.valid())
                            continue;
                        e.src[s].needed = true;
                        if (busy.busy(reg)) {
                            int producer = latest_slot[reg.flat()];
                            ruu_assert(producer >= 0,
                                       "busy register %s without a tag",
                                       reg.toString().c_str());
                            e.src[s].ready = false;
                            e.src[s].tag = static_cast<Tag>(producer);
                        }
                    }

                    if (inst.dst.valid()) {
                        int prev = latest_slot[inst.dst.flat()];
                        if (prev >= 0)
                            tu[static_cast<unsigned>(prev)].latest =
                                false;
                        tu[static_cast<unsigned>(tu_slot)] =
                            TuEntry{false, true, inst.dst.flat()};
                        latest_slot[inst.dst.flat()] = tu_slot;
                        busy.setBusy(inst.dst);
                        e.destTag = static_cast<Tag>(tu_slot);
                        if (ck)
                            ck->onTagAllocated(e.destTag, e.seq);
                    }
                    if (ck && e.isStore)
                        ck->onTagAllocated(storeTagFor(e.seq), e.seq);
                    if (e.isMem())
                        mem_queue.push_back(
                            static_cast<unsigned>(rs_slot));
                    if (e.isStore)
                        store_queue.push_back(e.seq);

                    ++decode_seq;
                    next_decode = cycle + 1;
                }
            }
        }

        h_rs_busy.sample(rs_occupancy());

        if (ck) {
            // One busy bit per register with a latest Tag Unit entry.
            unsigned with_tag = 0;
            for (int slot : latest_slot)
                with_tag += slot >= 0 ? 1 : 0;
            ck->onScoreboardSample(busy.countBusy(), with_tag);
        }

        if ((halted || decode_seq >= records.size() || irq_stop) &&
            rs_occupancy() == 0 && flight.empty()) {
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
