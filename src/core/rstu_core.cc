#include "core/rstu_core.hh"

#include <algorithm>
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

/** One RSTU pool entry: a tag and a reservation station in one. */
struct RstuEntry : InflightOp
{
    bool latestCopy = false; //!< this entry holds the register's newest tag
};

} // namespace

RstuCore::RstuCore(const UarchConfig &config) : Core(config)
{
}

RunResult
RstuCore::runImpl(const Trace &trace, const RunOptions &options)
{
    if (activeEngine() == engine::Kind::Compiled)
        return runLoop(trace, options,
                       engine::CompiledView(trace, stream()));
    return runLoop(trace, options, engine::InterpView(trace));
}

template <class View>
RunResult
RstuCore::runLoop(const Trace &trace, const RunOptions &options,
                  const View &view)
{
    RunResult result = makeInitialResult(trace, options);
    const unsigned pool_size = _config.poolEntries;

    std::vector<RstuEntry> pool(pool_size);
    // Compiled path only: the valid slots, kept in seq order (decode
    // issues in program order and only completion removes), so the
    // hot loops walk live entries instead of scanning every slot.
    std::vector<unsigned> live;
    std::vector<unsigned> mem_queue; //!< pool slots of live memory ops,
                                     //!< in program order
    std::deque<SeqNum> store_queue;  //!< undispatched stores, in order:
                                     //!< stores reach memory in program
                                     //!< order (same-address updates)
    BusyBits busy;
    std::array<int, kNumArchRegs> latest_slot;
    latest_slot.fill(-1);
    LoadRegisters load_regs(_config.loadRegisters);
    FuPipes pipes(_config);
    MemoryBanks banks(_config.memoryBanks, _config.bankBusyCycles);
    typename View::Bus bus(_config.resultBuses);
    IBuffers ibuffers;

    Counter &c_insts = _stats.counter("instructions");
    Counter &c_branches = _stats.counter("branches");
    Counter &c_dead = _stats.counter("branch_dead_cycles");
    Counter &c_branch_wait = _stats.counter("stall_branch_cond_cycles");
    Counter &c_no_slot = _stats.counter("stall_no_pool_slot_cycles");
    Counter &c_no_lr = _stats.counter("stall_no_load_reg_cycles");
    Counter &c_dispatched = _stats.counter("dispatches");
    Counter &c_forwarded = _stats.counter("forwarded_loads");
    Histogram &h_occupancy = _stats.histogram("pool_occupancy");

    SeqNum decode_seq = options.startSeq;
    Cycle next_decode = 0;    //!< decode stalls until this cycle
    Cycle last_event = 0;
    bool halted = false;
    bool fault_raised = false;
    const auto &records = trace.records();
    lint::InvariantChecker *ck = invariants();

    // Fault/snapshot port registration (only when a tap is attached).
    // A pool slot doubles as its tag, so destination tags wrap to the
    // pool size, as do the per-register latest-slot pointers.
    inject::FaultPortSet fault_ports;
    if (options.tap) {
        for (unsigned i = 0; i < pool_size; ++i) {
            std::string name = "rstu[" + std::to_string(i) + "]";
            inject::exposeInflightOp(fault_ports, name, pool[i],
                                     records.size(), pool_size);
            fault_ports.addFlag(name + ".latestCopy",
                                pool[i].latestCopy);
        }
        for (unsigned f = 0; f < kNumArchRegs; ++f)
            fault_ports.add("latestSlot." +
                                RegId::fromFlat(f).toString(),
                            inject::PortClass::Tag, latest_slot[f], 32,
                            pool_size);
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

    auto occupancy = [&]() -> unsigned {
        if constexpr (View::kCompiled) {
            return static_cast<unsigned>(live.size());
        } else {
            unsigned n = 0;
            for (const auto &e : pool)
                n += e.valid ? 1 : 0;
            return n;
        }
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
           << "\n";
        for (unsigned i = 0; i < pool_size; ++i) {
            const RstuEntry &e = pool[i];
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
    std::vector<unsigned> completing; // reused every cycle (compiled)
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

        // ---- phase 3: dispatch up to dispatchPaths ready entries --------
        {
            candidates.clear();
            if constexpr (View::kCompiled) {
                // `live` is in seq order, so two passes (memory ops,
                // then the rest) reproduce the sort below.
                for (int pass = 0; pass < 2; ++pass)
                    for (unsigned slot : live) {
                        const RstuEntry &e = pool[slot];
                        if (e.valid && e.readyToDispatch() &&
                            e.isMem() == (pass == 0)) {
                            candidates.push_back(slot);
                        }
                    }
            } else {
                for (unsigned i = 0; i < pool_size; ++i)
                    if (pool[i].valid && pool[i].readyToDispatch())
                        candidates.push_back(i);
                std::sort(candidates.begin(), candidates.end(),
                          [&](unsigned a, unsigned b) {
                              bool am = pool[a].isMem(),
                                   bm = pool[b].isMem();
                              if (am != bm)
                                  return am; // loads/stores first (§5)
                              return pool[a].seq < pool[b].seq;
                          });
            }
            unsigned started = 0;
            bool store_started = false;
            for (unsigned slot : candidates) {
                if (started == _config.dispatchPaths)
                    break;
                RstuEntry &e = pool[slot];
                // Stores go to memory strictly in program order, at
                // most one per cycle, so same-address updates land in
                // the right sequence.
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
                // Memory operations also need their bank (when bank
                // conflicts are modeled); forwarded loads skip memory.
                bool to_memory = e.isMem() && !e.forwarded;
                if (to_memory && !banks.canAccess(e.rec->memAddr, cycle))
                    continue;
                // Register-result producers reserve the single result
                // bus at dispatch; stores go straight to memory.
                bool needs_bus = !e.isStore;
                if (needs_bus && !bus.free(cycle + latency))
                    continue;
                pipes.start(kind, cycle);
                if (needs_bus)
                    bus.reserve(cycle + latency, e.destTag,
                                e.rec->result, e.seq);
                if (to_memory)
                    banks.access(e.rec->memAddr, cycle);
                e.dispatched = true;
                e.completeCycle = cycle + latency;
                if (e.isStore) {
                    store_queue.pop_front();
                    store_started = true;
                }
                ++c_dispatched;
                ++started;
            }
        }
        // ---- phase 1: completions scheduled for this cycle -------------
        // The compiled path collects completing slots from `live` and
        // visits them in ascending slot order — exactly the order of
        // the interpretive full scan (the commit stream depends on
        // it), at the cost of a sort over the handful completing.
        auto complete_entry = [&](unsigned i) {
            RstuEntry &e = pool[i];
            e.executed = true;
            last_event = cycle;

            if (e.rec->fault != Fault::None) {
                // The trap is detected inside the functional unit. The
                // register file already contains results of younger
                // instructions — the interrupt is imprecise. Freeze.
                result.interrupted = true;
                result.fault = e.rec->fault;
                result.faultSeq = e.seq;
                result.faultPc = e.rec->pc;
                fault_raised = true;
                if (result.drainStartCycle == kNoCycle)
                    result.drainStartCycle = cycle;
                return;
            }

            Tag tag = e.isStore ? storeTagFor(e.seq) : e.destTag;
            Word value = e.isStore ? e.rec->storeValue : e.rec->result;
            if constexpr (View::kCompiled) {
                for (unsigned s : live)
                    if (pool[s].valid)
                        pool[s].wakeup(tag);
            } else {
                for (auto &other : pool) {
                    if (other.valid)
                        other.wakeup(tag);
                }
            }
            load_regs.onBroadcast(tag, value);
            if (ck) {
                if (e.isStore)
                    ck->onStoreBroadcast(tag);
                else
                    ck->onResultBroadcast(cycle, tag);
                // The pool slot doubles as the tag; completion frees
                // both, so the entry never outlives its broadcast.
                ck->onTagReleased(tag);
            }

            if (e.rec->inst.dst.valid()) {
                // Only the latest copy may update the register file and
                // unlock the register; stale copies feed waiting
                // reservation stations over the bus only.
                if (e.latestCopy) {
                    result.state.write(e.rec->inst.dst, e.rec->result);
                    busy.clear(e.rec->inst.dst);
                    latest_slot[e.rec->inst.dst.flat()] = -1;
                }
            }
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
            e.valid = false;
            std::erase(mem_queue, i);
            if constexpr (View::kCompiled)
                std::erase(live, i);
        };
        if constexpr (View::kCompiled) {
            completing.clear();
            for (unsigned slot : live) {
                const RstuEntry &e = pool[slot];
                if (e.valid && e.dispatched && !e.executed &&
                    e.completeCycle == cycle) {
                    completing.push_back(slot);
                }
            }
            std::sort(completing.begin(), completing.end());
            for (unsigned slot : completing)
                complete_entry(slot);
        } else {
            for (unsigned i = 0; i < pool_size; ++i) {
                const RstuEntry &e = pool[i];
                if (e.valid && e.dispatched && !e.executed &&
                    e.completeCycle == cycle) {
                    complete_entry(i);
                }
            }
        }

        if (fault_raised) {
            result.cycles = cycle + 1;
            break;
        }

        // ---- phase 2: memory-address resolution, in program order ------
        for (unsigned slot : mem_queue) {
            RstuEntry &e = pool[slot];
            if (e.addrResolved)
                continue;
            // The base register value is the address; a younger memory
            // op may not look up the load registers before this one.
            if (!e.src[0].ready)
                break;
            if (!resolveMemOp(e, load_regs))
                break;
            if (e.forwarded)
                ++c_forwarded;
        }


        // ---- phase 4: decode and issue (one instruction per cycle) ------
        // An external interrupt stops decode; everything already in the
        // pool drains, so the cut at decode_seq is the sequential
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
            Cycle avail = cycle;
            bool stalled = false;

            if (options.modelIBuffers) {
                avail = ibuffers.fetch(rec.pc, cycle);
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
                // The branch waits in the decode-and-issue stage until
                // its condition register is readable.
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
                int slot = free_slot();
                if (slot < 0) {
                    ++c_no_slot;
                } else if (view.memAt(decode_seq) &&
                           !load_regs.hasFree()) {
                    ++c_no_lr;
                } else {
                    RstuEntry &e = pool[static_cast<unsigned>(slot)];
                    e = RstuEntry{};
                    e.valid = true;
                    e.seq = decode_seq;
                    e.rec = &rec;
                    e.isLoad = view.loadAt(decode_seq);
                    e.isStore = view.storeAt(decode_seq);
                    e.destTag = inst.dst.valid()
                                    ? static_cast<Tag>(slot)
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
                            int producer = latest_slot[reg.flat()];
                            ruu_assert(producer >= 0,
                                       "busy register %s without a "
                                       "latest tag",
                                       reg.toString().c_str());
                            e.src[s].ready = false;
                            e.src[s].tag = static_cast<Tag>(producer);
                        }
                    }

                    if (inst.dst.valid()) {
                        // Newest copy of the destination register: any
                        // previous holder loses its latest-copy right.
                        int prev = latest_slot[inst.dst.flat()];
                        if (prev >= 0)
                            pool[static_cast<unsigned>(prev)]
                                .latestCopy = false;
                        e.latestCopy = true;
                        latest_slot[inst.dst.flat()] = slot;
                        busy.setBusy(inst.dst);
                    }
                    if (e.isMem())
                        mem_queue.push_back(
                            static_cast<unsigned>(slot));
                    if (e.isStore)
                        store_queue.push_back(e.seq);
                    if constexpr (View::kCompiled)
                        live.push_back(static_cast<unsigned>(slot));

                    ++decode_seq;
                    next_decode = cycle + 1;
                }
            }
        }

        h_occupancy.sample(occupancy());

        if (ck) {
            // One busy bit per register with a latest-copy pool entry.
            unsigned with_latest = 0;
            for (int slot : latest_slot)
                with_latest += slot >= 0 ? 1 : 0;
            ck->onScoreboardSample(busy.countBusy(), with_latest);
        }

        // ---- termination -------------------------------------------------
        if ((halted || decode_seq >= records.size() || irq_stop) &&
            occupancy() == 0) {
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
