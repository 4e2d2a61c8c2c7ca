#include "core/ruu_core.hh"

#include <algorithm>
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

RuuCore::RuuCore(const UarchConfig &config) : Core(config)
{
}

RunResult
RuuCore::runImpl(const Trace &trace, const RunOptions &options)
{
    if (activeEngine() == engine::Kind::Compiled)
        return runLoop(trace, options,
                       engine::CompiledView(trace, stream()));
    return runLoop(trace, options, engine::InterpView(trace));
}

template <class View>
RunResult
RuuCore::runLoop(const Trace &trace, const RunOptions &options,
                 const View &view)
{
    RunResult result = makeInitialResult(trace, options);
    const unsigned ruu_size = _config.poolEntries;
    const BypassMode bypass = _config.bypass;

    // The RUU proper: a circular queue of reservation-station entries.
    std::vector<InflightOp> ruu(ruu_size);
    unsigned head = 0, tail = 0, count = 0;

    std::vector<unsigned> mem_queue; //!< RUU slots of live memory ops
    InstanceCounters counters(_config.counterBits);
    LoadRegisters load_regs(_config.loadRegisters);
    FuPipes pipes(_config);
    MemoryBanks banks(_config.memoryBanks, _config.bankBusyCycles);
    typename View::Bus bus(_config.resultBuses);
    IBuffers ibuffers;

    // The duplicated register files: §6.3's A future file (LimitedA
    // covers the eight A registers) or §4's full future file
    // (FutureFile covers all 144). Indexed by flat register number; a
    // register's duplicate is valid when its latest instance's value
    // has appeared on the result bus.
    std::array<bool, kNumArchRegs> future_valid;
    future_valid.fill(true);
    auto future_covers = [bypass](RegId reg) {
        if (bypass == BypassMode::FutureFile)
            return true;
        return bypass == BypassMode::LimitedA &&
               reg.file() == RegFile::A;
    };

    // Tags broadcast this cycle on either bus; a branch stalled in
    // decode watches these to pick its condition value off a bus.
    std::vector<Tag> cycle_tags;

    Counter &c_insts = _stats.counter("instructions");
    Counter &c_branches = _stats.counter("branches");
    Counter &c_dead = _stats.counter("branch_dead_cycles");
    Counter &c_branch_wait = _stats.counter("stall_branch_cond_cycles");
    Counter &c_no_slot = _stats.counter("stall_ruu_full_cycles");
    Counter &c_no_lr = _stats.counter("stall_no_load_reg_cycles");
    Counter &c_ni = _stats.counter("stall_ni_saturated_cycles");
    Counter &c_dispatched = _stats.counter("dispatches");
    Counter &c_forwarded = _stats.counter("forwarded_loads");
    Counter &c_bypass = _stats.counter("bypass_reads");
    Counter &c_future = _stats.counter("future_file_reads");
    Counter &c_commits = _stats.counter("commits");
    Histogram &h_occupancy = _stats.histogram("ruu_occupancy");

    SeqNum decode_seq = options.startSeq;
    Cycle next_decode = 0;
    Cycle last_event = 0;
    bool done = false;
    const auto &records = trace.records();
    lint::InvariantChecker *ck = invariants();

    // Fault/snapshot port registration (only when a tap is attached):
    // every RUU entry, the queue cursors, the NI/LI counters, the load
    // registers, the unit/bus/bank latches, the future file and the
    // committed register file. The `rec` host pointers are not ports.
    inject::FaultPortSet fault_ports;
    if (options.tap) {
        for (unsigned i = 0; i < ruu_size; ++i)
            inject::exposeInflightOp(
                fault_ports, "ruu[" + std::to_string(i) + "]", ruu[i],
                records.size());
        inject::exposeCursor(fault_ports, "head", head, ruu_size);
        inject::exposeCursor(fault_ports, "tail", tail, ruu_size);
        inject::exposeCursor(fault_ports, "count", count, ruu_size + 1);
        counters.exposePorts(fault_ports, "counters");
        load_regs.exposePorts(fault_ports, "loadReg");
        pipes.exposePorts(fault_ports, "fu");
        banks.exposePorts(fault_ports, "banks");
        bus.exposePorts(fault_ports, "bus");
        if (options.modelIBuffers)
            ibuffers.exposePorts(fault_ports, "ibuf");
        for (unsigned f = 0; f < kNumArchRegs; ++f)
            fault_ports.addFlag(
                "futureValid." + RegId::fromFlat(f).toString(),
                future_valid[f]);
        result.state.exposePorts(fault_ports, "regs");
        fault_ports.add("decodeSeq", inject::PortClass::Sequence,
                        decode_seq, 32, records.size() + 1);
        fault_ports.add("nextDecode", inject::PortClass::Sequence,
                        next_decode, 32);
        options.tap->onRunStart(fault_ports);
    }

    /**
     * Visit the live window [head, head+count) oldest-first. The
     * queue issues in program order, so window order is seq order;
     * the compiled loops below iterate it instead of scanning every
     * slot (live entries are exactly the window, §5's circular
     * queue), which is what makes large pools cheap.
     */
    auto for_window = [&](auto &&fn) {
        unsigned s = head;
        for (unsigned k = 0; k < count; ++k) {
            fn(s);
            ++s;
            if (s == ruu_size)
                s = 0;
        }
    };

    // Compiled fast path only: incremental indices that let the hot
    // loop touch exactly the entries with work instead of walking the
    // window every cycle. The interpretive path keeps unconditional
    // scans: a fault-injection tap may rewrite entry flags between
    // cycles, which would stale these indices (taps force the interp
    // engine for exactly that reason).
    //
    //  - undispatched: count of valid, not-executed, not-dispatched
    //    entries; zero lets the dispatch walk be skipped outright.
    //  - waiting: slots holding an entry that still needs a broadcast
    //    (an unready source, or a forwarded load awaiting its data).
    //    Wakeups only ever flip not-ready to ready, so delivering them
    //    to just these slots is state-identical to the full scan;
    //    stale or duplicate slots are harmless (wakeup is idempotent)
    //    and are dropped on the next broadcast.
    //  - comp_ring: dispatch schedules its completion cycle here, so
    //    the completion phase visits exactly the completing slots.
    //    The ring outlives the longest latency, and complete_entry's
    //    guard (dispatched, not executed, completeCycle == cycle)
    //    skips any slot a stale schedule left behind. Bucket order is
    //    dispatch order; within a cycle completion effects commute
    //    (see the completion phase below).
    unsigned undispatched = 0;
    std::vector<unsigned> waiting;
    std::vector<std::vector<unsigned>> comp_ring;
    unsigned comp_mask = 0;
    auto needs_wakeup = [](const InflightOp &e) {
        return (e.src[0].needed && !e.src[0].ready) ||
               (e.src[1].needed && !e.src[1].ready) ||
               (e.forwarded && !e.fwdDataReady);
    };
    if constexpr (View::kCompiled) {
        unsigned max_latency =
            std::max(_config.storeLatency, _config.forwardLatency);
        for (unsigned i = 0; i < kNumFuKinds; ++i)
            max_latency = std::max(
                max_latency, _config.latency(static_cast<FuKind>(i)));
        unsigned ring = 1;
        while (ring <= max_latency)
            ring <<= 1;
        comp_ring.resize(ring);
        comp_mask = ring - 1;
    }

    /** Pool entry currently holding tag @p tag, or nullptr. */
    auto entry_with_tag = [&](Tag tag) -> InflightOp * {
        if constexpr (View::kCompiled) {
            InflightOp *found = nullptr;
            for_window([&](unsigned s) {
                InflightOp &e = ruu[s];
                if (!found && e.valid && e.destTag == tag)
                    found = &e;
            });
            return found;
        } else {
            for (auto &e : ruu)
                if (e.valid && e.destTag == tag)
                    return &e;
            return nullptr;
        }
    };

    /**
     * Can a value of @p reg be obtained right now by the decode stage
     * (for a source operand or a branch condition)?
     */
    auto readable = [&](RegId reg) {
        if (!counters.busy(reg))
            return true; // architectural register file
        Tag tag = counters.latestTag(reg);
        switch (bypass) {
          case BypassMode::Full: {
            InflightOp *producer = entry_with_tag(tag);
            if (producer && producer->executed && !producer->faulted) {
                ++c_bypass;
                return true;
            }
            return false;
          }
          case BypassMode::LimitedA:
          case BypassMode::FutureFile:
            if (future_covers(reg) && future_valid[reg.flat()]) {
                ++c_future;
                return true;
            }
            return false;
          case BypassMode::None:
            return false;
        }
        return false;
    };

    /** Deliver a broadcast of (@p tag, @p value) to all monitors. */
    auto broadcast = [&](Tag tag, Word value) {
        if constexpr (View::kCompiled) {
            // Only the waiting slots can be affected; see the index
            // comment above the cycle loop. Slots that became ready
            // (or whose entry is gone) retire from the list here.
            for (std::size_t i = 0; i < waiting.size();) {
                InflightOp &e = ruu[waiting[i]];
                if (e.valid)
                    e.wakeup(tag);
                if (!e.valid || !needs_wakeup(e)) {
                    waiting[i] = waiting.back();
                    waiting.pop_back();
                } else {
                    ++i;
                }
            }
        } else {
            for (auto &e : ruu)
                if (e.valid)
                    e.wakeup(tag);
        }
        load_regs.onBroadcast(tag, value);
        cycle_tags.push_back(tag);
    };

    /** Watchdog dump: one line per live RUU entry, oldest first. */
    auto wedge_detail = [&]() {
        std::string out = "  ruu occupancy " + std::to_string(count) +
                          "/" + std::to_string(ruu_size) + "\n";
        for (unsigned k = 0; k < count; ++k) {
            const InflightOp &e = ruu[(head + k) % ruu_size];
            if (!e.valid)
                continue;
            out += "  entry " + std::to_string((head + k) % ruu_size) +
                   ": seq " + std::to_string(e.seq) + " fu " +
                   fuKindName(e.isMem() ? FuKind::Memory
                                        : e.rec->inst.fu()) +
                   (e.executed ? " executed"
                    : e.dispatched ? " dispatched"
                    : e.readyToDispatch() ? " ready (no unit/bus)"
                                          : " waiting on operands") +
                   (e.faulted ? " faulted" : "") + "\n";
        }
        return out;
    };

    std::vector<unsigned> candidates; // reused every cycle

    for (Cycle cycle = 0; !done; ++cycle) {
        if (cycle > options.maxCycles) {
            markWedged(result, trace, cycle, options, decode_seq,
                       wedge_detail());
            return result;
        }
        if (options.tap)
            options.tap->onCycle(cycle, fault_ports);
        cycle_tags.clear();
        if (ck)
            ck->beginCycle(cycle);

        // ---- phase 4: dispatch to the functional units -------------------
        {
            candidates.clear();
            if constexpr (View::kCompiled) {
                // Window order is seq order, so two passes (memory
                // ops, then the rest) yield exactly the sorted order
                // below without the scan-and-sort.
                if (undispatched > 0) {
                    for (int pass = 0; pass < 2; ++pass) {
                        for_window([&](unsigned s) {
                            const InflightOp &e = ruu[s];
                            if (e.valid && !e.executed &&
                                e.isMem() == (pass == 0) &&
                                e.readyToDispatch()) {
                                candidates.push_back(s);
                            }
                        });
                    }
                }
            } else {
                for (unsigned i = 0; i < ruu_size; ++i) {
                    const InflightOp &e = ruu[i];
                    if (e.valid && !e.executed && e.readyToDispatch())
                        candidates.push_back(i);
                }
                std::sort(candidates.begin(), candidates.end(),
                          [&](unsigned a, unsigned b) {
                              bool am = ruu[a].isMem(),
                                   bm = ruu[b].isMem();
                              if (am != bm)
                                  return am; // §5: loads/stores first
                              return ruu[a].seq < ruu[b].seq;
                          });
            }
            unsigned started = 0;
            for (unsigned slot : candidates) {
                if (started == _config.dispatchPaths)
                    break;
                InflightOp &e = ruu[slot];
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
                if constexpr (View::kCompiled) {
                    --undispatched;
                    comp_ring[e.completeCycle & comp_mask].push_back(
                        slot);
                }
                ++c_dispatched;
                ++started;
            }
        }
        // ---- phase 1: completions (functional-unit result bus) ---------
        // Within a cycle the per-completion effects commute (tags are
        // unique, wakeups and cycle_tags are set-like), so the compiled
        // path may visit the live window in seq order while the
        // interpretive path keeps its slot-order scan: same state.
        auto complete_entry = [&](InflightOp &e) {
            if (!e.valid || !e.dispatched || e.executed ||
                e.completeCycle != cycle) {
                return;
            }
            e.executed = true;
            last_event = cycle;

            if (e.rec->fault != Fault::None) {
                // Detected in the unit; surfaced only when the entry
                // reaches the head, keeping the interrupt precise.
                e.faulted = true;
                if (result.drainStartCycle == kNoCycle)
                    result.drainStartCycle = cycle;
                return;
            }

            Tag tag = e.isStore ? storeTagFor(e.seq) : e.destTag;
            Word value = e.isStore ? e.rec->storeValue : e.rec->result;
            broadcast(tag, value);
            if (ck) {
                if (e.isStore)
                    ck->onStoreBroadcast(tag);
                else
                    ck->onResultBroadcast(cycle, tag);
            }

            // Loads are finished with their load register once their
            // data is delivered; stores hold theirs until commit.
            if (e.isLoad)
                load_regs.complete(static_cast<unsigned>(e.loadReg));

            // Maintain the future file(s) (§6.3 / §4).
            RegId dst = e.rec->inst.dst;
            if (dst.valid() && future_covers(dst) &&
                counters.latestTag(dst) == e.destTag) {
                future_valid[dst.flat()] = true;
            }
        };
        if constexpr (View::kCompiled) {
            auto &due = comp_ring[cycle & comp_mask];
            if (!due.empty()) {
                for (unsigned s : due)
                    complete_entry(ruu[s]);
                due.clear();
            }
        } else {
            for (auto &e : ruu)
                complete_entry(e);
        }

        // ---- phase 2: in-order commit from the head ---------------------
        for (unsigned w = 0; w < _config.commitWidth && count > 0; ++w) {
            InflightOp &e = ruu[head];
            if (!e.executed)
                break;

            if (e.faulted) {
                // Precise interrupt: the committed state is exactly the
                // sequential execution of instructions [start, seq).
                result.interrupted = true;
                result.fault = e.rec->fault;
                result.faultSeq = e.seq;
                result.faultPc = e.rec->pc;
                result.cycles = cycle + 1;
                done = true;
                break;
            }

            const TraceRecord &rec = *e.rec;
            if (ck)
                ck->onCommit(e.seq);
            notifyCommit(e.seq, rec);
            if (rec.inst.dst.valid()) {
                result.state.write(rec.inst.dst, rec.result);
                counters.release(rec.inst.dst);
                // The RUU-to-register-file bus is itself monitored by
                // the reservation stations (§6.2), so commitment is a
                // second broadcast of the same tag.
                broadcast(e.destTag, rec.result);
                if (ck) {
                    ck->onCommitBroadcast(cycle, e.destTag);
                    ck->onTagReleased(e.destTag);
                }
            }
            if (e.isStore) {
                bool ok = result.memory.store(rec.memAddr,
                                              rec.storeValue);
                ruu_assert(ok, "store to unmapped address in trace");
                load_regs.complete(static_cast<unsigned>(e.loadReg));
                if (ck)
                    ck->onTagReleased(storeTagFor(e.seq));
            }

            ++c_commits;
            ++c_insts;
            ++result.instructions;
            last_event = cycle;

            bool was_halt = view.haltAt(e.seq);
            e.valid = false;
            std::erase(mem_queue, head);
            head = (head + 1) % ruu_size;
            --count;

            if (was_halt) {
                result.cycles = cycle + 1;
                done = true;
                break;
            }
        }
        if (done)
            break;

        // ---- phase 3: memory-address resolution, in program order ------
        for (unsigned slot : mem_queue) {
            InflightOp &e = ruu[slot];
            if (e.addrResolved)
                continue;
            if (!e.src[0].ready)
                break;
            if (!resolveMemOp(e, load_regs))
                break;
            if (e.forwarded) {
                ++c_forwarded;
                // A forwarded load now monitors its producer's tag —
                // that wait arises here, after issue, so the slot may
                // not be on the waiting list yet.
                if constexpr (View::kCompiled) {
                    if (needs_wakeup(e))
                        waiting.push_back(slot);
                }
            }
        }


        // An external interrupt gates decode from its arrival cycle on
        // (but never before interruptMinSeq); the entries already in
        // the RUU drain to completion below, so the cut at decode_seq
        // is the sequential prefix. A synchronous fault reaching the
        // head during the drain is older and wins — the commit phase
        // above runs first and sets done.
        const bool irq_stop = options.interruptAt != kNoCycle &&
                              cycle >= options.interruptAt &&
                              decode_seq >= options.interruptMinSeq;
        if (irq_stop && result.drainStartCycle == kNoCycle)
            result.drainStartCycle = cycle;

        // ---- phase 5: decode and issue (one instruction per cycle) ------
        if (!irq_stop && decode_seq < records.size() &&
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

            if (!stalled && view.branchAt(decode_seq)) {
                // Branches resolve in the decode-and-issue stage once
                // the condition register value can be obtained — from
                // the register file, a bypass path, or a bus broadcast
                // happening this cycle.
                bool cond_ok = !inst.src1.valid() || readable(inst.src1);
                if (!cond_ok && inst.src1.valid() &&
                    counters.busy(inst.src1)) {
                    Tag watch = counters.latestTag(inst.src1);
                    cond_ok = std::find(cycle_tags.begin(),
                                        cycle_tags.end(),
                                        watch) != cycle_tags.end();
                }
                if (cond_ok) {
                    ++c_branches;
                    ++c_insts;
                    ++result.instructions;
                    notifyCommit(decode_seq, rec);
                    unsigned penalty = branchPenalty(rec.taken);
                    c_dead += penalty;
                    next_decode = cycle + penalty;
                    last_event = std::max(last_event, cycle);
                    ++decode_seq;
                } else {
                    ++c_branch_wait;
                }
            } else if (!stalled) {
                bool can_issue = true;
                if (count == ruu_size) {
                    ++c_no_slot;
                    can_issue = false;
                } else if (inst.dst.valid() &&
                           !counters.canAllocate(inst.dst)) {
                    ++c_ni;
                    can_issue = false;
                } else if (view.memAt(decode_seq) &&
                           !load_regs.hasFree()) {
                    ++c_no_lr;
                    can_issue = false;
                }

                if (can_issue) {
                    InflightOp &e = ruu[tail];
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
                        if (counters.busy(reg) && !readable(reg)) {
                            e.src[s].ready = false;
                            e.src[s].tag = counters.latestTag(reg);
                        }
                    }

                    if (inst.dst.valid()) {
                        unsigned instance = counters.allocate(inst.dst);
                        e.destTag = counters.makeTag(inst.dst, instance);
                        if (future_covers(inst.dst))
                            future_valid[inst.dst.flat()] = false;
                        if (ck)
                            ck->onTagAllocated(e.destTag, e.seq);
                    }
                    if (ck && e.isStore)
                        ck->onTagAllocated(storeTagFor(e.seq), e.seq);

                    // Instructions with no functional unit (NOP, HALT)
                    // are complete on arrival and only wait to commit.
                    if (view.fuAt(decode_seq) == FuKind::None)
                        e.executed = true;
                    else if constexpr (View::kCompiled)
                        ++undispatched;
                    if constexpr (View::kCompiled) {
                        if (needs_wakeup(e))
                            waiting.push_back(tail);
                    }

                    if (e.isMem())
                        mem_queue.push_back(tail);

                    tail = (tail + 1) % ruu_size;
                    ++count;
                    ++decode_seq;
                    next_decode = cycle + 1;
                }
            }
        }

        h_occupancy.sample(count);

        if (ck) {
            // §5: the NI counters must agree with the set of RUU
            // entries holding an uncommitted register writer.
            unsigned writers = 0;
            for (const InflightOp &e : ruu)
                if (e.valid && e.rec && e.rec->inst.dst.valid())
                    ++writers;
            unsigned ni_total = 0;
            for (unsigned f = 0; f < kNumArchRegs; ++f)
                ni_total += counters.instances(RegId::fromFlat(f));
            ck->onScoreboardSample(ni_total, writers);
            ck->require(count <= ruu_size,
                        "RUU occupancy exceeds capacity");
        }

        if ((decode_seq >= records.size() || irq_stop) && count == 0) {
            if (decode_seq < records.size()) {
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
