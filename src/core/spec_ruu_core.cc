#include "core/spec_ruu_core.hh"

#include <algorithm>
#include <sstream>
#include <vector>

#include "core/ooo_support.hh"
#include "core/predictor.hh"
#include "engine/view.hh"
#include "inject/ports.hh"
#include "uarch/banks.hh"
#include "uarch/fu.hh"
#include "uarch/scoreboard.hh"

namespace ruu
{

namespace
{

/** An RUU entry extended with conditional-execution state. */
struct SpecEntry : InflightOp
{
    std::uint64_t issueId = 0;  //!< global decode order (wrong path too)
    bool wrongPath = false;     //!< fetched past a mispredicted branch
    bool isBranchEntry = false; //!< a conditional branch in the RUU
    bool resolvedBranch = false;
    bool predictedTaken = false;
    Instruction wpInst;         //!< instruction image for wrong-path ops

    /** The instruction, from the trace record or the wrong-path image. */
    const Instruction &inst() const { return rec ? rec->inst : wpInst; }
};

} // namespace

SpecRuuCore::SpecRuuCore(const UarchConfig &config) : Core(config)
{
    if (config.bypass != BypassMode::Full)
        ruu_fatal("SpecRuuCore models the full-bypass RUU only");
}

RunResult
SpecRuuCore::runImpl(const Trace &trace, const RunOptions &options)
{
    if (activeEngine() == engine::Kind::Compiled)
        return runLoop(trace, options,
                       engine::CompiledView(trace, stream()));
    return runLoop(trace, options, engine::InterpView(trace));
}

template <class View>
RunResult
SpecRuuCore::runLoop(const Trace &trace, const RunOptions &options,
                     const View &view)
{
    RunResult result = makeInitialResult(trace, options);
    ruu_assert(trace.programPtr() && !trace.program().empty(),
               "SpecRuuCore needs the static program for wrong-path "
               "fetch; run it on traces from runFunctional()");
    const Program &program = trace.program();
    const unsigned ruu_size = _config.poolEntries;

    std::vector<SpecEntry> ruu(ruu_size);
    unsigned head = 0, tail = 0, count = 0;
    std::uint64_t next_issue_id = 1;

    std::vector<unsigned> mem_queue;
    InstanceCounters counters(_config.counterBits);
    LoadRegisters load_regs(_config.loadRegisters);
    FuPipes pipes(_config);
    MemoryBanks banks(_config.memoryBanks, _config.bankBusyCycles);
    typename View::Bus bus(_config.resultBuses);
    auto predictor = BranchPredictor::make(_config.predictor,
                                           _config.predictorTableBits);

    Counter &c_insts = _stats.counter("instructions");
    Counter &c_branches = _stats.counter("branches");
    Counter &c_pred_correct = _stats.counter("predicted_correct");
    Counter &c_mispredicts = _stats.counter("mispredicts");
    Counter &c_squashed = _stats.counter("squashed_entries");
    Counter &c_wrong_path = _stats.counter("wrong_path_decoded");
    Counter &c_no_slot = _stats.counter("stall_ruu_full_cycles");
    Counter &c_ni = _stats.counter("stall_ni_saturated_cycles");
    Counter &c_no_lr = _stats.counter("stall_no_load_reg_cycles");
    Counter &c_dispatched = _stats.counter("dispatches");
    Counter &c_forwarded = _stats.counter("forwarded_loads");
    Counter &c_commits = _stats.counter("commits");
    Histogram &h_occupancy = _stats.histogram("ruu_occupancy");

    SeqNum decode_seq = options.startSeq;
    Cycle next_decode = 0;
    Cycle last_event = 0;
    bool done = false;

    // Wrong-path fetch state: active after a mispredicted branch's
    // wrong direction was followed, until that branch resolves.
    bool wp_active = false;
    bool wp_stuck = false;       //!< wrong path ran off the program
    std::size_t wp_index = 0;    //!< static index being fetched

    const auto &records = trace.records();
    lint::InvariantChecker *ck = invariants();

    // Fault/snapshot port registration (only when a tap is attached):
    // the RUU entries with their speculation flags, the cursors, the
    // NI/LI counters and the shared latches. The predictor's internal
    // tables and the wrong-path instruction images are not ports.
    inject::FaultPortSet fault_ports;
    if (options.tap) {
        for (unsigned i = 0; i < ruu_size; ++i) {
            SpecEntry &e = ruu[i];
            std::string name = "ruu[" + std::to_string(i) + "]";
            inject::exposeInflightOp(fault_ports, name, e,
                                     records.size());
            fault_ports.add(name + ".issueId",
                            inject::PortClass::Sequence, e.issueId,
                            32);
            fault_ports.addFlag(name + ".wrongPath", e.wrongPath);
            fault_ports.addFlag(name + ".isBranchEntry",
                                e.isBranchEntry);
            fault_ports.addFlag(name + ".resolvedBranch",
                                e.resolvedBranch);
            fault_ports.addFlag(name + ".predictedTaken",
                                e.predictedTaken);
        }
        inject::exposeCursor(fault_ports, "head", head, ruu_size);
        inject::exposeCursor(fault_ports, "tail", tail, ruu_size);
        inject::exposeCursor(fault_ports, "count", count, ruu_size + 1);
        fault_ports.add("nextIssueId", inject::PortClass::Sequence,
                        next_issue_id, 32);
        counters.exposePorts(fault_ports, "counters");
        load_regs.exposePorts(fault_ports, "loadReg");
        pipes.exposePorts(fault_ports, "fu");
        banks.exposePorts(fault_ports, "banks");
        bus.exposePorts(fault_ports, "bus");
        result.state.exposePorts(fault_ports, "regs");
        fault_ports.addFlag("wpActive", wp_active);
        fault_ports.addFlag("wpStuck", wp_stuck);
        fault_ports.add("wpIndex", inject::PortClass::Sequence,
                        wp_index, 32, program.size());
        fault_ports.add("decodeSeq", inject::PortClass::Sequence,
                        decode_seq, 32, records.size() + 1);
        fault_ports.add("nextDecode", inject::PortClass::Sequence,
                        next_decode, 32);
        options.tap->onRunStart(fault_ports);
    }

    /** Queue position (0 = head) of slot @p slot. */
    auto queue_pos = [&](unsigned slot) {
        return (slot + ruu_size - head) % ruu_size;
    };

    /**
     * Visit the live window [head, head+count) oldest-first. Entries
     * are allocated at the tail in issue order (and squashes only
     * truncate the tail), so window order is issueId order; live
     * entries are exactly the window. The compiled loops below walk
     * it instead of scanning every slot.
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
    // window every cycle (same scheme as RuuCore; the interpretive
    // path keeps unconditional scans because a fault-injection tap may
    // rewrite entry flags between cycles, and taps force interp).
    //
    //  - undispatched: valid, not-executed, not-dispatched non-branch
    //    entries; zero skips the dispatch walk. Squash decrements it
    //    for every nullified entry that was still counted.
    //  - waiting: slots that still need a broadcast (an unready
    //    source — branch conditions included — or a forwarded load
    //    awaiting data). Wakeups only flip not-ready to ready, so
    //    delivering to just these slots is state-identical; stale or
    //    duplicate slots (e.g. after a squash) are harmless and are
    //    dropped on the next broadcast.
    //  - comp_ring: dispatch schedules its completion cycle here. The
    //    ring outlives the longest latency and complete_entry's guard
    //    skips slots whose schedule a squash made stale; if a reused
    //    slot passes the guard early, the within-cycle commutativity
    //    of completions (see phase 1) makes that order change
    //    invisible.
    //  - unresolved_branches: branch entries not yet resolved; zero
    //    skips the resolution walk and the older-branch store check.
    unsigned undispatched = 0;
    unsigned unresolved_branches = 0;
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

    auto entry_with_tag = [&](Tag tag) -> SpecEntry * {
        if constexpr (View::kCompiled) {
            SpecEntry *found = nullptr;
            for_window([&](unsigned s) {
                SpecEntry &e = ruu[s];
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

    /** Full-bypass readability of @p reg at decode. */
    auto readable = [&](RegId reg) {
        if (!counters.busy(reg))
            return true;
        SpecEntry *producer = entry_with_tag(counters.latestTag(reg));
        return producer && producer->executed && !producer->faulted;
    };

    /** True when a branch entry older than @p issue_id is unresolved. */
    auto older_unresolved_branch = [&](std::uint64_t issue_id) {
        if constexpr (View::kCompiled) {
            if (unresolved_branches == 0)
                return false;
        }
        for (unsigned i = 0, slot = head; i < count;
             ++i, slot = (slot + 1) % ruu_size) {
            const SpecEntry &e = ruu[slot];
            if (e.valid && e.isBranchEntry && !e.resolvedBranch &&
                e.issueId < issue_id) {
                return true;
            }
        }
        return false;
    };

    auto broadcast = [&](Tag tag, Word value) {
        if constexpr (View::kCompiled) {
            // Only the waiting slots can be affected; see the index
            // comment above. Ready (or squashed) slots retire here.
            for (std::size_t i = 0; i < waiting.size();) {
                SpecEntry &e = ruu[waiting[i]];
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
    };

    /**
     * Nullify every entry younger than the one at @p branch_slot:
     * roll back instance counters newest-first, return load-register
     * claims, cancel undelivered results, and reset the tail.
     */
    auto squash_younger = [&](unsigned branch_slot) {
        std::uint64_t branch_issue = ruu[branch_slot].issueId;
        unsigned keep = queue_pos(branch_slot) + 1;
        // Walk from the newest entry back to the first squashed one.
        for (unsigned i = count; i-- > keep;) {
            unsigned slot = (head + i) % ruu_size;
            SpecEntry &e = ruu[slot];
            ruu_assert(e.valid && e.issueId > branch_issue,
                       "squash walked onto an older entry");
            RegId dst = e.inst().dst;
            if (dst.valid())
                counters.rollback(dst);
            if (ck && dst.valid())
                ck->onTagSquashed(e.destTag);
            if (ck && e.isStore)
                ck->onTagSquashed(storeTagFor(e.seq));
            if (e.isMem() && e.addrResolved && !e.lrReleased)
                load_regs.complete(static_cast<unsigned>(e.loadReg));
            if constexpr (View::kCompiled) {
                if (!e.executed && !e.dispatched && !e.isBranchEntry)
                    --undispatched;
                if (e.isBranchEntry && !e.resolvedBranch)
                    --unresolved_branches;
            }
            e.valid = false;
            std::erase(mem_queue, slot);
            ++c_squashed;
        }
        bus.cancelFrom(branch_issue + 1);
        tail = (head + keep) % ruu_size;
        count = keep;
    };

    auto wedge_detail = [&]() {
        std::ostringstream os;
        os << "  ruu occupancy " << count << "/" << ruu_size;
        if (wp_active)
            os << " (wrong-path fetch" << (wp_stuck ? ", stuck" : "")
               << ")";
        os << "\n";
        for (unsigned i = 0, slot = head; i < count;
             ++i, slot = (slot + 1) % ruu_size) {
            const SpecEntry &e = ruu[slot];
            if (!e.valid)
                continue;
            FuKind kind = e.isMem() ? FuKind::Memory : e.inst().fu();
            os << "    slot " << slot << ": seq ";
            if (e.seq == kNoSeqNum)
                os << "wrong-path";
            else
                os << e.seq;
            os << " " << fuKindName(kind)
               << (e.isBranchEntry && !e.resolvedBranch
                       ? " unresolved branch"
                   : e.executed          ? " executed"
                   : e.dispatched        ? " dispatched"
                   : e.readyToDispatch() ? " ready (no unit/bus)"
                                         : " waiting on operands")
               << (e.faulted ? ", faulted" : "") << "\n";
        }
        return os.str();
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
        if (ck)
            ck->beginCycle(cycle);

        // ---- phase 5: dispatch -------------------------------------------
        {
            candidates.clear();
            if constexpr (View::kCompiled) {
                // Window order is issueId order: two passes (memory
                // ops, then the rest) reproduce the sort below.
                if (undispatched > 0) {
                    for (int pass = 0; pass < 2; ++pass) {
                        for_window([&](unsigned s) {
                            const SpecEntry &e = ruu[s];
                            if (e.valid && !e.executed &&
                                !e.isBranchEntry &&
                                e.isMem() == (pass == 0) &&
                                e.readyToDispatch()) {
                                candidates.push_back(s);
                            }
                        });
                    }
                }
            } else {
                for (unsigned i = 0; i < ruu_size; ++i) {
                    const SpecEntry &e = ruu[i];
                    if (e.valid && !e.executed && !e.isBranchEntry &&
                        e.readyToDispatch()) {
                        candidates.push_back(i);
                    }
                }
                std::sort(candidates.begin(), candidates.end(),
                          [&](unsigned a, unsigned b) {
                              bool am = ruu[a].isMem(),
                                   bm = ruu[b].isMem();
                              if (am != bm)
                                  return am;
                              return ruu[a].issueId < ruu[b].issueId;
                          });
            }
            unsigned started = 0;
            for (unsigned slot : candidates) {
                if (started == _config.dispatchPaths)
                    break;
                SpecEntry &e = ruu[slot];
                FuKind kind = e.isMem()  ? FuKind::Memory
                              : e.rec    ? view.fuAt(e.seq)
                                         : e.wpInst.fu();
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
                                e.rec ? e.rec->result : 0,
                                static_cast<SeqNum>(e.issueId));
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
        // ---- phase 1: completions --------------------------------------
        // Per-completion effects commute within a cycle (unique tags,
        // set-like wakeups), so the compiled path walks the window in
        // issue order while the interpretive path scans slots.
        auto complete_entry = [&](SpecEntry &e) {
            if (!e.valid || !e.dispatched || e.executed ||
                e.completeCycle != cycle) {
                return;
            }
            e.executed = true;
            last_event = cycle;
            if (e.rec && e.rec->fault != Fault::None) {
                e.faulted = true;
                if (result.drainStartCycle == kNoCycle)
                    result.drainStartCycle = cycle;
                return;
            }
            // Stores broadcast the seq-based pseudo-tag resolveMemOp
            // registered in the load registers (wrong-path entries are
            // never marked isStore, so seq is always valid here).
            Tag tag = e.isStore ? storeTagFor(e.seq) : e.destTag;
            Word value = !e.rec ? 0
                         : e.isStore ? e.rec->storeValue
                                     : e.rec->result;
            broadcast(tag, value);
            if (ck) {
                if (e.isStore)
                    ck->onStoreBroadcast(tag);
                else
                    ck->onResultBroadcast(cycle, tag);
            }
            if (e.isLoad && !e.lrReleased) {
                load_regs.complete(static_cast<unsigned>(e.loadReg));
                e.lrReleased = true;
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

        // ---- phase 2: branch resolution (oldest first) ------------------
        bool resolve_walk = true;
        if constexpr (View::kCompiled)
            resolve_walk = unresolved_branches > 0;
        for (unsigned i = 0, slot = head; resolve_walk && i < count;
             ++i, slot = (slot + 1) % ruu_size) {
            SpecEntry &e = ruu[slot];
            if (!e.valid || !e.isBranchEntry || e.resolvedBranch)
                continue;
            if (e.src[0].needed && !e.src[0].ready)
                continue;
            e.resolvedBranch = true;
            e.executed = true;
            if constexpr (View::kCompiled)
                --unresolved_branches;
            last_event = cycle;
            if (e.wrongPath)
                continue; // outcome is irrelevant; it will be nullified
            bool actual = e.rec->taken;
            predictor->update(e.rec->pc, actual);
            if (actual == e.predictedTaken) {
                ++c_pred_correct;
            } else {
                ++c_mispredicts;
                squash_younger(slot);
                // Fetch redirects to the correct path, which is where
                // the trace pointer already stands.
                wp_active = false;
                wp_stuck = false;
                next_decode = cycle + _config.mispredictPenalty;
                break; // younger branches were just nullified
            }
        }

        // ---- phase 3: in-order commit -----------------------------------
        for (unsigned w = 0; w < _config.commitWidth && count > 0; ++w) {
            SpecEntry &e = ruu[head];
            if (!e.executed)
                break;
            if (e.isBranchEntry && !e.resolvedBranch)
                break;
            ruu_assert(!e.wrongPath,
                       "a wrong-path entry survived to the head");

            if (e.faulted) {
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

        // ---- phase 4: memory resolution, in program order ---------------
        for (unsigned slot : mem_queue) {
            SpecEntry &e = ruu[slot];
            if (e.addrResolved)
                continue;
            if (!e.src[0].ready)
                break;
            // A conditional store must not perturb the load registers:
            // wait until every older branch is decided.
            if (e.isStore && older_unresolved_branch(e.issueId))
                break;
            if (!resolveMemOp(e, load_regs))
                break;
            if (e.forwarded) {
                ++c_forwarded;
                // The forwarded-data wait arises here, after issue, so
                // the slot may not be on the waiting list yet.
                if constexpr (View::kCompiled) {
                    if (needs_wakeup(e))
                        waiting.push_back(slot);
                }
            }
        }


        // ---- phase 6: decode --------------------------------------------
        // An external interrupt stops both fetch streams; in-flight
        // work drains (unresolved branches resolve, wrong-path entries
        // squash) and everything older commits, so the cut at
        // decode_seq is the sequential prefix. A synchronous fault
        // reaching the RUU head during the drain wins (it is
        // architecturally older).
        const bool irq_stop = options.interruptAt != kNoCycle &&
                              cycle >= options.interruptAt &&
                              decode_seq >= options.interruptMinSeq;
        if (irq_stop && result.drainStartCycle == kNoCycle)
            result.drainStartCycle = cycle;
        bool on_trace = !wp_active && decode_seq < records.size();
        bool on_wrong = wp_active && !wp_stuck;
        if (!irq_stop && (on_trace || on_wrong) && cycle >= next_decode) {
            const TraceRecord *rec = on_trace ? &records[decode_seq]
                                              : nullptr;
            const Instruction &inst = on_trace ? rec->inst
                                               : program.inst(wp_index);
            ParcelAddr pc = on_trace ? rec->pc : program.pc(wp_index);

            // Structural checks shared by both fetch paths.
            bool can_issue = true;
            if (count == ruu_size) {
                ++c_no_slot;
                can_issue = false;
            } else if (inst.dst.valid() &&
                       !counters.canAllocate(inst.dst)) {
                ++c_ni;
                can_issue = false;
            } else if (on_trace && view.memAt(decode_seq) &&
                       !load_regs.hasFree()) {
                ++c_no_lr;
                can_issue = false;
            }

            if (can_issue && on_wrong && isProgramExit(inst.op)) {
                wp_stuck = true; // wrong path ran into program end
            } else if (can_issue) {
                SpecEntry &e = ruu[tail];
                e = SpecEntry{};
                e.valid = true;
                e.issueId = next_issue_id++;
                e.seq = on_trace ? decode_seq : kNoSeqNum;
                e.rec = rec;
                e.wrongPath = on_wrong;
                e.wpInst = inst;
                e.isLoad = on_trace && view.loadAt(decode_seq);
                e.isStore = on_trace && view.storeAt(decode_seq);

                bool is_cond = isCondBranch(inst.op);
                bool is_jump = inst.op == Opcode::J;

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

                if (inst.dst.valid())
                    e.destTag = counters.makeTag(
                        inst.dst, counters.allocate(inst.dst));
                if (ck && inst.dst.valid())
                    ck->onTagAllocated(e.destTag, e.seq);
                if (ck && e.isStore)
                    ck->onTagAllocated(storeTagFor(e.seq), e.seq);

                if (inst.fu() == FuKind::None && !is_cond)
                    e.executed = true; // NOP, HALT, J

                bool taken_fetch = false;

                if (is_cond) {
                    e.isBranchEntry = true;
                    if (on_trace)
                        ++c_branches; // wrong-path branches count as
                                      // wrong_path_decoded only
                    bool backward = inst.target < pc;
                    if (e.src[0].ready) {
                        // Condition readable at decode: no speculation.
                        e.resolvedBranch = true;
                        e.executed = true;
                        bool actual = on_trace ? rec->taken
                                               : predictor->predict(
                                                     pc, backward);
                        if (on_trace)
                            predictor->update(pc, actual);
                        e.predictedTaken = actual;
                        taken_fetch = actual;
                    } else {
                        bool p = predictor->predict(pc, backward);
                        e.predictedTaken = p;
                        taken_fetch = p;
                        if (on_trace && p != rec->taken) {
                            // Following the wrong direction: fetch the
                            // wrong path from the program image. The
                            // trace pointer stays on the correct path.
                            wp_active = true;
                            wp_stuck = false;
                            wp_index = p
                                ? *program.indexOfPc(inst.target)
                                : rec->staticIndex + 1;
                        }
                    }
                } else if (is_jump) {
                    taken_fetch = true;
                }

                // Advance whichever fetch stream is active.
                if (on_trace && !wp_active) {
                    ++decode_seq;
                } else if (on_trace && wp_active) {
                    ++decode_seq; // branch consumed; trace waits here
                } else {
                    ++c_wrong_path;
                    if (taken_fetch) {
                        auto target = program.indexOfPc(inst.target);
                        if (target)
                            wp_index = *target;
                        else
                            wp_stuck = true;
                    } else {
                        ++wp_index;
                        if (wp_index >= program.size())
                            wp_stuck = true;
                    }
                }

                if (e.isMem())
                    mem_queue.push_back(tail);

                if constexpr (View::kCompiled) {
                    if (!e.executed && !e.isBranchEntry)
                        ++undispatched;
                    if (e.isBranchEntry && !e.resolvedBranch)
                        ++unresolved_branches;
                    if (needs_wakeup(e))
                        waiting.push_back(tail);
                }

                tail = (tail + 1) % ruu_size;
                ++count;
                next_decode = cycle + 1 +
                              (taken_fetch ? _config.predictedTakenPenalty
                                           : 0);
                if (on_trace && isProgramExit(inst.op))
                    decode_seq = records.size(); // stop trace fetch
            }
        }

        h_occupancy.sample(count);

        if (ck) {
            // §5: the NI counters must agree with the set of RUU
            // entries (correct or wrong path) holding a register
            // writer whose instance is not yet committed or squashed.
            unsigned writers = 0;
            for (const SpecEntry &e : ruu)
                if (e.valid && e.inst().dst.valid())
                    ++writers;
            unsigned ni_total = 0;
            for (unsigned f = 0; f < kNumArchRegs; ++f)
                ni_total += counters.instances(RegId::fromFlat(f));
            ck->onScoreboardSample(ni_total, writers);
            ck->require(count <= ruu_size,
                        "RUU occupancy exceeds capacity");
        }

        if ((decode_seq >= records.size() || irq_stop) && !wp_active &&
            count == 0) {
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
