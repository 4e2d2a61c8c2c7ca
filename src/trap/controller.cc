#include "trap/controller.hh"

#include <algorithm>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "arch/executor.hh"
#include "arch/func_sim.hh"
#include "common/logging.hh"
#include "lint/wcirt.hh"
#include "oracle/commit_oracle.hh"
#include "sim/machine.hh"

namespace ruu::trap
{

namespace
{

/** One live execution context: the outer program or a handler level. */
struct Ctx
{
    std::shared_ptr<const Program> prog;
    Trace trace;              //!< the context's dynamic instructions
    SeqNum segStart = 0;      //!< next dynamic instruction to run
    unsigned level = 0;       //!< 0 = the interrupted program
    bool ieAtTraceStart = true;
    bool needsRegen = false;  //!< an RTI failed the keep rule
    bool rtiShadow = false;   //!< one instruction guaranteed post-RTI
    std::uint64_t committed = 0; //!< instructions committed, this ctx
    std::size_t deliveryIndex = 0; //!< handler ctx: its Delivery entry
    Cycle entryCycle = 0;     //!< handler ctx: global cycle of the cut

    // Facts about `trace` every segment needs, computed once by adopt()
    // rather than rescanned per segment: a kept trace's segStart walks
    // all the way to the program's end.
    std::vector<SeqNum> eints; //!< seqs of the trace's EINTs, ascending
    std::vector<SeqNum> dints; //!< seqs of the trace's DINTs, ascending
    std::uint64_t maxCycles = 0; //!< per-segment watchdog budget
    bool keepable = false;     //!< a re-derivation would reproduce it
    /** Last seq loading each address; built on the first keep check. */
    std::optional<std::unordered_map<Addr, SeqNum>> lastLoad;

    /** The registers at the pending asynchronous cut, if any. */
    std::optional<ArchState> cutState;
};

/**
 * Make @p trace @p ctx's trace from its first record and index what
 * every segment asks of it. @p keepable means a functional
 * re-derivation of any suffix would reproduce the trace record for
 * record — which needs it to end in HALT (not at the functional
 * instruction limit) and to carry no fault annotations beyond the ones
 * annotateInjects() puts back.
 */
void
adopt(Ctx &ctx, Trace trace, bool ie, bool keepable,
      std::uint64_t maxCycles)
{
    ctx.trace = std::move(trace);
    ctx.segStart = 0;
    ctx.ieAtTraceStart = ie;
    ctx.eints.clear();
    ctx.dints.clear();
    const auto &records = ctx.trace.records();
    for (SeqNum s = 0; s < records.size(); ++s) {
        if (records[s].inst.op == Opcode::EINT)
            ctx.eints.push_back(s);
        else if (records[s].inst.op == Opcode::DINT)
            ctx.dints.push_back(s);
    }
    ctx.maxCycles = maxCycles;
    ctx.keepable = keepable && !records.empty() &&
                   records.back().inst.op == Opcode::HALT;
    ctx.lastLoad.reset();
}

/** The IE state @p ctx's trace implies just before seq @p seq. */
bool
ieAt(const Ctx &ctx, SeqNum seq)
{
    auto lastBefore = [seq](const std::vector<SeqNum> &seqs) {
        auto it = std::lower_bound(seqs.begin(), seqs.end(), seq);
        return it == seqs.begin() ? kNoSeqNum : *(it - 1);
    };
    SeqNum eint = lastBefore(ctx.eints);
    SeqNum dint = lastBefore(ctx.dints);
    if (eint == kNoSeqNum && dint == kNoSeqNum)
        return ctx.ieAtTraceStart;
    return dint == kNoSeqNum || (eint != kNoSeqNum && eint > dint);
}

/** Interrupt-eligible cut range [minSeq, maxSeq] within a trace. */
struct IrqWindow
{
    bool open = false;
    SeqNum minSeq = 0;
    SeqNum maxSeq = 0;
};

/**
 * Where in @p ctx's trace (from its segStart) an asynchronous cut may
 * legally land, given the EINT/DINT instructions the trace itself
 * carries. A cut at seq s commits exactly [segStart, s), so a cut at a
 * DINT's own seq is still inside the window — the DINT has not
 * committed yet.
 */
IrqWindow
irqWindow(const Ctx &ctx)
{
    IrqWindow win;
    if (ieAt(ctx, ctx.segStart)) {
        win.minSeq = ctx.segStart;
    } else {
        auto eint = std::lower_bound(ctx.eints.begin(), ctx.eints.end(),
                                     ctx.segStart);
        if (eint == ctx.eints.end())
            return win;
        win.minSeq = *eint + 1;
    }
    win.open = true;
    auto dint =
        std::lower_bound(ctx.dints.begin(), ctx.dints.end(), win.minSeq);
    win.maxSeq = dint == ctx.dints.end() ? ctx.trace.size() : *dint;
    return win;
}

/** Append the words @p trace stores to. */
void
noteStores(std::vector<Addr> &written, const Trace &trace)
{
    for (const TraceRecord &rec : trace.records())
        if (isStore(rec.inst.op))
            written.push_back(rec.memAddr);
}

/**
 * The keep rule, checked at an RTI back into @p ctx: true when
 * re-deriving the context from the restored architectural state would
 * reproduce its remaining trace record for record. The re-derivation
 * starts from the same registers at the same pc with the same IE, and
 * every load from segStart on reads a word nothing in @p written (the
 * words stored or exchanged since the cut) has touched — so every
 * record comes out the same.
 */
bool
keepsTrace(Ctx &ctx, const ArchState &state, const TrapRegs &regs,
           const std::vector<Addr> &written)
{
    if (!ctx.keepable || !ctx.cutState ||
        ctx.segStart >= ctx.trace.size())
        return false;
    if (!(state == *ctx.cutState) ||
        regs.epc != ctx.trace.at(ctx.segStart).pc ||
        regs.ie() != ieAt(ctx, ctx.segStart))
        return false;
    if (!ctx.lastLoad) {
        auto &lastLoad = ctx.lastLoad.emplace();
        const auto &records = ctx.trace.records();
        for (SeqNum s = 0; s < records.size(); ++s)
            if (isLoad(records[s].inst.op))
                lastLoad[records[s].memAddr] = s;
    }
    for (Addr addr : written) {
        auto it = ctx.lastLoad->find(addr);
        if (it != ctx.lastLoad->end() && it->second >= ctx.segStart)
            return false;
    }
    return true;
}

/** A functionally generated handler trace, or why it could not be. */
struct HandlerGen
{
    Trace trace;
    bool ok = false;
    std::string error;
};

/**
 * Execute the handler functionally from @p startIndex on *copies* of
 * the architectural triple and record its trace, stopping at RTI. The
 * live trap registers are passed by value for the same reason: MFEPC /
 * MFCAUSE read them, and generation must not disturb the real machine.
 * A fault mid-handler is recorded and generation stops — the timing
 * core will surface it and the controller reports the double fault.
 */
HandlerGen
generateHandlerTrace(const std::shared_ptr<const Program> &prog,
                     std::size_t startIndex, const ArchState &state,
                     const Memory &memory, TrapRegs trap,
                     std::uint64_t maxInstructions)
{
    HandlerGen gen;
    gen.trace = Trace(prog);
    ArchState st = state;
    Memory mem = memory;
    std::size_t index = startIndex;
    while (true) {
        if (gen.trace.size() >= maxInstructions) {
            std::ostringstream oss;
            oss << "handler '" << prog->name() << "' ran "
                << maxInstructions << " instructions without RTI";
            gen.error = oss.str();
            return gen;
        }
        if (index >= prog->size()) {
            gen.error = "handler control flow ran off the program end";
            return gen;
        }
        ExecOutcome out = execute(*prog, index, st, mem, &trap);
        TraceRecord rec;
        rec.inst = prog->inst(index);
        rec.staticIndex = index;
        rec.pc = prog->pc(index);
        rec.memAddr = out.memAddr;
        rec.result = out.value;
        rec.storeValue = out.storeValue;
        rec.taken = out.taken;
        rec.fault = out.fault;
        gen.trace.append(rec);
        if (out.fault != Fault::None || out.rti) {
            gen.ok = true;
            return gen;
        }
        if (out.halted) {
            gen.error = "handler reached HALT; handlers must end in RTI";
            return gen;
        }
        index = *out.nextIndex;
    }
}

/**
 * Annotate the one-shot injected faults that fall inside @p trace.
 * Positions count committed outer instructions, so a position j maps
 * to trace seq j - @p committed after each regeneration.
 */
void
annotateInjects(Trace &trace, const std::vector<SeqNum> &injects,
                std::uint64_t committed, Fault kind)
{
    for (SeqNum seq : injects) {
        if (seq >= committed && seq - committed < trace.size())
            trace.injectFault(seq - committed, kind);
    }
}

/** Measured drain residue of one segment, or kNoCycle when the core
 * reported no drain start (the segment ended without a stop). */
Cycle
measuredDrain(const RunResult &seg)
{
    if (seg.drainStartCycle == kNoCycle)
        return kNoCycle;
    return seg.cycles > seg.drainStartCycle
               ? seg.cycles - seg.drainStartCycle
               : 0;
}

// Watchdog derivation: a segment can never legitimately run past its
// certified serialized ceiling, so the per-segment budget is the
// ceiling with generous slack instead of the old magic constant.
constexpr std::uint64_t kWatchdogSlack = 4;
constexpr std::uint64_t kWatchdogHeadroom = 1024;

/**
 * Per-segment watchdog budget. The configured constant remains both
 * the fallback (no certified ceiling: test-only cores whose name is
 * not a scheme) and an upper clamp (a deliberately tiny configured
 * budget still wins, so wedge-detection tests keep their semantics).
 */
std::uint64_t
watchdogBudget(std::uint64_t configured, std::uint64_t ceiling)
{
    if (ceiling == lint::kWcirtUnbounded)
        return configured;
    constexpr std::uint64_t kMax =
        std::numeric_limits<std::uint64_t>::max();
    if (ceiling > (kMax - kWatchdogHeadroom) / kWatchdogSlack)
        return configured;
    return std::min(configured,
                    ceiling * kWatchdogSlack + kWatchdogHeadroom);
}

/**
 * The in-run soundness gates of the certified WCIRT ceiling: every
 * measured drain residue must fit the cut ceiling, and — when
 * @p responseCovered says the arrival process is one the end-to-end
 * ceiling models — the measured arrival-to-entry response must fit
 * responseCeiling(). A violation is a simulator (or analysis) bug, so
 * both are fatal, exactly like the resource-bound cycle floor.
 */
void
checkDeliveryAgainstBound(const lint::WcirtBound &bound,
                          const Delivery &d, const char *core,
                          bool responseCovered)
{
    if (d.drainCycles != kNoCycle &&
        d.drainCycles > bound.breakdown.cut) {
        ruu_fatal("WCIRT violation on %s: measured drain residue %llu "
                  "exceeds the certified cut ceiling %llu",
                  core, static_cast<unsigned long long>(d.drainCycles),
                  static_cast<unsigned long long>(bound.breakdown.cut));
    }
    const std::uint64_t response = bound.responseCeiling();
    if (responseCovered && d.responseCycles != kNoCycle &&
        response != lint::kWcirtUnbounded && d.responseCycles > response) {
        ruu_fatal("WCIRT violation on %s: measured response %llu "
                  "exceeds the certified end-to-end ceiling %llu",
                  core,
                  static_cast<unsigned long long>(d.responseCycles),
                  static_cast<unsigned long long>(response));
    }
}

} // namespace

double
TrapRunResult::meanHandlerCycles() const
{
    if (deliveries.empty())
        return 0.0;
    double sum = 0.0;
    for (const Delivery &d : deliveries)
        sum += static_cast<double>(d.handlerCycles);
    return sum / static_cast<double>(deliveries.size());
}

Cycle
TrapRunResult::maxHandlerCycles() const
{
    Cycle best = 0;
    for (const Delivery &d : deliveries)
        best = std::max(best, d.handlerCycles);
    return best;
}

Cycle
TrapRunResult::maxDrainCycles() const
{
    Cycle best = 0;
    for (const Delivery &d : deliveries)
        if (d.drainCycles != kNoCycle)
            best = std::max(best, d.drainCycles);
    return best;
}

TrapController::TrapController(Core &core, TrapConfig config)
    : _core(core), _config(std::move(config))
{
}

TrapRunResult
TrapController::run(const Trace &trace, InterruptSource source,
                    const std::vector<SeqNum> &injectAt, Fault injectKind)
{
    TrapRunResult res;
    if (!trace.programPtr()) {
        res.failed = true;
        res.error = "trap controller needs a trace bound to its program";
        return res;
    }

    std::shared_ptr<const Program> handlerProg =
        _config.handler
            ? _config.handler
            : std::make_shared<const Program>(counterHandler());

    // Certified WCIRT ceiling of this (scheme, config, workload,
    // handler): the cut ceiling is asserted against every measured
    // drain residue below, and the per-segment watchdog budgets derive
    // from trace ceilings instead of the configured constant. A
    // test-only core whose name is not one of the six schemes runs
    // without a bound, on the constant alone.
    std::optional<CoreKind> kind = coreKindFromName(_core.name());
    const lint::WcirtBound *bound = nullptr;
    if (kind) {
        lint::WcirtParams params;
        params.exchangeCycles = _config.exchangeCycles;
        params.maxLevels = _config.layout.maxLevels;
        bound = &lint::cachedWcirtBound(trace, *handlerProg,
                                        _core.config(), *kind, params);
        res.wcirtCeiling = bound->cycles;
    }
    auto budget = [&](const Trace &t) {
        if (!kind)
            return _config.maxCyclesPerSegment;
        return watchdogBudget(
            _config.maxCyclesPerSegment,
            lint::wcirtTraceCeiling(t, _core.config(), *kind));
    };

    // The architectural triple every segment threads through.
    ArchState state;
    Memory memory(_config.memoryWords);
    for (const auto &init : trace.program().dataInits())
        memory.set(init.addr, init.value);
    if (!initTrapMemory(memory, _config.layout)) {
        res.failed = true;
        res.error = "exchange packages do not fit in data memory";
        return res;
    }
    TrapRegs regs;
    regs.setIe(true);

    std::vector<SeqNum> injects(injectAt.begin(), injectAt.end());
    std::sort(injects.begin(), injects.end());
    injects.erase(std::unique(injects.begin(), injects.end()),
                  injects.end());

    // One slot per trap level, reserved up front: a kept trace never
    // moves, so its compiled stream stays a cache hit.
    std::vector<Ctx> stack;
    stack.reserve(_config.layout.maxLevels);
    {
        Ctx outer;
        outer.prog = trace.programPtr();
        Trace annotated = trace;
        annotateInjects(annotated, injects, 0, injectKind);
        const bool ownAnnotations = std::any_of(
            trace.records().begin(), trace.records().end(),
            [](const TraceRecord &r) { return r.fault != Fault::None; });
        adopt(outer, std::move(annotated), true, !ownAnnotations,
              budget(trace));
        stack.push_back(std::move(outer));
    }

    // Every word stored or exchanged since the program's last cut: the
    // keep rule's test at the RTI back into it.
    std::vector<Addr> written;

    Cycle now = 0;
    std::uint64_t globalInstr = 0;

    // Progress marker of the last synchronous delivery, for detecting
    // a fault whose handler did not repair it (outer instructions
    // committed is the progress measure — the global count also moves
    // with handler instructions and would mask the loop).
    bool sawSync = false;
    std::uint64_t lastSyncCommitted = 0;
    ParcelAddr lastSyncEpc = 0;

    auto fail = [&res](std::string message) {
        res.failed = true;
        res.error = std::move(message);
    };

    // The end-to-end response ceiling models a purely periodic arrival
    // process on an undisturbed run: no injected faults, and no
    // synchronous delivery so far (a repair handler's cycles are
    // queueing the model does not cover).
    const bool arrivalsCovered = injectAt.empty();
    auto recordDelivery = [&](const Delivery &d) {
        if (bound)
            checkDeliveryAgainstBound(*bound, d, _core.name(),
                                      !d.sync && arrivalsCovered &&
                                          !sawSync &&
                                          source.periodicOnly());
        if (d.drainCycles != kNoCycle)
            res.maxDeliveryLatency =
                std::max(res.maxDeliveryLatency,
                         d.drainCycles + _config.exchangeCycles);
        res.deliveries.push_back(d);
        res.maxDepth = std::max(res.maxDepth, d.level);
    };

    // Enter the handler of the delivery just recorded: its trace is
    // generated functionally from the live triple, and its stores and
    // its exchange package join the words written since the cut. A
    // handler trace is never kept across a nested RTI: it reads the
    // live trap registers, which the nested exchange rewrites.
    auto enterHandler = [&](const Delivery &d) {
        HandlerGen gen =
            generateHandlerTrace(handlerProg, 0, state, memory, regs,
                                 _config.maxHandlerInstructions);
        if (!gen.ok) {
            fail(std::move(gen.error));
            return false;
        }
        Addr pkg = _config.layout.packageBase(d.level);
        for (unsigned w = 0; w < kExchangeWords; ++w)
            written.push_back(pkg + w);
        noteStores(written, gen.trace);
        Ctx h;
        h.prog = handlerProg;
        h.level = d.level;
        h.deliveryIndex = res.deliveries.size() - 1;
        h.entryCycle = d.cycle - _config.exchangeCycles;
        const std::uint64_t maxCycles = budget(gen.trace);
        adopt(h, std::move(gen.trace), false, false, maxCycles);
        stack.push_back(std::move(h));
        return true;
    };

    while (true) {
        Ctx &ctx = stack.back();

        if (ctx.needsRegen) {
            // The keep rule did not hold at the RTI: the handler
            // underneath may have written memory this trace's
            // precomputed values depend on, or edited the saved epc,
            // frame or IE in its exchange package — so the rest of the
            // context is re-derived from the restored architectural
            // state. This is also exactly what makes a repaired
            // restartable fault work.
            ++res.regenerations;
            auto index = ctx.prog->indexOfPc(
                static_cast<ParcelAddr>(regs.epc));
            if (!index) {
                std::ostringstream oss;
                oss << "restored epc " << regs.epc
                    << " is not an instruction boundary of '"
                    << ctx.prog->name() << "'";
                fail(oss.str());
                break;
            }
            Trace regenerated;
            if (ctx.level == 0) {
                FuncResult fr =
                    resumeFunctional(ctx.prog, *index, state, memory);
                regenerated = std::move(fr.trace);
                annotateInjects(regenerated, injects, ctx.committed,
                                injectKind);
            } else {
                HandlerGen gen = generateHandlerTrace(
                    ctx.prog, *index, state, memory, regs,
                    _config.maxHandlerInstructions);
                if (!gen.ok) {
                    fail(std::move(gen.error));
                    break;
                }
                noteStores(written, gen.trace);
                regenerated = std::move(gen.trace);
            }
            const std::uint64_t maxCycles = budget(regenerated);
            adopt(ctx, std::move(regenerated), regs.ie(), ctx.level == 0,
                  maxCycles);
            ctx.needsRegen = false;
        }

        if (res.deliveries.size() >= _config.maxDeliveries) {
            std::ostringstream oss;
            oss << "delivery storm: " << res.deliveries.size()
                << " deliveries without completing '"
                << stack.front().prog->name() << "'";
            fail(oss.str());
            break;
        }

        IrqWindow win = irqWindow(ctx);
        bool canNest = ctx.level + 1 < _config.layout.maxLevels;
        std::optional<InterruptEvent> event;
        if (win.open && canNest)
            event = source.next(ctx.level);

        RunOptions opts;
        opts.startSeq = ctx.segStart;
        opts.initialState = &state;
        opts.initialMemory = &memory;
        opts.maxCycles = ctx.maxCycles;
        if (event) {
            opts.interruptAt = event->cycle > now ? event->cycle - now : 0;
            opts.interruptMinSeq = win.minSeq;
            // The instruction shadow of RTI: the resumed context always
            // commits at least one instruction before the next delivery,
            // so an interrupt storm degrades throughput instead of
            // starving the program forever.
            if (ctx.rtiShadow)
                opts.interruptMinSeq =
                    std::max(opts.interruptMinSeq, ctx.segStart + 1);
        }
        ctx.rtiShadow = false;

        std::optional<oracle::CommitOracle> orc;
        if (_config.checkOracle && res.oracleFailure.empty()) {
            orc.emplace(ctx.trace, _core, opts);
            orc->seedTrapRegs(regs);
            opts.observer = &*orc;
        }

        RunResult seg = _core.run(ctx.trace, opts);

        now += seg.cycles;
        globalInstr += seg.instructions;
        ctx.committed += seg.instructions;
        if (ctx.level > 0)
            res.handlerInstructions += seg.instructions;

        if (seg.wedged) {
            res.wedged = true;
            res.error = seg.diagnostic;
            state = std::move(seg.state);
            memory = std::move(seg.memory);
            break;
        }

        if (orc && !orc->finish(seg))
            res.oracleFailure = orc->report();

        state = std::move(seg.state);
        memory = std::move(seg.memory);

        if (!seg.interrupted) {
            if (ctx.level == 0) {
                res.completed = true;
                break;
            }
            // The handler drained through its RTI: exchange back and
            // resume the interrupted context below — on its own trace
            // when the keep rule holds.
            if (!returnFromTrap(state, memory, regs, _config.layout)) {
                fail("RTI executed outside an active trap level");
                break;
            }
            now += _config.exchangeCycles;
            res.deliveries[ctx.deliveryIndex].handlerCycles =
                now - ctx.entryCycle;
            stack.pop_back();
            Ctx &resumed = stack.back();
            resumed.needsRegen = !keepsTrace(resumed, state, regs, written);
            resumed.rtiShadow = true;
            continue;
        }

        if (ctx.level == 0)
            written.clear(); // a new cut of the program

        if (seg.fault == Fault::Interrupt) {
            // Asynchronous cut: instructions [segStart, faultSeq) have
            // committed and the drained state is the sequential prefix.
            ctx.segStart = seg.faultSeq;
            bool within = event && seg.faultSeq >= win.minSeq &&
                          seg.faultSeq <= win.maxSeq;
            if (!within)
                continue; // window closed first; the event stays pending

            ctx.cutState = state;
            unsigned level = ctx.level + 1;
            Word cause = kCauseExternal + event->priority;
            regs.setIe(true); // the cut point was interrupt-enabled
            if (!deliverTrap(state, memory, regs, _config.layout, level,
                             cause, seg.faultPc)) {
                fail("trap delivery failed: exchange package unmapped");
                break;
            }
            source.delivered(*event, now);
            now += _config.exchangeCycles;

            Delivery d;
            d.cause = cause;
            d.level = level;
            d.sync = false;
            d.epc = seg.faultPc;
            d.globalInstr = globalInstr;
            d.cycle = now;
            d.arrivalCycle = event->cycle;
            d.responseCycles =
                now - std::min<Cycle>(event->cycle, now);
            d.drainCycles = measuredDrain(seg);
            recordDelivery(d);
            if (!enterHandler(d))
                break;
            continue;
        }

        // A synchronous fault surfaced.
        if (ctx.level > 0) {
            std::ostringstream oss;
            oss << "double fault: handler at level " << ctx.level
                << " raised " << faultName(seg.fault) << " at pc "
                << seg.faultPc;
            fail(oss.str());
            break;
        }
        if (!_core.preciseInterrupts())
            ++res.impreciseSyncDeliveries;

        // An unrepaired fault re-fires at the same spot with no
        // progress in between; catch the loop at its second lap.
        if (sawSync && lastSyncCommitted == ctx.committed &&
            lastSyncEpc == seg.faultPc) {
            std::ostringstream oss;
            oss << "unrepaired " << faultName(seg.fault) << " at pc "
                << seg.faultPc
                << ": the instruction faulted again after its handler "
                   "returned";
            fail(oss.str());
            break;
        }
        sawSync = true;
        lastSyncCommitted = ctx.committed;
        lastSyncEpc = seg.faultPc;

        unsigned level = ctx.level + 1;
        Word cause = causeForFault(seg.fault);
        if (!deliverTrap(state, memory, regs, _config.layout, level,
                         cause, seg.faultPc)) {
            fail("trap delivery failed: exchange package unmapped");
            break;
        }
        now += _config.exchangeCycles;

        Delivery d;
        d.cause = cause;
        d.level = level;
        d.sync = true;
        d.epc = seg.faultPc;
        d.globalInstr = globalInstr;
        d.cycle = now;
        d.drainCycles = measuredDrain(seg);
        recordDelivery(d);

        // If this position was an injected fault, it has now fired;
        // the regenerated trace restarts the instruction cleanly, which
        // models the handler repairing the cause (mapping the page).
        auto it =
            std::find(injects.begin(), injects.end(), ctx.committed);
        if (it != injects.end())
            injects.erase(it);

        ctx.cutState.reset(); // resume is epc-driven after the RTI
        if (!enterHandler(d))
            break;
    }

    res.cycles = now;
    res.instructions = globalInstr;
    res.dropped = source.pendingCount();
    res.state = std::move(state);
    res.memory = std::move(memory);
    res.trapRegs = regs;
    return res;
}

void
fitTrapMemory(TrapConfig &config, const Trace &trace)
{
    // The 0x800 alignment keeps each word's bank under any power-of-two
    // bank count up to 2048; the scratch area takes the next aligned
    // block, as scratchBase = exchangeBase + 0x800 does by default.
    constexpr Addr kAlign = 0x800;
    Addr top = 0;
    for (const TraceRecord &rec : trace.records())
        if (isMemory(rec.inst.op) && rec.fault == Fault::None)
            top = std::max(top, rec.memAddr + 1);
    for (const auto &init : trace.program().dataInits())
        top = std::max(top, init.addr + 1);
    config.layout.exchangeBase = (top + kAlign - 1) / kAlign * kAlign;
    config.layout.scratchBase = config.layout.exchangeBase + kAlign;
    config.memoryWords = config.layout.scratchBase + kScratchWords;
}

ReplayResult
replayFunctional(std::shared_ptr<const Program> program,
                 const TrapConfig &config,
                 const std::vector<Delivery> &deliveries)
{
    ReplayResult res;
    if (!program || program->size() == 0) {
        res.error = "replay needs a non-empty program";
        return res;
    }
    std::shared_ptr<const Program> handlerProg =
        config.handler ? config.handler
                       : std::make_shared<const Program>(counterHandler());

    ArchState state;
    Memory memory(config.memoryWords);
    for (const auto &init : program->dataInits())
        memory.set(init.addr, init.value);
    if (!initTrapMemory(memory, config.layout)) {
        res.error = "exchange packages do not fit in data memory";
        return res;
    }
    TrapRegs regs;
    regs.setIe(true);

    struct Frame
    {
        std::shared_ptr<const Program> prog;
        std::size_t index = 0;
        bool handler = false;
    };
    std::vector<Frame> stack;
    stack.push_back({program, 0, false});

    std::uint64_t count = 0;
    std::size_t nextDelivery = 0;
    // Hard stop so a corrupt delivery log cannot hang the replay.
    const std::uint64_t limit =
        50'000'000ull + static_cast<std::uint64_t>(deliveries.size()) *
                            config.maxHandlerInstructions;

    bool halted = false;
    while (!halted) {
        // Perform every exchange logged at this commit count. The
        // faulting instruction of a sync delivery is *not* executed
        // first — the cut lands before it, and after the handler's RTI
        // it restarts from the restored epc.
        while (nextDelivery < deliveries.size() &&
               deliveries[nextDelivery].globalInstr == count) {
            const Delivery &d = deliveries[nextDelivery];
            regs.setIe(true);
            if (!deliverTrap(state, memory, regs, config.layout, d.level,
                             d.cause, d.epc)) {
                res.error = "replay: trap delivery failed";
                return res;
            }
            stack.push_back({handlerProg, 0, true});
            ++nextDelivery;
        }

        Frame &frame = stack.back();
        if (frame.index >= frame.prog->size()) {
            res.error = "replay: control flow ran off the program end";
            return res;
        }
        // Handlers execute against the live trap registers; the outer
        // program runs with a null trap context, exactly as its trace
        // was generated.
        ExecOutcome out = execute(*frame.prog, frame.index, state, memory,
                                  frame.handler ? &regs : nullptr);
        if (out.fault != Fault::None) {
            std::ostringstream oss;
            oss << "replay: unserviced " << faultName(out.fault)
                << " at pc " << frame.prog->pc(frame.index);
            res.error = oss.str();
            return res;
        }
        ++count;
        if (count > limit) {
            res.error = "replay: instruction limit exceeded";
            return res;
        }
        if (out.rti) {
            if (!frame.handler || stack.size() < 2) {
                res.error = "replay: RTI outside a handler";
                return res;
            }
            if (!returnFromTrap(state, memory, regs, config.layout)) {
                res.error = "replay: RTI with no active trap level";
                return res;
            }
            stack.pop_back();
            Frame &parent = stack.back();
            auto index = parent.prog->indexOfPc(
                static_cast<ParcelAddr>(regs.epc));
            if (!index) {
                res.error =
                    "replay: restored epc is not an instruction boundary";
                return res;
            }
            parent.index = *index;
            continue;
        }
        if (out.halted) {
            if (stack.size() != 1) {
                res.error = "replay: HALT inside a handler";
                return res;
            }
            halted = true;
            continue;
        }
        frame.index = *out.nextIndex;
    }

    if (nextDelivery != deliveries.size()) {
        res.error = "replay: program halted before every logged delivery";
        return res;
    }
    res.ok = true;
    res.state = std::move(state);
    res.memory = std::move(memory);
    res.trapRegs = regs;
    res.instructions = count;
    return res;
}

} // namespace ruu::trap
