#include "core/window_core.hh"

#include <algorithm>
#include <deque>
#include <vector>

#include "core/window_policies.hh"
#include "engine/view.hh"
#include "uarch/banks.hh"
#include "uarch/fu.hh"
#include "uarch/ibuffer.hh"
#include "uarch/load_regs.hh"

namespace ruu
{

namespace
{

/**
 * Perform the load-register lookup for memory operation @p op
 * (§3.2.1.2). Callers invoke it in program order among memory
 * operations, and only once the base register is available.
 *
 * @return false when a load register is needed but none is free — the
 *         op stays unresolved and blocks younger memory ops.
 */
bool
resolveMemOp(InflightOp &op, LoadRegisters &load_regs)
{
    ruu_assert(op.isMem() && !op.addrResolved,
               "resolveMemOp on a non-memory or resolved op");
    Addr addr = op.rec->memAddr;
    auto match = load_regs.find(addr);

    if (op.isLoad) {
        if (match) {
            // A pending operation already targets this address: take its
            // tag (or its latched data) and never touch memory.
            const LoadRegEntry &entry = load_regs.entry(*match);
            op.forwarded = true;
            op.fwdTag = entry.tag;
            op.fwdDataReady = entry.hasValue;
            op.loadReg = static_cast<int>(*match);
            load_regs.join(*match, std::nullopt);
        } else {
            if (!load_regs.hasFree())
                return false;
            op.loadReg = static_cast<int>(
                load_regs.allocate(addr, op.destTag));
        }
    } else {
        Tag tag = storeTagFor(op.seq);
        if (match) {
            // The store becomes the newest producer of the address.
            op.loadReg = static_cast<int>(*match);
            load_regs.join(*match, tag);
        } else {
            if (!load_regs.hasFree())
                return false;
            op.loadReg = static_cast<int>(load_regs.allocate(addr, tag));
        }
    }
    op.addrResolved = true;
    return true;
}

} // namespace

/**
 * One run of a window core: the machine state every buffered core
 * shares, the policy's own state, and the cycle loop.
 *
 * Every cycle runs, in order: the watchdog, the fault tap, the
 * invariant checker's cycle start, the policy's cycle-start hook
 * (history's unwind), dispatch, completion, the policy's commit,
 * memory-address resolution, the interrupt gate, decode, the
 * occupancy sample and invariant checks, termination, and the bus
 * retirement. Dispatch precedes completion: wakeup-to-select takes a
 * cycle, as in the paper's machines.
 *
 * The compiled path keeps four indices so the hot phases touch only
 * the entries with work: `undispatched` (zero skips the dispatch walk),
 * `waiting` (the slots a broadcast can still wake), the completion ring
 * (dispatch files each entry under its completion cycle), and the
 * policy's live walk (the queue window, or the merged pool's live list,
 * both in program order). The interpretive path keeps full scans: a
 * fault tap may rewrite entry flags between cycles, which would stale
 * the indices (taps force the interpretive engine for that reason).
 */
template <class Policy, class View>
class WindowRun
{
  public:
    using Entry = typename Policy::Entry;
    static constexpr bool kCompiled = View::kCompiled;

    WindowRun(WindowCore<Policy> &core_, const Trace &trace_,
              const RunOptions &options_, const View &view_)
        : core(core_), config(core_._config), trace(trace_),
          options(options_), view(view_), records(trace_.records()),
          ck(core_.invariants()),
          result(core_.makeInitialResult(trace_, options_)),
          pool(Policy::poolSize(config)), loadRegs(config.loadRegisters),
          pipes(config), banks(config.memoryBanks, config.bankBusyCycles),
          bus(config.resultBuses), decodeSeq(options_.startSeq),
          cInsts(counter("instructions")), cBranches(counter("branches")),
          cFull(counter(Policy::kFullStall)),
          cNoLr(counter("stall_no_load_reg_cycles")),
          cDispatched(counter("dispatches")),
          cForwarded(counter("forwarded_loads")),
          cDead(Policy::kBranchesAtDecode ? &counter("branch_dead_cycles")
                                          : nullptr),
          cBranchWait(Policy::kBranchesAtDecode
                          ? &counter("stall_branch_cond_cycles")
                          : nullptr),
          hOccupancy(core_._stats.histogram(Policy::kOccupancy)),
          pol(config, trace_, core_._stats)
    {
        // The ring outlives the longest latency.
        unsigned max_latency =
            std::max(config.storeLatency, config.forwardLatency);
        for (unsigned i = 0; i < kNumFuKinds; ++i)
            max_latency = std::max(max_latency,
                                   config.latency(static_cast<FuKind>(i)));
        unsigned ring = 1;
        while (ring <= max_latency)
            ring <<= 1;
        compRing.resize(ring);
        compMask = ring - 1;
    }

    RunResult run();

    // --- the hooks' interface ---------------------------------------------

    /** File @p slot's completion under its cycle (compiled path). */
    void
    schedule(unsigned slot)
    {
        if constexpr (kCompiled)
            compRing[pool[slot].completeCycle & compMask].push_back(slot);
    }

    /** Complete this cycle's dispatched entries in the policy's order. */
    void
    completeScheduled()
    {
        completing.clear();
        if constexpr (kCompiled) {
            completing.swap(compRing[cycle & compMask]);
        } else {
            for (unsigned i = 0; i < pool.size(); ++i)
                if (completesNow(pool[i]))
                    completing.push_back(i);
        }
        pol.orderCompletions(*this, completing);
        for (unsigned slot : completing)
            if (completesNow(pool[slot]))
                pol.complete(*this, pool[slot], slot);
    }

    /** Deliver (@p tag, @p value) to every waiting entry and load register. */
    void
    broadcast(Tag tag, Word value)
    {
        if constexpr (kCompiled) {
            // Wakeups only flip not-ready to ready, so the waiting slots
            // are all a broadcast can change; slots that became ready (or
            // whose entry is gone) leave the list here.
            for (std::size_t i = 0; i < waiting.size();) {
                Entry &e = pool[waiting[i]];
                if (e.valid)
                    e.wakeup(tag);
                if (!e.valid || !e.needsWakeup()) {
                    waiting[i] = waiting.back();
                    waiting.pop_back();
                } else {
                    ++i;
                }
            }
        } else {
            for (auto &e : pool)
                if (e.valid)
                    e.wakeup(tag);
        }
        loadRegs.onBroadcast(tag, value);
        pol.onBroadcast(*this, tag);
    }

    /**
     * Broadcast a completing entry's result (a store's pseudo-tag and
     * data) and report it to the invariant checker. Returns the tag.
     */
    Tag
    broadcastResult(const InflightOp &e)
    {
        Tag tag = e.isStore ? storeTagFor(e.seq) : e.destTag;
        Word value = !e.rec       ? 0
                     : e.isStore ? e.rec->storeValue
                                 : e.rec->result;
        broadcast(tag, value);
        if (ck) {
            if (e.isStore)
                ck->onStoreBroadcast(tag);
            else
                ck->onResultBroadcast(cycle, tag);
        }
        return tag;
    }

    /** Report an architectural commit (core/commit_observer.hh). */
    void
    notifyCommit(SeqNum seq, const TraceRecord &rec)
    {
        core.notifyCommit(seq, rec);
    }

    /** Report @p e's trap as the run's interrupt. */
    void
    reportFault(const InflightOp &e)
    {
        result.interrupted = true;
        result.fault = e.rec->fault;
        result.faultSeq = e.seq;
        result.faultPc = e.rec->pc;
    }

    /** The drain to the stopping point begins now, unless it already did. */
    void
    noteDrainStart()
    {
        if (result.drainStartCycle == kNoCycle)
            result.drainStartCycle = cycle;
    }

    WindowCore<Policy> &core;
    const UarchConfig &config;
    const Trace &trace;
    const RunOptions &options;
    const View &view;
    const std::vector<TraceRecord> &records;
    lint::InvariantChecker *ck;
    RunResult result;

    std::vector<Entry> pool;
    std::vector<unsigned> memQueue; //!< memory ops' slots, program order
    /** Undispatched stores, in order (stores that write at completion). */
    std::deque<SeqNum> storeQueue;
    LoadRegisters loadRegs;
    FuPipes pipes;
    MemoryBanks banks;
    typename View::Bus bus;
    IBuffers ibuffers;

    SeqNum decodeSeq;
    Cycle nextDecode = 0; //!< decode stalls until this cycle
    Cycle lastEvent = 0;
    Cycle cycle = 0;
    bool halted = false;

    unsigned undispatched = 0;
    std::vector<unsigned> waiting;
    std::vector<std::vector<unsigned>> compRing;
    unsigned compMask = 0;

    Counter &cInsts;
    Counter &cBranches;
    Counter &cFull;
    Counter &cNoLr;
    Counter &cDispatched;
    Counter &cForwarded;
    Counter *cDead;
    Counter *cBranchWait;
    Histogram &hOccupancy;

    Policy pol;

  private:
    Counter &counter(const char *name) { return core._stats.counter(name); }

    bool
    completesNow(const Entry &e) const
    {
        return e.valid && e.dispatched && !e.executed &&
               e.completeCycle == cycle;
    }

    /** Track @p slot on the waiting list while a broadcast can wake it. */
    void
    watch(unsigned slot)
    {
        if constexpr (kCompiled) {
            if (pool[slot].needsWakeup())
                waiting.push_back(slot);
        }
    }

    void exposePorts(inject::FaultPortSet &ports);
    void dispatch();
    void resolveMemory();
    void decode();
    void issue(const Fetch &f);

    std::vector<unsigned> candidates; // reused every cycle
    std::vector<unsigned> completing; // reused every cycle
};

template <class Policy, class View>
RunResult
WindowRun<Policy, View>::run()
{
    // Fault/snapshot ports exist only when a tap is attached.
    inject::FaultPortSet ports;
    if (options.tap) {
        exposePorts(ports);
        options.tap->onRunStart(ports);
    }

    for (cycle = 0;; ++cycle) {
        if (cycle > options.maxCycles) {
            core.markWedged(result, trace, cycle, options, decodeSeq,
                            pol.wedgeDetail(*this));
            return std::move(result);
        }
        if (options.tap)
            options.tap->onCycle(cycle, ports);
        if (ck)
            ck->beginCycle(cycle);
        CycleStep step = pol.beginCycle(*this);
        if (step == CycleStep::Stop)
            break;
        if (step == CycleStep::Skip)
            continue;

        dispatch();
        pol.completions(*this);
        if (pol.afterCompletion(*this))
            break;
        resolveMemory();

        // An external interrupt gates decode from its arrival cycle on
        // (but never before interruptMinSeq); everything already in the
        // window drains, so the cut at decodeSeq is the sequential
        // prefix. A synchronous fault surfacing during the drain wins:
        // it is architecturally older.
        const bool irq_stop = options.interruptAt != kNoCycle &&
                              cycle >= options.interruptAt &&
                              decodeSeq >= options.interruptMinSeq;
        if (irq_stop)
            noteDrainStart();
        if (!irq_stop)
            decode();

        hOccupancy.sample(pol.sampled(*this));
        if (ck)
            pol.checkInvariants(*this, ck);

        if ((halted || decodeSeq >= records.size() || irq_stop) &&
            pol.drained(*this)) {
            if (irq_stop && !halted && decodeSeq < records.size()) {
                result.interrupted = true;
                result.fault = Fault::Interrupt;
                result.faultSeq = decodeSeq;
                result.faultPc = records[decodeSeq].pc;
            }
            result.cycles = lastEvent + 1;
            break;
        }
        bus.retireBefore(cycle);
    }

    core._stats.counter("cycles") += result.cycles;
    return std::move(result);
}

template <class Policy, class View>
void
WindowRun<Policy, View>::exposePorts(inject::FaultPortSet &ports)
{
    pol.exposeWindow(*this, ports);
    loadRegs.exposePorts(ports, "loadReg");
    pipes.exposePorts(ports, "fu");
    banks.exposePorts(ports, "banks");
    bus.exposePorts(ports, "bus");
    if (options.modelIBuffers)
        ibuffers.exposePorts(ports, "ibuf");
    pol.exposeFiles(*this, ports);
    result.state.exposePorts(ports, "regs");
    pol.exposeFetch(*this, ports);
    ports.add("decodeSeq", inject::PortClass::Sequence, decodeSeq, 32,
              records.size() + 1);
    ports.add("nextDecode", inject::PortClass::Sequence, nextDecode, 32);
}

template <class Policy, class View>
void
WindowRun<Policy, View>::dispatch()
{
    candidates.clear();
    pol.selectCandidates(*this, candidates);
    const unsigned limit = Policy::dispatchLimit(config);
    unsigned started = 0;
    bool store_started = false;
    for (unsigned slot : candidates) {
        if (started == limit)
            break;
        Entry &e = pool[slot];
        // Stores that write memory at completion go strictly in
        // program order, at most one per cycle, so same-address
        // updates land in sequence.
        if (Policy::kStoresInOrder && e.isStore &&
            (store_started || storeQueue.empty() ||
             storeQueue.front() != e.seq)) {
            continue;
        }
        FuKind kind = pol.unitOf(*this, e, slot);
        unsigned latency = e.isStore     ? config.storeLatency
                           : e.forwarded ? config.forwardLatency
                                         : config.latency(kind);
        if (!pipes.canStart(kind, cycle))
            continue;
        // Memory operations also need their bank (when bank conflicts
        // are modeled); forwarded loads skip memory.
        bool to_memory = e.isMem() && !e.forwarded;
        if (to_memory && !banks.canAccess(e.rec->memAddr, cycle))
            continue;
        // Register-result producers reserve a result bus at dispatch;
        // stores go straight to memory.
        bool needs_bus = !e.isStore;
        if (needs_bus && !bus.free(cycle + latency))
            continue;
        pipes.start(kind, cycle);
        if (needs_bus)
            bus.reserve(cycle + latency, e.destTag,
                        e.rec ? e.rec->result : 0, Policy::age(e));
        if (to_memory)
            banks.access(e.rec->memAddr, cycle);
        if (Policy::kStoresInOrder && e.isStore) {
            storeQueue.pop_front();
            store_started = true;
        }
        e.dispatched = true;
        e.completeCycle = cycle + latency;
        --undispatched;
        ++cDispatched;
        ++started;
        pol.onDispatched(*this, e, slot);
    }
}

template <class Policy, class View>
void
WindowRun<Policy, View>::resolveMemory()
{
    // In program order: the base register value is the address, and a
    // younger memory op may not look up the load registers before an
    // older one.
    for (std::size_t i = 0; i < memQueue.size();) {
        unsigned slot = memQueue[i];
        Entry &e = pool[slot];
        if (Policy::kMemQueueKeepsResolved && e.addrResolved) {
            ++i;
            continue;
        }
        if (!e.src[0].ready)
            break;
        if (!pol.mayResolve(*this, e))
            break;
        if (!resolveMemOp(e, loadRegs))
            break;
        if (e.forwarded) {
            ++cForwarded;
            // A forwarded load now monitors its producer's tag: that
            // wait arises here, after issue.
            watch(slot);
        }
        if (Policy::kMemQueueKeepsResolved)
            ++i;
        else
            memQueue.erase(memQueue.begin() + static_cast<long>(i));
    }
}

template <class Policy, class View>
void
WindowRun<Policy, View>::decode()
{
    Fetch f;
    if (halted || cycle < nextDecode || !pol.fetch(*this, f))
        return;

    if (options.modelIBuffers) {
        Cycle avail = ibuffers.fetch(f.pc, cycle);
        if (avail > cycle) {
            nextDecode = avail;
            return;
        }
    }

    // HALT and NOP-like instructions update nothing: retired in decode.
    if (Policy::kRetiresNoOpsAtDecode && f.rec &&
        (view.haltAt(decodeSeq) || view.nopLikeAt(decodeSeq))) {
        if (view.haltAt(decodeSeq))
            halted = true;
        else
            nextDecode = cycle + 1;
        lastEvent = std::max(lastEvent, cycle);
        ++cInsts;
        ++result.instructions;
        notifyCommit(decodeSeq, *f.rec);
        ++decodeSeq;
        return;
    }

    // A branch waits in decode until its condition register can be
    // read, then costs its dead cycles.
    if constexpr (Policy::kBranchesAtDecode) {
        if (f.rec && view.branchAt(decodeSeq)) {
            if (!pol.conditionReady(*this, f.inst->src1)) {
                ++*cBranchWait;
                return;
            }
            ++cBranches;
            ++cInsts;
            ++result.instructions;
            notifyCommit(decodeSeq, *f.rec);
            unsigned penalty = core.branchPenalty(f.rec->taken);
            *cDead += penalty;
            nextDecode = cycle + penalty;
            lastEvent = std::max(lastEvent, cycle);
            ++decodeSeq;
            return;
        }
    }

    issue(f);
}

template <class Policy, class View>
void
WindowRun<Policy, View>::issue(const Fetch &f)
{
    int free_slot = pol.freeSlot(*this, f);
    if (free_slot < 0) {
        ++cFull;
        return;
    }
    if (Counter *stall = pol.issueStall(*this, f)) {
        ++*stall;
        return;
    }
    if (f.rec && view.memAt(decodeSeq) && !loadRegs.hasFree()) {
        ++cNoLr;
        return;
    }
    if (pol.blocksIssue(*this, f))
        return;

    const unsigned slot = static_cast<unsigned>(free_slot);
    Entry &e = pool[slot];
    e = Entry{};
    e.valid = true;
    e.seq = f.rec ? decodeSeq : kNoSeqNum;
    e.rec = f.rec;
    e.isLoad = f.rec && view.loadAt(decodeSeq);
    e.isStore = f.rec && view.storeAt(decodeSeq);

    for (unsigned s = 0; s < 2; ++s) {
        RegId reg = s == 0 ? f.inst->src1 : f.inst->src2;
        if (!reg.valid())
            continue;
        e.src[s].needed = true;
        Tag tag = kNoTag;
        if (pol.sourceWaits(*this, reg, tag)) {
            e.src[s].ready = false;
            e.src[s].tag = tag;
        }
    }

    pol.onIssue(*this, e, slot, f);
    if (ck && e.isStore)
        ck->onTagAllocated(storeTagFor(e.seq), e.seq);
    if (e.isMem())
        memQueue.push_back(slot);
    if (Policy::kStoresInOrder && e.isStore)
        storeQueue.push_back(e.seq);
    if (Policy::needsUnit(e))
        ++undispatched;
    watch(slot);
    pol.onIssued(*this, slot);
    pol.advance(*this, f);
}

template <class Policy>
WindowCore<Policy>::WindowCore(const UarchConfig &config) : Core(config)
{
    Policy::checkConfig(config);
}

template <class Policy>
const char *
WindowCore<Policy>::name() const
{
    return Policy::kName;
}

template <class Policy>
CommitOrder
WindowCore<Policy>::commitOrder() const
{
    return Policy::kCommitOrder;
}

template <class Policy>
bool
WindowCore<Policy>::preciseInterrupts() const
{
    return Policy::kPrecise;
}

template <class Policy>
RunResult
WindowCore<Policy>::runImpl(const Trace &trace, const RunOptions &options)
{
    if (activeEngine() == engine::Kind::Compiled) {
        engine::CompiledView view(trace, stream());
        return WindowRun<Policy, engine::CompiledView>(*this, trace, options,
                                                      view)
            .run();
    }
    engine::InterpView view(trace);
    return WindowRun<Policy, engine::InterpView>(*this, trace, options, view)
        .run();
}

template class WindowCore<TomasuloPolicy>;
template class WindowCore<RstuPolicy>;
template class WindowCore<HistoryPolicy>;
template class WindowCore<RuuPolicy>;
template class WindowCore<SpecRuuPolicy>;

} // namespace ruu
