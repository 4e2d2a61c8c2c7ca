/**
 * @file
 * The five policies of the window core (core/window_core.hh), and the
 * defaults and pool organisations they share.
 *
 * The cycle loop (WindowRun, core/window_core.cc) calls a policy's
 * hooks with itself as `m`; a hook reads and writes the run's shared
 * state (pool, queues, latches, result) and the policy's own (tags,
 * commit structures). PolicyDefaults holds the hook each policy gets
 * unless it names its own; a phase only one core has (history's
 * unwind, spec-RUU's branch resolution) is that policy's hook with an
 * empty default.
 *
 * Which field a hook consults is part of the output: fault injection
 * flips live latches between cycles, so a station's unit and the
 * decoded FU of its sequence number, or a memory queue that keeps
 * resolved entries and one that pops them, behave differently under a
 * flipped bit even where a clean run cannot tell them apart.
 */

#ifndef RUU_CORE_WINDOW_POLICIES_HH
#define RUU_CORE_WINDOW_POLICIES_HH

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "asm/program.hh"
#include "common/logging.hh"
#include "core/predictor.hh"
#include "core/window_core.hh"
#include "inject/ports.hh"
#include "isa/opcode.hh"
#include "uarch/scoreboard.hh"

namespace ruu
{

/** What decode examines this cycle: a trace record or a program word. */
struct Fetch
{
    const TraceRecord *rec = nullptr; //!< null on a wrong path
    const Instruction *inst = nullptr;
    ParcelAddr pc = 0;
};

/** What a policy's cycle-start hook tells the loop. */
enum class CycleStep
{
    Run,  //!< run this cycle's phases
    Skip, //!< the policy used the whole cycle
    Stop, //!< the run is over (the policy filled in the result)
};

/** " executed" / " dispatched" / ... : an entry's progress in a dump. */
inline const char *
progressWord(const InflightOp &e)
{
    return e.executed          ? " executed"
           : e.dispatched      ? " dispatched"
           : e.readyToDispatch() ? " ready (no unit/bus)"
                                 : " waiting on operands";
}

/** The hooks a policy gets unless it names its own. */
struct PolicyDefaults
{
    using Entry = InflightOp;

    /** Stores reach memory at completion, so they dispatch in order. */
    static constexpr bool kStoresInOrder = true;
    /** Resolved memory ops stay queued until their slot is released. */
    static constexpr bool kMemQueueKeepsResolved = true;
    /** HALT and NOP-like instructions retire in decode. */
    static constexpr bool kRetiresNoOpsAtDecode = true;
    /** Branches wait in decode for their condition, then cost dead cycles. */
    static constexpr bool kBranchesAtDecode = true;

    static void checkConfig(const UarchConfig &) {}
    static unsigned poolSize(const UarchConfig &c) { return c.poolEntries; }
    static unsigned dispatchLimit(const UarchConfig &c)
    {
        return c.dispatchPaths;
    }

    /** Program order among entries (the dispatch tie-break). */
    static SeqNum age(const InflightOp &e) { return e.seq; }
    static bool candidate(const InflightOp &e)
    {
        return e.valid && e.readyToDispatch();
    }
    /** True when an issued entry still has to pass through a unit. */
    static bool needsUnit(const InflightOp &e) { return !e.executed; }

    /**
     * Dispatch candidates, memory operations first, then oldest first
     * (§5). The compiled path walks the live entries, which are in
     * program order, twice instead of sorting.
     */
    void
    selectCandidates(auto &m, std::vector<unsigned> &out)
    {
        using P = std::remove_reference_t<decltype(m.pol)>;
        if constexpr (std::remove_reference_t<decltype(m)>::kCompiled) {
            if (m.undispatched == 0)
                return;
            for (int pass = 0; pass < 2; ++pass) {
                m.pol.forLive(m, [&](unsigned s) {
                    const auto &e = m.pool[s];
                    if (P::candidate(e) && e.isMem() == (pass == 0))
                        out.push_back(s);
                });
            }
        } else {
            for (unsigned i = 0; i < m.pool.size(); ++i)
                if (P::candidate(m.pool[i]))
                    out.push_back(i);
            std::sort(out.begin(), out.end(), [&](unsigned a, unsigned b) {
                bool am = m.pool[a].isMem(), bm = m.pool[b].isMem();
                if (am != bm)
                    return am;
                return P::age(m.pool[a]) < P::age(m.pool[b]);
            });
        }
    }

    FuKind
    unitOf(auto &m, const InflightOp &e, unsigned) const
    {
        return e.isMem() ? FuKind::Memory : m.view.fuAt(e.seq);
    }

    void onDispatched(auto &m, InflightOp &, unsigned slot)
    {
        m.schedule(slot);
    }

    void completions(auto &m) { m.completeScheduled(); }
    void orderCompletions(auto &, std::vector<unsigned> &) {}

    CycleStep beginCycle(auto &) { return CycleStep::Run; }
    void onBroadcast(auto &, Tag) {}
    bool mayResolve(auto &, const InflightOp &) { return true; }

    bool
    fetch(auto &m, Fetch &f)
    {
        if (m.decodeSeq >= m.records.size())
            return false;
        f.rec = &m.records[m.decodeSeq];
        f.inst = &f.rec->inst;
        f.pc = f.rec->pc;
        return true;
    }

    Counter *issueStall(auto &, const Fetch &) { return nullptr; }
    bool blocksIssue(auto &, const Fetch &) { return false; }

    void
    advance(auto &m, const Fetch &)
    {
        ++m.decodeSeq;
        m.nextDecode = m.cycle + 1;
    }

    void exposeFiles(auto &, inject::FaultPortSet &) {}
    void exposeFetch(auto &, inject::FaultPortSet &) {}
};

/**
 * Policies that write the register file when a result completes
 * (Tomasulo, the RSTU): a fault stops the machine where it stands.
 */
struct CompletionWritesRegs : PolicyDefaults
{
    bool faultRaised = false;
    BusyBits busy;
    /** Per register: the entry holding its newest tag, or -1. */
    std::array<int, kNumArchRegs> latestSlot;

    CompletionWritesRegs() { latestSlot.fill(-1); }

    /** A completing instruction trapped in its unit: freeze (imprecise). */
    void
    raiseFault(auto &m, const InflightOp &e)
    {
        m.reportFault(e);
        faultRaised = true;
        m.noteDrainStart();
    }

    /** The rest of an out-of-order completion: memory, stats, commit. */
    void
    retire(auto &m, const InflightOp &e)
    {
        if (e.isStore) {
            bool ok = m.result.memory.store(e.rec->memAddr,
                                            e.rec->storeValue);
            ruu_assert(ok, "store to unmapped address in trace");
        }
        if (e.isMem())
            m.loadRegs.complete(static_cast<unsigned>(e.loadReg));
        ++m.cInsts;
        ++m.result.instructions;
        m.notifyCommit(e.seq, *e.rec);
    }

    bool
    afterCompletion(auto &m)
    {
        if (!faultRaised)
            return false;
        m.result.cycles = m.cycle + 1;
        return true;
    }

    bool
    conditionReady(auto &, RegId cond)
    {
        return !(cond.valid() && busy.busy(cond));
    }

    /** A busy source monitors the latest tag of its register. */
    bool
    sourceWaits(RegId reg, Tag &tag, const char *what)
    {
        if (!busy.busy(reg))
            return false;
        int producer = latestSlot[reg.flat()];
        ruu_assert(producer >= 0, "busy register %s without a %s",
                   reg.toString().c_str(), what);
        tag = static_cast<Tag>(producer);
        return true;
    }

    /** One busy bit per register with a latest tag. */
    void
    checkInvariants(auto &, lint::InvariantChecker *ck)
    {
        unsigned with_tag = 0;
        for (int slot : latestSlot)
            with_tag += slot >= 0 ? 1 : 0;
        ck->onScoreboardSample(busy.countBusy(), with_tag);
    }

    void
    exposeLatest(inject::FaultPortSet &ports, std::uint64_t wrap)
    {
        for (unsigned f = 0; f < kNumArchRegs; ++f)
            ports.add("latestSlot." + RegId::fromFlat(f).toString(),
                      inject::PortClass::Tag, latestSlot[f], 32, wrap);
        busy.exposePorts(ports, "busy");
    }
};

/**
 * One merged pool (the RSTU, the history machine's stations): any free
 * slot takes the next instruction, so live slots are kept in program
 * order on the side for the compiled walks.
 */
template <class Base>
struct MergedPool : Base
{
    std::vector<unsigned> live; //!< valid slots, oldest first

    int
    freeSlot(auto &m, const Fetch &)
    {
        for (unsigned i = 0; i < m.pool.size(); ++i)
            if (!m.pool[i].valid)
                return static_cast<int>(i);
        return -1;
    }

    void forLive(auto &, auto &&fn)
    {
        for (unsigned s : live)
            fn(s);
    }

    void onIssued(auto &, unsigned slot) { live.push_back(slot); }

    void
    release(auto &m, unsigned slot)
    {
        m.pool[slot].valid = false;
        std::erase(m.memQueue, slot);
        std::erase(live, slot);
    }

    unsigned
    occupancy(auto &m) const
    {
        if constexpr (std::remove_reference_t<decltype(m)>::kCompiled) {
            return static_cast<unsigned>(live.size());
        } else {
            unsigned n = 0;
            for (const auto &e : m.pool)
                n += e.valid ? 1 : 0;
            return n;
        }
    }

    /** "    slot i: seq s FU progress" per live entry. */
    void
    dumpSlots(auto &m, std::ostringstream &os) const
    {
        for (unsigned i = 0; i < m.pool.size(); ++i) {
            const auto &e = m.pool[i];
            if (!e.valid)
                continue;
            FuKind kind = e.isMem() ? FuKind::Memory : e.rec->inst.fu();
            os << "    slot " << i << ": seq " << e.seq << " "
               << fuKindName(kind) << progressWord(e) << "\n";
        }
    }
};

/**
 * The RUU's circular queue (§5): entries enter at the tail in order and
 * commit from the head, NI/LI instance counters name their tags, and
 * live entries are exactly the window [head, head + count).
 */
struct CircularQueue : PolicyDefaults
{
    static constexpr bool kStoresInOrder = false;

    unsigned size;
    unsigned head = 0, tail = 0, count = 0;
    InstanceCounters counters;
    Counter &cNi;
    Counter &cCommits;

    CircularQueue(const UarchConfig &c, StatSet &stats)
        : size(c.poolEntries), counters(c.counterBits),
          cNi(stats.counter("stall_ni_saturated_cycles")),
          cCommits(stats.counter("commits"))
    {}

    int freeSlot(auto &, const Fetch &) const
    {
        return count == size ? -1 : static_cast<int>(tail);
    }

    /** Visit the live window oldest-first. */
    void
    forLive(auto &, auto &&fn) const
    {
        unsigned s = head;
        for (unsigned k = 0; k < count; ++k) {
            fn(s);
            ++s;
            if (s == size)
                s = 0;
        }
    }

    void
    onIssued(auto &, unsigned)
    {
        tail = (tail + 1) % size;
        ++count;
    }

    unsigned sampled(auto &) const { return count; }

    Counter *
    issueStall(auto &, const Fetch &f)
    {
        RegId dst = f.inst->dst;
        return dst.valid() && !counters.canAllocate(dst) ? &cNi : nullptr;
    }

    /** The live entry holding tag @p tag, or nullptr. */
    auto *
    entryWithTag(auto &m, Tag tag) const
    {
        using Entry = std::remove_reference_t<decltype(m.pool[0])>;
        Entry *found = nullptr;
        if constexpr (std::remove_reference_t<decltype(m)>::kCompiled) {
            forLive(m, [&](unsigned s) {
                Entry &e = m.pool[s];
                if (!found && e.valid && e.destTag == tag)
                    found = &e;
            });
        } else {
            for (auto &e : m.pool) {
                if (e.valid && e.destTag == tag) {
                    found = &e;
                    break;
                }
            }
        }
        return found;
    }

    /** Allocate the destination's next instance and name its tag. */
    void
    allocateDest(InflightOp &e, RegId dst)
    {
        e.destTag = counters.makeTag(dst, counters.allocate(dst));
    }

    /**
     * Commit up to commitWidth executed entries from the head (§5).
     * @p waits holds an entry back; true when the run ended (a fault
     * reached the head, or HALT committed).
     */
    bool
    commitHead(auto &m, auto &&waits)
    {
        for (unsigned w = 0; w < m.config.commitWidth && count > 0; ++w) {
            auto &e = m.pool[head];
            if (!e.executed)
                break;
            if (waits(e))
                break;

            if (e.faulted) {
                // Precise interrupt: the committed state is exactly the
                // sequential execution of instructions [start, seq).
                m.reportFault(e);
                m.result.cycles = m.cycle + 1;
                return true;
            }

            const TraceRecord &rec = *e.rec;
            if (m.ck)
                m.ck->onCommit(e.seq);
            m.notifyCommit(e.seq, rec);
            if (rec.inst.dst.valid()) {
                m.result.state.write(rec.inst.dst, rec.result);
                counters.release(rec.inst.dst);
                // The RUU-to-register-file bus is itself monitored by
                // the reservation stations (§6.2), so commitment is a
                // second broadcast of the same tag.
                m.broadcast(e.destTag, rec.result);
                if (m.ck) {
                    m.ck->onCommitBroadcast(m.cycle, e.destTag);
                    m.ck->onTagReleased(e.destTag);
                }
            }
            if (e.isStore) {
                bool ok = m.result.memory.store(rec.memAddr,
                                                rec.storeValue);
                ruu_assert(ok, "store to unmapped address in trace");
                m.loadRegs.complete(static_cast<unsigned>(e.loadReg));
                if (m.ck)
                    m.ck->onTagReleased(storeTagFor(e.seq));
            }

            ++cCommits;
            ++m.cInsts;
            ++m.result.instructions;
            m.lastEvent = m.cycle;

            bool was_halt = m.view.haltAt(e.seq);
            e.valid = false;
            std::erase(m.memQueue, head);
            head = (head + 1) % size;
            --count;

            if (was_halt) {
                m.result.cycles = m.cycle + 1;
                return true;
            }
        }
        return false;
    }

    /**
     * §5: the NI counters must agree with the set of entries holding an
     * uncommitted register writer.
     */
    void
    checkQueue(lint::InvariantChecker *ck, unsigned writers)
    {
        unsigned ni_total = 0;
        for (unsigned f = 0; f < kNumArchRegs; ++f)
            ni_total += counters.instances(RegId::fromFlat(f));
        ck->onScoreboardSample(ni_total, writers);
        ck->require(count <= size, "RUU occupancy exceeds capacity");
    }

    void
    exposeCursors(inject::FaultPortSet &ports)
    {
        inject::exposeCursor(ports, "head", head, size);
        inject::exposeCursor(ports, "tail", tail, size);
        inject::exposeCursor(ports, "count", count, size + 1);
    }
};

// ---------------------------------------------------------------------
// Tomasulo: a Tag Unit and private stations per unit (§3.1–§3.2.1)

struct TomasuloPolicy : CompletionWritesRegs
{
    static constexpr const char *kName = "tomasulo";
    static constexpr CommitOrder kCommitOrder = CommitOrder::None;
    static constexpr bool kPrecise = false;
    static constexpr const char *kFullStall = "stall_no_rs_cycles";
    static constexpr const char *kOccupancy = "rs_occupancy";
    /** A station leaves the memory queue once its address resolves. */
    static constexpr bool kMemQueueKeepsResolved = false;

    /** One Tag Unit entry: a tag for a currently active register. */
    struct TuEntry
    {
        bool free = true;
        bool latest = false;  //!< newest tag for its register
        unsigned regFlat = 0; //!< flat register number
    };

    unsigned rsPerFu;
    std::vector<TuEntry> tu;
    /** Dispatched instructions in their units, in dispatch order. */
    std::vector<InflightOp> flight;
    int tuSlot = -1; //!< the free tag decode found this cycle
    Counter &cNoTu;

    TomasuloPolicy(const UarchConfig &c, const Trace &, StatSet &stats)
        : rsPerFu(c.rsPerFu), tu(c.tuEntries),
          cNoTu(stats.counter("stall_no_tu_cycles"))
    {}

    /** Station k * rsPerFu + i is station i of unit k. */
    static unsigned poolSize(const UarchConfig &c)
    {
        return kNumFuKinds * c.rsPerFu;
    }
    /** Each unit accepts one instruction per cycle. */
    static unsigned dispatchLimit(const UarchConfig &) { return kNumFuKinds; }

    /** Per unit, memory first (§5), its oldest ready station. */
    void
    selectCandidates(auto &m, std::vector<unsigned> &out)
    {
        static constexpr std::array<FuKind, 11> kDispatchOrder = {
            FuKind::Memory,    FuKind::AddrAdd,   FuKind::AddrMul,
            FuKind::ScalarAdd, FuKind::ScalarLogical,
            FuKind::ScalarShift, FuKind::PopLz,   FuKind::FpAdd,
            FuKind::FpMul,     FuKind::FpRecip,   FuKind::Transmit,
        };
        for (FuKind kind : kDispatchOrder) {
            unsigned base = static_cast<unsigned>(kind) * rsPerFu;
            int best = -1;
            for (unsigned i = base; i < base + rsPerFu; ++i) {
                const InflightOp &e = m.pool[i];
                if (e.valid && e.readyToDispatch() &&
                    (best < 0 ||
                     e.seq < m.pool[static_cast<unsigned>(best)].seq)) {
                    best = static_cast<int>(i);
                }
            }
            if (best >= 0)
                out.push_back(static_cast<unsigned>(best));
        }
    }

    FuKind unitOf(auto &, const InflightOp &, unsigned slot) const
    {
        return static_cast<FuKind>(slot / rsPerFu);
    }

    /** The reservation station is released at dispatch (§3.1). */
    void
    onDispatched(auto &, InflightOp &e, unsigned)
    {
        flight.push_back(e);
        e.valid = false;
    }

    void
    completions(auto &m)
    {
        for (auto it = flight.begin(); it != flight.end();) {
            InflightOp &e = *it;
            if (e.completeCycle != m.cycle) {
                ++it;
                continue;
            }
            m.lastEvent = m.cycle;
            if (e.rec->fault != Fault::None) {
                raiseFault(m, e);
                ++it;
                continue;
            }
            Tag tag = m.broadcastResult(e);
            RegId dst = e.rec->inst.dst;
            if (dst.valid()) {
                TuEntry &slot = tu[e.destTag];
                if (slot.latest) {
                    m.result.state.write(dst, e.rec->result);
                    busy.clear(dst);
                    latestSlot[dst.flat()] = -1;
                }
                slot = TuEntry{}; // release the tag
                if (m.ck)
                    m.ck->onTagReleased(e.destTag);
            }
            if (m.ck && e.isStore)
                m.ck->onTagReleased(tag);
            retire(m, e);
            it = flight.erase(it);
        }
    }

    int
    freeSlot(auto &m, const Fetch &)
    {
        FuKind kind = m.view.memAt(m.decodeSeq) ? FuKind::Memory
                                                : m.view.fuAt(m.decodeSeq);
        unsigned base = static_cast<unsigned>(kind) * rsPerFu;
        for (unsigned i = base; i < base + rsPerFu; ++i)
            if (!m.pool[i].valid)
                return static_cast<int>(i);
        return -1;
    }

    Counter *
    issueStall(auto &, const Fetch &f)
    {
        if (!f.inst->dst.valid())
            return nullptr;
        tuSlot = -1;
        for (unsigned i = 0; i < tu.size(); ++i) {
            if (tu[i].free) {
                tuSlot = static_cast<int>(i);
                break;
            }
        }
        return tuSlot < 0 ? &cNoTu : nullptr;
    }

    bool sourceWaits(auto &, RegId reg, Tag &tag)
    {
        return CompletionWritesRegs::sourceWaits(reg, tag, "tag");
    }

    void
    onIssue(auto &m, InflightOp &e, unsigned, const Fetch &f)
    {
        RegId dst = f.inst->dst;
        if (!dst.valid())
            return;
        int prev = latestSlot[dst.flat()];
        if (prev >= 0)
            tu[static_cast<unsigned>(prev)].latest = false;
        tu[static_cast<unsigned>(tuSlot)] = TuEntry{false, true, dst.flat()};
        latestSlot[dst.flat()] = tuSlot;
        busy.setBusy(dst);
        e.destTag = static_cast<Tag>(tuSlot);
        if (m.ck)
            m.ck->onTagAllocated(e.destTag, e.seq);
    }

    void onIssued(auto &, unsigned) {}

    unsigned
    occupancy(auto &m) const
    {
        unsigned n = 0;
        for (const auto &e : m.pool)
            n += e.valid ? 1 : 0;
        return n;
    }
    unsigned sampled(auto &m) const { return occupancy(m); }
    bool drained(auto &m) const
    {
        return occupancy(m) == 0 && flight.empty();
    }

    std::string
    wedgeDetail(auto &m) const
    {
        std::ostringstream os;
        for (unsigned k = 0; k < kNumFuKinds; ++k) {
            unsigned base = k * rsPerFu, n = 0;
            for (unsigned i = base; i < base + rsPerFu; ++i)
                n += m.pool[i].valid ? 1 : 0;
            if (n == 0)
                continue;
            os << "  " << fuKindName(static_cast<FuKind>(k))
               << " rs: " << n << "/" << rsPerFu << " busy\n";
            for (unsigned i = base; i < base + rsPerFu; ++i) {
                const InflightOp &e = m.pool[i];
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
    }

    /**
     * The stations, the Tag Unit and the per-register latest maps.
     * Entries copied into `flight` move, so they are not ports;
     * destination tags index the Tag Unit, so they wrap to its size.
     */
    void
    exposeWindow(auto &m, inject::FaultPortSet &ports)
    {
        for (unsigned i = 0; i < m.pool.size(); ++i)
            inject::exposeInflightOp(
                ports,
                std::string("rs.") +
                    fuKindName(static_cast<FuKind>(i / rsPerFu)) + "[" +
                    std::to_string(i % rsPerFu) + "]",
                m.pool[i], m.records.size(), tu.size());
        for (unsigned i = 0; i < tu.size(); ++i) {
            std::string name = "tu[" + std::to_string(i) + "]";
            ports.addFlag(name + ".free", tu[i].free);
            ports.addFlag(name + ".latest", tu[i].latest);
            ports.add(name + ".regFlat", inject::PortClass::Tag,
                      tu[i].regFlat, 32, kNumArchRegs);
        }
        exposeLatest(ports, tu.size());
    }
};

// ---------------------------------------------------------------------
// RSTU: one pool, a slot is both tag and station (§3.2.3)

struct RstuEntry : InflightOp
{
    bool latestCopy = false; //!< this entry holds the register's newest tag
};

struct RstuPolicy : MergedPool<CompletionWritesRegs>
{
    using Entry = RstuEntry;
    static constexpr const char *kName = "rstu";
    static constexpr CommitOrder kCommitOrder = CommitOrder::None;
    static constexpr bool kPrecise = false;
    static constexpr const char *kFullStall = "stall_no_pool_slot_cycles";
    static constexpr const char *kOccupancy = "pool_occupancy";

    RstuPolicy(const UarchConfig &, const Trace &, StatSet &) {}

    /** Slot order: the order the register file sees the writes. */
    void
    orderCompletions(auto &, std::vector<unsigned> &slots)
    {
        std::sort(slots.begin(), slots.end());
    }

    void
    complete(auto &m, RstuEntry &e, unsigned slot)
    {
        e.executed = true;
        m.lastEvent = m.cycle;
        if (e.rec->fault != Fault::None) {
            // The register file already holds younger results: the
            // interrupt is imprecise. Freeze.
            raiseFault(m, e);
            return;
        }
        Tag tag = m.broadcastResult(e);
        // The slot doubles as the tag; completion frees both.
        if (m.ck)
            m.ck->onTagReleased(tag);
        // Only the latest copy may update the register file; stale
        // copies feed waiting stations over the bus only.
        RegId dst = e.rec->inst.dst;
        if (dst.valid() && e.latestCopy) {
            m.result.state.write(dst, e.rec->result);
            busy.clear(dst);
            latestSlot[dst.flat()] = -1;
        }
        retire(m, e);
        release(m, slot);
    }

    bool sourceWaits(auto &, RegId reg, Tag &tag)
    {
        return CompletionWritesRegs::sourceWaits(reg, tag, "latest tag");
    }

    void
    onIssue(auto &m, RstuEntry &e, unsigned slot, const Fetch &f)
    {
        RegId dst = f.inst->dst;
        if (!dst.valid())
            return;
        e.destTag = static_cast<Tag>(slot);
        if (m.ck)
            m.ck->onTagAllocated(e.destTag, e.seq);
        int prev = latestSlot[dst.flat()];
        if (prev >= 0)
            m.pool[static_cast<unsigned>(prev)].latestCopy = false;
        e.latestCopy = true;
        latestSlot[dst.flat()] = static_cast<int>(slot);
        busy.setBusy(dst);
    }

    unsigned sampled(auto &m) const { return occupancy(m); }
    bool drained(auto &m) const { return occupancy(m) == 0; }

    std::string
    wedgeDetail(auto &m) const
    {
        std::ostringstream os;
        os << "  pool occupancy " << occupancy(m) << "/" << m.pool.size()
           << "\n";
        dumpSlots(m, os);
        return os.str();
    }

    /** A slot is its tag, so tags and latest pointers wrap to the pool. */
    void
    exposeWindow(auto &m, inject::FaultPortSet &ports)
    {
        for (unsigned i = 0; i < m.pool.size(); ++i) {
            std::string name = "rstu[" + std::to_string(i) + "]";
            inject::exposeInflightOp(ports, name, m.pool[i],
                                     m.records.size(), m.pool.size());
            ports.addFlag(name + ".latestCopy", m.pool[i].latestCopy);
        }
        exposeLatest(ports, m.pool.size());
    }
};

// ---------------------------------------------------------------------
// History buffer: complete into the register file, log the old value,
// unwind on a fault (§4)

struct HistoryPolicy : MergedPool<PolicyDefaults>
{
    static constexpr const char *kName = "history";
    static constexpr CommitOrder kCommitOrder = CommitOrder::DataInOrder;
    static constexpr bool kPrecise = true;
    static constexpr const char *kFullStall = "stall_no_pool_slot_cycles";
    static constexpr const char *kOccupancy = "history_occupancy";

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
        Word oldMemValue = 0; //!< memory contents just before the store
        bool memWritten = false;
        bool done = false;     //!< instruction completed (or was cancelled)
        bool wroteReg = false; //!< register update actually happened
        bool faulted = false;
    };

    std::vector<HistoryEntry> hb;
    unsigned hbHead = 0, hbTail = 0, hbCount = 0;
    std::vector<unsigned> hbOfSlot; //!< pool slot -> history index
    BusyBits busy;
    bool draining = false;  //!< a fault reached the head; unwinding soon
    bool unwinding = false; //!< restoring old values, one per cycle
    /** A faulted or cancelled op leaves its busy bit set until the unwind. */
    bool faultSeen = false;
    Counter &cNoHb;
    Counter &cWaw;
    Counter &cRollback;

    HistoryPolicy(const UarchConfig &c, const Trace &, StatSet &stats)
        : hb(c.historyEntries), hbOfSlot(c.poolEntries, 0),
          cNoHb(stats.counter("stall_history_full_cycles")),
          cWaw(stats.counter("stall_dest_busy_cycles")),
          cRollback(stats.counter("rollback_cycles"))
    {}

    /** Unwind the buffer from the tail, one entry per cycle. */
    CycleStep
    beginCycle(auto &m)
    {
        if (!unwinding)
            return CycleStep::Run;
        if (hbCount == 1) {
            // Only the faulting entry remains: the state is the
            // sequential prefix before it. Interrupt delivered.
            HistoryEntry &f = hb[hbHead];
            m.result.interrupted = true;
            m.result.fault = m.records[f.seq].fault;
            m.result.faultSeq = f.seq;
            m.result.faultPc = f.pc;
            m.result.cycles = m.cycle + 1;
            return CycleStep::Stop;
        }
        HistoryEntry &e = hb[(hbHead + hbCount - 1) % hb.size()];
        if (e.wroteReg)
            m.result.state.write(RegId::fromFlat(e.regFlat), e.oldValue);
        if (e.memWritten) {
            bool ok = m.result.memory.store(e.memAddr, e.oldMemValue);
            ruu_assert(ok, "rollback store out of range");
        }
        // Counted when it executed, it is no longer part of the
        // committed prefix the interrupted result reports.
        if (e.wroteReg || e.memWritten)
            --m.result.instructions;
        e.valid = false;
        --hbCount;
        ++cRollback;
        m.lastEvent = m.cycle;
        return CycleStep::Skip;
    }

    /** Program order: the order the history entries record. */
    void
    orderCompletions(auto &m, std::vector<unsigned> &slots)
    {
        std::sort(slots.begin(), slots.end(), [&](unsigned a, unsigned b) {
            return m.pool[a].seq < m.pool[b].seq;
        });
    }

    void
    complete(auto &m, InflightOp &e, unsigned slot)
    {
        e.executed = true;
        m.lastEvent = m.cycle;
        HistoryEntry &h = hb[hbOfSlot[slot]];
        if (e.rec->fault != Fault::None) {
            // No state change; the entry surfaces the fault when it
            // reaches the buffer head.
            h.done = true;
            h.faulted = true;
            faultSeen = true;
            m.noteDrainStart();
            if (e.isMem())
                m.loadRegs.complete(static_cast<unsigned>(e.loadReg));
            release(m, slot);
            return;
        }
        Tag tag = m.broadcastResult(e);
        // The register file updates right here, so the tag dies with
        // its broadcast.
        if (m.ck)
            m.ck->onTagReleased(tag);
        if (e.rec->inst.dst.valid()) {
            m.result.state.write(e.rec->inst.dst, e.rec->result);
            busy.clear(e.rec->inst.dst);
            h.wroteReg = true;
        }
        if (e.isStore) {
            h.oldMemValue = m.result.memory.at(e.rec->memAddr);
            h.memWritten = true;
            bool ok = m.result.memory.store(e.rec->memAddr,
                                            e.rec->storeValue);
            ruu_assert(ok, "store to unmapped address");
        }
        if (e.isMem())
            m.loadRegs.complete(static_cast<unsigned>(e.loadReg));
        h.done = true;
        ++m.cInsts;
        ++m.result.instructions;
        release(m, slot);
    }

    /** Retire done entries from the head; a fault there drains. */
    bool
    afterCompletion(auto &m)
    {
        while (hbCount > 0 && hb[hbHead].done) {
            if (hb[hbHead].faulted) {
                if (!draining)
                    cancelUndispatched(m);
                // Unwind once every younger entry has drained.
                bool all_done = true;
                for (unsigned i = 0, s = hbHead; i < hbCount;
                     ++i, s = (s + 1) % hb.size()) {
                    all_done &= hb[s].done;
                }
                if (all_done && occupancy(m) == 0)
                    unwinding = true;
                break;
            }
            if (m.ck)
                m.ck->onCommit(hb[hbHead].seq);
            m.notifyCommit(hb[hbHead].seq, m.records[hb[hbHead].seq]);
            hb[hbHead].valid = false;
            hbHead = (hbHead + 1) % hb.size();
            --hbCount;
        }
        return false;
    }

    /**
     * Cancel everything not yet dispatched: without the faulting
     * result their operands may never arrive.
     */
    void
    cancelUndispatched(auto &m)
    {
        draining = true;
        for (unsigned i = 0; i < m.pool.size(); ++i) {
            InflightOp &e = m.pool[i];
            if (e.valid && !e.dispatched) {
                if (e.isMem() && e.addrResolved)
                    m.loadRegs.complete(static_cast<unsigned>(e.loadReg));
                hb[hbOfSlot[i]].done = true;
                --m.undispatched;
                release(m, i);
            }
        }
    }

    bool
    fetch(auto &m, Fetch &f)
    {
        return !draining && PolicyDefaults::fetch(m, f);
    }

    bool
    conditionReady(auto &, RegId cond)
    {
        return !(cond.valid() && busy.busy(cond));
    }

    Counter *
    issueStall(auto &, const Fetch &f)
    {
        if (hbCount == hb.size())
            return &cNoHb;
        // The scoreboard interlock: one writer at a time.
        if (f.inst->dst.valid() && busy.busy(f.inst->dst))
            return &cWaw;
        return nullptr;
    }

    bool
    sourceWaits(auto &, RegId reg, Tag &tag)
    {
        if (!busy.busy(reg))
            return false;
        tag = static_cast<Tag>(reg.flat());
        return true;
    }

    void
    onIssue(auto &m, InflightOp &e, unsigned slot, const Fetch &f)
    {
        RegId dst = f.inst->dst;
        if (dst.valid()) {
            e.destTag = static_cast<Tag>(dst.flat());
            if (m.ck)
                m.ck->onTagAllocated(e.destTag, e.seq);
        }
        HistoryEntry &h = hb[hbTail];
        h = HistoryEntry{};
        h.valid = true;
        h.seq = m.decodeSeq;
        h.pc = f.rec->pc;
        if (dst.valid()) {
            h.regFlat = dst.flat();
            h.oldValue = m.result.state.read(dst);
            busy.setBusy(dst);
        }
        h.isStore = e.isStore;
        h.memAddr = f.rec->memAddr;
        hbOfSlot[slot] = hbTail;
        hbTail = (hbTail + 1) % hb.size();
        ++hbCount;
    }

    unsigned sampled(auto &) const { return hbCount; }
    bool drained(auto &m) const { return occupancy(m) == 0 && hbCount == 0; }

    /** The busy bits must match the in-flight writers (§4's interlock). */
    void
    checkInvariants(auto &m, lint::InvariantChecker *ck)
    {
        if (faultSeen)
            return;
        unsigned writers = 0;
        for (const InflightOp &e : m.pool)
            if (e.valid && e.rec->inst.dst.valid())
                ++writers;
        ck->onScoreboardSample(busy.countBusy(), writers);
        ck->require(hbCount <= hb.size(), "history buffer exceeds capacity");
    }

    std::string
    wedgeDetail(auto &m) const
    {
        std::ostringstream os;
        os << "  pool occupancy " << occupancy(m) << "/" << m.pool.size()
           << ", history buffer " << hbCount << "/" << hb.size()
           << (unwinding  ? ", unwinding"
               : draining ? ", draining after fault"
                          : "")
           << "\n";
        dumpSlots(m, os);
        return os.str();
    }

    /**
     * History sequence numbers index the trace, so they wrap to its
     * length; the slot-to-history map and the cursors wrap to the
     * buffer. regFlat keeps its "no destination" sentinel
     * (kNumArchRegs) representable by wrapping one past it.
     */
    void
    exposeWindow(auto &m, inject::FaultPortSet &ports)
    {
        for (unsigned i = 0; i < m.pool.size(); ++i)
            inject::exposeInflightOp(ports,
                                     "pool[" + std::to_string(i) + "]",
                                     m.pool[i], m.records.size());
        for (unsigned i = 0; i < hb.size(); ++i) {
            std::string name = "hb[" + std::to_string(i) + "]";
            HistoryEntry &h = hb[i];
            ports.addFlag(name + ".valid", h.valid);
            ports.add(name + ".seq", inject::PortClass::Sequence, h.seq,
                      32, m.records.size());
            ports.add(name + ".pc", inject::PortClass::Address, h.pc, 32);
            ports.add(name + ".regFlat", inject::PortClass::Tag, h.regFlat,
                      32, kNumArchRegs + 1);
            ports.add(name + ".oldValue", inject::PortClass::Data,
                      h.oldValue, 64);
            ports.addFlag(name + ".isStore", h.isStore);
            ports.add(name + ".memAddr", inject::PortClass::Address,
                      h.memAddr, 32);
            ports.add(name + ".oldMemValue", inject::PortClass::Data,
                      h.oldMemValue, 64);
            ports.addFlag(name + ".memWritten", h.memWritten);
            ports.addFlag(name + ".done", h.done);
            ports.addFlag(name + ".wroteReg", h.wroteReg);
            ports.addFlag(name + ".faulted", h.faulted);
        }
        inject::exposeCursor(ports, "hbHead", hbHead, hb.size());
        inject::exposeCursor(ports, "hbTail", hbTail, hb.size());
        inject::exposeCursor(ports, "hbCount", hbCount, hb.size() + 1);
        for (unsigned i = 0; i < m.pool.size(); ++i)
            inject::exposeCursor(ports,
                                 "hbOfSlot[" + std::to_string(i) + "]",
                                 hbOfSlot[i], hb.size());
        busy.exposePorts(ports, "busy");
    }
};

// ---------------------------------------------------------------------
// RUU: in-order commit from a circular queue, NI/LI tags, and the
// bypass variants (§5–§6)

struct RuuPolicy : CircularQueue
{
    static constexpr const char *kName = "ruu";
    /**
     * State-changers commit in order from the head; branches resolve
     * (and are reported) in decode.
     */
    static constexpr CommitOrder kCommitOrder = CommitOrder::DataInOrder;
    static constexpr bool kPrecise = true;
    static constexpr const char *kFullStall = "stall_ruu_full_cycles";
    static constexpr const char *kOccupancy = "ruu_occupancy";
    /** NOP and HALT enter the queue complete and wait to commit. */
    static constexpr bool kRetiresNoOpsAtDecode = false;

    BypassMode bypass;
    /**
     * The duplicated register files: §6.3's A future file (LimitedA,
     * the eight A registers) or §4's full future file (FutureFile, all
     * 144). A register's duplicate is valid when its latest instance's
     * value has appeared on the result bus.
     */
    std::array<bool, kNumArchRegs> futureValid;
    /** Tags broadcast this cycle on either bus (a stalled branch watches). */
    std::vector<Tag> cycleTags;
    Counter &cBypass;
    Counter &cFuture;

    RuuPolicy(const UarchConfig &c, const Trace &, StatSet &stats)
        : CircularQueue(c, stats), bypass(c.bypass),
          cBypass(stats.counter("bypass_reads")),
          cFuture(stats.counter("future_file_reads"))
    {
        futureValid.fill(true);
    }

    static bool candidate(const InflightOp &e)
    {
        return e.valid && !e.executed && e.readyToDispatch();
    }

    bool
    futureCovers(RegId reg) const
    {
        if (bypass == BypassMode::FutureFile)
            return true;
        return bypass == BypassMode::LimitedA && reg.file() == RegFile::A;
    }

    /** Can decode obtain @p reg's value right now? */
    bool
    readable(auto &m, RegId reg)
    {
        if (!counters.busy(reg))
            return true; // architectural register file
        Tag tag = counters.latestTag(reg);
        switch (bypass) {
          case BypassMode::Full: {
            InflightOp *producer = entryWithTag(m, tag);
            if (producer && producer->executed && !producer->faulted) {
                ++cBypass;
                return true;
            }
            return false;
          }
          case BypassMode::LimitedA:
          case BypassMode::FutureFile:
            if (futureCovers(reg) && futureValid[reg.flat()]) {
                ++cFuture;
                return true;
            }
            return false;
          case BypassMode::None:
            return false;
        }
        return false;
    }

    CycleStep
    beginCycle(auto &)
    {
        cycleTags.clear();
        return CycleStep::Run;
    }

    void onBroadcast(auto &, Tag tag) { cycleTags.push_back(tag); }

    void
    complete(auto &m, InflightOp &e, unsigned)
    {
        e.executed = true;
        m.lastEvent = m.cycle;
        if (e.rec->fault != Fault::None) {
            // Detected in the unit; surfaced only when the entry
            // reaches the head, keeping the interrupt precise.
            e.faulted = true;
            m.noteDrainStart();
            return;
        }
        m.broadcastResult(e);
        // Loads are finished with their load register once their data
        // is delivered; stores hold theirs until commit.
        if (e.isLoad)
            m.loadRegs.complete(static_cast<unsigned>(e.loadReg));
        RegId dst = e.rec->inst.dst;
        if (dst.valid() && futureCovers(dst) &&
            counters.latestTag(dst) == e.destTag) {
            futureValid[dst.flat()] = true;
        }
    }

    bool
    afterCompletion(auto &m)
    {
        return commitHead(m, [](const InflightOp &) { return false; });
    }

    /**
     * A branch resolves in decode once its condition can be obtained:
     * from the register file, a bypass path, or a bus broadcast this
     * cycle.
     */
    bool
    conditionReady(auto &m, RegId cond)
    {
        bool ok = !cond.valid() || readable(m, cond);
        if (!ok && cond.valid() && counters.busy(cond)) {
            Tag watch = counters.latestTag(cond);
            ok = std::find(cycleTags.begin(), cycleTags.end(), watch) !=
                 cycleTags.end();
        }
        return ok;
    }

    bool
    sourceWaits(auto &m, RegId reg, Tag &tag)
    {
        if (!counters.busy(reg) || readable(m, reg))
            return false;
        tag = counters.latestTag(reg);
        return true;
    }

    void
    onIssue(auto &m, InflightOp &e, unsigned, const Fetch &f)
    {
        RegId dst = f.inst->dst;
        if (dst.valid()) {
            allocateDest(e, dst);
            if (futureCovers(dst))
                futureValid[dst.flat()] = false;
            if (m.ck)
                m.ck->onTagAllocated(e.destTag, e.seq);
        }
        // NOP and HALT are complete on arrival and only wait to commit.
        if (m.view.fuAt(m.decodeSeq) == FuKind::None)
            e.executed = true;
    }

    bool drained(auto &) const { return count == 0; }

    void
    checkInvariants(auto &m, lint::InvariantChecker *ck)
    {
        unsigned writers = 0;
        for (const InflightOp &e : m.pool)
            if (e.valid && e.rec && e.rec->inst.dst.valid())
                ++writers;
        checkQueue(ck, writers);
    }

    std::string
    wedgeDetail(auto &m) const
    {
        std::string out = "  ruu occupancy " + std::to_string(count) + "/" +
                          std::to_string(size) + "\n";
        for (unsigned k = 0; k < count; ++k) {
            const InflightOp &e = m.pool[(head + k) % size];
            if (!e.valid)
                continue;
            out += "  entry " + std::to_string((head + k) % size) +
                   ": seq " + std::to_string(e.seq) + " fu " +
                   fuKindName(e.isMem() ? FuKind::Memory
                                        : e.rec->inst.fu()) +
                   progressWord(e) + (e.faulted ? " faulted" : "") + "\n";
        }
        return out;
    }

    void
    exposeWindow(auto &m, inject::FaultPortSet &ports)
    {
        for (unsigned i = 0; i < size; ++i)
            inject::exposeInflightOp(ports, "ruu[" + std::to_string(i) + "]",
                                     m.pool[i], m.records.size());
        exposeCursors(ports);
        counters.exposePorts(ports, "counters");
    }

    void
    exposeFiles(auto &, inject::FaultPortSet &ports)
    {
        for (unsigned f = 0; f < kNumArchRegs; ++f)
            ports.addFlag("futureValid." + RegId::fromFlat(f).toString(),
                          futureValid[f]);
    }
};

// ---------------------------------------------------------------------
// Speculative RUU: branches in the queue, wrong-path fetch, squash (§7)

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

struct SpecRuuPolicy : CircularQueue
{
    using Entry = SpecEntry;
    static constexpr const char *kName = "spec_ruu";
    static constexpr CommitOrder kCommitOrder = CommitOrder::Total;
    static constexpr bool kPrecise = true;
    static constexpr const char *kFullStall = "stall_ruu_full_cycles";
    static constexpr const char *kOccupancy = "ruu_occupancy";
    static constexpr bool kRetiresNoOpsAtDecode = false;
    /** Conditional branches enter the queue with a prediction. */
    static constexpr bool kBranchesAtDecode = false;

    const Program *program;
    std::unique_ptr<BranchPredictor> predictor;
    std::uint64_t nextIssueId = 1;
    /** Unresolved branch entries (the compiled path skips walks at 0). */
    unsigned unresolvedBranches = 0;
    // Wrong-path fetch: active after a mispredicted branch's wrong
    // direction was followed, until that branch resolves.
    bool wpActive = false;
    bool wpStuck = false;     //!< wrong path ran off the program
    std::size_t wpIndex = 0;  //!< static index being fetched
    bool takenFetch = false;  //!< the instruction just issued redirects
    Counter &cPredCorrect;
    Counter &cMispredicts;
    Counter &cSquashed;
    Counter &cWrongPath;

    SpecRuuPolicy(const UarchConfig &c, const Trace &trace, StatSet &stats)
        : CircularQueue(c, stats), program(trace.programPtr().get()),
          predictor(BranchPredictor::make(c.predictor, c.predictorTableBits)),
          cPredCorrect(stats.counter("predicted_correct")),
          cMispredicts(stats.counter("mispredicts")),
          cSquashed(stats.counter("squashed_entries")),
          cWrongPath(stats.counter("wrong_path_decoded"))
    {
        ruu_assert(program && !program->empty(),
                   "SpecRuuCore needs the static program for wrong-path "
                   "fetch; run it on traces from runFunctional()");
    }

    static void
    checkConfig(const UarchConfig &c)
    {
        if (c.bypass != BypassMode::Full)
            ruu_fatal("SpecRuuCore models the full-bypass RUU only");
    }

    static SeqNum age(const SpecEntry &e) { return e.issueId; }
    static bool candidate(const SpecEntry &e)
    {
        return e.valid && !e.executed && !e.isBranchEntry &&
               e.readyToDispatch();
    }
    static bool needsUnit(const SpecEntry &e)
    {
        return !e.executed && !e.isBranchEntry;
    }

    FuKind
    unitOf(auto &m, const SpecEntry &e, unsigned) const
    {
        return e.isMem() ? FuKind::Memory
               : e.rec   ? m.view.fuAt(e.seq)
                         : e.wpInst.fu();
    }

    /** True while some branch entry may be unresolved. */
    bool
    mayHoldBranches(auto &m) const
    {
        if constexpr (std::remove_reference_t<decltype(m)>::kCompiled)
            return unresolvedBranches > 0;
        return true;
    }

    /** True when a branch entry older than @p issue_id is unresolved. */
    bool
    olderUnresolvedBranch(auto &m, std::uint64_t issue_id) const
    {
        if (!mayHoldBranches(m))
            return false;
        for (unsigned i = 0, slot = head; i < count;
             ++i, slot = (slot + 1) % size) {
            const SpecEntry &e = m.pool[slot];
            if (e.valid && e.isBranchEntry && !e.resolvedBranch &&
                e.issueId < issue_id) {
                return true;
            }
        }
        return false;
    }

    /**
     * Nullify every entry younger than @p branch_slot: roll back the
     * instance counters newest-first, return load-register claims,
     * cancel undelivered results, and reset the tail.
     */
    void
    squashYounger(auto &m, unsigned branch_slot)
    {
        std::uint64_t branch_issue = m.pool[branch_slot].issueId;
        unsigned keep = (branch_slot + size - head) % size + 1;
        for (unsigned i = count; i-- > keep;) {
            unsigned slot = (head + i) % size;
            SpecEntry &e = m.pool[slot];
            ruu_assert(e.valid && e.issueId > branch_issue,
                       "squash walked onto an older entry");
            RegId dst = e.inst().dst;
            if (dst.valid())
                counters.rollback(dst);
            if (m.ck && dst.valid())
                m.ck->onTagSquashed(e.destTag);
            if (m.ck && e.isStore)
                m.ck->onTagSquashed(storeTagFor(e.seq));
            if (e.isMem() && e.addrResolved && !e.lrReleased)
                m.loadRegs.complete(static_cast<unsigned>(e.loadReg));
            if (!e.executed && !e.dispatched && !e.isBranchEntry)
                --m.undispatched;
            if (e.isBranchEntry && !e.resolvedBranch)
                --unresolvedBranches;
            e.valid = false;
            std::erase(m.memQueue, slot);
            ++cSquashed;
        }
        m.bus.cancelFrom(branch_issue + 1);
        tail = (head + keep) % size;
        count = keep;
    }

    void
    complete(auto &m, SpecEntry &e, unsigned)
    {
        e.executed = true;
        m.lastEvent = m.cycle;
        if (e.rec && e.rec->fault != Fault::None) {
            e.faulted = true;
            m.noteDrainStart();
            return;
        }
        m.broadcastResult(e);
        if (e.isLoad && !e.lrReleased) {
            m.loadRegs.complete(static_cast<unsigned>(e.loadReg));
            e.lrReleased = true;
        }
    }

    /** Resolve ready branches oldest first, then commit. */
    bool
    afterCompletion(auto &m)
    {
        const bool walk = mayHoldBranches(m);
        for (unsigned i = 0, slot = head; walk && i < count;
             ++i, slot = (slot + 1) % size) {
            SpecEntry &e = m.pool[slot];
            if (!e.valid || !e.isBranchEntry || e.resolvedBranch)
                continue;
            if (e.src[0].needed && !e.src[0].ready)
                continue;
            e.resolvedBranch = true;
            e.executed = true;
            --unresolvedBranches;
            m.lastEvent = m.cycle;
            if (e.wrongPath)
                continue; // outcome is irrelevant; it will be nullified
            bool actual = e.rec->taken;
            predictor->update(e.rec->pc, actual);
            if (actual == e.predictedTaken) {
                ++cPredCorrect;
            } else {
                ++cMispredicts;
                squashYounger(m, slot);
                // Fetch redirects to the correct path, which is where
                // the trace pointer already stands.
                wpActive = false;
                wpStuck = false;
                m.nextDecode = m.cycle + m.config.mispredictPenalty;
                break; // younger branches were just nullified
            }
        }
        return commitHead(m, [](const SpecEntry &e) {
            if (e.isBranchEntry && !e.resolvedBranch)
                return true;
            ruu_assert(!e.wrongPath,
                       "a wrong-path entry survived to the head");
            return false;
        });
    }

    /**
     * A conditional store must not perturb the load registers: it
     * waits until every older branch is decided.
     */
    bool
    mayResolve(auto &m, const SpecEntry &e)
    {
        return !(e.isStore && olderUnresolvedBranch(m, e.issueId));
    }

    /** The trace, or the program image while on a wrong path. */
    bool
    fetch(auto &m, Fetch &f)
    {
        if (!wpActive)
            return PolicyDefaults::fetch(m, f);
        if (wpStuck)
            return false;
        f.rec = nullptr;
        f.inst = &program->inst(wpIndex);
        f.pc = program->pc(wpIndex);
        return true;
    }

    /** Full-bypass readability of @p reg at decode. */
    bool
    sourceWaits(auto &m, RegId reg, Tag &tag)
    {
        if (!counters.busy(reg))
            return false;
        SpecEntry *producer = entryWithTag(m, counters.latestTag(reg));
        if (producer && producer->executed && !producer->faulted)
            return false;
        tag = counters.latestTag(reg);
        return true;
    }

    /** A wrong path that runs into the program's end stops fetching. */
    bool
    blocksIssue(auto &, const Fetch &f)
    {
        if (f.rec || !isProgramExit(f.inst->op))
            return false;
        wpStuck = true;
        return true;
    }

    void
    onIssue(auto &m, SpecEntry &e, unsigned, const Fetch &f)
    {
        const Instruction &inst = *f.inst;
        e.issueId = nextIssueId++;
        e.wrongPath = !f.rec;
        e.wpInst = inst;
        if (inst.dst.valid()) {
            allocateDest(e, inst.dst);
            if (m.ck)
                m.ck->onTagAllocated(e.destTag, e.seq);
        }
        bool is_cond = isCondBranch(inst.op);
        if (inst.fu() == FuKind::None && !is_cond)
            e.executed = true; // NOP, HALT, J
        takenFetch = inst.op == Opcode::J;
        if (!is_cond)
            return;
        e.isBranchEntry = true;
        ++unresolvedBranches;
        if (f.rec)
            ++m.cBranches; // wrong-path branches count as
                           // wrong_path_decoded only
        bool backward = inst.target < f.pc;
        if (e.src[0].ready) {
            // Condition readable at decode: no speculation.
            e.resolvedBranch = true;
            e.executed = true;
            --unresolvedBranches;
            bool actual = f.rec ? f.rec->taken
                                : predictor->predict(f.pc, backward);
            if (f.rec)
                predictor->update(f.pc, actual);
            e.predictedTaken = actual;
            takenFetch = actual;
        } else {
            bool p = predictor->predict(f.pc, backward);
            e.predictedTaken = p;
            takenFetch = p;
            if (f.rec && p != f.rec->taken) {
                // Following the wrong direction: fetch the wrong path
                // from the program image. The trace pointer stays on
                // the correct path.
                wpActive = true;
                wpStuck = false;
                wpIndex = p ? *program->indexOfPc(inst.target)
                            : f.rec->staticIndex + 1;
            }
        }
    }

    /** Advance whichever fetch stream is active. */
    void
    advance(auto &m, const Fetch &f)
    {
        if (f.rec) {
            ++m.decodeSeq; // a mispredicted branch leaves the trace here
        } else {
            ++cWrongPath;
            if (takenFetch) {
                auto target = program->indexOfPc(f.inst->target);
                if (target)
                    wpIndex = *target;
                else
                    wpStuck = true;
            } else {
                ++wpIndex;
                if (wpIndex >= program->size())
                    wpStuck = true;
            }
        }
        m.nextDecode = m.cycle + 1 +
                       (takenFetch ? m.config.predictedTakenPenalty : 0);
        if (f.rec && isProgramExit(f.inst->op))
            m.decodeSeq = m.records.size(); // stop trace fetch
    }

    bool drained(auto &) const { return !wpActive && count == 0; }

    void
    checkInvariants(auto &m, lint::InvariantChecker *ck)
    {
        unsigned writers = 0;
        for (const SpecEntry &e : m.pool)
            if (e.valid && e.inst().dst.valid())
                ++writers;
        checkQueue(ck, writers);
    }

    std::string
    wedgeDetail(auto &m) const
    {
        std::ostringstream os;
        os << "  ruu occupancy " << count << "/" << size;
        if (wpActive)
            os << " (wrong-path fetch" << (wpStuck ? ", stuck" : "") << ")";
        os << "\n";
        for (unsigned i = 0, slot = head; i < count;
             ++i, slot = (slot + 1) % size) {
            const SpecEntry &e = m.pool[slot];
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
                       : progressWord(e))
               << (e.faulted ? ", faulted" : "") << "\n";
        }
        return os.str();
    }

    /**
     * The entries with their speculation flags, the cursors and the
     * NI/LI counters. The predictor's tables and the wrong-path
     * instruction images are not ports.
     */
    void
    exposeWindow(auto &m, inject::FaultPortSet &ports)
    {
        for (unsigned i = 0; i < size; ++i) {
            SpecEntry &e = m.pool[i];
            std::string name = "ruu[" + std::to_string(i) + "]";
            inject::exposeInflightOp(ports, name, e, m.records.size());
            ports.add(name + ".issueId", inject::PortClass::Sequence,
                      e.issueId, 32);
            ports.addFlag(name + ".wrongPath", e.wrongPath);
            ports.addFlag(name + ".isBranchEntry", e.isBranchEntry);
            ports.addFlag(name + ".resolvedBranch", e.resolvedBranch);
            ports.addFlag(name + ".predictedTaken", e.predictedTaken);
        }
        exposeCursors(ports);
        ports.add("nextIssueId", inject::PortClass::Sequence, nextIssueId,
                  32);
        counters.exposePorts(ports, "counters");
    }

    void
    exposeFetch(auto &, inject::FaultPortSet &ports)
    {
        ports.addFlag("wpActive", wpActive);
        ports.addFlag("wpStuck", wpStuck);
        ports.add("wpIndex", inject::PortClass::Sequence, wpIndex, 32,
                  program->size());
    }
};

} // namespace ruu

#endif // RUU_CORE_WINDOW_POLICIES_HH
