/**
 * @file
 * The window cores: Tomasulo, the RSTU, the RUU, the speculative RUU
 * and the history-buffer machine as five policies of one cycle loop.
 *
 * Sohi derives each mechanism from the one before it: Tomasulo's
 * distributed reservation stations merge into the RSTU's one pool
 * (§3.2.3); the RSTU managed as a circular queue with in-order commit
 * is the RUU (§5–§6); §7 lets the RUU execute down a predicted path;
 * §4's history buffer is the other way to make interrupts precise.
 * WindowCore<Policy> is that derivation as code. Its cycle loop
 * (core/window_core.cc) runs the phases every buffered core shares —
 * dispatch, completion broadcast, memory-address resolution, the
 * decode front, the interrupt drain, the watchdog and the fault ports
 * — and a policy (core/window_policies.hh) supplies what differs:
 * pool organisation, tag naming, what completion does, commit, bypass
 * and branch handling.
 *
 * InflightOp is one window entry: source operands waiting on tags,
 * memory-disambiguation state (§3.2.1.2's load registers) and
 * dispatch/execution progress.
 */

#ifndef RUU_CORE_WINDOW_CORE_HH
#define RUU_CORE_WINDOW_CORE_HH

#include <array>

#include "core/core.hh"
#include "uarch/scoreboard.hh"

namespace ruu
{

/** One source operand of an in-flight instruction. */
struct SrcOperand
{
    bool needed = false; //!< the instruction has this operand
    bool ready = true;   //!< value available (or not needed)
    Tag tag = kNoTag;    //!< tag monitored while not ready
};

/** One in-flight instruction (a reservation station's contents). */
struct InflightOp
{
    bool valid = false;
    SeqNum seq = kNoSeqNum;
    const TraceRecord *rec = nullptr;

    /** Destination tag broadcast with the result (kNoTag for stores). */
    Tag destTag = kNoTag;

    /** Source operands: [0] = src1 (or base), [1] = src2 (or data). */
    std::array<SrcOperand, 2> src;

    // --- memory state (§3.2.1.2) ---------------------------------------
    bool isLoad = false;
    bool isStore = false;
    bool addrResolved = false;  //!< load-register lookup performed
    bool forwarded = false;     //!< load satisfied without memory
    bool fwdDataReady = false;  //!< forwarded data arrived
    Tag fwdTag = kNoTag;        //!< tag the forwarded load monitors
    int loadReg = -1;           //!< load register index in use

    // --- progress --------------------------------------------------------
    bool dispatched = false;
    bool executed = false;
    bool faulted = false;
    bool lrReleased = false; //!< load-register pending already returned
    Cycle completeCycle = kNoCycle;

    bool isMem() const { return isLoad || isStore; }

    /**
     * True when the operation may be selected for dispatch:
     * loads need a resolved address (and, if forwarded, their data);
     * stores need a resolved address and their data operand; everything
     * else needs all register sources.
     */
    bool
    readyToDispatch() const
    {
        if (dispatched)
            return false;
        if (isLoad)
            return addrResolved && (!forwarded || fwdDataReady);
        if (isStore)
            return addrResolved && src[1].ready;
        return src[0].ready && src[1].ready;
    }

    /** True while a broadcast could still change this entry. */
    bool
    needsWakeup() const
    {
        return (src[0].needed && !src[0].ready) ||
               (src[1].needed && !src[1].ready) ||
               (forwarded && !fwdDataReady);
    }

    /**
     * A value with @p tag was broadcast: satisfy matching sources and
     * forwarded-load waits.
     */
    void
    wakeup(Tag tag)
    {
        for (auto &s : src) {
            if (s.needed && !s.ready && s.tag == tag)
                s.ready = true;
        }
        if (forwarded && !fwdDataReady && fwdTag == tag)
            fwdDataReady = true;
    }
};

/** Store pseudo-tag for dynamic instruction @p seq. */
inline Tag
storeTagFor(SeqNum seq)
{
    return kStoreTagBit | static_cast<Tag>(seq & 0x7fffffffu);
}

template <class Policy, class View>
class WindowRun;

/**
 * A buffered issue-logic core: the shared window cycle loop run under
 * @p Policy (one of the five below).
 */
template <class Policy>
class WindowCore : public Core
{
  public:
    explicit WindowCore(const UarchConfig &config);

    const char *name() const override;
    CommitOrder commitOrder() const override;
    bool preciseInterrupts() const override;

  protected:
    RunResult runImpl(const Trace &trace,
                      const RunOptions &options) override;

  private:
    template <class, class>
    friend class WindowRun;
};

/**
 * Tomasulo's algorithm with a separate Tag Unit and distributed
 * reservation stations (§3.1–§3.2.1, Figure 2). Issue blocks when the
 * target unit's stations or the Tag Unit are full, even if stations of
 * other units sit idle; a station is released at dispatch. Registers
 * update in completion order: imprecise.
 */
struct TomasuloPolicy;

/**
 * The RSTU: one merged pool whose entry is both the tag and the
 * reservation station (§3.2.3, Figure 4, Tables 2–3). Registers update
 * in completion order: imprecise.
 */
struct RstuPolicy;

/**
 * The history-buffer machine (§4, Smith & Pleszkun): results update
 * the register file at completion and the old value is logged; a fault
 * unwinds the buffer one entry per cycle. One writer per register at a
 * time, so the register number is the tag.
 */
struct HistoryPolicy;

/**
 * The Register Update Unit (§5–§6, Tables 4–6): the RSTU as a circular
 * queue that commits in order from its head, NI/LI instance counters
 * naming the tags, and the four bypass variants.
 */
struct RuuPolicy;

/**
 * The §7 extension: conditional branches occupy RUU entries, decode
 * follows the predictor down wrong paths fetched from the program
 * image, and a misprediction nullifies every younger entry. Needs the
 * trace's Program and the full-bypass RUU.
 */
struct SpecRuuPolicy;

using TomasuloCore = WindowCore<TomasuloPolicy>;
using RstuCore = WindowCore<RstuPolicy>;
using HistoryCore = WindowCore<HistoryPolicy>;
using RuuCore = WindowCore<RuuPolicy>;
using SpecRuuCore = WindowCore<SpecRuuPolicy>;

extern template class WindowCore<TomasuloPolicy>;
extern template class WindowCore<RstuPolicy>;
extern template class WindowCore<HistoryPolicy>;
extern template class WindowCore<RuuPolicy>;
extern template class WindowCore<SpecRuuPolicy>;

} // namespace ruu

#endif // RUU_CORE_WINDOW_CORE_HH
