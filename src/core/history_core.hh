/**
 * @file
 * A history-buffer machine — the §4 alternative to the RUU, made
 * concrete so the two precise-interrupt philosophies can be compared
 * on equal terms.
 *
 * Where the RUU *withholds* state updates until commitment, the
 * history buffer (Smith & Pleszkun's scheme, cited as [5]) lets
 * results update the register file as soon as they complete — out of
 * program order — and logs the *old* value of every destination in a
 * queue ordered by issue. Entries retire from the head when their
 * instruction has completed; on an exception the buffer is unwound
 * from the tail, restoring old register and memory values one entry
 * per cycle, which makes interrupts precise at the price of a
 * recovery latency proportional to the in-flight window.
 *
 * To keep rollback sound, this machine allows only a single
 * outstanding writer per register (a classic scoreboard interlock, so
 * the flat register number itself is the result tag — no tag unit at
 * all) and sends stores to memory in program order. That WAW
 * restriction is precisely the cost the RUU's NI/LI multiple-instance
 * counters were invented to remove, and the `precise_schemes` block of
 * EXPERIMENTS.md quantifies it.
 *
 * A fault surfaces when its history-buffer entry reaches the head:
 * issue stops, un-dispatched younger instructions are cancelled,
 * dispatched ones drain, and the buffer unwinds — after which the
 * architectural state equals the sequential prefix, verified by the
 * same oracle as the RUU's.
 */

#ifndef RUU_CORE_HISTORY_CORE_HH
#define RUU_CORE_HISTORY_CORE_HH

#include "core/core.hh"

namespace ruu
{

/** History-buffer machine (paper §4 / Smith & Pleszkun). */
class HistoryCore : public Core
{
  public:
    explicit HistoryCore(const UarchConfig &config);

    const char *name() const override { return "history"; }

    /**
     * Buffered instructions retire from the history-buffer head in
     * order; branches, NOP and HALT never enter the buffer and are
     * reported from decode.
     */
    CommitOrder commitOrder() const override
    {
        return CommitOrder::DataInOrder;
    }

    /** §4: the history buffer restores the precise state on a fault. */
    bool preciseInterrupts() const override { return true; }

  protected:
    RunResult runImpl(const Trace &trace,
                      const RunOptions &options) override;

  private:
    /** The issue loop, templated over the engine's trace view. */
    template <class View>
    RunResult runLoop(const Trace &trace, const RunOptions &options,
                      const View &view);
};

} // namespace ruu

#endif // RUU_CORE_HISTORY_CORE_HH
