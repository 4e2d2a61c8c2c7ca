/**
 * @file
 * The result bus(es) of the model architecture.
 *
 * The paper's model machine (§2) lets only one functional unit place a
 * result on the bus per clock — a deliberate simplification of the
 * CRAY-1, which had separate address and scalar result buses. ResultBus
 * models a configurable number of same-cycle delivery slots (width 1 =
 * the paper's machine, width 2 ≈ the real CRAY-1), so EXPERIMENTS.md's
 * `result_buses` block can quantify the simplification.
 *
 * A producer reserves a delivery slot at dispatch time (the
 * Weiss–Smith policy the paper cites); dispatch must stall when every
 * slot in its delivery cycle is taken. Broadcasts carry a tag and a
 * value: reservation stations, the tag units, the load registers and
 * the future files all monitor them.
 *
 * The schedule is a fixed array of reservation latches (width × a
 * delivery horizon comfortably beyond the longest unit latency), not a
 * dynamic map: the latches are stable storage for the lifetime of a
 * run, which is what lets the fault-injection layer (src/inject)
 * register every bus latch as a flippable FaultPort.
 */

#ifndef RUU_UARCH_RESULT_BUS_HH
#define RUU_UARCH_RESULT_BUS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace ruu
{

namespace inject
{
class FaultPortSet;
} // namespace inject

/** An opaque result tag; each core defines its own tag namespace. */
using Tag = std::uint32_t;

/** Sentinel for "no tag". */
inline constexpr Tag kNoTag = 0xffffffffu;

/** One value delivery on a result bus. */
struct Broadcast
{
    Tag tag = kNoTag;
    Word value = 0;
    SeqNum seq = kNoSeqNum; //!< producing dynamic instruction
};

/** Reservation schedule of the result bus(es). */
class ResultBus
{
  public:
    /**
     * @param width   deliveries allowed per cycle (buses)
     * @param horizon delivery cycles the latch array covers; must
     *                exceed the longest functional-unit latency
     */
    explicit ResultBus(unsigned width = 1, unsigned horizon = 64);

    /** Number of buses. */
    unsigned width() const { return _width; }

    /** True when a delivery slot remains at @p cycle. */
    bool free(Cycle cycle) const { return countAt(cycle) < _width; }

    /**
     * Reserve a slot at @p cycle for a delivery of (@p tag, @p value).
     * Panics when no slot remains — callers check free() first.
     */
    void reserve(Cycle cycle, Tag tag, Word value, SeqNum seq);

    /** Deliveries scheduled for @p cycle. */
    unsigned countAt(Cycle cycle) const;

    /** The first delivery scheduled for @p cycle, if any. */
    std::optional<Broadcast> at(Cycle cycle) const;

    /** Drop deliveries scheduled before @p cycle (bookkeeping). */
    void retireBefore(Cycle cycle);

    /** Cancel every delivery from @p seq onward (squash support). */
    void cancelFrom(SeqNum seq);

    /** Number of reservations currently scheduled. */
    std::size_t pending() const;

    /** Clear all reservations. */
    void reset();

    /** Register every reservation latch as a fault port. */
    void exposePorts(inject::FaultPortSet &ports,
                     const std::string &prefix);

  private:
    /** One reservation latch. */
    struct Slot
    {
        bool used = false;
        Cycle cycle = 0;
        std::uint64_t stamp = 0; //!< reservation order among equals
        Broadcast broadcast;
    };

    unsigned _width;
    std::vector<Slot> _slots;
    std::uint64_t _nextStamp = 1;
};

} // namespace ruu

#endif // RUU_UARCH_RESULT_BUS_HH
