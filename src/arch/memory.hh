/**
 * @file
 * Data memory of the model machine.
 *
 * Memory is word-addressed (64-bit words) and flat, with a fixed
 * capacity; accesses beyond the capacity raise a page fault. The paper
 * assumes no memory-bank conflicts (§2.2 assumption (i)), so there is
 * no banking model — the memory functional unit's latency lives in
 * UarchConfig.
 *
 * The backing store may end before the capacity: words past it read
 * as zero, and the first store past it grows the backing to the full
 * capacity. A working image is always full-size; only a golden image
 * that is compared but never run on (Workload::func.finalMemory) is
 * compacted, so a process holding many kernels does not hold 8 MiB of
 * zeros per kernel.
 */

#ifndef RUU_ARCH_MEMORY_HH
#define RUU_ARCH_MEMORY_HH

#include <cstddef>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace ruu
{

/** Flat word-addressed data memory. */
class Memory
{
  public:
    /** Default capacity: 1 Mi words (8 MiB). */
    static constexpr std::size_t kDefaultWords = 1u << 20;

    /** A zeroed image of @p words capacity, backed in full. */
    explicit Memory(std::size_t words = kDefaultWords);

    /** Capacity in words. */
    std::size_t sizeWords() const { return _capacity; }

    /** True when @p addr is in range. */
    bool mapped(Addr addr) const { return addr < _capacity; }

    /**
     * Read the word at @p addr.
     * @return nullopt on a page fault (unmapped address).
     */
    std::optional<Word> load(Addr addr) const
    {
        if (addr < _words.size())
            return _words[addr];
        if (addr < _capacity)
            return Word{0};
        return std::nullopt;
    }

    /**
     * Write @p value at @p addr.
     * @return false on a page fault.
     */
    bool store(Addr addr, Word value)
    {
        if (addr >= _words.size()) {
            if (addr >= _capacity)
                return false;
            _words.resize(_capacity, 0);
        }
        _words[addr] = value;
        return true;
    }

    /** Unchecked read used by test oracles; panics when unmapped. */
    Word at(Addr addr) const;

    /** Unchecked write used when loading program images. */
    void set(Addr addr, Word value);

    /** Read the word as an IEEE double (test convenience). */
    double atDouble(Addr addr) const;

    /** Zero all of memory. */
    void clear();

    /**
     * Drop the backing past the last nonzero word below @p end. Every
     * word at or past @p end must already be zero (unchecked: checking
     * would scan the very tail this skips), so the logical contents and
     * the capacity do not change.
     */
    void compact(Addr end);

    /** Words actually backed (at most sizeWords()). */
    std::size_t backedWords() const { return _words.size(); }

    /** Equal capacities and equal logical contents. */
    bool operator==(const Memory &other) const;

  private:
    std::size_t _capacity;
    std::vector<Word> _words;
};

} // namespace ruu

#endif // RUU_ARCH_MEMORY_HH
