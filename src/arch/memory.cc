#include "arch/memory.hh"

#include <algorithm>

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace ruu
{

Memory::Memory(std::size_t words) : _capacity(words), _words(words, 0)
{
}

Word
Memory::at(Addr addr) const
{
    ruu_assert(mapped(addr), "unmapped address %llu",
               static_cast<unsigned long long>(addr));
    return *load(addr);
}

void
Memory::set(Addr addr, Word value)
{
    bool stored = store(addr, value);
    ruu_assert(stored, "unmapped address %llu",
               static_cast<unsigned long long>(addr));
}

double
Memory::atDouble(Addr addr) const
{
    return wordToDouble(at(addr));
}

void
Memory::clear()
{
    std::fill(_words.begin(), _words.end(), 0);
}

void
Memory::compact(Addr end)
{
    std::size_t used = std::min<std::size_t>(end, _words.size());
    while (used > 0 && _words[used - 1] == 0)
        --used;
    _words.resize(used);
    _words.shrink_to_fit();
}

bool
Memory::operator==(const Memory &other) const
{
    if (_capacity != other._capacity)
        return false;
    const std::vector<Word> &shorter =
        _words.size() <= other._words.size() ? _words : other._words;
    const std::vector<Word> &longer =
        &shorter == &_words ? other._words : _words;
    return std::equal(shorter.begin(), shorter.end(), longer.begin()) &&
           std::all_of(longer.begin() + shorter.size(), longer.end(),
                       [](Word w) { return w == 0; });
}

} // namespace ruu
