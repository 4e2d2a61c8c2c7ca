/**
 * @file
 * Strict decimal parsing for numbers typed on a command line.
 */

#ifndef RUU_COMMON_PARSE_NUMBER_HH
#define RUU_COMMON_PARSE_NUMBER_HH

#include <cstdint>
#include <optional>
#include <string_view>

namespace ruu
{

/**
 * @p text as a decimal number: one or more ASCII digits and nothing
 * else (no sign, space, fraction or suffix), at most @p max;
 * std::nullopt otherwise, where atoi and strtoull would parse a prefix
 * or wrap around.
 */
inline std::optional<std::uint64_t>
parseDecimal(std::string_view text, std::uint64_t max)
{
    if (text.empty())
        return std::nullopt;
    std::uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        auto digit = static_cast<std::uint64_t>(c - '0');
        if (digit > max || value > (max - digit) / 10)
            return std::nullopt;
        value = value * 10 + digit;
    }
    return value;
}

} // namespace ruu

#endif // RUU_COMMON_PARSE_NUMBER_HH
