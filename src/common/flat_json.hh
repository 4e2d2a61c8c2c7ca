/**
 * @file
 * The flat one-line JSON dialect shared by every durable line format
 * in the repo: the three journals (common/journal.hh), the serve
 * protocol (serve/protocol.hh) and the serve result cache. One object
 * per line, values only strings and unsigned integers, so readers need
 * no JSON dependency and a torn line is detectable by a failed parse.
 *
 * The on-disk journals pin the grammar, so it must not grow richer
 * types; lists travel as comma-joined strings and 64-bit keys as
 * 16-hex-digit strings, through the helpers below.
 */

#ifndef RUU_COMMON_FLAT_JSON_HH
#define RUU_COMMON_FLAT_JSON_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hh"

namespace ruu::flat
{

/** One parsed value of the flat object grammar. */
struct Value
{
    bool isString = false;
    std::string text;         //!< unescaped string / number spelling
    std::uint64_t number = 0; //!< valid when !isString
};

using Object = std::map<std::string, Value>;

/**
 * Parse one line holding a single flat object. Errors carry the
 * column, so a torn or hand-edited line points at the damage.
 */
Expected<Object> parseObject(const std::string &text);

/** Escape @p text for embedding in a flat-JSON string literal. */
std::string escape(const std::string &text);

/** The value of @p key, which must be a number. */
Expected<std::uint64_t> getNumber(const Object &object,
                                  const std::string &key);

/** The value of @p key, which must be a string. */
Expected<std::string> getString(const Object &object,
                                const std::string &key);

/** The number at @p key, or std::nullopt when absent. */
std::optional<std::uint64_t> optNumber(const Object &object,
                                       const std::string &key);

/** The string at @p key, or std::nullopt when absent. */
std::optional<std::string> optString(const Object &object,
                                     const std::string &key);

/**
 * The value of @p key, which must be a string of exactly 16 lowercase
 * hex digits (a 64-bit key or checksum).
 */
Expected<std::uint64_t> getHexKey(const Object &object,
                                  const std::string &key);

/** Split a comma list, dropping empty items. */
std::vector<std::string> splitCommas(const std::string &joined);

/** Split a comma list of unsigned decimal integers. */
Expected<std::vector<std::uint64_t>> splitNumbers(const std::string &joined);

/** Join @p items with commas. */
std::string joinCommas(const std::vector<std::string> &items);

/** Join @p items, in decimal, with commas. */
std::string joinNumbers(const std::vector<std::uint64_t> &items);

/**
 * Typed reads of one object's fields that keep only the first error,
 * so a record grammar reads its fields in order and checks once. A
 * missing or ill-typed field reads as zero or empty.
 */
class Fields
{
  public:
    /** Parse @p line; a parse failure is the first error. */
    explicit Fields(const std::string &line);
    explicit Fields(Object object) : _object(std::move(object)) {}

    std::uint64_t number(const std::string &key)
    {
        return keep(getNumber(_object, key));
    }
    std::string string(const std::string &key)
    {
        return keep(getString(_object, key));
    }
    std::uint64_t hexKey(const std::string &key)
    {
        return keep(getHexKey(_object, key));
    }
    std::vector<std::string> list(const std::string &key)
    {
        return splitCommas(string(key));
    }
    std::vector<std::uint64_t> numbers(const std::string &key)
    {
        return keep(splitNumbers(string(key)));
    }

    /** The first error met, or nullptr. */
    const Error *error() const { return _error ? &*_error : nullptr; }

  private:
    template <typename T>
    T
    keep(Expected<T> value)
    {
        if (value)
            return value.take();
        if (!_error)
            _error = value.error();
        return T();
    }

    Object _object;
    std::optional<Error> _error;
};

} // namespace ruu::flat

#endif // RUU_COMMON_FLAT_JSON_HH
