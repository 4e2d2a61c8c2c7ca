#include "common/flat_json.hh"

#include <cctype>
#include <cstdio>
#include <sstream>

namespace ruu::flat
{

namespace
{

/**
 * Parser for the one-line flat subset of JSON: a single object whose
 * values are strings or unsigned integers.
 */
class FlatParser
{
  public:
    explicit FlatParser(const std::string &text) : _text(text) {}

    Expected<Object> parse()
    {
        Object object;
        skipSpace();
        if (!consume('{'))
            return fail("expected '{'");
        skipSpace();
        if (consume('}')) {
            skipSpace();
            if (_pos != _text.size())
                return fail("trailing text after object");
            return object;
        }
        while (true) {
            skipSpace();
            std::string key;
            if (auto r = parseString(key); !r)
                return r.error();
            skipSpace();
            if (!consume(':'))
                return fail("expected ':' after key '" + key + "'");
            skipSpace();
            Value value;
            if (peek() == '"') {
                value.isString = true;
                if (auto r = parseString(value.text); !r)
                    return r.error();
            } else {
                if (auto r = parseNumber(value); !r)
                    return r.error();
            }
            object[key] = std::move(value);
            skipSpace();
            if (consume(','))
                continue;
            if (consume('}'))
                break;
            return fail("expected ',' or '}'");
        }
        skipSpace();
        if (_pos != _text.size())
            return fail("trailing text after object");
        return object;
    }

  private:
    char peek() const { return _pos < _text.size() ? _text[_pos] : '\0'; }
    bool consume(char c)
    {
        if (peek() != c)
            return false;
        ++_pos;
        return true;
    }
    void skipSpace()
    {
        while (_pos < _text.size() &&
               std::isspace(static_cast<unsigned char>(_text[_pos])))
            ++_pos;
    }
    Error fail(const std::string &what) const
    {
        return Error(what + " at column " + std::to_string(_pos + 1));
    }

    Expected<bool> parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        while (true) {
            if (_pos >= _text.size())
                return fail("unterminated string");
            char c = _text[_pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (_pos >= _text.size())
                return fail("unterminated escape");
            char e = _text[_pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (_pos + 4 > _text.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = _text[_pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= h - '0';
                    else if (h >= 'a' && h <= 'f')
                        code |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F')
                        code |= h - 'A' + 10;
                    else
                        return fail("bad hex digit in \\u escape");
                }
                // The writers only ever escape control bytes, so a
                // single byte is enough to reconstruct them.
                out += static_cast<char>(code & 0xff);
                break;
              }
              default:
                return fail(std::string("unknown escape '\\") + e +
                            "'");
            }
        }
    }

    Expected<bool> parseNumber(Value &out)
    {
        std::size_t start = _pos;
        while (_pos < _text.size() &&
               std::isdigit(static_cast<unsigned char>(_text[_pos])))
            ++_pos;
        if (_pos == start)
            return fail("expected a value");
        out.text = _text.substr(start, _pos - start);
        out.number = 0;
        for (char c : out.text) {
            if (out.number > (UINT64_MAX - (c - '0')) / 10)
                return fail("number out of range");
            out.number = out.number * 10 + (c - '0');
        }
        return true;
    }

    const std::string &_text;
    std::size_t _pos = 0;
};

} // namespace

Expected<Object>
parseObject(const std::string &text)
{
    FlatParser parser(text);
    return parser.parse();
}

std::string
escape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

Expected<std::uint64_t>
getNumber(const Object &object, const std::string &key)
{
    auto it = object.find(key);
    if (it == object.end())
        return Error("missing key '" + key + "'");
    if (it->second.isString)
        return Error("key '" + key + "' is a string, expected a number");
    return it->second.number;
}

Expected<std::string>
getString(const Object &object, const std::string &key)
{
    auto it = object.find(key);
    if (it == object.end())
        return Error("missing key '" + key + "'");
    if (!it->second.isString)
        return Error("key '" + key + "' is a number, expected a string");
    return it->second.text;
}

std::optional<std::uint64_t>
optNumber(const Object &object, const std::string &key)
{
    auto it = object.find(key);
    if (it == object.end() || it->second.isString)
        return std::nullopt;
    return it->second.number;
}

std::optional<std::string>
optString(const Object &object, const std::string &key)
{
    auto it = object.find(key);
    if (it == object.end() || !it->second.isString)
        return std::nullopt;
    return it->second.text;
}

Expected<std::uint64_t>
getHexKey(const Object &object, const std::string &key)
{
    auto text = getString(object, key);
    if (!text)
        return text.error();
    if (text->size() != 16)
        return Error("key '" + key + "' is not a 16-hex-digit value");
    std::uint64_t value = 0;
    for (char c : *text) {
        value <<= 4;
        if (c >= '0' && c <= '9')
            value |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            value |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            return Error("key '" + key + "' has a non-hex digit");
    }
    return value;
}

std::vector<std::string>
splitCommas(const std::string &joined)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(joined);
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

Expected<std::vector<std::uint64_t>>
splitNumbers(const std::string &joined)
{
    std::vector<std::uint64_t> out;
    for (const std::string &item : splitCommas(joined)) {
        std::uint64_t value = 0;
        for (char c : item) {
            if (c < '0' || c > '9')
                return Error("'" + item + "' is not an unsigned integer");
            value = value * 10 + static_cast<std::uint64_t>(c - '0');
        }
        out.push_back(value);
    }
    return out;
}

std::string
joinCommas(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &item : items) {
        if (!out.empty())
            out += ',';
        out += item;
    }
    return out;
}

std::string
joinNumbers(const std::vector<std::uint64_t> &items)
{
    std::vector<std::string> spelled;
    for (std::uint64_t item : items)
        spelled.push_back(std::to_string(item));
    return joinCommas(spelled);
}

Fields::Fields(const std::string &line)
{
    if (auto object = parseObject(line))
        _object = object.take();
    else
        _error = object.error();
}

} // namespace ruu::flat
