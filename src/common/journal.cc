#include "common/journal.hh"

#include <algorithm>
#include <optional>

#include <sys/stat.h>

#include "common/file.hh"

namespace ruu::journal::detail
{

namespace
{

/** Every journal format is at version 1. */
constexpr std::uint64_t kVersion = 1;

/** Check the header's kind and version; hand it to @p onHeader. */
Expected<bool>
checkHeader(const std::string &line, const char *kind,
            const HeaderFn &onHeader)
{
    auto object = flat::parseObject(line);
    if (!object)
        return object.error();
    auto found = flat::getString(*object, "kind");
    if (!found)
        return found.error();
    if (*found != kind)
        return Error("kind '" + *found + "' is not '" + kind + "'");
    auto version = flat::getNumber(*object, "version");
    if (!version)
        return version.error();
    if (*version != kVersion)
        return Error("unsupported version " + std::to_string(*version));
    return onHeader(*object);
}

} // namespace

std::string
headerLine(const char *kind, const std::string &fields)
{
    return std::string("{\"kind\": \"") + kind +
           "\", \"version\": " + std::to_string(kVersion) + fields + "}";
}

Expected<bool>
scan(const std::string &path, const char *kind, const char *noun,
     Extent &extent, const HeaderFn &onHeader, const RecordFn &onRecord)
{
    auto text = readTextFile(path);
    if (!text)
        return Error(text.error()).context(noun);
    extent.validBytes = text->size();
    bool sawHeader = false;
    // A record line that failed to parse, held until we know whether
    // another line follows it.
    std::optional<Error> damage;
    std::size_t damageStart = 0;
    std::size_t lineNo = 0;
    auto where = [&] {
        return "'" + path + "' line " + std::to_string(lineNo);
    };
    for (std::size_t pos = 0; pos < text->size();) {
        std::size_t end = std::min(text->find('\n', pos), text->size());
        std::string line = text->substr(pos, end - pos);
        std::size_t start = pos;
        pos = end + 1;
        ++lineNo;
        if (line.empty())
            continue;
        if (damage)
            return *damage; // a line follows it: interior corruption
        if (!sawHeader) {
            if (auto header = checkHeader(line, kind, onHeader); !header)
                return Error(header.error())
                    .context(std::string(noun) + " header")
                    .context(where());
            sawHeader = true;
        } else if (auto record = onRecord(line); !record) {
            damage = Error(record.error()).context(where());
            damageStart = start;
        }
    }
    if (!sawHeader)
        return Error(std::string(noun) + " '" + path +
                     "' has no header line");
    if (damage) {
        // The signature of a writer killed mid-append: drop the line.
        extent.tornTail = true;
        extent.validBytes = damageStart;
    }
    extent.unterminated = (*text)[extent.validBytes - 1] != '\n';
    return true;
}

bool
exists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

Expected<bool>
resume(io::AppendFile &file, const std::string &path, const char *noun,
       const Extent &extent)
{
    if (extent.tornTail)
        if (auto cut = io::truncateFile(path, extent.validBytes); !cut)
            return Error(cut.error())
                .context(std::string("cannot drop the torn tail of ") +
                         noun);
    if (auto opened = file.append(path); !opened)
        return Error(opened.error()).context(noun);
    // A complete final record whose '\n' never landed would otherwise
    // fuse with the next append into one torn line, losing both.
    if (extent.unterminated)
        if (auto ended = file.appendText("\n"); !ended)
            return Error(ended.error()).context(noun);
    return true;
}

} // namespace ruu::journal::detail
