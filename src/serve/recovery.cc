#include "serve/recovery.hh"

#include <sstream>

#include "serve/cache.hh"

namespace ruu::serve
{

std::string
CachePinFormat::headerFields(const CachePinHeader &header)
{
    return ", \"cache\": \"" + flat::escape(header.cacheDir) + "\"";
}

Expected<CachePinHeader>
CachePinFormat::parseHeader(const flat::Object &object)
{
    auto cache = flat::getString(object, "cache");
    if (!cache)
        return cache.error();
    return CachePinHeader{*cache};
}

std::string
jobRecordToLine(const JobRecord &record)
{
    std::ostringstream os;
    os << "{\"key\": \"" << keyToHex(record.key) << "\""
       << ", \"checksum\": \"" << keyToHex(record.checksum) << "\""
       << ", \"bytes\": " << record.bytes << "}";
    return os.str();
}

Expected<JobRecord>
parseJobRecordLine(const std::string &line)
{
    flat::Fields in(line);
    JobRecord record{in.hexKey("key"), in.hexKey("checksum"),
                     in.number("bytes")};
    if (const Error *e = in.error())
        return *e;
    return record;
}

} // namespace ruu::serve
