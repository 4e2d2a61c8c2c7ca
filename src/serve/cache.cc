#include "serve/cache.hh"

#include <cstdio>
#include <sstream>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/file.hh"
#include "common/flat_json.hh"
#include "common/io_faults.hh"

namespace ruu::serve
{

namespace
{

const char *const kCacheKind = "ruu-serve-cache";

/**
 * Entry format version. 2: kernel and program keys hash the full
 * trace content (Workload::contentHash). Version-1 entries were keyed
 * on a sampled fingerprint that never read the instruction, so they
 * read as corrupt: dropped and recomputed, never served.
 */
constexpr unsigned kCacheVersion = 2;

} // namespace

std::uint64_t
fnv1a(const std::string &text, std::uint64_t h)
{
    for (unsigned char c : text)
        h = (h ^ c) * 0x100000001b3ull;
    return h;
}

std::uint64_t
cacheKey(const CacheKeyInputs &inputs)
{
    // Mix string lengths in alongside the strings so no concatenation
    // of two fields can collide with a different split of the same
    // bytes.
    std::uint64_t h = fnv1a(inputs.displayName);
    h = fnv1a(std::to_string(inputs.displayName.size()), h);
    h = fnv1a(std::to_string(inputs.traceFingerprint), h);
    h = fnv1a(std::to_string(inputs.traceLength), h);
    h = fnv1a(inputs.configJson, h);
    h = fnv1a(std::to_string(inputs.configJson.size()), h);
    h = fnv1a(inputs.core, h);
    h = fnv1a(std::to_string(inputs.period), h);
    h = fnv1a(std::to_string(inputs.engineVersion), h);
    return h;
}

std::string
keyToHex(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

std::string
ResultCache::entryPath(std::uint64_t key) const
{
    return _dir + "/" + keyToHex(key) + ".entry";
}

std::optional<std::string>
ResultCache::load(std::uint64_t key)
{
    if (!enabled())
        return std::nullopt;
    std::string path = entryPath(key);
    auto text = readTextFile(path);
    if (!text) {
        ++_stats.misses;
        return std::nullopt;
    }

    // Validate header + payload; any disagreement means the entry is
    // not trustworthy — delete it and recompute rather than serve it.
    auto drop = [&]() -> std::optional<std::string> {
        ::unlink(path.c_str());
        ++_stats.dropped;
        ++_stats.misses;
        return std::nullopt;
    };
    std::size_t eol = text->find('\n');
    if (eol == std::string::npos)
        return drop();
    auto header = flat::parseObject(text->substr(0, eol));
    if (!header)
        return drop();
    auto kind = flat::optString(*header, "kind");
    auto version = flat::optNumber(*header, "version");
    auto keyHex = flat::optString(*header, "key");
    auto checksum = flat::optString(*header, "checksum");
    auto bytes = flat::optNumber(*header, "bytes");
    if (!kind || *kind != kCacheKind || !version ||
        *version != kCacheVersion ||
        !keyHex || *keyHex != keyToHex(key) || !checksum || !bytes)
        return drop();
    std::string payload = text->substr(eol + 1);
    if (!payload.empty() && payload.back() == '\n')
        payload.pop_back();
    if (payload.size() != *bytes ||
        keyToHex(fnv1a(payload)) != *checksum)
        return drop();
    ++_stats.hits;
    return payload;
}

Expected<bool>
ResultCache::store(std::uint64_t key, const std::string &payload)
{
    if (!enabled())
        return true;
    io::ensureDir(_dir);
    std::string path = entryPath(key);
    std::ostringstream entry;
    entry << "{\"kind\": \"" << kCacheKind
          << "\", \"version\": " << kCacheVersion
          << ", \"key\": \"" << keyToHex(key) << "\""
          << ", \"checksum\": \"" << keyToHex(fnv1a(payload)) << "\""
          << ", \"bytes\": " << payload.size() << "}\n"
          << payload << "\n";
    // The checked atomic-store idiom: tmp + write + fsync + rename +
    // directory fsync. A crash (or injected fault) mid-store leaves
    // either the old entry or none under the key — never a torn one —
    // and a reported success is durable, which is what lets journal
    // records vouch for entries across a power cut.
    if (auto stored = io::atomicWriteFile(path, entry.str()); !stored)
        return Error(stored.error()).context("cache entry");
    ++_stats.stores;
    return true;
}

bool
ResultCache::verifyAgainst(std::uint64_t key, std::uint64_t checksum,
                           std::uint64_t bytes)
{
    if (!enabled())
        return false;
    Stats before = _stats;
    auto payload = load(key);
    // A verification probe is bookkeeping, not traffic: restore the
    // hit/miss counters, keep only the drop count.
    std::uint64_t dropped = _stats.dropped;
    _stats = before;
    _stats.dropped = dropped;
    if (!payload)
        return false;
    if (payload->size() != bytes || fnv1a(*payload) != checksum) {
        ::unlink(entryPath(key).c_str());
        ++_stats.dropped;
        return false;
    }
    return true;
}

std::uint64_t
ResultCache::entriesOnDisk() const
{
    if (!enabled())
        return 0;
    DIR *dir = ::opendir(_dir.c_str());
    if (!dir)
        return 0;
    std::uint64_t count = 0;
    while (struct dirent *entry = ::readdir(dir)) {
        std::string name = entry->d_name;
        if (name.size() > 6 &&
            name.compare(name.size() - 6, 6, ".entry") == 0)
            ++count;
    }
    ::closedir(dir);
    return count;
}

} // namespace ruu::serve
