/**
 * @file
 * Content-addressed result cache for the simulation service.
 *
 * Keys fingerprint everything the result payload depends on — the
 * workload's display name, its full content hash (program image,
 * data initializers and every trace record: Workload::contentHash)
 * plus trace length, the serialized configuration, the core scheme,
 * and the interrupt period — so a hit can only ever return the
 * byte-identical payload a cold run would produce. The display name
 * participates because the payload embeds it: two identical programs
 * submitted under different names must not share an entry.
 *
 * Entries live one-per-file under the cache directory:
 *
 *   <dir>/<16-hex-key>.entry
 *   line 1: {"kind": "ruu-serve-cache", "version": 2, "key": K,
 *            "checksum": C, "bytes": N}
 *   line 2: the payload, exactly N bytes, FNV-1a checksum C
 *
 * Corruption is never trusted: a mismatched kind, version, key,
 * checksum, or byte count drops the entry (file deleted, counted in
 * stats().dropped) and reads as a miss, so the job simply recomputes.
 */

#ifndef RUU_SERVE_CACHE_HH
#define RUU_SERVE_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/error.hh"

namespace ruu::serve
{

/** FNV-1a over @p text — the cache's checksum and key mixer. */
std::uint64_t fnv1a(const std::string &text, std::uint64_t h =
                                                 0xcbf29ce484222325ull);

/** The inputs a result payload depends on. */
struct CacheKeyInputs
{
    std::string displayName;       //!< embedded in the payload
    /** Workload::contentHash (the daemon's jobs; inject units: seed). */
    std::uint64_t traceFingerprint = 0;
    std::uint64_t traceLength = 0;
    std::string configJson;        //!< configToJson of the exact config
    std::string core;
    std::uint64_t period = 0;

    /**
     * engine::kStreamFormatVersion at build time. Deliberately NOT
     * which engine ran the job: both produce byte-identical payloads,
     * so a hit must never depend on that — but a future revision of
     * the compiled-stream semantics bumps the version and retires
     * every entry either engine produced under the old semantics.
     */
    std::uint64_t engineVersion = 0;
};

/** The content address of @p inputs. */
std::uint64_t cacheKey(const CacheKeyInputs &inputs);

/** @p key as the 16-hex-digit spelling used in filenames and lines. */
std::string keyToHex(std::uint64_t key);

/** On-disk cache over one directory. */
class ResultCache
{
  public:
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t stores = 0;
        std::uint64_t dropped = 0; //!< corrupt entries deleted
    };

    /** @p dir may not exist yet; it is created on first store. */
    explicit ResultCache(std::string dir) : _dir(std::move(dir)) {}

    /** True when a directory was configured. */
    bool enabled() const { return !_dir.empty(); }

    /**
     * The cached payload of @p key, or std::nullopt on a miss. A
     * corrupt entry is deleted and reported as a miss.
     */
    std::optional<std::string> load(std::uint64_t key);

    /** Persist @p payload under @p key (last write wins). */
    Expected<bool> store(std::uint64_t key, const std::string &payload);

    /**
     * Re-verify the entry of @p key against an externally recorded
     * @p checksum/@p bytes (the recovery journal's), deleting it on
     * any disagreement. True when the entry survives.
     */
    bool verifyAgainst(std::uint64_t key, std::uint64_t checksum,
                       std::uint64_t bytes);

    const Stats &stats() const { return _stats; }

    /** Entry files currently on disk (0 when disabled). */
    std::uint64_t entriesOnDisk() const;

  private:
    std::string entryPath(std::uint64_t key) const;

    std::string _dir;
    Stats _stats;
};

} // namespace ruu::serve

#endif // RUU_SERVE_CACHE_HH
