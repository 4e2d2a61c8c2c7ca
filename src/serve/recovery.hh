/**
 * @file
 * Crash-safe server journal, over common/journal.hh: a header that
 * pins the journal to its server identity (the cache directory), then
 * one record per completed job. Reading, torn-tail tolerance and
 * resume are the shared journal's; this file holds the grammar, and
 * the cache-pinning header the campaign-queue journal shares.
 *
 * Each completed job appends its content address and payload checksum.
 * On restart the server replays the journal against the cache: an
 * entry whose cache file still matches its journaled checksum is a
 * recovered result (a resubmitted batch hits it, byte-identical to
 * the pre-crash run); any disagreement deletes the cache file so the
 * job recomputes. The journal never stores payloads — the cache is
 * the payload store, the journal is the integrity record.
 */

#ifndef RUU_SERVE_RECOVERY_HH
#define RUU_SERVE_RECOVERY_HH

#include <cstdint>
#include <string>

#include "common/error.hh"
#include "common/journal.hh"

namespace ruu::serve
{

/** Identity line pinning a serve or queue journal to one cache. */
struct CachePinHeader
{
    std::string cacheDir;
};

/** The header grammar the serve and queue journals share. */
struct CachePinFormat
{
    using Header = CachePinHeader;
    static std::string headerFields(const CachePinHeader &header);
    static Expected<CachePinHeader> parseHeader(const flat::Object &object);
};

/**
 * Create or resume a cache-pinned journal against @p cacheDir. A
 * journal pinned to another cache is refused untouched: it only
 * vouches for the cache it was written against, and replaying it onto
 * another would "recover" entries it knows nothing about. Otherwise
 * @p replay sees every record before appends resume.
 */
template <typename Format, typename Replay>
Expected<bool>
openPinned(journal::Writer<Format> &writer, const std::string &path,
           const std::string &cacheDir, const Replay &replay)
{
    return writer.open(
        path, CachePinHeader{cacheDir},
        [&](const journal::Contents<Format> &contents) -> Expected<bool> {
            if (contents.header.cacheDir != cacheDir)
                return Error(std::string(Format::kNoun) + " '" + path +
                             "' pins cache directory '" +
                             contents.header.cacheDir + "', not '" +
                             cacheDir + "'");
            replay(contents);
            return true;
        });
}

/** One completed job's durable record. */
struct JobRecord
{
    std::uint64_t key = 0;      //!< cache content address
    std::uint64_t checksum = 0; //!< FNV-1a of the payload
    std::uint64_t bytes = 0;    //!< payload size
};

std::string jobRecordToLine(const JobRecord &record);
Expected<JobRecord> parseJobRecordLine(const std::string &line);

/** The serve journal's grammar (common/journal.hh). */
struct ServeJournalFormat : CachePinFormat
{
    using Record = JobRecord;
    static constexpr const char *kKind = "ruu-serve-journal";
    static constexpr const char *kNoun = "serve journal";
    static constexpr auto toLine = jobRecordToLine;
    static constexpr auto fromLine = parseJobRecordLine;
};

using ServeJournalHeader = CachePinHeader;
using ServeJournalContents = journal::Contents<ServeJournalFormat>;
using ServeJournalWriter = journal::Writer<ServeJournalFormat>;

} // namespace ruu::serve

#endif // RUU_SERVE_RECOVERY_HH
