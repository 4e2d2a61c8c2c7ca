/**
 * @file
 * The one reader and writer behind every append-only JSONL journal:
 * the inject campaign journal (inject/journal.hh), the serve recovery
 * journal (serve/recovery.hh) and the campaign-queue journal
 * (serve/queue.hh). Header identity, torn tail versus interior damage,
 * resume isolation and the io_faults shim under every write are kept
 * here, as docs/FAULTS.md "The journal contract" states them. A format
 * supplies only its grammar, as a traits type:
 *
 *   struct Format
 *   {
 *       using Header = ...; // identity fields
 *       using Record = ...; // one line's worth
 *       static constexpr const char *kKind = "ruu-...";
 *       static constexpr const char *kNoun = "... journal";
 *       static std::string headerFields(const Header &); // ", ..."
 *       static Expected<Header> parseHeader(const flat::Object &);
 *       static std::string toLine(const Record &);       // no '\n'
 *       static Expected<Record> fromLine(const std::string &);
 *   };
 */

#ifndef RUU_COMMON_JOURNAL_HH
#define RUU_COMMON_JOURNAL_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/flat_json.hh"
#include "common/io_faults.hh"

namespace ruu::journal
{

/** Where a journal's valid prefix ends, as the reader found it. */
struct Extent
{
    bool tornTail = false; //!< last line was incomplete and dropped
    /**
     * Byte extent of the valid prefix: everything past this offset is
     * the torn fragment, which a resume truncates before appending.
     */
    std::size_t validBytes = 0;
    bool unterminated = false; //!< the valid prefix lacks its final '\n'
};

/** A fully read journal. */
template <typename Format>
struct Contents : Extent
{
    typename Format::Header header;
    std::vector<typename Format::Record> records;
};

namespace detail
{

using HeaderFn = std::function<Expected<bool>(const flat::Object &)>;
using RecordFn = std::function<Expected<bool>(const std::string &)>;

/** The header line: kind and version, then @p fields. */
std::string headerLine(const char *kind, const std::string &fields);

/**
 * The reader. Checks the header's kind and version and hands its
 * object to @p onHeader, hands every later non-blank line to
 * @p onRecord, and fills @p extent. A record line that fails is the
 * torn tail if no line follows it, and refused otherwise.
 */
Expected<bool> scan(const std::string &path, const char *kind,
                    const char *noun, Extent &extent,
                    const HeaderFn &onHeader, const RecordFn &onRecord);

bool exists(const std::string &path);

/**
 * Reopen @p path for appending after a read: cut the torn tail and
 * end an unterminated final line, so the next record starts on a line
 * of its own.
 */
Expected<bool> resume(io::AppendFile &file, const std::string &path,
                      const char *noun, const Extent &extent);

} // namespace detail

/**
 * Read and validate a whole journal. Tolerates a torn final line;
 * rejects a missing or foreign header and a malformed interior line
 * (with its line number).
 */
template <typename Format>
Expected<Contents<Format>>
read(const std::string &path)
{
    Contents<Format> contents;
    auto scanned = detail::scan(
        path, Format::kKind, Format::kNoun, contents,
        [&](const flat::Object &object) -> Expected<bool> {
            auto header = Format::parseHeader(object);
            if (!header)
                return header.error();
            contents.header = header.take();
            return true;
        },
        [&](const std::string &line) -> Expected<bool> {
            auto record = Format::fromLine(line);
            if (!record)
                return record.error();
            contents.records.push_back(record.take());
            return true;
        });
    if (!scanned)
        return scanned.error();
    return contents;
}

/** Durable appender of one journal format. */
template <typename Format>
class Writer
{
  public:
    using Header = typename Format::Header;
    using Record = typename Format::Record;
    /** Identity check and record replay of a journal being resumed. */
    using Replay = std::function<Expected<bool>(const Contents<Format> &)>;

    /** Create @p path (truncating) and write the header line. */
    Expected<bool>
    create(const std::string &path, const Header &header)
    {
        if (auto opened = _file.create(path); !opened)
            return Error(opened.error()).context(Format::kNoun);
        return append(detail::headerLine(Format::kKind,
                                         Format::headerFields(header)));
    }

    /**
     * Create or resume @p path. An absent file is created with
     * @p header. A present one is read and handed to @p replay, whose
     * error refuses the journal untouched; then it is reopened for
     * appending (detail::resume).
     */
    Expected<bool>
    open(const std::string &path, const Header &header,
         const Replay &replay)
    {
        if (!detail::exists(path))
            return create(path, header);
        auto contents = read<Format>(path);
        if (!contents)
            return contents.error();
        if (auto replayed = replay(*contents); !replayed)
            return replayed;
        return detail::resume(_file, path, Format::kNoun, *contents);
    }

    /** Append one record, durable (fsynced) before returning. */
    Expected<bool>
    add(const Record &record)
    {
        return append(Format::toLine(record));
    }

    bool isOpen() const { return _file.isOpen(); }

  private:
    Expected<bool>
    append(const std::string &line)
    {
        if (auto wrote = _file.appendLine(line); !wrote)
            return Error(wrote.error()).context(Format::kNoun);
        return true;
    }

    io::AppendFile _file;
};

} // namespace ruu::journal

#endif // RUU_COMMON_JOURNAL_HH
