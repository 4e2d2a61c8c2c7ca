/**
 * @file
 * Append-only JSONL campaign journal.
 *
 * A fault-injection campaign streams one line per finished trial to a
 * journal file so a killed campaign can resume where it stopped. The
 * format is deliberately flat — one JSON object per line, values only
 * strings and unsigned integers (common/flat_json.hh):
 *
 *   line 1:  header   {"kind": "ruu-inject-journal", "version": 1,
 *                      "seed": ..., "trials": ..., "cores": "a,b",
 *                      "workloads": "x,y", "config": "<signature>"}
 *   line 2+: trials   {"index": ..., "seed": ..., "core": ...,
 *                      "workload": ..., "cycle": ..., "bit": ...,
 *                      "port": ..., "before": ..., "after": ...,
 *                      "outcome": ..., "cycles": ..., "retries": ...,
 *                      "detail": ...}
 *
 * Reading, torn-tail tolerance and resume are common/journal.hh's;
 * this file holds only the format's grammar.
 */

#ifndef RUU_INJECT_JOURNAL_HH
#define RUU_INJECT_JOURNAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/journal.hh"
#include "common/types.hh"

namespace ruu::inject
{

/**
 * Classification of one injection trial, in detector precedence order.
 * Every trial ends in exactly one bucket; Unclassified survives only
 * inside a crashed child that never reported, and a campaign that
 * finishes with one is a bug.
 */
enum class Outcome
{
    Masked,            //!< architectural results and completion intact
    DetectedInvariant, //!< invariant checker / assertion / crash
    DetectedOracle,    //!< commit oracle caught a discrepancy
    Trapped,           //!< machine took a (restartable) trap
    Hung,              //!< watchdog expired; structured dump attached
    Sdc,               //!< silent data corruption: wrong final state
    Unclassified,      //!< no classification reached (campaign bug)
};

/** Stable lowercase name for @p outcome ("masked", "sdc", ...). */
const char *outcomeName(Outcome outcome);

/** Inverse of outcomeName. */
Expected<Outcome> outcomeFromName(const std::string &name);

/** The sampled coordinates of one trial. */
struct TrialPoint
{
    std::uint64_t index = 0; //!< position in the campaign sequence
    std::uint64_t seed = 0;  //!< derived trial seed (replay key)
    std::string core;        //!< core kind name
    std::string workload;    //!< kernel name
    Cycle cycle = 0;         //!< injection cycle
    std::uint64_t bit = 0;   //!< global bit index in the port set
};

/** Everything a finished trial reports into the journal. */
struct TrialResult
{
    TrialPoint point;
    Outcome outcome = Outcome::Unclassified;
    std::string port;           //!< flipped port, "name bit k"
    std::uint64_t before = 0;   //!< port value before the flip
    std::uint64_t after = 0;    //!< port value after the flip
    std::uint64_t cycles = 0;   //!< cycles the faulty run took
    std::uint64_t retries = 0;  //!< sandbox restarts consumed
    std::string detail;         //!< diagnostic (invariant text, dump)
};

/** Campaign identity, pinned in the journal's first line. */
struct JournalHeader
{
    std::uint64_t seed = 0;
    std::uint64_t trials = 0;
    std::vector<std::string> cores;
    std::vector<std::string> workloads;
    std::string config; //!< uarch-config signature string

    bool operator==(const JournalHeader &) const = default;
};

/** Serialize @p trial as its one-line JSON form (no newline). */
std::string trialToLine(const TrialResult &trial);

/** Parse one trial line. */
Expected<TrialResult> parseTrialLine(const std::string &line);

/** The campaign journal's grammar (common/journal.hh). */
struct JournalFormat
{
    using Header = JournalHeader;
    using Record = TrialResult;
    static constexpr const char *kKind = "ruu-inject-journal";
    static constexpr const char *kNoun = "journal";
    static std::string headerFields(const JournalHeader &header);
    static Expected<JournalHeader> parseHeader(const flat::Object &object);
    static constexpr auto toLine = trialToLine;
    static constexpr auto fromLine = parseTrialLine;
};

using JournalContents = journal::Contents<JournalFormat>;
using JournalWriter = journal::Writer<JournalFormat>;

} // namespace ruu::inject

#endif // RUU_INJECT_JOURNAL_HH
