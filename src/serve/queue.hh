/**
 * @file
 * Durable server-side campaign queue with leased dispatch.
 *
 * A campaign (serve/protocol.hh CampaignSpec) names a sweep — plain
 * runs, interrupt storms, or fault-injection trials over built-in
 * kernels and core schemes. The daemon persists the spec in an
 * append-only queue journal (common/journal.hh, pinned to the result
 * cache like the serve journal), expands it into deterministic work
 * units, and hands units to dispatcher threads under *leases*:
 *
 *   - lease()    claims a pending unit for leaseMs; past the deadline
 *                the unit silently returns to the pool (the worker is
 *                presumed dead) and re-dispatch is gated by the shared
 *                capped-exponential backoff policy, so a unit that
 *                keeps killing workers backs off instead of spinning.
 *   - renew()    a live worker's heartbeat pushes its deadline out.
 *   - complete() first completion wins; a late worker whose lease
 *                expired merely increments the duplicates counter —
 *                results are deterministic, so at-least-once dispatch
 *                plus content-addressed cache dedup behaves
 *                effectively-exactly-once.
 *
 * Journal records are the recovery protocol: a "campaign" record
 * admits the spec, a "unit" record certifies one finished unit
 * (done units carry the cache key/checksum/bytes that let recovery
 * re-verify the payload against the result cache — a record whose
 * entry vanished or rotted reverts to pending and is recomputed),
 * and a "cancel" record voids the campaign's undispatched units.
 * Replaying the journal after kill -9 therefore reconstructs exactly
 * the durable frontier: admitted work is never lost, certified work
 * is never redone (unless its bytes are gone), and in-flight work
 * reruns — which is safe, because it is deterministic.
 *
 * Degradation contracts: a journal-append failure at submit() refuses
 * admission (the daemon must not accept work it cannot make durable);
 * a journal-append failure at complete() degrades — the unit finishes
 * in memory and journalErrors counts the records that will be
 * recomputed after a restart. A queue past unitLimit sheds with the
 * explicit "overloaded" error rather than queueing unboundedly.
 */

#ifndef RUU_SERVE_QUEUE_HH
#define RUU_SERVE_QUEUE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/backoff.hh"
#include "common/error.hh"
#include "serve/protocol.hh"
#include "serve/recovery.hh"

namespace ruu::serve
{

/** One schedulable slice of a campaign. */
struct WorkUnit
{
    std::uint64_t index = 0;  //!< position in the campaign's sequence
    std::string workload;     //!< kernel name (empty for inject units)
    std::string core;         //!< core scheme (empty for inject units)
    std::uint64_t period = 0; //!< storm arrival period; 0 = plain run
    std::uint64_t trial = 0;  //!< inject trial index
};

/**
 * Expand @p spec into its unit sequence. Deterministic and total:
 * workload-major, then core, then period for run/storm; one unit per
 * trial for inject (the trial sampler derives core/workload/site from
 * the campaign seed, exactly as `ruusim inject` would).
 */
std::vector<WorkUnit> expandUnits(const CampaignSpec &spec);

/** Where a unit is in its lifecycle. */
enum class UnitPhase
{
    Pending,  //!< waiting for a lease (or re-dispatch after expiry)
    Leased,   //!< claimed by a worker, deadline ticking
    Done,     //!< finished with a payload, journaled
    Failed,   //!< finished without a payload (rejected/crashed/...)
    Canceled, //!< voided by cancel before dispatch
};

const char *unitPhaseName(UnitPhase phase);

/** One replayable journal record. */
struct QueueRecord
{
    enum class Type
    {
        Campaign, //!< spec admitted
        Unit,     //!< unit finished (done or failed)
        Cancel,   //!< campaign's undispatched units voided
    };
    Type type = Type::Campaign;
    CampaignSpec campaign; //!< Type::Campaign
    std::string id;        //!< Type::Unit / Type::Cancel
    std::uint64_t unit = 0;
    JobStatus status = JobStatus::Done;
    bool cached = false;
    std::uint64_t key = 0;      //!< cache key of a done unit's payload
    std::uint64_t checksum = 0; //!< payload fnv1a
    std::uint64_t bytes = 0;    //!< payload size
    std::string error;          //!< failed unit's diagnostic
};

std::string queueRecordToLine(const QueueRecord &record);
Expected<QueueRecord> parseQueueRecordLine(const std::string &line);

/**
 * The queue journal's grammar (common/journal.hh); its header pins
 * which cache certifies done units.
 */
struct QueueJournalFormat : CachePinFormat
{
    using Record = QueueRecord;
    static constexpr const char *kKind = "ruu-serve-queue";
    static constexpr const char *kNoun = "queue journal";
    static constexpr auto toLine = queueRecordToLine;
    static constexpr auto fromLine = parseQueueRecordLine;
};

using QueueJournalContents = journal::Contents<QueueJournalFormat>;
inline constexpr auto &readQueueJournal = journal::read<QueueJournalFormat>;

/** A claimed unit, everything a dispatcher needs to run it. */
struct Lease
{
    CampaignSpec spec;
    WorkUnit unit;
    std::uint64_t token = 0; //!< identifies this claim for renew()
};

/** Read-only view of one unit for watch/tests. */
struct UnitSnapshot
{
    WorkUnit unit;
    UnitPhase phase = UnitPhase::Pending;
    JobStatus status = JobStatus::Done;
    bool cached = false;
    std::uint64_t key = 0;
    std::uint64_t checksum = 0;
    std::uint64_t bytes = 0;
    /**
     * Payload (done) or diagnostic (failed). Empty for a done unit
     * recovered from the journal — its payload lives in the cache
     * under (key, checksum, bytes) and was verified at recovery.
     */
    std::string text;
    unsigned dispatches = 0; //!< leases this unit has consumed
};

/** Read-only per-campaign progress summary. */
struct CampaignView
{
    CampaignSpec spec;
    std::uint64_t unitsTotal = 0;
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t canceled = 0;
    std::uint64_t pending = 0;
    std::uint64_t leased = 0;

    bool finished() const
    {
        return done + failed + canceled == unitsTotal;
    }
};

/**
 * The queue proper. Thread-safe: dispatcher threads lease/complete
 * while connection threads submit/watch/cancel. All waits are bounded
 * so a draining daemon can always get out.
 */
class CampaignQueue
{
  public:
    using Clock = std::chrono::steady_clock;

    /**
     * Re-verification hook for recovery: given a done record's
     * (key, checksum, bytes), report whether the payload is still
     * present and intact (ResultCache::verifyAgainst). Units that
     * fail verification revert to pending and recompute.
     */
    using VerifyDone = std::function<bool(
        std::uint64_t key, std::uint64_t checksum, std::uint64_t bytes)>;

    /** Observable queue counters. */
    struct Stats
    {
        std::uint64_t campaigns = 0;
        std::uint64_t unitsExpanded = 0;
        std::uint64_t unitsDone = 0;
        std::uint64_t unitsFailed = 0;
        std::uint64_t unitsCanceled = 0;
        std::uint64_t leases = 0;
        std::uint64_t renewals = 0;
        std::uint64_t expiries = 0;
        std::uint64_t duplicates = 0;     //!< late/double completions
        std::uint64_t recoveredUnits = 0; //!< verified done on resume
        std::uint64_t journalErrors = 0;  //!< degraded complete()s
        std::uint64_t shed = 0;           //!< overloaded submits
    };

    /**
     * Open (creating or recovering) the queue journal at @p path.
     * Pins @p cacheDir in the header; reopening against a different
     * cache refuses, exactly like the serve journal. A torn tail is
     * truncated; @p verify (may be null) re-certifies done records.
     * An empty @p path runs the queue in memory only (no durability —
     * used by tests that target scheduling semantics alone).
     */
    Expected<bool> open(const std::string &path,
                        const std::string &cacheDir,
                        VerifyDone verify);

    /**
     * Admit @p spec. Returns the unit count. Idempotent for a
     * byte-identical respec of a known id; a different spec under a
     * known id is an error; more than @p unitLimit unfinished units
     * in the queue sheds with exactly the error "overloaded"; a
     * journal-append failure refuses admission.
     */
    Expected<std::uint64_t> submit(const CampaignSpec &spec,
                                   std::uint64_t unitLimit);

    /**
     * Claim the next dispatchable unit (campaign admission order,
     * unit order within a campaign, honoring re-dispatch backoff
     * gates). Returns nullopt when nothing is ready.
     */
    std::optional<Lease> lease(Clock::time_point now,
                               std::uint64_t leaseMs);

    /** Heartbeat: push @p token's deadline out. False if stale. */
    bool renew(const std::string &id, std::uint64_t unit,
               std::uint64_t token, Clock::time_point now,
               std::uint64_t leaseMs);

    /**
     * Deliver a unit's outcome; @p text is the payload (done) or the
     * diagnostic (failed). First completion wins; a completion for an
     * already-finished unit counts a duplicate and is dropped. Done
     * units journal (key, checksum, bytes) — the payload itself is
     * certified in the cache, not copied into the journal; failed
     * units journal the status and diagnostic. A journal failure
     * degrades (the unit finishes in memory, journalErrors++).
     * Returns true if this completion was the winner.
     */
    bool complete(const std::string &id, std::uint64_t unit,
                  JobStatus status, bool cached, std::uint64_t key,
                  std::uint64_t checksum, std::uint64_t bytes,
                  const std::string &text);

    /**
     * Return expired leases to the pool, gating each re-dispatch by
     * @p redispatch (seeded per unit, attempt = prior dispatches).
     * Returns how many leases expired.
     */
    std::uint64_t expireLeases(Clock::time_point now,
                               const BackoffPolicy &redispatch);

    /** Void a campaign's undispatched units. Returns the count. */
    Expected<std::uint64_t> cancel(const std::string &id);

    /**
     * Revert a done unit to pending (its cache entry vanished after
     * certification — recompute rather than fail the watch).
     */
    void invalidateUnit(const std::string &id, std::uint64_t unit);

    /** Snapshot one unit. Nullopt for unknown id/unit. */
    std::optional<UnitSnapshot> unitView(const std::string &id,
                                         std::uint64_t unit);

    /** Snapshot one campaign. Nullopt for an unknown id. */
    std::optional<CampaignView> campaignView(const std::string &id);

    /** Ids in admission order. */
    std::vector<std::string> campaignIds();

    /** Units currently pending or leased, across all campaigns. */
    std::uint64_t unfinishedUnits();

    /**
     * Block until a unit might be dispatchable (or @p ms elapses).
     * Returns immediately when draining.
     */
    void waitForWork(std::uint64_t ms);

    /**
     * Block until (id, unit) leaves the pending/leased phases or
     * @p ms elapses; returns its snapshot (nullopt on unknown unit —
     * a timeout returns the still-unfinished snapshot).
     */
    std::optional<UnitSnapshot> waitForUnit(const std::string &id,
                                            std::uint64_t unit,
                                            std::uint64_t ms);

    /** Stop handing out leases; wake every waiter. */
    void beginDrain();

    bool draining();

    Stats stats();

  private:
    struct UnitEntry
    {
        WorkUnit unit;
        UnitPhase phase = UnitPhase::Pending;
        JobStatus status = JobStatus::Done;
        bool cached = false;
        std::uint64_t key = 0;
        std::uint64_t checksum = 0;
        std::uint64_t bytes = 0;
        std::string text; //!< payload (done) or diagnostic (failed)
        std::uint64_t leaseToken = 0;
        Clock::time_point leaseDeadline{};
        Clock::time_point nextDispatch{}; //!< backoff re-dispatch gate
        unsigned dispatches = 0;
    };

    struct CampaignEntry
    {
        CampaignSpec spec;
        std::vector<UnitEntry> units;
        bool canceled = false;
    };

    CampaignEntry *findLocked(const std::string &id);
    /** Re-apply one journal record while opening. */
    void replayLocked(const QueueRecord &record, const VerifyDone &verify);
    UnitSnapshot snapshotLocked(const UnitEntry &entry) const;
    void finishLocked(CampaignEntry &campaign, UnitEntry &entry,
                      JobStatus status, bool cached, std::uint64_t key,
                      std::uint64_t checksum, std::uint64_t bytes,
                      const std::string &text);

    std::mutex _mutex;
    std::condition_variable _cv;
    std::vector<CampaignEntry> _campaigns;
    journal::Writer<QueueJournalFormat> _journal;
    bool _durable = false;
    bool _draining = false;
    std::uint64_t _tokenCounter = 0;
    Stats _stats;
};

} // namespace ruu::serve

#endif // RUU_SERVE_QUEUE_HH
