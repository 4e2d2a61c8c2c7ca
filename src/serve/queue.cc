#include "serve/queue.hh"

#include <sstream>

#include "common/flat_json.hh"
#include "serve/cache.hh"

namespace ruu::serve
{

namespace
{

/** Canonical form for spec-identity comparison (idempotent submit). */
std::string
specCanon(const CampaignSpec &spec)
{
    QueueRecord record;
    record.type = QueueRecord::Type::Campaign;
    record.campaign = spec;
    return queueRecordToLine(record);
}

/** The backoff jitter stream of one (campaign, unit) pair. */
std::uint64_t
unitSeed(const std::string &id, std::uint64_t unit)
{
    return fnv1a(id + "#" + std::to_string(unit));
}

} // namespace

std::vector<WorkUnit>
expandUnits(const CampaignSpec &spec)
{
    std::vector<WorkUnit> units;
    if (spec.kind == CampaignKind::Inject) {
        // One unit per trial; the campaign-seeded sampler derives the
        // trial's core/workload/injection site, so the unit needs only
        // its index to be replayed bit-exactly.
        for (std::uint64_t t = 0; t < spec.trials; ++t) {
            WorkUnit unit;
            unit.index = units.size();
            unit.trial = t;
            units.push_back(std::move(unit));
        }
        return units;
    }
    for (const std::string &workload : spec.workloads)
        for (const std::string &core : spec.cores) {
            if (spec.kind == CampaignKind::Storm) {
                for (std::uint64_t period : spec.periods) {
                    WorkUnit unit;
                    unit.index = units.size();
                    unit.workload = workload;
                    unit.core = core;
                    unit.period = period;
                    units.push_back(std::move(unit));
                }
            } else {
                WorkUnit unit;
                unit.index = units.size();
                unit.workload = workload;
                unit.core = core;
                units.push_back(std::move(unit));
            }
        }
    return units;
}

const char *
unitPhaseName(UnitPhase phase)
{
    switch (phase) {
      case UnitPhase::Pending: return "pending";
      case UnitPhase::Leased: return "leased";
      case UnitPhase::Done: return "done";
      case UnitPhase::Failed: return "failed";
      case UnitPhase::Canceled: return "canceled";
    }
    return "pending";
}

std::string
queueRecordToLine(const QueueRecord &record)
{
    std::ostringstream os;
    switch (record.type) {
      case QueueRecord::Type::Campaign: {
        const CampaignSpec &spec = record.campaign;
        os << "{\"rec\": \"campaign\""
           << ", \"id\": \"" << flat::escape(spec.id) << "\""
           << ", \"ckind\": \"" << campaignKindName(spec.kind) << "\""
           << ", \"workloads\": \""
           << flat::escape(flat::joinCommas(spec.workloads)) << "\""
           << ", \"cores\": \""
           << flat::escape(flat::joinCommas(spec.cores)) << "\""
           << ", \"periods\": \"" << flat::joinNumbers(spec.periods)
           << "\""
           << ", \"trials\": " << spec.trials
           << ", \"seed\": " << spec.seed
           << ", \"config\": \"" << flat::escape(spec.configJson)
           << "\""
           << ", \"deadline_ms\": " << spec.deadlineMs << "}";
        break;
      }
      case QueueRecord::Type::Unit:
        os << "{\"rec\": \"unit\""
           << ", \"id\": \"" << flat::escape(record.id) << "\""
           << ", \"unit\": " << record.unit
           << ", \"status\": \"" << jobStatusName(record.status)
           << "\""
           << ", \"cached\": " << (record.cached ? 1 : 0)
           << ", \"key\": \"" << keyToHex(record.key) << "\""
           << ", \"checksum\": \"" << keyToHex(record.checksum) << "\""
           << ", \"bytes\": " << record.bytes
           << ", \"error\": \"" << flat::escape(record.error) << "\"}";
        break;
      case QueueRecord::Type::Cancel:
        os << "{\"rec\": \"cancel\""
           << ", \"id\": \"" << flat::escape(record.id) << "\"}";
        break;
    }
    return os.str();
}

Expected<QueueRecord>
parseQueueRecordLine(const std::string &line)
{
    flat::Fields in(line);
    std::string rec = in.string("rec");
    if (const Error *e = in.error())
        return *e;
    QueueRecord record;
    if (rec == "campaign") {
        CampaignSpec &spec = record.campaign;
        spec.id = in.string("id");
        std::string kind = in.string("ckind");
        spec.workloads = in.list("workloads");
        spec.cores = in.list("cores");
        spec.periods = in.numbers("periods");
        spec.trials = in.number("trials");
        spec.seed = in.number("seed");
        spec.configJson = in.string("config");
        spec.deadlineMs = in.number("deadline_ms");
        if (const Error *e = in.error())
            return *e;
        auto parsed = campaignKindFromName(kind);
        if (!parsed)
            return parsed.error();
        spec.kind = *parsed;
        return record;
    }
    if (rec == "unit") {
        record.type = QueueRecord::Type::Unit;
        record.id = in.string("id");
        record.unit = in.number("unit");
        std::string status = in.string("status");
        record.cached = in.number("cached") != 0;
        record.key = in.hexKey("key");
        record.checksum = in.hexKey("checksum");
        record.bytes = in.number("bytes");
        record.error = in.string("error");
        if (const Error *e = in.error())
            return *e;
        auto parsed = jobStatusFromName(status);
        if (!parsed)
            return parsed.error();
        record.status = *parsed;
        return record;
    }
    if (rec == "cancel") {
        record.type = QueueRecord::Type::Cancel;
        record.id = in.string("id");
        if (const Error *e = in.error())
            return *e;
        return record;
    }
    return Error("unknown record '" + rec + "'");
}

CampaignQueue::CampaignEntry *
CampaignQueue::findLocked(const std::string &id)
{
    for (CampaignEntry &campaign : _campaigns)
        if (campaign.spec.id == id)
            return &campaign;
    return nullptr;
}

UnitSnapshot
CampaignQueue::snapshotLocked(const UnitEntry &entry) const
{
    UnitSnapshot snapshot;
    snapshot.unit = entry.unit;
    snapshot.phase = entry.phase;
    snapshot.status = entry.status;
    snapshot.cached = entry.cached;
    snapshot.key = entry.key;
    snapshot.checksum = entry.checksum;
    snapshot.bytes = entry.bytes;
    snapshot.text = entry.text;
    snapshot.dispatches = entry.dispatches;
    return snapshot;
}

Expected<bool>
CampaignQueue::open(const std::string &path, const std::string &cacheDir,
                    VerifyDone verify)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _durable = !path.empty();
    if (!_durable)
        return true;
    return openPinned(_journal, path, cacheDir,
                      [&](const QueueJournalContents &contents) {
                          for (const QueueRecord &record : contents.records)
                              replayLocked(record, verify);
                      });
}

void
CampaignQueue::replayLocked(const QueueRecord &record,
                            const VerifyDone &verify)
{
    switch (record.type) {
      case QueueRecord::Type::Campaign: {
        if (findLocked(record.campaign.id))
            break; // replayed admission of a known id; keep first
        CampaignEntry campaign;
        campaign.spec = record.campaign;
        for (WorkUnit &unit : expandUnits(campaign.spec)) {
            UnitEntry entry;
            entry.unit = std::move(unit);
            campaign.units.push_back(std::move(entry));
        }
        ++_stats.campaigns;
        _stats.unitsExpanded += campaign.units.size();
        _campaigns.push_back(std::move(campaign));
        break;
      }
      case QueueRecord::Type::Unit: {
        CampaignEntry *campaign = findLocked(record.id);
        if (!campaign || record.unit >= campaign->units.size())
            break; // stale record for a spec this journal lost
        UnitEntry &entry = campaign->units[record.unit];
        if (entry.phase == UnitPhase::Done ||
            entry.phase == UnitPhase::Failed)
            break; // first record wins, like first completion
        if (record.status == JobStatus::Done) {
            // A done record is only as good as its bytes: verify
            // the payload still sits in the cache intact, else
            // recompute. At-least-once, never wrong.
            if (verify &&
                !verify(record.key, record.checksum, record.bytes))
                break;
            entry.phase = UnitPhase::Done;
            entry.status = JobStatus::Done;
            entry.cached = record.cached;
            entry.key = record.key;
            entry.checksum = record.checksum;
            entry.bytes = record.bytes;
            ++_stats.unitsDone;
            ++_stats.recoveredUnits;
        } else {
            entry.phase = UnitPhase::Failed;
            entry.status = record.status;
            entry.text = record.error;
            ++_stats.unitsFailed;
            ++_stats.recoveredUnits;
        }
        break;
      }
      case QueueRecord::Type::Cancel: {
        CampaignEntry *campaign = findLocked(record.id);
        if (!campaign)
            break;
        campaign->canceled = true;
        for (UnitEntry &entry : campaign->units)
            if (entry.phase == UnitPhase::Pending) {
                entry.phase = UnitPhase::Canceled;
                ++_stats.unitsCanceled;
            }
        break;
      }
    }
}

Expected<std::uint64_t>
CampaignQueue::submit(const CampaignSpec &spec, std::uint64_t unitLimit)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (CampaignEntry *existing = findLocked(spec.id)) {
        if (specCanon(existing->spec) == specCanon(spec))
            return static_cast<std::uint64_t>(existing->units.size());
        return Error("campaign '" + spec.id +
                     "' already exists with a different spec");
    }
    std::vector<WorkUnit> units = expandUnits(spec);
    if (units.empty())
        return Error("campaign '" + spec.id + "' expands to no units");

    std::uint64_t unfinished = 0;
    for (const CampaignEntry &campaign : _campaigns)
        for (const UnitEntry &entry : campaign.units)
            if (entry.phase == UnitPhase::Pending ||
                entry.phase == UnitPhase::Leased)
                ++unfinished;
    if (unitLimit && unfinished + units.size() > unitLimit) {
        ++_stats.shed;
        return Error("overloaded");
    }

    if (_durable) {
        // Durability gates admission: if the spec cannot be journaled
        // now, a crash would silently drop accepted work — refuse
        // instead, and let the client retry or fall back.
        QueueRecord record;
        record.type = QueueRecord::Type::Campaign;
        record.campaign = spec;
        if (auto wrote = _journal.add(record); !wrote)
            return wrote.error();
    }

    CampaignEntry campaign;
    campaign.spec = spec;
    for (WorkUnit &unit : units) {
        UnitEntry entry;
        entry.unit = std::move(unit);
        campaign.units.push_back(std::move(entry));
    }
    std::uint64_t count = campaign.units.size();
    ++_stats.campaigns;
    _stats.unitsExpanded += count;
    _campaigns.push_back(std::move(campaign));
    _cv.notify_all();
    return count;
}

std::optional<Lease>
CampaignQueue::lease(Clock::time_point now, std::uint64_t leaseMs)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (_draining)
        return std::nullopt;
    for (CampaignEntry &campaign : _campaigns) {
        if (campaign.canceled)
            continue;
        for (UnitEntry &entry : campaign.units) {
            if (entry.phase != UnitPhase::Pending ||
                entry.nextDispatch > now)
                continue;
            entry.phase = UnitPhase::Leased;
            entry.leaseToken = ++_tokenCounter;
            entry.leaseDeadline =
                now + std::chrono::milliseconds(leaseMs);
            ++entry.dispatches;
            ++_stats.leases;
            Lease lease;
            lease.spec = campaign.spec;
            lease.unit = entry.unit;
            lease.token = entry.leaseToken;
            return lease;
        }
    }
    return std::nullopt;
}

bool
CampaignQueue::renew(const std::string &id, std::uint64_t unit,
                     std::uint64_t token, Clock::time_point now,
                     std::uint64_t leaseMs)
{
    std::lock_guard<std::mutex> lock(_mutex);
    CampaignEntry *campaign = findLocked(id);
    if (!campaign || unit >= campaign->units.size())
        return false;
    UnitEntry &entry = campaign->units[unit];
    if (entry.phase != UnitPhase::Leased || entry.leaseToken != token)
        return false;
    entry.leaseDeadline = now + std::chrono::milliseconds(leaseMs);
    ++_stats.renewals;
    return true;
}

void
CampaignQueue::finishLocked(CampaignEntry &campaign, UnitEntry &entry,
                            JobStatus status, bool cached,
                            std::uint64_t key, std::uint64_t checksum,
                            std::uint64_t bytes,
                            const std::string &text)
{
    if (_durable) {
        QueueRecord record;
        record.type = QueueRecord::Type::Unit;
        record.id = campaign.spec.id;
        record.unit = entry.unit.index;
        record.status = status;
        record.cached = cached;
        record.key = key;
        record.checksum = checksum;
        record.bytes = bytes;
        // A done unit's payload is certified in the cache, not copied
        // into the journal; only a failure's diagnostic rides along.
        record.error = status == JobStatus::Done ? "" : text;
        // Completion degrades where admission refuses: the result is
        // live in memory and (for done units) in the cache; losing
        // the record only costs a recompute after the next restart.
        if (!_journal.add(record))
            ++_stats.journalErrors;
    }
    entry.status = status;
    entry.cached = cached;
    entry.key = key;
    entry.checksum = checksum;
    entry.bytes = bytes;
    entry.text = text;
    if (status == JobStatus::Done) {
        entry.phase = UnitPhase::Done;
        ++_stats.unitsDone;
    } else {
        entry.phase = UnitPhase::Failed;
        ++_stats.unitsFailed;
    }
}

bool
CampaignQueue::complete(const std::string &id, std::uint64_t unit,
                        JobStatus status, bool cached, std::uint64_t key,
                        std::uint64_t checksum, std::uint64_t bytes,
                        const std::string &text)
{
    std::lock_guard<std::mutex> lock(_mutex);
    CampaignEntry *campaign = findLocked(id);
    if (!campaign || unit >= campaign->units.size())
        return false;
    UnitEntry &entry = campaign->units[unit];
    if (entry.phase == UnitPhase::Done ||
        entry.phase == UnitPhase::Failed ||
        entry.phase == UnitPhase::Canceled) {
        // A worker whose lease expired finishing late: deterministic
        // work means both results are identical — first wins, the
        // duplicate is bookkeeping, not a conflict.
        ++_stats.duplicates;
        return false;
    }
    finishLocked(*campaign, entry, status, cached, key, checksum, bytes,
                 text);
    _cv.notify_all();
    return true;
}

std::uint64_t
CampaignQueue::expireLeases(Clock::time_point now,
                            const BackoffPolicy &redispatch)
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::uint64_t expired = 0;
    for (CampaignEntry &campaign : _campaigns)
        for (UnitEntry &entry : campaign.units) {
            if (entry.phase != UnitPhase::Leased ||
                entry.leaseDeadline > now)
                continue;
            ++_stats.expiries;
            ++expired;
            if (campaign.canceled) {
                entry.phase = UnitPhase::Canceled;
                ++_stats.unitsCanceled;
                continue;
            }
            // The worker is presumed dead. Re-dispatch, but through
            // the shared backoff policy keyed on this unit, so a unit
            // that keeps killing its workers ramps down instead of
            // hot-looping the pool.
            entry.phase = UnitPhase::Pending;
            entry.leaseToken = 0;
            BackoffPolicy policy = redispatch;
            policy.seed ^= unitSeed(campaign.spec.id, entry.unit.index);
            unsigned attempt = entry.dispatches > 0
                                   ? entry.dispatches - 1
                                   : 0;
            entry.nextDispatch =
                now + std::chrono::microseconds(
                          backoffDelayUs(policy, attempt));
        }
    if (expired)
        _cv.notify_all();
    return expired;
}

Expected<std::uint64_t>
CampaignQueue::cancel(const std::string &id)
{
    std::lock_guard<std::mutex> lock(_mutex);
    CampaignEntry *campaign = findLocked(id);
    if (!campaign)
        return Error("unknown campaign '" + id + "'");
    if (_durable && !campaign->canceled) {
        QueueRecord record;
        record.type = QueueRecord::Type::Cancel;
        record.id = id;
        // Like admission, a cancel must be durable to be honored —
        // otherwise a restart would resurrect the canceled units.
        if (auto wrote = _journal.add(record); !wrote)
            return wrote.error();
    }
    campaign->canceled = true;
    std::uint64_t canceled = 0;
    for (UnitEntry &entry : campaign->units)
        if (entry.phase == UnitPhase::Pending) {
            entry.phase = UnitPhase::Canceled;
            ++_stats.unitsCanceled;
            ++canceled;
        }
    _cv.notify_all();
    return canceled;
}

void
CampaignQueue::invalidateUnit(const std::string &id, std::uint64_t unit)
{
    std::lock_guard<std::mutex> lock(_mutex);
    CampaignEntry *campaign = findLocked(id);
    if (!campaign || unit >= campaign->units.size())
        return;
    UnitEntry &entry = campaign->units[unit];
    if (entry.phase != UnitPhase::Done)
        return;
    entry.phase = UnitPhase::Pending;
    entry.cached = false;
    entry.key = 0;
    entry.checksum = 0;
    entry.bytes = 0;
    entry.nextDispatch = Clock::time_point{};
    if (_stats.unitsDone)
        --_stats.unitsDone;
    _cv.notify_all();
}

std::optional<UnitSnapshot>
CampaignQueue::unitView(const std::string &id, std::uint64_t unit)
{
    std::lock_guard<std::mutex> lock(_mutex);
    CampaignEntry *campaign = findLocked(id);
    if (!campaign || unit >= campaign->units.size())
        return std::nullopt;
    return snapshotLocked(campaign->units[unit]);
}

std::optional<CampaignView>
CampaignQueue::campaignView(const std::string &id)
{
    std::lock_guard<std::mutex> lock(_mutex);
    CampaignEntry *campaign = findLocked(id);
    if (!campaign)
        return std::nullopt;
    CampaignView view;
    view.spec = campaign->spec;
    view.unitsTotal = campaign->units.size();
    for (const UnitEntry &entry : campaign->units)
        switch (entry.phase) {
          case UnitPhase::Pending: ++view.pending; break;
          case UnitPhase::Leased: ++view.leased; break;
          case UnitPhase::Done: ++view.done; break;
          case UnitPhase::Failed: ++view.failed; break;
          case UnitPhase::Canceled: ++view.canceled; break;
        }
    return view;
}

std::vector<std::string>
CampaignQueue::campaignIds()
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<std::string> ids;
    for (const CampaignEntry &campaign : _campaigns)
        ids.push_back(campaign.spec.id);
    return ids;
}

std::uint64_t
CampaignQueue::unfinishedUnits()
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::uint64_t unfinished = 0;
    for (const CampaignEntry &campaign : _campaigns)
        for (const UnitEntry &entry : campaign.units)
            if (entry.phase == UnitPhase::Pending ||
                entry.phase == UnitPhase::Leased)
                ++unfinished;
    return unfinished;
}

void
CampaignQueue::waitForWork(std::uint64_t ms)
{
    std::unique_lock<std::mutex> lock(_mutex);
    if (_draining)
        return;
    _cv.wait_for(lock, std::chrono::milliseconds(ms));
}

std::optional<UnitSnapshot>
CampaignQueue::waitForUnit(const std::string &id, std::uint64_t unit,
                           std::uint64_t ms)
{
    std::unique_lock<std::mutex> lock(_mutex);
    CampaignEntry *campaign = findLocked(id);
    if (!campaign || unit >= campaign->units.size())
        return std::nullopt;
    auto deadline = Clock::now() + std::chrono::milliseconds(ms);
    auto finished = [&]() {
        UnitPhase phase = campaign->units[unit].phase;
        return phase == UnitPhase::Done || phase == UnitPhase::Failed ||
               phase == UnitPhase::Canceled;
    };
    while (!finished() && !_draining)
        if (_cv.wait_until(lock, deadline) == std::cv_status::timeout)
            break;
    return snapshotLocked(campaign->units[unit]);
}

void
CampaignQueue::beginDrain()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _draining = true;
    _cv.notify_all();
}

bool
CampaignQueue::draining()
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _draining;
}

CampaignQueue::Stats
CampaignQueue::stats()
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _stats;
}

} // namespace ruu::serve
