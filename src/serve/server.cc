#include "serve/server.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/io_faults.hh"
#include "common/logging.hh"
#include "engine/engine.hh"
#include "inject/campaign.hh"
#include "kernels/lll.hh"
#include "par/ordered.hh"
#include "serve/cache.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"
#include "serve/recovery.hh"
#include "serve/worker.hh"
#include "sim/json.hh"

namespace ruu::serve
{

namespace
{

/**
 * SIGTERM/SIGINT latch for graceful drain. Installed without
 * SA_RESTART so a signal interrupts the blocking accept/poll, which
 * then notices the latch and starts the drain instead of dying.
 */
volatile std::sig_atomic_t gDrainSignal = 0;

extern "C" void
onDrainSignal(int)
{
    gDrainSignal = 1;
}

/** Send all of @p line plus a newline; false once the peer is gone. */
bool
writeLine(int fd, const std::string &line)
{
    std::string framed = line + "\n";
    std::size_t done = 0;
    while (done < framed.size()) {
        ssize_t n = ::send(fd, framed.data() + done,
                           framed.size() - done, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

/** What one job produced, staged for the ordered committer. */
struct JobOutcome
{
    JobStatus status = JobStatus::Failed;
    bool cached = false;
    bool freshResult = false; //!< Done and not from the cache
    std::string text;         //!< payload (Done) or diagnostic
    std::uint64_t key = 0;
};

class Server
{
  public:
    Server(const ServerOptions &options, ServerStats &stats)
        : _options(options), _stats(stats), _cache(options.cacheDir),
          _workers(options.workerPath), _pool(options.jobs),
          _start(std::chrono::steady_clock::now())
    {}

    Expected<int> run();

  private:
    Expected<bool> recover();
    void handleConnection(int fd);
    void runBatch(int fd, bool &connAlive);
    JobOutcome runJob(const JobSpec &job, std::size_t index);
    JobOutcome runInjectUnit(const Lease &lease);
    void dispatchLoop();
    void runUnit(const Lease &lease);
    void runWatch(int fd, const std::string &id, bool &connAlive);
    void startDispatchers();
    void joinDispatchers();
    bool drainRequested() const;
    std::string statusLine();

    const ServerOptions &_options;
    ServerStats &_stats;
    std::mutex _statsMutex; //!< _stats is touched from every thread
    ResultCache _cache;
    std::mutex _cacheMutex;
    ServeJournalWriter _journal;
    CampaignQueue _campaignQueue;
    std::vector<std::thread> _dispatchers;
    WorkerPool _workers;
    par::Pool _pool;
    std::chrono::steady_clock::time_point _start;
    std::vector<JobSpec> _queue;
    std::atomic<bool> _shutdown{false};
};

Expected<bool>
Server::recover()
{
    if (_options.journalPath.empty())
        return true;
    // Each journaled completion vouches for one cache entry; entries
    // the journal and cache disagree on are deleted so the job simply
    // recomputes — corruption degrades to work, never to wrong bytes.
    auto opened = openPinned(
        _journal, _options.journalPath, _options.cacheDir,
        [this](const ServeJournalContents &contents) {
            for (const JobRecord &record : contents.records)
                if (_cache.verifyAgainst(record.key, record.checksum,
                                         record.bytes))
                    ++_stats.recovered;
        });
    if (!opened)
        return Error(opened.error()).context("serve recovery");
    return true;
}

std::string
Server::statusLine()
{
    auto uptime =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - _start)
            .count();
    ServerStats stats;
    {
        std::lock_guard<std::mutex> lock(_statsMutex);
        stats = _stats;
    }
    ResultCache::Stats cache;
    std::uint64_t entries = 0;
    {
        std::lock_guard<std::mutex> lock(_cacheMutex);
        cache = _cache.stats();
        entries = _cache.entriesOnDisk();
    }
    CampaignQueue::Stats queue = _campaignQueue.stats();
    io::FaultStats io = io::faultStats();
    std::ostringstream os;
    os << "{\"ok\": 1, \"op\": \"status\""
       << ", \"uptime_ms\": " << uptime
       << ", \"queue_depth\": " << _queue.size()
       << ", \"queue_limit\": " << _options.queueLimit
       << ", \"jobs\": " << _options.jobs
       << ", \"connections\": " << stats.connections
       << ", \"requests\": " << stats.requests
       << ", \"bad_requests\": " << stats.badRequests
       << ", \"jobs_done\": " << stats.jobsDone
       << ", \"jobs_rejected\": " << stats.jobsRejected
       << ", \"jobs_crashed\": " << stats.jobsCrashed
       << ", \"jobs_timed_out\": " << stats.jobsTimedOut
       << ", \"jobs_failed\": " << stats.jobsFailed
       << ", \"shed\": " << stats.shed
       << ", \"recovered\": " << stats.recovered
       << ", \"cache_hits\": " << cache.hits
       << ", \"cache_misses\": " << cache.misses
       << ", \"cache_stores\": " << cache.stores
       << ", \"cache_dropped\": " << cache.dropped
       << ", \"cache_entries\": " << entries
       << ", \"campaigns\": " << queue.campaigns
       << ", \"units_pending\": " << _campaignQueue.unfinishedUnits()
       << ", \"units_done\": " << queue.unitsDone
       << ", \"units_failed\": " << queue.unitsFailed
       << ", \"units_canceled\": " << queue.unitsCanceled
       << ", \"unit_leases\": " << queue.leases
       << ", \"lease_expiries\": " << queue.expiries
       << ", \"unit_duplicates\": " << queue.duplicates
       << ", \"units_recovered\": " << queue.recoveredUnits
       << ", \"queue_journal_errors\": " << queue.journalErrors
       << ", \"campaigns_shed\": " << queue.shed
       << ", \"workers\": " << _workers.live()
       << ", \"worker_spawns\": " << _workers.spawns()
       << ", \"io_ops\": " << io.ops
       << ", \"io_injected\": " << io.injected
       << ", \"draining\": " << (drainRequested() ? 1 : 0) << "}";
    return os.str();
}

JobOutcome
Server::runJob(const JobSpec &job, std::size_t index)
{
    JobOutcome out;

    // Resolve the job here as well as in the worker: the cache key is
    // the workload's content hash, and a bad job is a rejection that
    // never reaches a worker. A kernel name resolves to the daemon's
    // copy, built by the first job or unit that names it; a submitted
    // program is assembled and functionally simulated, so a faulting
    // or non-halting program is a per-job rejection, never a dead
    // server.
    auto resolved = resolveJob(job);
    if (!resolved) {
        out.status = JobStatus::Rejected;
        out.text = resolved.error().message();
        return out;
    }
    const Workload &workload = resolved->workload();

    CacheKeyInputs inputs;
    inputs.displayName = workload.name;
    inputs.traceFingerprint = workload.contentHash;
    inputs.traceLength = workload.trace().size();
    inputs.configJson = configToJson(resolved->config);
    inputs.core = coreKindName(resolved->kind);
    inputs.period = job.period;
    inputs.engineVersion = engine::kStreamFormatVersion;
    out.key = cacheKey(inputs);

    {
        std::lock_guard<std::mutex> lock(_cacheMutex);
        if (auto hit = _cache.load(out.key)) {
            out.status = JobStatus::Done;
            out.cached = true;
            out.text = std::move(*hit);
            return out;
        }
    }

    // Fresh computation, crash-contained: the simulation runs in a
    // worker process under the job's deadline, so a wedged or crashing
    // run is this job's classification, not the daemon's death.
    unsigned deadline = job.deadlineMs
                            ? static_cast<unsigned>(job.deadlineMs)
                            : _options.defaultDeadlineMs;
    BackoffPolicy policy = _options.spawnBackoff;
    policy.seed = par::jobSeed(_options.seed, index);
    JobReply reply = _workers.run(job, deadline, policy);
    out.status = reply.status;
    out.freshResult = reply.status == JobStatus::Done;
    out.text = std::move(reply.text);
    return out;
}

JobOutcome
Server::runInjectUnit(const Lease &lease)
{
    JobOutcome out;
    const CampaignSpec &spec = lease.spec;
    inject::CampaignOptions options;
    for (const std::string &name : spec.cores) {
        auto kind = coreKindFromName(name);
        if (!kind) {
            out.status = JobStatus::Rejected;
            out.text = "unknown core '" + name + "'";
            return out;
        }
        options.cores.push_back(*kind);
    }
    for (const std::string &name : spec.workloads) {
        const Workload *found = sharedLivermoreWorkload(name);
        if (!found) {
            out.status = JobStatus::Rejected;
            out.text = "unknown workload '" + name + "'";
            return out;
        }
        options.workloads.push_back(*found);
    }
    if (!spec.configJson.empty()) {
        auto parsed = parseUarchConfig(spec.configJson);
        if (!parsed) {
            out.status = JobStatus::Rejected;
            out.text = "bad config: " + parsed.error().message();
            return out;
        }
        options.config = parsed.take();
        if (std::string problem = options.config.validate();
            !problem.empty()) {
            out.status = JobStatus::Rejected;
            out.text = "bad config: " + problem;
            return out;
        }
    }
    options.trials = spec.trials;
    options.seed = spec.seed;
    options.timeoutMs =
        spec.deadlineMs ? static_cast<unsigned>(spec.deadlineMs)
                        : _options.defaultDeadlineMs;

    // replayTrial runs the trial in its own fork sandbox with the
    // watchdog and spawn retries of a real `ruusim inject` campaign,
    // so a crashing trial is this unit's classification, not the
    // daemon's death. (The child inherits the daemon's socket fds;
    // the hazard is bounded by the per-trial deadline.)
    auto trial = inject::replayTrial(options, lease.unit.trial);
    if (!trial) {
        out.status = JobStatus::Failed;
        out.text = trial.error().message();
        return out;
    }
    out.status = JobStatus::Done;
    out.freshResult = true;
    out.text = inject::trialToLine(*trial);
    return out;
}

void
Server::runUnit(const Lease &lease)
{
    const CampaignSpec &spec = lease.spec;
    JobOutcome out;
    if (spec.kind == CampaignKind::Inject) {
        // An inject unit's cache identity is the campaign identity
        // plus the trial index: (seed, index) fully determine the
        // trial, exactly as --replay-trial pins.
        std::string joinedCores, joinedWorkloads;
        for (const std::string &name : spec.cores)
            joinedCores += (joinedCores.empty() ? "" : ",") + name;
        for (const std::string &name : spec.workloads)
            joinedWorkloads +=
                (joinedWorkloads.empty() ? "" : ",") + name;
        CacheKeyInputs inputs;
        inputs.displayName =
            "inject:" + joinedCores + ":" + joinedWorkloads;
        inputs.traceFingerprint = spec.seed;
        inputs.traceLength = spec.trials;
        inputs.configJson = spec.configJson;
        inputs.core = "inject";
        inputs.period = lease.unit.trial;
        inputs.engineVersion = engine::kStreamFormatVersion;
        out.key = cacheKey(inputs);
        bool haveResult = false;
        {
            std::lock_guard<std::mutex> lock(_cacheMutex);
            if (auto hit = _cache.load(out.key)) {
                out.status = JobStatus::Done;
                out.cached = true;
                out.text = std::move(*hit);
                haveResult = true;
            }
        }
        if (!haveResult) {
            std::uint64_t key = out.key;
            out = runInjectUnit(lease);
            out.key = key;
        }
    } else {
        JobSpec job;
        job.id = spec.id + "#" + std::to_string(lease.unit.index);
        job.workload = lease.unit.workload;
        job.core = lease.unit.core;
        job.configJson = spec.configJson;
        job.period = lease.unit.period;
        job.deadlineMs = spec.deadlineMs;
        out = runJob(job, lease.unit.index);
    }

    // Heartbeat: the run may have consumed most of the lease; renew
    // before committing so the commit can't race our own expiry.
    _campaignQueue.renew(spec.id, lease.unit.index, lease.token,
                         CampaignQueue::Clock::now(), _options.leaseMs);

    std::uint64_t checksum = 0, bytes = 0;
    if (out.status == JobStatus::Done) {
        checksum = fnv1a(out.text);
        bytes = out.text.size();
    }
    if (out.freshResult && _cache.enabled()) {
        std::lock_guard<std::mutex> lock(_cacheMutex);
        // Best effort: on a store failure the payload still lives in
        // memory for this daemon's watchers, and recovery's cache
        // verification will simply fail the journal record, so the
        // unit recomputes after a restart — degraded to extra work,
        // never to wrong bytes.
        (void)_cache.store(out.key, out.text);
    }
    _campaignQueue.complete(spec.id, lease.unit.index, out.status,
                            out.cached, out.key, checksum, bytes,
                            out.text);
}

void
Server::dispatchLoop()
{
    while (!_shutdown.load()) {
        _campaignQueue.expireLeases(CampaignQueue::Clock::now(),
                                    _options.redispatchBackoff);
        auto lease = _campaignQueue.lease(CampaignQueue::Clock::now(),
                                          _options.leaseMs);
        if (!lease) {
            if (_campaignQueue.draining())
                break;
            _campaignQueue.waitForWork(200);
            continue;
        }
        runUnit(*lease);
    }
}

void
Server::startDispatchers()
{
    unsigned count = _options.jobs ? _options.jobs : 1;
    for (unsigned i = 0; i < count; ++i)
        _dispatchers.emplace_back([this] { dispatchLoop(); });
}

void
Server::joinDispatchers()
{
    for (std::thread &dispatcher : _dispatchers)
        if (dispatcher.joinable())
            dispatcher.join();
    _dispatchers.clear();
}

bool
Server::drainRequested() const
{
    return _options.handleSignals && gDrainSignal != 0;
}

void
Server::runWatch(int fd, const std::string &id, bool &connAlive)
{
    auto view = _campaignQueue.campaignView(id);
    if (!view) {
        connAlive =
            writeLine(fd, errorToLine("unknown campaign '" + id + "'"));
        return;
    }
    std::uint64_t done = 0, failed = 0, canceled = 0;
    // Stream strictly in unit order regardless of completion order, so
    // the watch payload stream is byte-identical at any worker count —
    // and across a kill/restart, because units are deterministic.
    for (std::uint64_t u = 0; u < view->unitsTotal && connAlive; ++u) {
        for (;;) {
            auto snap = _campaignQueue.waitForUnit(id, u, 200);
            if (!snap) {
                connAlive = writeLine(
                    fd, errorToLine("campaign '" + id + "' vanished"));
                return;
            }
            if (snap->phase == UnitPhase::Done) {
                std::string payload = snap->text;
                if (payload.empty()) {
                    // Recovered unit: the payload was certified in the
                    // cache, not replayed into memory.
                    std::lock_guard<std::mutex> lock(_cacheMutex);
                    if (auto hit = _cache.load(snap->key))
                        payload = std::move(*hit);
                }
                if (payload.empty()) {
                    // The entry vanished after certification:
                    // recompute rather than fail the watch.
                    _campaignQueue.invalidateUnit(id, u);
                    continue;
                }
                ++done;
                connAlive = writeLine(
                    fd, unitResultToLine(id, u, JobStatus::Done,
                                         snap->cached, payload));
                break;
            }
            if (snap->phase == UnitPhase::Failed) {
                ++failed;
                connAlive = writeLine(
                    fd, unitResultToLine(id, u, snap->status, false,
                                         snap->text));
                break;
            }
            if (snap->phase == UnitPhase::Canceled) {
                ++canceled;
                connAlive = writeLine(
                    fd, unitResultToLine(id, u, JobStatus::Failed,
                                         false, "canceled"));
                break;
            }
            if (_shutdown.load() || drainRequested() ||
                _campaignQueue.draining()) {
                connAlive = writeLine(fd, errorToLine("draining"));
                return;
            }
        }
    }
    if (!connAlive)
        return;
    std::ostringstream os;
    os << "{\"ok\": " << (failed + canceled == 0 ? 1 : 0)
       << ", \"op\": \"watch\", \"id\": \"" << flat::escape(id) << "\""
       << ", \"units\": " << view->unitsTotal << ", \"done\": " << done
       << ", \"failed\": " << failed << ", \"canceled\": " << canceled
       << "}";
    connAlive = writeLine(fd, os.str());
}

void
Server::runBatch(int fd, bool &connAlive)
{
    std::vector<JobSpec> batch;
    batch.swap(_queue);

    std::uint64_t done = 0, failedJobs = 0, hits = 0;
    // Ordered streaming commit: results are staged as workers finish
    // and durably recorded + sent strictly in submission order, so the
    // response stream — and the journal — are byte-identical at any
    // worker count, and a SIGKILL leaves a clean prefix.
    par::OrderedCommitter<JobOutcome> committer(
        [&](std::size_t pos, const JobOutcome &out) -> Expected<bool> {
            if (out.freshResult && _cache.enabled()) {
                std::lock_guard<std::mutex> lock(_cacheMutex);
                // The cache write lands before the journal record
                // vouching for it: a crash between the two costs a
                // recompute, never a journal entry with no payload.
                if (auto stored = _cache.store(out.key, out.text);
                    !stored)
                    return stored.error();
                if (_journal.isOpen()) {
                    JobRecord record;
                    record.key = out.key;
                    record.checksum = fnv1a(out.text);
                    record.bytes = out.text.size();
                    if (auto added = _journal.add(record); !added)
                        return added.error();
                }
            }
            {
                std::lock_guard<std::mutex> lock(_statsMutex);
                switch (out.status) {
                  case JobStatus::Done:
                    ++_stats.jobsDone; ++done; break;
                  case JobStatus::Rejected:
                    ++_stats.jobsRejected; ++failedJobs; break;
                  case JobStatus::Crashed:
                    ++_stats.jobsCrashed; ++failedJobs; break;
                  case JobStatus::TimedOut:
                    ++_stats.jobsTimedOut; ++failedJobs; break;
                  case JobStatus::Failed:
                    ++_stats.jobsFailed; ++failedJobs; break;
                }
            }
            if (out.cached)
                ++hits;
            if (connAlive &&
                !writeLine(fd, resultToLine(batch[pos].id, out.status,
                                            out.cached, out.text))) {
                // The client hung up mid-stream. Keep committing —
                // the work is done and the cache should keep it — but
                // stop writing into the void.
                connAlive = false;
            }
            return true;
        });

    par::forEachIndexed(
        _options.jobs > 1 ? &_pool : nullptr, batch.size(),
        [&](std::size_t pos, unsigned) {
            if (committer.doomed(pos))
                return;
            committer.commit(pos, runJob(batch[pos], pos));
        });

    if (committer.failed()) {
        if (connAlive &&
            !writeLine(fd, errorToLine(committer.error().message())))
            connAlive = false;
        return;
    }
    std::ostringstream os;
    os << "{\"ok\": 1, \"op\": \"run\", \"jobs\": " << batch.size()
       << ", \"done\": " << done << ", \"failed\": " << failedJobs
       << ", \"cache_hits\": " << hits << "}";
    if (connAlive && !writeLine(fd, os.str()))
        connAlive = false;
}

void
Server::handleConnection(int fd)
{
    _queue.clear();
    std::string buffer;
    char chunk[4096];
    bool connAlive = true;
    while (connAlive && !_shutdown.load() && !drainRequested()) {
        std::size_t eol = buffer.find('\n');
        if (eol == std::string::npos) {
            // Bounded wait so a drain signal is noticed even while a
            // client holds the connection idle.
            pollfd waiting{};
            waiting.fd = fd;
            waiting.events = POLLIN;
            int ready = ::poll(&waiting, 1, 200);
            if (ready < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            if (ready == 0)
                continue; // timeout: recheck shutdown/drain
            ssize_t n = ::read(fd, chunk, sizeof(chunk));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break; // peer closed (or errored): batch abandoned
            buffer.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        std::string line = buffer.substr(0, eol);
        buffer.erase(0, eol + 1);
        if (line.empty())
            continue;
        {
            std::lock_guard<std::mutex> lock(_statsMutex);
            ++_stats.requests;
        }

        auto request = parseRequest(line);
        if (!request) {
            // Hostile or torn input answers with a diagnostic; the
            // connection (and the daemon) stay up.
            {
                std::lock_guard<std::mutex> lock(_statsMutex);
                ++_stats.badRequests;
            }
            connAlive =
                writeLine(fd, errorToLine(request.error().message()));
            continue;
        }
        switch (request->op) {
          case Op::Ping:
            connAlive = writeLine(fd, "{\"ok\": 1, \"op\": \"ping\"}");
            break;
          case Op::Status:
            connAlive = writeLine(fd, statusLine());
            break;
          case Op::Submit:
            if (_queue.size() >= _options.queueLimit) {
                // Bounded admission: shed with an explicit verdict
                // instead of growing without limit.
                {
                    std::lock_guard<std::mutex> lock(_statsMutex);
                    ++_stats.shed;
                }
                connAlive = writeLine(
                    fd, "{\"ok\": 0, \"op\": \"submit\", \"id\": \"" +
                            flat::escape(request->job.id) +
                            "\", \"error\": \"overloaded\", "
                            "\"queue_depth\": " +
                            std::to_string(_queue.size()) + "}");
                break;
            }
            _queue.push_back(request->job);
            connAlive = writeLine(
                fd, "{\"ok\": 1, \"op\": \"submit\", \"id\": \"" +
                        flat::escape(request->job.id) +
                        "\", \"queued\": " +
                        std::to_string(_queue.size()) + "}");
            break;
          case Op::Run:
            runBatch(fd, connAlive);
            break;
          case Op::Campaign: {
            const std::string &id = request->campaign.id;
            auto units = _campaignQueue.submit(
                request->campaign, _options.campaignUnitLimit);
            if (!units) {
                // "overloaded" is the explicit shed verdict; every
                // other message is a refusal (duplicate id with a
                // different spec, journal-append failure, ...).
                connAlive = writeLine(
                    fd, "{\"ok\": 0, \"op\": \"campaign\", \"id\": \"" +
                            flat::escape(id) + "\", \"error\": \"" +
                            flat::escape(units.error().message()) +
                            "\"}");
                break;
            }
            connAlive = writeLine(
                fd, "{\"ok\": 1, \"op\": \"campaign\", \"id\": \"" +
                        flat::escape(id) + "\", \"units\": " +
                        std::to_string(*units) + "}");
            break;
          }
          case Op::Watch:
            runWatch(fd, request->target, connAlive);
            break;
          case Op::Cancel: {
            auto canceled = _campaignQueue.cancel(request->target);
            if (!canceled) {
                connAlive = writeLine(
                    fd, "{\"ok\": 0, \"op\": \"cancel\", \"id\": \"" +
                            flat::escape(request->target) +
                            "\", \"error\": \"" +
                            flat::escape(canceled.error().message()) +
                            "\"}");
                break;
            }
            connAlive = writeLine(
                fd, "{\"ok\": 1, \"op\": \"cancel\", \"id\": \"" +
                        flat::escape(request->target) +
                        "\", \"canceled\": " +
                        std::to_string(*canceled) + "}");
            break;
          }
          case Op::Shutdown:
            writeLine(fd, "{\"ok\": 1, \"op\": \"shutdown\"}");
            _shutdown.store(true);
            break;
        }
    }
    _queue.clear();
}

Expected<int>
Server::run()
{
    if (_options.socketPath.empty())
        return Error("serve: no socket path");
    sockaddr_un addr{};
    if (_options.socketPath.size() >= sizeof(addr.sun_path))
        return Error("serve: socket path '" + _options.socketPath +
                     "' is too long");

    if (auto recovered = recover(); !recovered)
        return recovered.error();

    // Recover (or create) the campaign queue against the same cache
    // the serve journal pins: done-unit records are only honored when
    // their payload is still present and intact.
    if (auto opened = _campaignQueue.open(
            _options.queuePath, _options.cacheDir,
            [this](std::uint64_t key, std::uint64_t checksum,
                   std::uint64_t bytes) {
                std::lock_guard<std::mutex> lock(_cacheMutex);
                return _cache.verifyAgainst(key, checksum, bytes);
            });
        !opened)
        return opened.error();

    if (_options.handleSignals) {
        gDrainSignal = 0;
        struct sigaction action{};
        action.sa_handler = onDrainSignal;
        sigemptyset(&action.sa_mask);
        action.sa_flags = 0; // no SA_RESTART: interrupt accept/poll
        ::sigaction(SIGTERM, &action, nullptr);
        ::sigaction(SIGINT, &action, nullptr);
    }

    int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0)
        return Error(std::string("serve: socket: ") +
                     std::strerror(errno));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, _options.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(_options.socketPath.c_str());
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        Error error(std::string("serve: bind '") +
                    _options.socketPath + "': " + std::strerror(errno));
        ::close(listenFd);
        return error;
    }
    if (::listen(listenFd, 8) != 0) {
        Error error(std::string("serve: listen: ") +
                    std::strerror(errno));
        ::close(listenFd);
        return error;
    }

    startDispatchers();

    Expected<int> result = 0;
    while (!_shutdown.load() && !drainRequested() &&
           (_options.maxConnections == 0 ||
            _stats.connections < _options.maxConnections)) {
        // Bounded accept wait: a drain signal interrupts the poll (no
        // SA_RESTART) or is noticed at the next timeout.
        pollfd waiting{};
        waiting.fd = listenFd;
        waiting.events = POLLIN;
        int ready = ::poll(&waiting, 1, 200);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            result = Error(std::string("serve: poll: ") +
                           std::strerror(errno));
            break;
        }
        if (ready == 0)
            continue;
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            result = Error(std::string("serve: accept: ") +
                           std::strerror(errno));
            break;
        }
        {
            std::lock_guard<std::mutex> lock(_statsMutex);
            ++_stats.connections;
        }
        handleConnection(fd);
        ::close(fd);
    }

    // Graceful exit, shared by shutdown, the connection cap, a drain
    // signal, and even an accept error: stop leasing, let every
    // in-flight unit finish and journal, then release the socket.
    _campaignQueue.beginDrain();
    joinDispatchers();
    _workers.shutdown();
    ::close(listenFd);
    ::unlink(_options.socketPath.c_str());
    {
        std::lock_guard<std::mutex> lock(_statsMutex);
        CampaignQueue::Stats queue = _campaignQueue.stats();
        _stats.campaigns = queue.campaigns;
        _stats.unitsDone = queue.unitsDone;
        _stats.unitsFailed = queue.unitsFailed;
        _stats.unitsCanceled = queue.unitsCanceled;
        _stats.leaseExpiries = queue.expiries;
        _stats.unitDuplicates = queue.duplicates;
        _stats.recoveredUnits = queue.recoveredUnits;
        _stats.queueJournalErrors = queue.journalErrors;
        if (drainRequested())
            _stats.drained = 1;
    }
    return result;
}

} // namespace

Expected<int>
runServer(const ServerOptions &options, ServerStats *statsOut)
{
    ServerStats stats;
    Server server(options, stats);
    auto result = server.run();
    if (statsOut)
        *statsOut = stats;
    return result;
}

} // namespace ruu::serve
