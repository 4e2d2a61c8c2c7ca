/**
 * @file
 * ruusimd — the crash-tolerant simulation service (docs/SERVE.md).
 *
 * A daemon on a Unix-domain socket accepting the serve/protocol.hh
 * dialect: clients submit a batch of (program, core, config,
 * schedule) jobs and run it; per-job results stream back in
 * submission order. Every fresh job executes in a reusable worker
 * process (serve/worker.hh) under a per-job wall-clock deadline, so a
 * crashing or hanging simulation is classified on its own result line
 * while the daemon keeps serving. Batches run on the deterministic
 * work-stealing pool (par/pool.hh) and commit through the ordered
 * committer (par/ordered.hh), so the response stream is byte-
 * identical at any worker count.
 *
 * Whole sweeps live server-side on the durable campaign queue
 * (serve/queue.hh): run/storm/inject campaigns are journaled at
 * admission, expanded into leased work units dispatched at-least-once
 * (duplicates dedup'd through the cache), and streamed to
 * re-attachable watchers strictly in unit order — kill -9 the daemon
 * mid-campaign and a restarted one serves the byte-identical stream.
 *
 * Degradation policy, in order of preference: serve from the content-
 * addressed cache; recompute on any cache corruption; classify per-
 * job failures (rejected / crashed / timed-out) without failing the
 * batch; shed submits over the bounded admission queue with an
 * explicit "overloaded" response; retry transient spawn failures on
 * the shared capped-exponential backoff; and only ever exit on
 * operator request (shutdown op, or SIGTERM/SIGINT graceful drain
 * when handleSignals is set — finish in-flight units, persist, exit
 * 0) or an unusable environment (bad socket path, mismatched journal
 * identity). Every persistence write goes through the checked I/O
 * layer (common/io_faults.hh), so the whole policy is testable under
 * deterministic injected fault schedules.
 */

#ifndef RUU_SERVE_SERVER_HH
#define RUU_SERVE_SERVER_HH

#include <cstdint>
#include <string>

#include "common/backoff.hh"
#include "common/error.hh"
#include "par/pool.hh"

namespace ruu::serve
{

struct ServerOptions
{
    std::string socketPath;

    /** Result-cache directory; empty disables caching. */
    std::string cacheDir;

    /** Recovery journal path; empty disables crash recovery. */
    std::string journalPath;

    /** Pool workers for batch execution (1 = inline serial). */
    unsigned jobs = 1;

    /** Admission-queue bound; submits past it are shed. */
    std::size_t queueLimit = 256;

    /** Per-job wall-clock watchdog when the job names none. */
    unsigned defaultDeadlineMs = 10'000;

    /** Seed for the deterministic spawn-retry jitter streams. */
    std::uint64_t seed = 1;

    /** Worker spawn retry schedule (worker replacement). */
    BackoffPolicy spawnBackoff;

    /**
     * The `ruusim` executable the job workers run (serve/worker.hh):
     * `ruusim serve` passes /proc/self/exe. Empty: every fresh job
     * fails, as a spawn failure.
     */
    std::string workerPath;

    /** Serve at most this many connections, then return; 0 = no cap. */
    std::uint64_t maxConnections = 0;

    /** Campaign-queue journal path; empty = in-memory queue only. */
    std::string queuePath;

    /** Campaign unit lease duration (worker-death detector). */
    std::uint64_t leaseMs = 30'000;

    /** Re-dispatch schedule for units whose lease expired. */
    BackoffPolicy redispatchBackoff;

    /** Unfinished-unit bound; campaigns past it are shed. */
    std::uint64_t campaignUnitLimit = 1024;

    /**
     * Install SIGTERM/SIGINT handlers that drain instead of dying:
     * stop leasing, finish leased units, flush, exit 0. Off by
     * default — tests hosting the server in a thread must not have
     * their process-wide handlers usurped.
     */
    bool handleSignals = false;
};

/** Observable server counters (the status response). */
struct ServerStats
{
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;
    std::uint64_t badRequests = 0;
    std::uint64_t jobsDone = 0;
    std::uint64_t jobsRejected = 0;
    std::uint64_t jobsCrashed = 0;
    std::uint64_t jobsTimedOut = 0;
    std::uint64_t jobsFailed = 0;
    std::uint64_t shed = 0;      //!< submits refused as overloaded
    std::uint64_t recovered = 0; //!< journal records verified at start

    // Campaign-queue counters (serve/queue.hh), copied out at exit.
    std::uint64_t campaigns = 0;
    std::uint64_t unitsDone = 0;
    std::uint64_t unitsFailed = 0;
    std::uint64_t unitsCanceled = 0;
    std::uint64_t leaseExpiries = 0;
    std::uint64_t unitDuplicates = 0;
    std::uint64_t recoveredUnits = 0;
    std::uint64_t queueJournalErrors = 0;
    std::uint64_t drained = 0; //!< 1 when a signal drained the daemon
};

/**
 * Run the daemon until a shutdown request (returns 0), the connection
 * cap, or a fatal environment error. Blocks the calling thread.
 */
Expected<int> runServer(const ServerOptions &options,
                        ServerStats *statsOut = nullptr);

} // namespace ruu::serve

#endif // RUU_SERVE_SERVER_HH
