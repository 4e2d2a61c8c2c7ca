/**
 * @file
 * ruusimd's job workers (docs/SERVE.md).
 *
 * Every fresh `run` or `storm` job — a client's batch job or a run or
 * storm campaign unit — runs in a long-lived, single-threaded worker
 * process: `ruusim` re-executed through posix_spawn in its internal
 * worker mode. The daemon writes each job as one submit line
 * (requestToLine) on the worker's input; the worker answers it with
 * one result line (resultToLine) on its reply pipe, while its stdout
 * and stderr go to a pipe the daemon captures. A worker keeps the
 * kernels it has built — and with them their compiled streams and
 * bounds, which belong to the kernel's trace (trace/trace.hh) — from
 * one job to the next, and builds each submitted program afresh, so a
 * job pays for its simulation rather than for a process.
 *
 * The daemon waits for the reply up to the job's deadline. On expiry
 * it SIGKILLs and reaps the worker (`timed-out`); a worker that dies
 * mid-job is `crashed`, with its signal or exit code and stderr tail;
 * either way the next job gets a fresh worker. A worker exits when it
 * reads EOF on its input: when the daemon shuts down, or dies.
 */

#ifndef RUU_SERVE_WORKER_HH
#define RUU_SERVE_WORKER_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

#include "common/backoff.hh"
#include "common/error.hh"
#include "serve/protocol.hh"
#include "sim/machine.hh"

namespace ruu::serve
{

/** argv[1] that starts `ruusim` as a worker (never typed by hand). */
inline constexpr const char *kWorkerArg = "__serve-worker";

/** A job's scheme, validated configuration and workload. */
struct ResolvedJob
{
    CoreKind kind = CoreKind::Ruu;
    UarchConfig config;
    const Workload *kernel = nullptr; //!< a built-in kernel, or
    std::optional<Workload> program;  //!< a submitted program

    const Workload &workload() const { return program ? *program : *kernel; }
};

/**
 * Resolve @p job: its core, its configuration and its workload — a
 * kernel through sharedLivermoreWorkload (built on first use), a
 * program assembled and run functionally. An error, the job's
 * rejection, on bad input: a faulting or non-halting program never
 * costs the process.
 */
Expected<ResolvedJob> resolveJob(const JobSpec &job);

/** What became of one job: its status, and payload or diagnostic. */
struct JobReply
{
    JobStatus status = JobStatus::Failed;
    std::string text;
};

/**
 * A worker's main loop: read submit lines from @p jobFd and answer
 * each with one result line on @p replyFd, until EOF on @p jobFd.
 * Returns the process exit status.
 */
int runWorker(int jobFd, int replyFd);

/**
 * The daemon's side: a pool of workers, one per concurrent caller of
 * run(), spawned on first need and reused while they stay healthy.
 * Thread-safe.
 */
class WorkerPool
{
  public:
    /** Workers run @p executable (a `ruusim` binary). */
    explicit WorkerPool(std::string executable)
        : _executable(std::move(executable))
    {}

    ~WorkerPool() { shutdown(); }

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Run @p job on an idle worker, or on one spawned for it (retried
     * on @p spawnPolicy), waiting for its reply until @p deadlineMs
     * have passed.
     */
    JobReply run(const JobSpec &job, unsigned deadlineMs,
                 const BackoffPolicy &spawnPolicy);

    /** Close every idle worker's input and reap it. */
    void shutdown();

    /** Workers alive now. */
    std::uint64_t live() const { return _live.load(); }

    /** Workers spawned since start. */
    std::uint64_t spawns() const { return _spawns.load(); }

  private:
    struct Worker
    {
        pid_t pid = -1;
        int in = -1;    //!< job lines (write end)
        int reply = -1; //!< result lines (read end)
        int err = -1;   //!< captured stdout + stderr (read end)
    };

    Expected<Worker> spawn();
    void retire(Worker &worker, bool kill, int *status);

    std::string _executable;
    std::mutex _mutex;
    std::vector<Worker> _idle;
    std::atomic<std::uint64_t> _live{0};
    std::atomic<std::uint64_t> _spawns{0};
};

} // namespace ruu::serve

#endif // RUU_SERVE_WORKER_HH
