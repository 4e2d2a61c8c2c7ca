/**
 * @file
 * ruu::par — deterministic parallel execution engine.
 *
 * Every heavy driver in this repo (the Table 2-6 sweeps, `ruusim
 * verify --sweep`, `ruusim storm`, `ruusim inject`) is an
 * embarrassingly-parallel loop over independent simulation jobs. The
 * engine runs such loops on a work-stealing thread pool while keeping
 * the one property the repo's verification story depends on:
 *
 *   **parallel output is byte-identical to serial output at any
 *   worker count.**
 *
 * Three rules deliver that determinism contract:
 *
 *   1. *Index sharding.* Work is identified by a dense job index; the
 *      schedule (which worker runs which job, in what order) is
 *      explicitly allowed to vary and therefore must never influence a
 *      result. Job bodies receive their index and a stable worker slot
 *      and must not communicate except through their return value.
 *   2. *Per-index randomness.* A job that needs random numbers derives
 *      an independent SplitMix64 stream from (campaign seed, job
 *      index) via jobSeed() — never from a shared generator, whose
 *      draw order would depend on the schedule.
 *   3. *Ordered reduction.* mapReduce() buffers every job's result and
 *      folds them in job-index order after the last job completes, so
 *      aggregates, tables, first-failure reports and journals come out
 *      exactly as a serial loop would produce them.
 *
 * A Pool built with one worker (or passed as nullptr to the helpers)
 * degenerates to an inline serial loop on the calling thread — no
 * threads are created, which is what the determinism tests pin against.
 *
 * Exceptions: the first throwing job *by index* (not by completion
 * time) wins; its exception is rethrown on the submitting thread after
 * the batch drains. Remaining queued jobs still run — simulation jobs
 * are side-effect-free, so there is nothing to cancel.
 */

#ifndef RUU_PAR_POOL_HH
#define RUU_PAR_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ruu::par
{

/** SplitMix64 step: the engine's only randomness primitive. */
std::uint64_t splitmix64(std::uint64_t &state);

/**
 * The independent SplitMix64 stream seed of job @p index under
 * @p seed. Identical to inject::trialSeed — the inject journal format
 * pins this derivation, so it must never change.
 */
std::uint64_t jobSeed(std::uint64_t seed, std::uint64_t index);

/**
 * Default worker count: the RUU_JOBS environment variable when set to
 * a positive integer, otherwise hardware_concurrency (at least 1).
 */
unsigned defaultJobs();

/** The most workers a jobs flag may ask for. */
inline constexpr unsigned kMaxJobs = 256;

/**
 * Scan argv for a jobs flag — `-j N`, `-jN`, `--jobs N`, `--jobs=N` —
 * and return its value, or defaultJobs() when absent. Recognized
 * arguments are removed from argv (argc is updated in place), so a
 * bench main can call this before its own argument handling. A value
 * that is not a whole number from 1 to kMaxJobs exits with status 2.
 */
unsigned consumeJobsFlag(int &argc, char **argv);

/**
 * Work-stealing thread pool over index-sharded job batches.
 *
 * Workers are spawned once and live for the pool's lifetime. A batch
 * (forEachIndexed) shards the index space into contiguous per-worker
 * runs; an idle worker steals from the tail of a victim's deque.
 * Batches are not re-entrant: a job body must not submit to its own
 * pool (nest levels by flattening the index space instead).
 */
class Pool
{
  public:
    /** A job body: (job index, worker slot in [0, workers())). */
    using Body = std::function<void(std::size_t job, unsigned worker)>;

    /** @p workers executors; 0 and 1 both mean inline serial. */
    explicit Pool(unsigned workers = defaultJobs());
    ~Pool();

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    /** Executor count (>= 1); 1 means jobs run inline, unthreaded. */
    unsigned workers() const { return _nworkers; }

    /**
     * Run @p body for every job index in [0, jobs), blocking until all
     * complete. Rethrows the lowest-index job exception, if any.
     */
    void forEachIndexed(std::size_t jobs, const Body &body);

  private:
    struct Shard
    {
        std::deque<std::size_t> jobs;
    };

    void workerLoop(unsigned id);
    bool claim(unsigned id, std::size_t &job);

    unsigned _nworkers;
    std::vector<std::thread> _threads;

    // All scheduler state lives under one mutex: claims and completions
    // are O(1) pointer moves, and a job is at least one full simulated
    // run, so the lock is never contended for a meaningful fraction of
    // a job's runtime — and the wakeup protocol stays obviously correct.
    std::mutex _mutex;
    std::condition_variable _wake;    //!< work available or shutdown
    std::condition_variable _drained; //!< batch fully executed
    bool _shutdown = false;

    std::vector<Shard> _shards;
    const Body *_body = nullptr;
    std::size_t _pending = 0;   //!< claimed or queued, not yet finished
    std::size_t _unclaimed = 0; //!< still sitting in a shard

    std::exception_ptr _firstError;
    std::size_t _firstErrorJob = 0;
};

/**
 * Run @p jobs indexed jobs on @p pool (nullptr or single-worker: an
 * inline serial loop, bit-for-bit the reference behavior).
 */
void forEachIndexed(Pool *pool, std::size_t jobs, const Pool::Body &body);

/**
 * Deterministic map/reduce: compute map(index, worker) for every index
 * in [0, jobs), then fold the results **in index order** with
 * reduce(accumulator, result, index). The fold runs on the calling
 * thread after the last job completes, so the outcome is independent
 * of scheduling — byte-identical to a serial loop at any worker count.
 */
template <typename R, typename A, typename Map, typename Reduce>
A
mapReduce(Pool *pool, std::size_t jobs, A init, Map &&map,
          Reduce &&reduce)
{
    std::vector<R> results(jobs);
    forEachIndexed(pool, jobs,
                   [&](std::size_t job, unsigned worker) {
                       results[job] = map(job, worker);
                   });
    A acc = std::move(init);
    for (std::size_t job = 0; job < jobs; ++job)
        reduce(acc, results[job], job);
    return acc;
}

} // namespace ruu::par

#endif // RUU_PAR_POOL_HH
