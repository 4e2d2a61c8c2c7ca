#include "par/pool.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/parse_number.hh"

namespace ruu::par
{

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
jobSeed(std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ull * (index + 1));
    return splitmix64(state);
}

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("RUU_JOBS")) {
        long n = std::strtol(env, nullptr, 10);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

unsigned
consumeJobsFlag(int &argc, char **argv)
{
    unsigned jobs = defaultJobs();
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        const char *value = nullptr;
        if (arg == "-j" || arg == "--jobs") {
            if (i + 1 < argc)
                value = argv[++i];
        } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2 &&
                   std::isdigit(static_cast<unsigned char>(arg[2]))) {
            value = argv[i] + 2;
        } else if (arg.rfind("--jobs=", 0) == 0) {
            value = argv[i] + 7;
        } else {
            argv[out++] = argv[i];
            continue;
        }
        std::optional<std::uint64_t> n =
            value ? parseDecimal(value, kMaxJobs) : std::nullopt;
        if (!n || *n == 0) {
            std::fprintf(stderr,
                         "error: bad %s value '%s': expected a whole "
                         "number from 1 to %u\n",
                         arg.rfind("--", 0) == 0 ? "--jobs" : "-j",
                         value ? value : "", kMaxJobs);
            std::exit(2);
        }
        jobs = static_cast<unsigned>(*n);
    }
    argc = out;
    return jobs;
}

Pool::Pool(unsigned workers) : _nworkers(workers ? workers : 1)
{
    if (_nworkers <= 1)
        return;
    _shards = std::vector<Shard>(_nworkers);
    _threads.reserve(_nworkers);
    for (unsigned id = 0; id < _nworkers; ++id)
        _threads.emplace_back([this, id] { workerLoop(id); });
}

Pool::~Pool()
{
    if (_threads.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _shutdown = true;
    }
    _wake.notify_all();
    for (std::thread &thread : _threads)
        thread.join();
}

void
Pool::forEachIndexed(std::size_t jobs, const Body &body)
{
    if (jobs == 0)
        return;
    if (_nworkers <= 1 || jobs == 1) {
        // The reference serial loop: index order, calling thread.
        for (std::size_t job = 0; job < jobs; ++job)
            body(job, 0);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(_mutex);
        // Contiguous shards: worker w starts on [w*jobs/W, (w+1)*jobs/W),
        // so neighbouring jobs (which tend to share a configuration)
        // land on the same worker and its arena caches stay warm.
        // Stealing rebalances the tail.
        for (unsigned w = 0; w < _nworkers; ++w) {
            std::size_t lo = jobs * w / _nworkers;
            std::size_t hi = jobs * (w + 1) / _nworkers;
            _shards[w].jobs.clear();
            for (std::size_t job = lo; job < hi; ++job)
                _shards[w].jobs.push_back(job);
        }
        _body = &body;
        _pending = jobs;
        _unclaimed = jobs;
        _firstError = nullptr;
        _firstErrorJob = 0;
    }
    _wake.notify_all();

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(_mutex);
        _drained.wait(lock, [this] { return _pending == 0; });
        _body = nullptr;
        error = _firstError;
    }
    if (error)
        std::rethrow_exception(error);
}

bool
Pool::claim(unsigned id, std::size_t &job)
{
    // Own shard first, from the front (index order); then steal from a
    // victim's tail, starting at the next worker so thieves spread out.
    Shard &own = _shards[id];
    if (!own.jobs.empty()) {
        job = own.jobs.front();
        own.jobs.pop_front();
        return true;
    }
    for (unsigned k = 1; k < _nworkers; ++k) {
        Shard &victim = _shards[(id + k) % _nworkers];
        if (!victim.jobs.empty()) {
            job = victim.jobs.back();
            victim.jobs.pop_back();
            return true;
        }
    }
    return false;
}

void
Pool::workerLoop(unsigned id)
{
    std::unique_lock<std::mutex> lock(_mutex);
    while (true) {
        _wake.wait(lock, [this] { return _shutdown || _unclaimed > 0; });
        if (_shutdown)
            return;
        std::size_t job = 0;
        if (!claim(id, job))
            continue;
        --_unclaimed;
        const Body *body = _body;
        lock.unlock();

        std::exception_ptr error;
        try {
            (*body)(job, id);
        } catch (...) {
            error = std::current_exception();
        }

        lock.lock();
        if (error && (!_firstError || job < _firstErrorJob)) {
            _firstError = error;
            _firstErrorJob = job;
        }
        if (--_pending == 0)
            _drained.notify_all();
    }
}

void
forEachIndexed(Pool *pool, std::size_t jobs, const Pool::Body &body)
{
    if (pool && pool->workers() > 1) {
        pool->forEachIndexed(jobs, body);
        return;
    }
    for (std::size_t job = 0; job < jobs; ++job)
        body(job, 0);
}

} // namespace ruu::par
