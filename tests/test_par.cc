/**
 * @file
 * ruu::par tests: pool mechanics (sharding, stealing, inline serial
 * degeneration, exception routing), the seeding and flag-parsing
 * helpers, and the engine's central contract — parallel output is
 * byte-identical to serial output — pinned end to end for the pool-size
 * sweep, the interrupt sweep, and the fault-injection journal. Also
 * pins the bound memos (dataflow and resource) actually hitting across
 * a sweep, and bound-guided pruning leaving simulated points
 * byte-identical.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "inject/campaign.hh"
#include "lint/dataflow_bound.hh"
#include "lint/resource_bound.hh"
#include "oracle/sweep.hh"
#include "par/pool.hh"
#include "sim/experiment.hh"
#include "sim/random_program.hh"

namespace ruu
{
namespace
{

// ---------------------------------------------------------------------
// Pool mechanics

TEST(Pool, EmptyBatchCompletes)
{
    par::Pool pool(4);
    unsigned calls = 0;
    pool.forEachIndexed(0, [&](std::size_t, unsigned) { ++calls; });
    EXPECT_EQ(calls, 0u);
}

TEST(Pool, SingleJobRuns)
{
    par::Pool pool(4);
    std::atomic<unsigned> calls{0};
    pool.forEachIndexed(1, [&](std::size_t job, unsigned worker) {
        EXPECT_EQ(job, 0u);
        EXPECT_LT(worker, pool.workers());
        ++calls;
    });
    EXPECT_EQ(calls.load(), 1u);
}

TEST(Pool, ManyMoreJobsThanWorkersEachRunsOnce)
{
    par::Pool pool(4);
    constexpr std::size_t kJobs = 203;
    std::vector<std::atomic<unsigned>> runs(kJobs);
    pool.forEachIndexed(kJobs, [&](std::size_t job, unsigned worker) {
        EXPECT_LT(worker, pool.workers());
        ++runs[job];
    });
    for (std::size_t job = 0; job < kJobs; ++job)
        EXPECT_EQ(runs[job].load(), 1u) << "job " << job;
}

TEST(Pool, SingleWorkerRunsInlineInOrder)
{
    par::Pool pool(1);
    EXPECT_EQ(pool.workers(), 1u);
    std::vector<std::size_t> order;
    std::thread::id caller = std::this_thread::get_id();
    pool.forEachIndexed(9, [&](std::size_t job, unsigned worker) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(worker, 0u);
        order.push_back(job);
    });
    ASSERT_EQ(order.size(), 9u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Pool, NullPoolHelperIsTheSerialLoop)
{
    std::vector<std::size_t> order;
    par::forEachIndexed(nullptr, 5, [&](std::size_t job, unsigned) {
        order.push_back(job);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Pool, LowestIndexExceptionWinsAndPoolSurvives)
{
    par::Pool pool(4);
    for (int round = 0; round < 2; ++round) {
        std::atomic<unsigned> ran{0};
        try {
            pool.forEachIndexed(16, [&](std::size_t job, unsigned) {
                ++ran;
                if (job == 11)
                    throw std::runtime_error("job 11");
                if (job == 3)
                    throw std::runtime_error("job 3");
            });
            FAIL() << "batch should have rethrown";
        } catch (const std::runtime_error &error) {
            EXPECT_STREQ(error.what(), "job 3");
        }
        // Jobs are not cancelled, so the whole batch still ran.
        EXPECT_EQ(ran.load(), 16u);
    }
}

TEST(Pool, MapReduceFoldsInIndexOrder)
{
    par::Pool pool(4);
    std::vector<std::size_t> folded = par::mapReduce<std::size_t>(
        &pool, 50, std::vector<std::size_t>{},
        [](std::size_t job, unsigned) { return job * 3; },
        [](std::vector<std::size_t> &acc, const std::size_t &value,
           std::size_t) { acc.push_back(value); });
    ASSERT_EQ(folded.size(), 50u);
    for (std::size_t i = 0; i < folded.size(); ++i)
        EXPECT_EQ(folded[i], i * 3);
}

// ---------------------------------------------------------------------
// Seeding and the jobs flag

TEST(Seeds, JobSeedMatchesInjectTrialSeed)
{
    // The inject journal format pins this derivation; par::jobSeed and
    // inject::trialSeed must stay the same function forever.
    for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
        for (std::uint64_t index : {0ull, 1ull, 63ull, 1000ull})
            EXPECT_EQ(par::jobSeed(seed, index),
                      inject::trialSeed(seed, index));
    }
}

TEST(Seeds, StreamsAreIndependent)
{
    std::uint64_t a = par::jobSeed(7, 0);
    std::uint64_t b = par::jobSeed(7, 1);
    EXPECT_NE(a, b);
    EXPECT_NE(par::splitmix64(a), par::splitmix64(b));
}

TEST(Flags, ConsumeJobsFlagForms)
{
    auto parse = [](std::vector<const char *> args, unsigned expect,
                    std::vector<const char *> left) {
        std::vector<char *> argv;
        for (const char *arg : args)
            argv.push_back(const_cast<char *>(arg));
        argv.push_back(nullptr);
        int argc = static_cast<int>(args.size());
        EXPECT_EQ(par::consumeJobsFlag(argc, argv.data()), expect);
        ASSERT_EQ(static_cast<std::size_t>(argc), left.size());
        for (int i = 0; i < argc; ++i)
            EXPECT_STREQ(argv[i], left[static_cast<std::size_t>(i)]);
    };
    parse({"prog", "-j", "5", "x"}, 5, {"prog", "x"});
    parse({"prog", "-j3"}, 3, {"prog"});
    parse({"prog", "a", "--jobs", "7"}, 7, {"prog", "a"});
    parse({"prog", "--jobs=2", "b"}, 2, {"prog", "b"});
    parse({"prog", "b"}, par::defaultJobs(), {"prog", "b"});
}

// ---------------------------------------------------------------------
// End-to-end determinism: parallel == serial, byte for byte

Workload
sweepWorkload(std::uint64_t seed)
{
    RandomProgramOptions options;
    options.bodyLength = 8;
    options.iterations = 6;
    return makeWorkload(generateRandomProgram(seed, options));
}

TEST(Determinism, PoolSizeSweepMatchesSerial)
{
    std::vector<Workload> workloads = {sweepWorkload(11),
                                       sweepWorkload(12),
                                       sweepWorkload(13)};
    std::vector<unsigned> sizes = {3, 8, 15};

    AggregateResult serial_base = runSuite(
        CoreKind::Simple, UarchConfig::cray1(), workloads, nullptr);
    auto serial = sweepPoolSize(CoreKind::Ruu, UarchConfig::cray1(),
                                sizes, workloads, serial_base.cycles,
                                nullptr);

    par::Pool pool(8);
    AggregateResult par_base = runSuite(
        CoreKind::Simple, UarchConfig::cray1(), workloads, &pool);
    auto parallel = sweepPoolSize(CoreKind::Ruu, UarchConfig::cray1(),
                                  sizes, workloads, par_base.cycles,
                                  &pool);

    EXPECT_EQ(par_base.cycles, serial_base.cycles);
    EXPECT_EQ(par_base.instructions, serial_base.instructions);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].entries, serial[i].entries);
        EXPECT_EQ(parallel[i].total.cycles, serial[i].total.cycles);
        EXPECT_EQ(parallel[i].total.instructions,
                  serial[i].total.instructions);
        EXPECT_EQ(parallel[i].speedup, serial[i].speedup);
    }
}

TEST(Determinism, InterruptSweepMatchesSerial)
{
    Workload workload = sweepWorkload(21);
    UarchConfig config = UarchConfig::cray1();

    oracle::SweepOptions options;
    options.maxPoints = 24;
    auto serial_core = makeCore(CoreKind::Ruu, config);
    oracle::SweepResult serial =
        oracle::sweepInterrupts(*serial_core, workload, options);

    par::Pool pool(8);
    options.pool = &pool;
    options.coreFactory = [&config] {
        return makeCore(CoreKind::Ruu, config);
    };
    auto par_core = makeCore(CoreKind::Ruu, config);
    oracle::SweepResult parallel =
        oracle::sweepInterrupts(*par_core, workload, options);

    EXPECT_EQ(parallel.points, serial.points);
    EXPECT_EQ(parallel.faultable, serial.faultable);
    EXPECT_EQ(parallel.failures, serial.failures);
    EXPECT_EQ(parallel.precisePoints, serial.precisePoints);
    EXPECT_EQ(parallel.resumedExact, serial.resumedExact);
    EXPECT_EQ(parallel.firstFailure, serial.firstFailure);
    EXPECT_EQ(parallel.firstFailureSeq, serial.firstFailureSeq);
}

TEST(Determinism, InjectJournalIsByteIdenticalAtAnyJobCount)
{
    auto campaign = [](unsigned jobs, const std::string &journal) {
        Workload workload = sweepWorkload(31);
        inject::CampaignOptions options;
        options.cores = {CoreKind::Ruu, CoreKind::History};
        options.workloads = {workload};
        options.trials = 64;
        options.seed = 5;
        options.timeoutMs = 30'000;
        options.journalPath = journal;
        options.jobs = jobs;
        auto summary = inject::runCampaign(options);
        ASSERT_TRUE(summary) << summary.error().message();
        EXPECT_EQ(summary->trials.size(), 64u);
    };
    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };

    std::string serial_path =
        ::testing::TempDir() + "par_campaign_serial.jsonl";
    std::string par_path =
        ::testing::TempDir() + "par_campaign_par.jsonl";
    std::remove(serial_path.c_str());
    std::remove(par_path.c_str());

    campaign(1, serial_path);
    campaign(8, par_path);

    std::string serial = slurp(serial_path);
    std::string parallel = slurp(par_path);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(parallel, serial);

    std::remove(serial_path.c_str());
    std::remove(par_path.c_str());
}

// ---------------------------------------------------------------------
// The resource-bound memo (the sweep hot path)

TEST(BoundCache, SweepHitsTheMemo)
{
    std::vector<Workload> workloads = {sweepWorkload(41)};
    // Counters are process-global; a parallel test runner (or the other
    // tests in this binary) may bump them concurrently, so assert on
    // deltas and lower bounds only.
    lint::BoundCacheStats before = lint::resourceBoundCacheStats();

    // Every run in the sweep asserts the bound for the same (trace,
    // resource-config) key — poolEntries is excluded from the key — so
    // only the first compute may miss.
    par::Pool pool(4);
    AggregateResult base = runSuite(
        CoreKind::Simple, UarchConfig::cray1(), workloads, &pool);
    sweepPoolSize(CoreKind::Ruu, UarchConfig::cray1(), {3, 8, 15},
                  workloads, base.cycles, &pool);

    lint::BoundCacheStats after = lint::resourceBoundCacheStats();
    std::uint64_t lookups = after.lookups - before.lookups;
    std::uint64_t hits = after.hits - before.hits;
    // 1 baseline run + 1 per-workload sweep bound + 3 sweep points on
    // one workload: 5 lookups, and at most one compute.
    EXPECT_GE(lookups, 5u);
    EXPECT_GE(hits, lookups - 1);
}

TEST(BoundCache, SweepMemoHitsUnderManyWorkers)
{
    // The regression this pins: the memo's counters were only ever
    // exercised serially, so a racy lookup/hit path would go unnoticed.
    // Hammer one key from an 8-worker pool; every lookup past the first
    // compute must hit, and the totals must stay coherent.
    Workload workload = sweepWorkload(51);
    UarchConfig config = UarchConfig::cray1();
    // Distinct resultBuses value keeps this key private to the test,
    // so the first lookup below is the key's first ever compute.
    config.resultBuses = 3;
    const lint::ResourceBound &warm =
        lint::cachedResourceBound(workload.trace(), config);
    lint::BoundCacheStats before = lint::resourceBoundCacheStats();

    constexpr std::size_t kJobs = 32;
    par::Pool pool(8);
    std::vector<const lint::ResourceBound *> seen(kJobs);
    pool.forEachIndexed(kJobs, [&](std::size_t job, unsigned) {
        seen[job] =
            &lint::cachedResourceBound(workload.trace(), config);
    });

    lint::BoundCacheStats after = lint::resourceBoundCacheStats();
    // The key was warmed above, so every concurrent lookup must hit
    // (>= rather than == because other suites share the counters).
    EXPECT_GE(after.lookups - before.lookups, kJobs);
    EXPECT_GE(after.hits - before.hits, kJobs);
    for (const lint::ResourceBound *bound : seen)
        EXPECT_EQ(bound, &warm); // one stable cached entry
}

TEST(Determinism, PrunedSweepSimulatedPointsAreByteIdentical)
{
    std::vector<Workload> workloads = {sweepWorkload(61),
                                       sweepWorkload(62),
                                       sweepWorkload(63)};
    // Sizes far past saturation for these tiny loops: the pruner must
    // find a floor hit or plateau and derive the tail.
    std::vector<unsigned> sizes = {32, 48, 64, 80, 96};

    AggregateResult base = runSuite(
        CoreKind::Simple, UarchConfig::cray1(), workloads, nullptr);

    SweepOptions off;
    auto full = sweepPoolSize(CoreKind::Ruu, UarchConfig::cray1(), sizes,
                              workloads, base.cycles, nullptr, off);

    SweepOptions on;
    on.prune = true;
    par::Pool pool(8);
    auto pruned = sweepPoolSize(CoreKind::Ruu, UarchConfig::cray1(),
                                sizes, workloads, base.cycles, &pool, on);

    ASSERT_EQ(pruned.size(), full.size());
    std::size_t full_sims = 0;
    std::size_t pruned_sims = 0;
    for (std::size_t i = 0; i < full.size(); ++i) {
        // The pruning contract: derived points reproduce what the
        // simulation would have said, so the whole table matches the
        // unpruned sweep byte for byte.
        EXPECT_EQ(pruned[i].entries, full[i].entries);
        EXPECT_EQ(pruned[i].total.cycles, full[i].total.cycles);
        EXPECT_EQ(pruned[i].total.instructions,
                  full[i].total.instructions);
        EXPECT_EQ(pruned[i].speedup, full[i].speedup);
        EXPECT_EQ(full[i].simulated, workloads.size());
        EXPECT_FALSE(full[i].derived);
        full_sims += full[i].simulated;
        pruned_sims += pruned[i].simulated;
    }
    // Saturated sizes: pruning must actually skip simulations.
    EXPECT_LT(pruned_sims, full_sims);
    EXPECT_TRUE(pruned.back().derived);
}

TEST(BoundCache, CachedBoundMatchesDirectComputation)
{
    Workload workload = sweepWorkload(42);
    UarchConfig config = UarchConfig::cray1();
    lint::DataflowBound direct =
        lint::dataflowBound(workload.trace(), config);
    const lint::DataflowBound &memo =
        lint::cachedDataflowBound(workload.trace(), config);
    EXPECT_EQ(memo.cycles, direct.cycles);
    // Same trace, same latencies: the second lookup must hit.
    lint::BoundCacheStats before = lint::boundCacheStats();
    lint::cachedDataflowBound(workload.trace(), config);
    lint::BoundCacheStats after = lint::boundCacheStats();
    EXPECT_EQ(after.hits - before.hits, 1u);
}

} // namespace
} // namespace ruu
