/**
 * @file
 * The crash-tolerant simulation service (src/serve/): protocol
 * round trips and strictness, the content-addressed result cache
 * (hit/miss accounting, corruption rejection), journal identity
 * pinning (the reader contract is test_journal.cc's), and the live
 * daemon end-to-end — batch submission with byte-identical payloads,
 * cache warm-up, queue shedding, deadline expiry, crashing jobs, and
 * the headline robustness property: SIGKILL mid-batch, restart,
 * resubmit, and every payload is byte-identical to a cold run.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/flat_json.hh"
#include "inject/campaign.hh"
#include "inject/journal.hh"
#include "kernels/lll.hh"
#include "serve/cache.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"
#include "serve/recovery.hh"
#include "serve/server.hh"
#include "serve/worker.hh"
#include "sim/json.hh"
#include "sim/machine.hh"

namespace ruu
{
namespace
{

using serve::JobStatus;
using serve::Op;
using serve::Request;

// ---------------------------------------------------------------------
// Protocol

TEST(ServeProtocol, SimpleOpsRoundTrip)
{
    for (Op op : {Op::Ping, Op::Status, Op::Run, Op::Shutdown}) {
        Request request;
        request.op = op;
        auto parsed = serve::parseRequest(serve::requestToLine(request));
        ASSERT_TRUE(parsed.ok()) << serve::opName(op);
        EXPECT_EQ(parsed->op, op);
    }
}

TEST(ServeProtocol, SubmitRoundTripsEveryField)
{
    Request request;
    request.op = Op::Submit;
    request.job.id = "job-\"7\"";
    request.job.program = "  amovi A1, 3\n  halt\n";
    request.job.name = "tiny";
    request.job.core = "history";
    request.job.configJson = "{\"pool_entries\": 12}";
    request.job.period = 250;
    request.job.deadlineMs = 1234;
    auto parsed = serve::parseRequest(serve::requestToLine(request));
    ASSERT_TRUE(parsed.ok()) << parsed.error().message();
    EXPECT_EQ(parsed->op, Op::Submit);
    EXPECT_EQ(parsed->job.id, request.job.id);
    EXPECT_EQ(parsed->job.program, request.job.program);
    EXPECT_EQ(parsed->job.name, request.job.name);
    EXPECT_EQ(parsed->job.core, request.job.core);
    EXPECT_EQ(parsed->job.configJson, request.job.configJson);
    EXPECT_EQ(parsed->job.period, request.job.period);
    EXPECT_EQ(parsed->job.deadlineMs, request.job.deadlineMs);
}

TEST(ServeProtocol, DefaultsAreOmittedAndRestored)
{
    Request request;
    request.op = Op::Submit;
    request.job.id = "k";
    request.job.workload = "lll01";
    std::string line = serve::requestToLine(request);
    EXPECT_EQ(line.find("period"), std::string::npos);
    EXPECT_EQ(line.find("config"), std::string::npos);
    auto parsed = serve::parseRequest(line);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->job.core, "ruu");
    EXPECT_EQ(parsed->job.period, 0u);
    EXPECT_EQ(parsed->job.deadlineMs, 0u);
}

TEST(ServeProtocol, MalformedRequestsAreRejected)
{
    const char *bad[] = {
        "",                                     // not an object
        "garbage",                              // not JSON
        "{\"op\": \"explode\"}",                // unknown op
        "{\"op\": \"ping\", \"extra\": 1}",     // stray key on ping
        "{\"op\": \"submit\"}",                 // no id, no job
        "{\"op\": \"submit\", \"id\": \"\", \"workload\": \"lll01\"}",
        "{\"op\": \"submit\", \"id\": \"a\"}",  // neither source
        "{\"op\": \"submit\", \"id\": \"a\", \"workload\": \"lll01\", "
        "\"program\": \"halt\"}",               // both sources
        "{\"op\": \"submit\", \"id\": \"a\", \"workload\": \"lll01\", "
        "\"bogus\": \"x\"}",                    // unknown key
        "{\"op\": \"submit\", \"id\": \"a\", \"workload\": \"lll01\", "
        "\"period\": \"soon\"}",                // ill-typed value
        "{\"op\": 7}",                          // ill-typed op
    };
    for (const char *line : bad)
        EXPECT_FALSE(serve::parseRequest(line).ok()) << line;
}

TEST(ServeProtocol, ResultLinesParseAsFlatJson)
{
    std::string line = serve::resultToLine(
        "id-1", JobStatus::Done, true, "{\"cycles\": 12}");
    auto object = flat::parseObject(line);
    ASSERT_TRUE(object.ok()) << line;
    EXPECT_EQ(flat::getNumber(*object, "ok").value(), 1u);
    EXPECT_EQ(flat::getString(*object, "id").value(), "id-1");
    EXPECT_EQ(flat::getString(*object, "status").value(), "done");
    EXPECT_EQ(flat::getNumber(*object, "cached").value(), 1u);
    EXPECT_EQ(flat::getString(*object, "payload").value(),
              "{\"cycles\": 12}");

    line = serve::resultToLine("id-2", JobStatus::TimedOut, false,
                               "deadline (5 ms) expired");
    object = flat::parseObject(line);
    ASSERT_TRUE(object.ok()) << line;
    EXPECT_EQ(flat::getNumber(*object, "ok").value(), 0u);
    EXPECT_EQ(flat::getString(*object, "status").value(), "timed-out");
    EXPECT_EQ(flat::getString(*object, "error").value(),
              "deadline (5 ms) expired");
}

// ---------------------------------------------------------------------
// Content-addressed cache

class ServeDirs : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/ruu_serve_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        _dir = tmpl;
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(_dir, ec);
    }

    std::string dir(const char *leaf) const { return _dir + "/" + leaf; }

    std::string _dir;
};

serve::CacheKeyInputs
sampleInputs()
{
    serve::CacheKeyInputs inputs;
    inputs.displayName = "lll01";
    inputs.traceFingerprint = 0x1234;
    inputs.traceLength = 900;
    inputs.configJson = "{\"pool_entries\": 12}";
    inputs.core = "ruu";
    inputs.period = 0;
    return inputs;
}

TEST(ServeCache, KeySeparatesEveryInput)
{
    serve::CacheKeyInputs base = sampleInputs();
    std::uint64_t key = serve::cacheKey(base);
    EXPECT_EQ(key, serve::cacheKey(base)) << "key not deterministic";

    auto differs = [&](auto mutate) {
        serve::CacheKeyInputs other = base;
        mutate(other);
        return serve::cacheKey(other) != key;
    };
    EXPECT_TRUE(differs([](auto &i) { i.displayName = "lll02"; }));
    EXPECT_TRUE(differs([](auto &i) { i.traceFingerprint ^= 1; }));
    EXPECT_TRUE(differs([](auto &i) { i.traceLength += 1; }));
    EXPECT_TRUE(differs([](auto &i) { i.configJson = "{}"; }));
    EXPECT_TRUE(differs([](auto &i) { i.core = "history"; }));
    EXPECT_TRUE(differs([](auto &i) { i.period = 100; }));

    // Field-boundary collisions: moving a character across the
    // name/config boundary must change the key.
    serve::CacheKeyInputs shifted = base;
    shifted.displayName = base.displayName + "{";
    shifted.configJson = base.configJson.substr(1);
    EXPECT_NE(serve::cacheKey(shifted), key);
}

TEST_F(ServeDirs, CacheStoresAndLoadsByteIdentically)
{
    serve::ResultCache cache(dir("cache"));
    std::uint64_t key = serve::cacheKey(sampleInputs());
    const std::string payload =
        "{\"workload\": \"lll01\", \"cycles\": 777}";

    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_EQ(cache.stats().misses, 1u);
    ASSERT_TRUE(cache.store(key, payload).ok());
    auto hit = cache.load(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, payload);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);
    EXPECT_EQ(cache.entriesOnDisk(), 1u);

    // A second cache over the same directory sees the entry.
    serve::ResultCache reopened(dir("cache"));
    auto again = reopened.load(key);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, payload);
}

TEST_F(ServeDirs, CacheDropsCorruptEntries)
{
    serve::ResultCache cache(dir("cache"));
    std::uint64_t key = serve::cacheKey(sampleInputs());
    ASSERT_TRUE(cache.store(key, "{\"cycles\": 1}").ok());

    // Flip one payload byte on disk.
    std::string path =
        dir("cache") + "/" + serve::keyToHex(key) + ".entry";
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    std::string text((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
    std::size_t at = text.rfind("1}");
    ASSERT_NE(at, std::string::npos);
    file.seekp(static_cast<std::streamoff>(at));
    file.put('2');
    file.close();

    EXPECT_FALSE(cache.load(key).has_value())
        << "corrupt entry served as a hit";
    EXPECT_EQ(cache.stats().dropped, 1u);
    EXPECT_EQ(cache.entriesOnDisk(), 0u) << "corrupt entry not deleted";

    // The degradation path: recompute and store again, then hit.
    ASSERT_TRUE(cache.store(key, "{\"cycles\": 1}").ok());
    EXPECT_TRUE(cache.load(key).has_value());
}

TEST_F(ServeDirs, CacheDropsEntriesOfAnOlderVersion)
{
    // Version 1 keyed kernels and programs on a sampled fingerprint
    // that never read the instruction; an intact entry in its format
    // must read as a miss and be deleted, never served.
    serve::ResultCache cache(dir("cache"));
    std::uint64_t key = serve::cacheKey(sampleInputs());
    ASSERT_TRUE(cache.store(key, "{\"cycles\": 364}").ok());
    std::string path =
        dir("cache") + "/" + serve::keyToHex(key) + ".entry";
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    std::size_t at = text.find("\"version\": 2");
    ASSERT_NE(at, std::string::npos) << text;
    text.replace(at, 12, "\"version\": 1");
    std::ofstream(path, std::ios::trunc) << text;

    EXPECT_FALSE(cache.load(key).has_value())
        << "a version-1 entry was served";
    EXPECT_EQ(cache.stats().dropped, 1u);
    EXPECT_EQ(cache.entriesOnDisk(), 0u);
}

TEST_F(ServeDirs, CacheVerifyAgainstJournalRecord)
{
    serve::ResultCache cache(dir("cache"));
    std::uint64_t key = serve::cacheKey(sampleInputs());
    const std::string payload = "{\"cycles\": 9}";
    ASSERT_TRUE(cache.store(key, payload).ok());

    EXPECT_TRUE(cache.verifyAgainst(key, serve::fnv1a(payload),
                                    payload.size()));
    EXPECT_EQ(cache.entriesOnDisk(), 1u);

    // A journal record that disagrees deletes the entry.
    EXPECT_FALSE(cache.verifyAgainst(key, serve::fnv1a(payload) ^ 1,
                                     payload.size()));
    EXPECT_EQ(cache.entriesOnDisk(), 0u);
    EXPECT_FALSE(cache.verifyAgainst(key, serve::fnv1a(payload),
                                     payload.size()))
        << "absent entry verified";
}

// ---------------------------------------------------------------------
// Live daemon, end to end

/** The payload a cold `ruusim run <kernel> --core ruu --json` emits. */
std::string
coldPayload(const std::string &kernel)
{
    for (const Workload &workload : livermoreWorkloads())
        if (workload.name == kernel) {
            auto core = makeCore(CoreKind::Ruu, UarchConfig::cray1());
            RunResult run = core->run(workload.trace());
            return runToJson(workload.name, core->name(), run,
                             core->stats());
        }
    ADD_FAILURE() << "unknown kernel " << kernel;
    return "";
}

std::string
submitLine(const std::string &id, const std::string &kernel)
{
    Request request;
    request.op = Op::Submit;
    request.job.id = id;
    request.job.workload = kernel;
    return serve::requestToLine(request);
}

/** Connect with the startup-race retry policy the CLI uses. */
void
connectClient(serve::ServeClient &client, const std::string &socket)
{
    BackoffPolicy retry;
    retry.baseUs = 5'000;
    retry.capUs = 200'000;
    retry.maxRetries = 20;
    auto connected = client.connect(socket, retry);
    ASSERT_TRUE(connected.ok()) << connected.error().message();
}

/** One result line, parsed and sanity-checked. */
flat::Object
readResult(serve::ServeClient &client)
{
    auto line = client.recvLine();
    EXPECT_TRUE(line.ok()) << line.error().message();
    auto object = flat::parseObject(line.ok() ? *line : "{}");
    EXPECT_TRUE(object.ok()) << (line.ok() ? *line : "");
    return object.ok() ? *object : flat::Object{};
}

TEST_F(ServeDirs, DaemonServesCachesAndSurvivesHostileJobs)
{
    serve::ServerOptions options;
    options.workerPath = RUU_WORKER;
    options.socketPath = dir("sock");
    options.cacheDir = dir("cache");
    options.journalPath = dir("journal");
    options.jobs = 4;
    options.defaultDeadlineMs = 60'000;
    serve::ServerStats stats;
    std::thread daemon([&] {
        auto result = serve::runServer(options, &stats);
        EXPECT_TRUE(result.ok()) << result.error().message();
    });

    serve::ServeClient client;
    connectClient(client, options.socketPath);

    // Ping.
    auto pong = client.request("{\"op\": \"ping\"}");
    ASSERT_TRUE(pong.ok()) << pong.error().message();
    EXPECT_EQ(*pong, "{\"ok\": 1, \"op\": \"ping\"}");

    // A malformed line answers with a diagnostic, not a dead daemon.
    auto bad = client.request("{\"op\": \"explode\"}");
    ASSERT_TRUE(bad.ok());
    auto badObject = flat::parseObject(*bad);
    ASSERT_TRUE(badObject.ok());
    EXPECT_EQ(flat::getNumber(*badObject, "ok").value(), 0u);

    // First batch: three kernels plus one hostile program (fails to
    // assemble → rejected) — cold, so everything is a miss.
    const std::vector<std::string> kernels = {"lll01", "lll02",
                                              "lll03"};
    for (const std::string &kernel : kernels) {
        auto ack = client.request(submitLine("job-" + kernel, kernel));
        ASSERT_TRUE(ack.ok());
        auto object = flat::parseObject(*ack);
        ASSERT_TRUE(object.ok()) << *ack;
        EXPECT_EQ(flat::getNumber(*object, "ok").value(), 1u);
        EXPECT_EQ(flat::getString(*object, "id").value(),
                  "job-" + kernel);
    }
    Request hostile;
    hostile.op = Op::Submit;
    hostile.job.id = "job-hostile";
    hostile.job.program = "  florp S1, A9, $!\n  halt\n";
    hostile.job.name = "bad-asm";
    {
        auto ack = client.request(serve::requestToLine(hostile));
        ASSERT_TRUE(ack.ok());
        EXPECT_NE(ack->find("\"ok\": 1"), std::string::npos) << *ack;
    }

    ASSERT_TRUE(client.sendLine("{\"op\": \"run\"}").ok());
    for (const std::string &kernel : kernels) {
        flat::Object result = readResult(client);
        EXPECT_EQ(flat::getString(result, "id").value(),
                  "job-" + kernel);
        EXPECT_EQ(flat::getString(result, "status").value(), "done");
        EXPECT_EQ(flat::getNumber(result, "cached").value(), 0u);
        EXPECT_EQ(flat::getString(result, "payload").value(),
                  coldPayload(kernel))
            << kernel << ": served payload differs from a cold run";
    }
    {
        flat::Object result = readResult(client);
        EXPECT_EQ(flat::getString(result, "id").value(), "job-hostile");
        EXPECT_EQ(flat::getString(result, "status").value(),
                  "rejected");
    }
    flat::Object summary = readResult(client);
    EXPECT_EQ(flat::getNumber(summary, "jobs").value(), 4u);
    EXPECT_EQ(flat::getNumber(summary, "done").value(), 3u);
    EXPECT_EQ(flat::getNumber(summary, "failed").value(), 1u);
    EXPECT_EQ(flat::getNumber(summary, "cache_hits").value(), 0u);

    // Second batch, same kernels: all hits, byte-identical payloads.
    for (const std::string &kernel : kernels)
        ASSERT_TRUE(
            client.sendLine(submitLine("again-" + kernel, kernel)).ok());
    for (const std::string &kernel : kernels) {
        (void)kernel;
        readResult(client); // submit acks
    }
    ASSERT_TRUE(client.sendLine("{\"op\": \"run\"}").ok());
    for (const std::string &kernel : kernels) {
        flat::Object result = readResult(client);
        EXPECT_EQ(flat::getString(result, "status").value(), "done");
        EXPECT_EQ(flat::getNumber(result, "cached").value(), 1u);
        EXPECT_EQ(flat::getString(result, "payload").value(),
                  coldPayload(kernel));
    }
    summary = readResult(client);
    EXPECT_EQ(flat::getNumber(summary, "cache_hits").value(), 3u);

    // Corrupt one cache entry on disk; the job recomputes (a miss)
    // and still lands the byte-identical payload.
    bool corrupted = false;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir("cache"))) {
        std::fstream file(entry.path(), std::ios::in | std::ios::out |
                                            std::ios::binary);
        file.seekp(-2, std::ios::end);
        file.put('X');
        corrupted = true;
        break;
    }
    ASSERT_TRUE(corrupted);
    std::uint64_t cleanEntries = 0;
    for (const std::string &kernel : kernels) {
        ASSERT_TRUE(
            client.sendLine(submitLine("third-" + kernel, kernel)).ok());
        readResult(client);
    }
    ASSERT_TRUE(client.sendLine("{\"op\": \"run\"}").ok());
    for (const std::string &kernel : kernels) {
        flat::Object result = readResult(client);
        EXPECT_EQ(flat::getString(result, "status").value(), "done");
        EXPECT_EQ(flat::getString(result, "payload").value(),
                  coldPayload(kernel));
        cleanEntries += flat::getNumber(result, "cached").value();
    }
    EXPECT_EQ(cleanEntries, 2u) << "exactly one entry was corrupted";
    readResult(client); // summary

    // Status reflects all of it.
    auto status = client.request("{\"op\": \"status\"}");
    ASSERT_TRUE(status.ok());
    auto statusObject = flat::parseObject(*status);
    ASSERT_TRUE(statusObject.ok()) << *status;
    EXPECT_EQ(flat::getNumber(*statusObject, "jobs_done").value(), 9u);
    EXPECT_EQ(flat::getNumber(*statusObject, "jobs_rejected").value(),
              1u);
    EXPECT_EQ(flat::getNumber(*statusObject, "cache_dropped").value(),
              1u);
    EXPECT_EQ(flat::getNumber(*statusObject, "bad_requests").value(),
              1u);
    EXPECT_EQ(flat::getNumber(*statusObject, "cache_entries").value(),
              3u);
    // Four misses ran on at most three concurrent workers, all alive.
    std::uint64_t spawns =
        flat::getNumber(*statusObject, "worker_spawns").value();
    EXPECT_GE(spawns, 1u);
    EXPECT_LE(spawns, 3u);
    EXPECT_EQ(flat::getNumber(*statusObject, "workers").value(), spawns);

    auto gone = client.request("{\"op\": \"shutdown\"}");
    ASSERT_TRUE(gone.ok());
    daemon.join();
    EXPECT_EQ(stats.jobsDone, 9u);
    EXPECT_EQ(stats.jobsRejected, 1u);
}

TEST_F(ServeDirs, QueueOverflowShedsWithExplicitVerdict)
{
    serve::ServerOptions options;
    options.workerPath = RUU_WORKER;
    options.socketPath = dir("sock");
    options.queueLimit = 2;
    serve::ServerStats stats;
    std::thread daemon([&] {
        auto result = serve::runServer(options, &stats);
        EXPECT_TRUE(result.ok()) << result.error().message();
    });

    serve::ServeClient client;
    connectClient(client, options.socketPath);
    const char *kernels[] = {"lll01", "lll02", "lll03"};
    std::vector<flat::Object> acks;
    for (const char *kernel : kernels) {
        auto ack = client.request(submitLine(kernel, kernel));
        ASSERT_TRUE(ack.ok());
        auto object = flat::parseObject(*ack);
        ASSERT_TRUE(object.ok()) << *ack;
        acks.push_back(*object);
    }
    EXPECT_EQ(flat::getNumber(acks[0], "ok").value(), 1u);
    EXPECT_EQ(flat::getNumber(acks[1], "ok").value(), 1u);
    EXPECT_EQ(flat::getNumber(acks[2], "ok").value(), 0u);
    EXPECT_EQ(flat::getString(acks[2], "error").value(), "overloaded");
    EXPECT_EQ(flat::getNumber(acks[2], "queue_depth").value(), 2u);

    // The shed submit is not in the batch: exactly two results.
    ASSERT_TRUE(client.sendLine("{\"op\": \"run\"}").ok());
    for (int i = 0; i < 2; ++i) {
        flat::Object result = readResult(client);
        EXPECT_EQ(flat::getString(result, "status").value(), "done");
    }
    flat::Object summary = readResult(client);
    EXPECT_EQ(flat::getNumber(summary, "jobs").value(), 2u);

    ASSERT_TRUE(client.request("{\"op\": \"shutdown\"}").ok());
    daemon.join();
    EXPECT_EQ(stats.shed, 1u);
}

TEST_F(ServeDirs, DeadlineExpiryClassifiesTheJobNotTheDaemon)
{
    serve::ServerOptions options;
    options.workerPath = RUU_WORKER;
    options.socketPath = dir("sock");
    serve::ServerStats stats;
    std::thread daemon([&] {
        auto result = serve::runServer(options, &stats);
        EXPECT_TRUE(result.ok()) << result.error().message();
    });

    serve::ServeClient client;
    connectClient(client, options.socketPath);

    // ~900k dynamic instructions: the functional build is quick, but
    // the cycle-accurate run cannot finish inside a 1 ms deadline.
    Request slow;
    slow.op = Op::Submit;
    slow.job.id = "slow";
    slow.job.name = "slowpoke";
    slow.job.deadlineMs = 1;
    slow.job.program = "  amovi A1, 0\n"
                       "  amovi A6, 1\n"
                       "  amovi A5, 300000\n"
                       "loop:\n"
                       "  aadd A1, A1, A6\n"
                       "  asub A0, A1, A5\n"
                       "  jam loop\n"
                       "  halt\n";
    ASSERT_TRUE(client.request(serve::requestToLine(slow)).ok());
    ASSERT_TRUE(client.sendLine("{\"op\": \"run\"}").ok());

    flat::Object result = readResult(client);
    EXPECT_EQ(flat::getString(result, "id").value(), "slow");
    EXPECT_EQ(flat::getString(result, "status").value(), "timed-out");
    EXPECT_NE(flat::getString(result, "error").value().find("deadline"),
              std::string::npos);
    flat::Object summary = readResult(client);
    EXPECT_EQ(flat::getNumber(summary, "failed").value(), 1u);

    // The daemon is fine: a normal job still runs to completion.
    ASSERT_TRUE(client.request(submitLine("ok", "lll01")).ok());
    ASSERT_TRUE(client.sendLine("{\"op\": \"run\"}").ok());
    result = readResult(client);
    EXPECT_EQ(flat::getString(result, "status").value(), "done");
    readResult(client); // summary

    ASSERT_TRUE(client.request("{\"op\": \"shutdown\"}").ok());
    daemon.join();
    EXPECT_EQ(stats.jobsTimedOut, 1u);
}

// ---------------------------------------------------------------------
// Kernels built on first use, content-keyed results, bounded configs

/** Send each of @p submits, then run the batch; the result lines. */
std::vector<flat::Object>
runBatch(serve::ServeClient &client, const std::vector<std::string> &submits)
{
    for (const std::string &submit : submits) {
        auto ack = client.request(submit);
        EXPECT_TRUE(ack.ok() && ack->find("\"ok\": 1") != std::string::npos)
            << (ack.ok() ? *ack : ack.error().message());
    }
    EXPECT_TRUE(client.sendLine("{\"op\": \"run\"}").ok());
    std::vector<flat::Object> results;
    for (std::size_t i = 0; i < submits.size(); ++i)
        results.push_back(readResult(client));
    readResult(client); // summary
    return results;
}

TEST_F(ServeDirs, ConcurrentFirstSubmissionsBuildEachKernelOnce)
{
    // No other test in this file names lll10..lll14, so this batch is
    // the first to resolve them: four concurrent jobs on one kernel
    // share its single build, and four different kernels resolve at
    // once, each payload still exactly what `ruusim run` prints.
    serve::ServerOptions options;
    options.workerPath = RUU_WORKER;
    options.socketPath = dir("sock");
    options.cacheDir = dir("cache");
    options.jobs = 4;
    options.defaultDeadlineMs = 60'000;
    serve::ServerStats stats;
    std::thread daemon([&] {
        auto result = serve::runServer(options, &stats);
        EXPECT_TRUE(result.ok()) << result.error().message();
    });
    serve::ServeClient client;
    connectClient(client, options.socketPath);

    const std::vector<std::string> kernels = {
        "lll10", "lll10", "lll10", "lll10",
        "lll11", "lll12", "lll13", "lll14"};
    std::vector<std::string> submits;
    for (std::size_t i = 0; i < kernels.size(); ++i)
        submits.push_back(submitLine("job" + std::to_string(i), kernels[i]));
    std::vector<flat::Object> results = runBatch(client, submits);
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        EXPECT_EQ(flat::getString(results[i], "status").value(), "done")
            << kernels[i];
        EXPECT_EQ(flat::getString(results[i], "payload").value(),
                  coldPayload(kernels[i]))
            << "job " << i << " (" << kernels[i] << ")";
    }

    ASSERT_TRUE(client.request("{\"op\": \"shutdown\"}").ok());
    daemon.join();
    EXPECT_EQ(stats.jobsDone, kernels.size());
}

TEST_F(ServeDirs, UnknownKernelAndOversizedConfigAreRejected)
{
    serve::ServerOptions options;
    options.workerPath = RUU_WORKER;
    options.socketPath = dir("sock");
    options.cacheDir = dir("cache");
    serve::ServerStats stats;
    std::thread daemon([&] {
        auto result = serve::runServer(options, &stats);
        EXPECT_TRUE(result.ok()) << result.error().message();
    });
    serve::ServeClient client;
    connectClient(client, options.socketPath);

    // Four billion pool entries parse, but used to abort the sandbox
    // on a failed allocation; validate() now refuses them up front.
    Request oversized;
    oversized.op = Op::Submit;
    oversized.job.id = "huge";
    oversized.job.workload = "lll01";
    oversized.job.configJson = "{\"pool_entries\": 4000000000}";
    std::vector<flat::Object> results = runBatch(
        client, {submitLine("bogus", "lll99"),
                 serve::requestToLine(oversized)});
    EXPECT_EQ(flat::getString(results[0], "status").value(), "rejected");
    EXPECT_EQ(flat::getString(results[0], "error").value(),
              "unknown workload 'lll99'");
    EXPECT_EQ(flat::getString(results[1], "status").value(), "rejected");
    EXPECT_EQ(flat::getString(results[1], "error").value(),
              "bad config: config JSON: poolEntries must be at most "
              "4096");

    ASSERT_TRUE(client.request("{\"op\": \"shutdown\"}").ok());
    daemon.join();
    EXPECT_EQ(stats.jobsRejected, 2u);
    EXPECT_EQ(stats.jobsCrashed, 0u);
}

/** examples/programs/fib.s. */
const char *const kFibSource =
    ".program fib\n"
    "    smovi S1, 0\n"
    "    smovi S2, 1\n"
    "    amovi A1, 0\n"
    "    amovi A6, 1\n"
    "    amovi A5, 24\n"
    "loop:\n"
    "    sts   2000(A1), S1\n"
    "    sadd  S3, S1, S2\n"
    "    movs  S1, S2\n"
    "    movs  S2, S3\n"
    "    aadd  A1, A1, A6\n"
    "    asub  A0, A1, A5\n"
    "    jam   loop\n"
    "    halt\n";

/** What `ruusim run` prints for @p source on the default RUU. */
std::string
programPayload(const std::string &source, const std::string &name)
{
    Workload workload = workloadFromSource(source, name);
    auto core = makeCore(CoreKind::Ruu, UarchConfig::cray1());
    RunResult run = core->run(workload.trace());
    return runToJson(workload.name, core->name(), run, core->stats());
}

TEST_F(ServeDirs, EditedProgramUnderTheSameNameIsRecomputed)
{
    // Regression: the key once sampled a few records' pc and address
    // and never the instruction, so fib.s with its sadd edited to an
    // fmul, resubmitted under the same name, was served the cached
    // 364 cycles of the original instead of its own 389.
    serve::ServerOptions options;
    options.workerPath = RUU_WORKER;
    options.socketPath = dir("sock");
    options.cacheDir = dir("cache");
    options.journalPath = dir("journal");
    serve::ServerStats stats;
    std::thread daemon([&] {
        auto result = serve::runServer(options, &stats);
        EXPECT_TRUE(result.ok()) << result.error().message();
    });
    serve::ServeClient client;
    connectClient(client, options.socketPath);

    std::string edited = kFibSource;
    edited.replace(edited.find("sadd"), 4, "fmul");
    auto program = [](const std::string &id, const std::string &text) {
        Request request;
        request.op = Op::Submit;
        request.job.id = id;
        request.job.program = text;
        request.job.name = "fib.s";
        return serve::requestToLine(request);
    };
    std::vector<flat::Object> results = runBatch(
        client, {program("original", kFibSource),
                 program("edited", edited), program("again", edited)});
    const std::string originalPayload =
        programPayload(kFibSource, "fib.s");
    const std::string editedPayload = programPayload(edited, "fib.s");
    ASSERT_NE(originalPayload.find("\"cycles\": 364,"), std::string::npos);
    ASSERT_NE(editedPayload.find("\"cycles\": 389,"), std::string::npos);

    EXPECT_EQ(flat::getString(results[0], "payload").value(),
              originalPayload);
    EXPECT_EQ(flat::getNumber(results[1], "cached").value(), 0u)
        << "the edited program hit the original's entry";
    EXPECT_EQ(flat::getString(results[1], "payload").value(),
              editedPayload);
    // An unchanged resubmission still hits.
    EXPECT_EQ(flat::getNumber(results[2], "cached").value(), 1u);
    EXPECT_EQ(flat::getString(results[2], "payload").value(),
              editedPayload);

    ASSERT_TRUE(client.request("{\"op\": \"shutdown\"}").ok());
    daemon.join();
}

TEST_F(ServeDirs, InjectUnitBuildsTheKernelItNames)
{
    // No job or other test in this file names lll09, so the campaign
    // unit is the first to resolve it. Each line is pinned to what
    // `ruusim inject lll09 --cores ruu --trials 2 --seed 7
    // --replay-trial N --json` printed before kernels were built on
    // first use.
    serve::ServerOptions options;
    options.workerPath = RUU_WORKER;
    options.socketPath = dir("sock");
    options.cacheDir = dir("cache");
    options.jobs = 2;
    options.defaultDeadlineMs = 60'000;
    serve::ServerStats stats;
    std::thread daemon([&] {
        auto result = serve::runServer(options, &stats);
        EXPECT_TRUE(result.ok()) << result.error().message();
    });
    serve::ServeClient client;
    connectClient(client, options.socketPath);

    Request request;
    request.op = Op::Campaign;
    request.campaign.id = "inject:lll09";
    request.campaign.kind = serve::CampaignKind::Inject;
    request.campaign.workloads = {"lll09"};
    request.campaign.cores = {"ruu"};
    request.campaign.trials = 2;
    request.campaign.seed = 7;
    auto ack = client.request(serve::requestToLine(request));
    ASSERT_TRUE(ack.ok());
    EXPECT_NE(ack->find("\"units\": 2"), std::string::npos) << *ack;

    const char *const expected[] = {
        "{\"index\": 0, \"seed\": 17039259473404265729, \"core\": "
        "\"ruu\", \"workload\": \"lll09\", \"cycle\": 11807, \"bit\": "
        "3807, \"port\": \"loadReg[5].value (data, 64 bits) bit 23\", "
        "\"before\": 0, \"after\": 8388608, \"outcome\": \"masked\", "
        "\"cycles\": 18795, \"retries\": 0, \"detail\": \"\"}",
        "{\"index\": 1, \"seed\": 11307387092600937729, \"core\": "
        "\"ruu\", \"workload\": \"lll09\", \"cycle\": 3964, \"bit\": "
        "12090, \"port\": \"bus[61].cycle (sequence, 32 bits) bit 20\", "
        "\"before\": 0, \"after\": 1048576, \"outcome\": \"masked\", "
        "\"cycles\": 18795, \"retries\": 0, \"detail\": \"\"}",
    };
    Request watch;
    watch.op = Op::Watch;
    watch.target = "inject:lll09";
    ASSERT_TRUE(client.sendLine(serve::requestToLine(watch)).ok());
    for (const char *line : expected) {
        flat::Object unit = readResult(client);
        EXPECT_EQ(flat::getString(unit, "status").value(), "done");
        EXPECT_EQ(flat::getString(unit, "payload").value(), line);
    }
    flat::Object summary = readResult(client);
    EXPECT_EQ(flat::getNumber(summary, "ok").value(), 1u);

    ASSERT_TRUE(client.request("{\"op\": \"shutdown\"}").ok());
    daemon.join();
    EXPECT_EQ(stats.unitsDone, 2u);
}

// ---------------------------------------------------------------------
// Reusable job workers

/** The live `workers` and cumulative `worker_spawns` of a status. */
std::pair<std::uint64_t, std::uint64_t>
workerCounts(serve::ServeClient &client)
{
    auto status = client.request("{\"op\": \"status\"}");
    EXPECT_TRUE(status.ok());
    auto object = flat::parseObject(status.ok() ? *status : "{}");
    EXPECT_TRUE(object.ok());
    return {flat::getNumber(*object, "workers").value(),
            flat::getNumber(*object, "worker_spawns").value()};
}

/** Worker processes this test process spawned (its daemon thread's). */
std::vector<pid_t>
workerPids()
{
    std::vector<pid_t> pids;
    for (const auto &entry : std::filesystem::directory_iterator("/proc")) {
        const std::string name = entry.path().filename();
        if (name.find_first_not_of("0123456789") != std::string::npos)
            continue;
        std::ifstream cmdline(entry.path() / "cmdline");
        std::string argv((std::istreambuf_iterator<char>(cmdline)),
                         std::istreambuf_iterator<char>());
        std::ifstream stat(entry.path() / "stat");
        std::string statLine;
        std::getline(stat, statLine);
        // ppid is the second field after the parenthesized comm.
        std::size_t close = statLine.rfind(')');
        if (close == std::string::npos ||
            argv.find(serve::kWorkerArg) == std::string::npos)
            continue;
        std::istringstream fields(statLine.substr(close + 2));
        char state;
        pid_t ppid = 0;
        fields >> state >> ppid;
        if (ppid == ::getpid())
            pids.push_back(static_cast<pid_t>(std::stoi(name)));
    }
    return pids;
}

TEST_F(ServeDirs, WorkerKilledMidJobIsCrashedAndTheNextJobGetsAFreshOne)
{
    serve::ServerOptions options;
    options.workerPath = RUU_WORKER;
    options.socketPath = dir("sock");
    options.defaultDeadlineMs = 60'000;
    serve::ServerStats stats;
    std::thread daemon([&] {
        auto result = serve::runServer(options, &stats);
        EXPECT_TRUE(result.ok()) << result.error().message();
    });
    serve::ServeClient client;
    connectClient(client, options.socketPath);
    EXPECT_EQ(workerCounts(client),
              std::make_pair(std::uint64_t{0}, std::uint64_t{0}))
        << "a worker spawned before the first job";

    // Millions of dynamic instructions: still running when killed.
    Request slow;
    slow.op = Op::Submit;
    slow.job.id = "slow";
    slow.job.name = "slowpoke";
    slow.job.program = "  amovi A1, 0\n"
                       "  amovi A6, 1\n"
                       "  amovi A5, 2000000\n"
                       "loop:\n"
                       "  aadd A1, A1, A6\n"
                       "  asub A0, A1, A5\n"
                       "  jam loop\n"
                       "  halt\n";
    ASSERT_TRUE(client.request(serve::requestToLine(slow)).ok());
    ASSERT_TRUE(client.sendLine("{\"op\": \"run\"}").ok());
    // The daemon simulates the program once for its key before a
    // worker is spawned: allow for a sanitizer build's slowdown.
    std::vector<pid_t> pids;
    for (int i = 0; i < 120'000 && pids.empty(); ++i) {
        pids = workerPids();
        if (pids.empty())
            ::usleep(1000);
    }
    EXPECT_EQ(pids.size(), 1u) << "no worker took the job";
    for (pid_t pid : pids)
        EXPECT_EQ(::kill(pid, SIGKILL), 0);

    flat::Object result = readResult(client);
    EXPECT_EQ(flat::getString(result, "status").value(), "crashed");
    EXPECT_NE(flat::getString(result, "error").value().find("signal"),
              std::string::npos);
    readResult(client); // summary
    EXPECT_EQ(workerCounts(client),
              std::make_pair(std::uint64_t{0}, std::uint64_t{1}));

    ASSERT_TRUE(client.request(submitLine("next", "lll01")).ok());
    ASSERT_TRUE(client.sendLine("{\"op\": \"run\"}").ok());
    result = readResult(client);
    EXPECT_EQ(flat::getString(result, "status").value(), "done");
    EXPECT_EQ(flat::getString(result, "payload").value(),
              coldPayload("lll01"));
    readResult(client); // summary
    EXPECT_EQ(workerCounts(client),
              std::make_pair(std::uint64_t{1}, std::uint64_t{2}));

    ASSERT_TRUE(client.request("{\"op\": \"shutdown\"}").ok());
    daemon.join();
    EXPECT_EQ(stats.jobsCrashed, 1u);
    EXPECT_TRUE(workerPids().empty()) << "a worker outlived the daemon";
}

TEST_F(ServeDirs, OneWorkerServesAnEditAndResubmitByContent)
{
    // No cache, one worker: both programs run in the same process, one
    // after the other. The edit keeps every pc and address, and sits
    // at a record no sampled fingerprint reads, so only memos owned by
    // their trace keep the edited run from the original's stream.
    serve::ServerOptions options;
    options.workerPath = RUU_WORKER;
    options.socketPath = dir("sock");
    serve::ServerStats stats;
    std::thread daemon([&] {
        auto result = serve::runServer(options, &stats);
        EXPECT_TRUE(result.ok()) << result.error().message();
    });
    serve::ServeClient client;
    connectClient(client, options.socketPath);

    const std::string original = ".program edit\n"
                                 "    smovi S1, 3\n"
                                 "    sadd  S3, S1, S1\n"
                                 "    smovi S2, 1\n"
                                 "    amovi A1, 0\n"
                                 "    amovi A6, 1\n"
                                 "    amovi A5, 60\n"
                                 "loop:\n"
                                 "    sadd  S2, S2, S3\n"
                                 "    aadd  A1, A1, A6\n"
                                 "    asub  A0, A1, A5\n"
                                 "    jam   loop\n"
                                 "    halt\n";
    std::string edited = original;
    edited.replace(edited.find("sadd  S3"), 4, "fmul");
    auto program = [](const std::string &id, const std::string &text) {
        Request request;
        request.op = Op::Submit;
        request.job.id = id;
        request.job.program = text;
        request.job.name = "edit.s";
        return serve::requestToLine(request);
    };
    std::vector<flat::Object> results = runBatch(
        client, {program("original", original), program("edited", edited)});
    const std::string originalPayload = programPayload(original, "edit.s");
    const std::string editedPayload = programPayload(edited, "edit.s");
    ASSERT_NE(originalPayload, editedPayload);
    EXPECT_EQ(flat::getString(results[0], "payload").value(),
              originalPayload);
    EXPECT_EQ(flat::getString(results[1], "payload").value(),
              editedPayload);
    EXPECT_EQ(workerCounts(client),
              std::make_pair(std::uint64_t{1}, std::uint64_t{1}));

    ASSERT_TRUE(client.request("{\"op\": \"shutdown\"}").ok());
    daemon.join();
}

TEST_F(ServeDirs, ServedConfigKeepsEveryField)
{
    // configToJson once dropped six fields, so a submitted config lost
    // its mispredict penalty on the way to the daemon.
    serve::ServerOptions options;
    options.workerPath = RUU_WORKER;
    options.socketPath = dir("sock");
    serve::ServerStats stats;
    std::thread daemon([&] {
        auto result = serve::runServer(options, &stats);
        EXPECT_TRUE(result.ok()) << result.error().message();
    });
    serve::ServeClient client;
    connectClient(client, options.socketPath);

    UarchConfig config = UarchConfig::cray1();
    config.predictor = PredictorKind::AlwaysNotTaken;
    config.mispredictPenalty = 30;
    Request request;
    request.op = Op::Submit;
    request.job.id = "penalty";
    request.job.workload = "lll03";
    request.job.core = "spec_ruu";
    request.job.configJson = configToJson(config);
    std::vector<flat::Object> results =
        runBatch(client, {serve::requestToLine(request)});

    const Workload &workload = *sharedLivermoreWorkload("lll03");
    auto core = makeCore(CoreKind::SpecRuu, config);
    RunResult run = core->run(workload.trace());
    const std::string want =
        runToJson(workload.name, core->name(), run, core->stats());
    EXPECT_EQ(flat::getString(results[0], "payload").value(), want);
    EXPECT_NE(want.find("\"cycles\": 41001,"), std::string::npos);

    ASSERT_TRUE(client.request("{\"op\": \"shutdown\"}").ok());
    daemon.join();
}

// ---------------------------------------------------------------------
// The headline: SIGKILL mid-batch, restart, byte-identical results.

/** Fork a daemon process; returns its pid. */
pid_t
forkDaemon(const serve::ServerOptions &options)
{
    pid_t pid = ::fork();
    if (pid == 0) {
        auto result = serve::runServer(options);
        ::_exit(result.ok() ? *result : 111);
    }
    return pid;
}

TEST_F(ServeDirs, SigkillMidBatchRecoversByteIdentically)
{
    serve::ServerOptions options;
    options.workerPath = RUU_WORKER;
    options.socketPath = dir("sock");
    options.cacheDir = dir("cache");
    options.journalPath = dir("journal");
    options.jobs = 2;
    options.defaultDeadlineMs = 60'000;

    const std::vector<std::string> kernels = {"lll01", "lll02", "lll03",
                                              "lll04"};

    // First daemon: submit the batch, read two results, then SIGKILL
    // the daemon mid-batch — at least two completions are durable
    // (journal + cache), the rest is torn at some arbitrary point.
    pid_t first = forkDaemon(options);
    ASSERT_GT(first, 0);
    {
        serve::ServeClient client;
        connectClient(client, options.socketPath);
        for (const std::string &kernel : kernels) {
            auto ack = client.request(submitLine(kernel, kernel));
            ASSERT_TRUE(ack.ok()) << ack.error().message();
        }
        ASSERT_TRUE(client.sendLine("{\"op\": \"run\"}").ok());
        for (int i = 0; i < 2; ++i) {
            flat::Object result = readResult(client);
            EXPECT_EQ(flat::getString(result, "status").value(),
                      "done");
        }
        ASSERT_EQ(::kill(first, SIGKILL), 0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(first, &status, 0), first);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

    // Second daemon over the same journal + cache: recovery verifies
    // the durable prefix; the resubmitted batch must land every
    // payload byte-identical to a cold serial run.
    pid_t second = forkDaemon(options);
    ASSERT_GT(second, 0);
    {
        serve::ServeClient client;
        connectClient(client, options.socketPath);

        auto statusLine = client.request("{\"op\": \"status\"}");
        ASSERT_TRUE(statusLine.ok()) << statusLine.error().message();
        auto statusObject = flat::parseObject(*statusLine);
        ASSERT_TRUE(statusObject.ok()) << *statusLine;
        EXPECT_GE(flat::getNumber(*statusObject, "recovered").value(),
                  2u)
            << *statusLine;

        for (const std::string &kernel : kernels) {
            auto ack = client.request(submitLine(kernel, kernel));
            ASSERT_TRUE(ack.ok()) << ack.error().message();
        }
        ASSERT_TRUE(client.sendLine("{\"op\": \"run\"}").ok());
        std::uint64_t hits = 0;
        for (const std::string &kernel : kernels) {
            flat::Object result = readResult(client);
            EXPECT_EQ(flat::getString(result, "id").value(), kernel);
            EXPECT_EQ(flat::getString(result, "status").value(),
                      "done");
            EXPECT_EQ(flat::getString(result, "payload").value(),
                      coldPayload(kernel))
                << kernel
                << ": post-crash payload differs from a cold run";
            hits += flat::getNumber(result, "cached").value();
        }
        EXPECT_GE(hits, 2u) << "recovered completions were not reused";
        flat::Object summary = readResult(client);
        EXPECT_EQ(flat::getNumber(summary, "done").value(),
                  kernels.size());
        ASSERT_TRUE(client.request("{\"op\": \"shutdown\"}").ok());
    }
    ASSERT_EQ(::waitpid(second, &status, 0), second);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "restarted daemon did not exit cleanly";
}

// ---------------------------------------------------------------------
// Campaign queue: protocol, expansion, leases, durability, recovery.

TEST(ServeCampaignProtocol, CampaignWatchCancelRoundTrip)
{
    Request request;
    request.op = Op::Campaign;
    request.campaign.id = "storm:all \"quoted\"";
    request.campaign.kind = serve::CampaignKind::Storm;
    request.campaign.workloads = {"lll01", "lll02"};
    request.campaign.cores = {"ruu", "history"};
    request.campaign.periods = {16, 1024};
    request.campaign.configJson = "{\"pool_entries\": 12}";
    request.campaign.deadlineMs = 777;
    auto parsed = serve::parseRequest(serve::requestToLine(request));
    ASSERT_TRUE(parsed.ok()) << parsed.error().message();
    EXPECT_EQ(parsed->op, Op::Campaign);
    EXPECT_EQ(parsed->campaign.id, request.campaign.id);
    EXPECT_EQ(parsed->campaign.kind, request.campaign.kind);
    EXPECT_EQ(parsed->campaign.workloads, request.campaign.workloads);
    EXPECT_EQ(parsed->campaign.cores, request.campaign.cores);
    EXPECT_EQ(parsed->campaign.periods, request.campaign.periods);
    EXPECT_EQ(parsed->campaign.configJson, request.campaign.configJson);
    EXPECT_EQ(parsed->campaign.deadlineMs, request.campaign.deadlineMs);

    for (Op op : {Op::Watch, Op::Cancel}) {
        Request probe;
        probe.op = op;
        probe.target = "run:lll05";
        auto back = serve::parseRequest(serve::requestToLine(probe));
        ASSERT_TRUE(back.ok()) << serve::opName(op);
        EXPECT_EQ(back->op, op);
        EXPECT_EQ(back->target, "run:lll05");
    }

    const char *bad[] = {
        // storm without periods / non-storm with periods
        "{\"op\": \"campaign\", \"id\": \"a\", \"kind\": \"storm\", "
        "\"workloads\": \"lll01\", \"cores\": \"ruu\"}",
        "{\"op\": \"campaign\", \"id\": \"a\", \"kind\": \"run\", "
        "\"workloads\": \"lll01\", \"cores\": \"ruu\", "
        "\"periods\": \"16\"}",
        // inject without trials / non-inject with trials
        "{\"op\": \"campaign\", \"id\": \"a\", \"kind\": \"inject\", "
        "\"workloads\": \"lll01\", \"cores\": \"ruu\"}",
        "{\"op\": \"campaign\", \"id\": \"a\", \"kind\": \"run\", "
        "\"workloads\": \"lll01\", \"cores\": \"ruu\", \"trials\": 4}",
        // missing kind, workloads, cores, id
        "{\"op\": \"campaign\", \"id\": \"a\", "
        "\"workloads\": \"lll01\", \"cores\": \"ruu\"}",
        "{\"op\": \"campaign\", \"id\": \"a\", \"kind\": \"run\", "
        "\"cores\": \"ruu\"}",
        "{\"op\": \"campaign\", \"id\": \"a\", \"kind\": \"run\", "
        "\"workloads\": \"lll01\"}",
        "{\"op\": \"campaign\", \"kind\": \"run\", "
        "\"workloads\": \"lll01\", \"cores\": \"ruu\"}",
        // watch/cancel are exactly {op, id}
        "{\"op\": \"watch\"}",
        "{\"op\": \"watch\", \"id\": \"\"}",
        "{\"op\": \"cancel\", \"id\": \"a\", \"extra\": \"1\"}",
    };
    for (const char *line : bad)
        EXPECT_FALSE(serve::parseRequest(line).ok()) << line;

    // The shared flat-dialect helpers reject with their own messages:
    // a non-numeric list item, and a journal record's malformed hex
    // key (a key is exactly 16 lowercase hex digits).
    auto periods = serve::parseRequest(
        "{\"op\": \"campaign\", \"id\": \"a\", \"kind\": \"storm\", "
        "\"workloads\": \"lll01\", \"cores\": \"ruu\", "
        "\"periods\": \"16,x4\"}");
    ASSERT_FALSE(periods.ok());
    EXPECT_NE(periods.error().message().find(
                  "'x4' is not an unsigned integer"),
              std::string::npos)
        << periods.error().message();
    const std::pair<const char *, const char *> badKeys[] = {
        {"{\"key\": \"00000000000000zz\", "
         "\"checksum\": \"0123456789abcdef\", \"bytes\": 1}",
         "key 'key' has a non-hex digit"},
        {"{\"key\": \"0123456789ABCDEF\", "
         "\"checksum\": \"0123456789abcdef\", \"bytes\": 1}",
         "key 'key' has a non-hex digit"},
        {"{\"key\": \"0123456789abcdef\", \"checksum\": \"abc\", "
         "\"bytes\": 1}",
         "key 'checksum' is not a 16-hex-digit value"},
    };
    for (const auto &[line, message] : badKeys) {
        auto record = serve::parseJobRecordLine(line);
        ASSERT_FALSE(record.ok()) << line;
        EXPECT_EQ(record.error().message(), message) << line;
    }
}

TEST(ServeQueue, ExpandUnitsIsDeterministicWorkloadMajor)
{
    serve::CampaignSpec spec;
    spec.id = "s";
    spec.kind = serve::CampaignKind::Storm;
    spec.workloads = {"lll01", "lll02"};
    spec.cores = {"ruu", "history"};
    spec.periods = {16, 64};
    auto units = serve::expandUnits(spec);
    ASSERT_EQ(units.size(), 8u);
    // Workload-major, then core, then period — and indices are dense.
    EXPECT_EQ(units[0].workload, "lll01");
    EXPECT_EQ(units[0].core, "ruu");
    EXPECT_EQ(units[0].period, 16u);
    EXPECT_EQ(units[1].period, 64u);
    EXPECT_EQ(units[2].core, "history");
    EXPECT_EQ(units[4].workload, "lll02");
    for (std::size_t i = 0; i < units.size(); ++i)
        EXPECT_EQ(units[i].index, i);

    serve::CampaignSpec inject;
    inject.id = "i";
    inject.kind = serve::CampaignKind::Inject;
    inject.workloads = {"lll01"};
    inject.cores = {"simple"};
    inject.trials = 5;
    auto trials = serve::expandUnits(inject);
    ASSERT_EQ(trials.size(), 5u);
    for (std::size_t i = 0; i < trials.size(); ++i) {
        EXPECT_EQ(trials[i].trial, i);
        EXPECT_TRUE(trials[i].workload.empty())
            << "inject units resolve workloads trial-side";
    }
}

serve::CampaignSpec
tinyCampaign(const char *id)
{
    serve::CampaignSpec spec;
    spec.id = id;
    spec.kind = serve::CampaignKind::Run;
    spec.workloads = {"lll01", "lll02"};
    spec.cores = {"ruu"};
    return spec;
}

TEST(ServeQueue, LeaseExpiryRedispatchesAndDuplicatesAreDropped)
{
    serve::CampaignQueue queue;
    ASSERT_TRUE(queue.open("", "", nullptr).ok()); // memory-only
    auto admitted = queue.submit(tinyCampaign("c"), 1024);
    ASSERT_TRUE(admitted.ok()) << admitted.error().message();
    EXPECT_EQ(*admitted, 2u);

    auto now = serve::CampaignQueue::Clock::now();
    auto first = queue.lease(now, 50);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->unit.index, 0u);

    // A live worker's heartbeat holds the lease; a stale token does
    // not.
    EXPECT_TRUE(queue.renew("c", 0, first->token, now, 50));
    EXPECT_FALSE(queue.renew("c", 0, first->token + 99, now, 50));

    // Past the deadline the unit returns to the pool and the next
    // lease hands it out again under a fresh token.
    BackoffPolicy instant;
    instant.baseUs = 0;
    instant.capUs = 0;
    auto later = now + std::chrono::milliseconds(200);
    EXPECT_EQ(queue.expireLeases(later, instant), 1u);
    auto second = queue.lease(later, 50);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->unit.index, 0u);
    EXPECT_NE(second->token, first->token);

    // Both the presumed-dead worker and the live one deliver: the
    // first completion wins, the second is dropped as a duplicate.
    EXPECT_TRUE(queue.complete("c", 0, JobStatus::Done, false, 1, 2, 3,
                               "{\"cycles\": 1}"));
    EXPECT_FALSE(queue.complete("c", 0, JobStatus::Done, false, 1, 2, 3,
                                "{\"cycles\": 1}"));
    auto snap = queue.unitView("c", 0);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->phase, serve::UnitPhase::Done);
    EXPECT_EQ(snap->text, "{\"cycles\": 1}");
    EXPECT_EQ(snap->dispatches, 2u);

    serve::CampaignQueue::Stats stats = queue.stats();
    EXPECT_EQ(stats.expiries, 1u);
    EXPECT_EQ(stats.duplicates, 1u);
    EXPECT_EQ(stats.renewals, 1u);
    EXPECT_EQ(stats.unitsDone, 1u);
}

TEST(ServeQueue, ResubmitIsIdempotentDivergentSpecAndOverflowRefused)
{
    serve::CampaignQueue queue;
    ASSERT_TRUE(queue.open("", "", nullptr).ok());
    ASSERT_TRUE(queue.submit(tinyCampaign("c"), 1024).ok());

    // The same spec under the same id is the CLI's crash-retry: same
    // unit count, no second campaign.
    auto again = queue.submit(tinyCampaign("c"), 1024);
    ASSERT_TRUE(again.ok()) << again.error().message();
    EXPECT_EQ(*again, 2u);
    EXPECT_EQ(queue.stats().campaigns, 1u);

    // A different spec under a known id is a client bug, not a merge.
    serve::CampaignSpec divergent = tinyCampaign("c");
    divergent.cores = {"history"};
    EXPECT_FALSE(queue.submit(divergent, 1024).ok());

    // Admission past the unfinished-unit bound sheds with exactly the
    // protocol's overload verdict.
    auto shed = queue.submit(tinyCampaign("d"), 3);
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.error().message(), "overloaded");
    EXPECT_EQ(queue.stats().shed, 1u);

    // Cancel voids the pending units; the campaign then reads
    // finished and an unknown id still errors.
    auto canceled = queue.cancel("c");
    ASSERT_TRUE(canceled.ok());
    EXPECT_EQ(*canceled, 2u);
    auto view = queue.campaignView("c");
    ASSERT_TRUE(view.has_value());
    EXPECT_TRUE(view->finished());
    EXPECT_EQ(view->canceled, 2u);
    EXPECT_FALSE(queue.cancel("nope").ok());
}

TEST_F(ServeDirs, QueueJournalTornTailForgivenDamageAndPinRefused)
{
    std::string path = dir("queue.jsonl");

    // First life: admit a campaign, certify one unit done and one
    // failed.
    {
        serve::CampaignQueue queue;
        ASSERT_TRUE(queue.open(path, dir("cache"), nullptr).ok());
        ASSERT_TRUE(queue.submit(tinyCampaign("c"), 1024).ok());
        auto lease = queue.lease(serve::CampaignQueue::Clock::now(), 50);
        ASSERT_TRUE(lease.has_value());
        EXPECT_TRUE(queue.complete("c", 0, JobStatus::Done, false, 11,
                                   22, 33, "{\"cycles\": 5}"));
        EXPECT_TRUE(queue.complete("c", 1, JobStatus::Rejected, false,
                                   0, 0, 0, "no such kernel"));
    }
    auto clean = serve::readQueueJournal(path);
    ASSERT_TRUE(clean.ok()) << clean.error().message();
    EXPECT_FALSE(clean->tornTail);
    ASSERT_EQ(clean->records.size(), 3u);
    std::size_t cleanBytes = clean->validBytes;

    // SIGKILL mid-append: the torn final line is dropped on read and
    // truncated by the next open, after which the journal is clean.
    {
        std::ofstream torn(path, std::ios::app | std::ios::binary);
        torn << "{\"rec\": \"unit\", \"id\": \"c";
    }
    auto tornBack = serve::readQueueJournal(path);
    ASSERT_TRUE(tornBack.ok());
    EXPECT_TRUE(tornBack->tornTail);
    EXPECT_EQ(tornBack->records.size(), 3u);
    EXPECT_EQ(tornBack->validBytes, cleanBytes);
    {
        serve::CampaignQueue queue;
        std::uint64_t verified = 0;
        auto opened = queue.open(
            path, dir("cache"),
            [&](std::uint64_t key, std::uint64_t checksum,
                std::uint64_t bytes) {
                ++verified;
                EXPECT_EQ(key, 11u);
                EXPECT_EQ(checksum, 22u);
                EXPECT_EQ(bytes, 33u);
                return true;
            });
        ASSERT_TRUE(opened.ok()) << opened.error().message();
        EXPECT_EQ(verified, 1u);
        auto view = queue.campaignView("c");
        ASSERT_TRUE(view.has_value());
        EXPECT_EQ(view->done, 1u);
        EXPECT_EQ(view->failed, 1u);
        EXPECT_EQ(queue.stats().recoveredUnits, 2u);
        // The recovered done unit carries no payload text — that
        // lives in the cache it was verified against.
        auto snap = queue.unitView("c", 0);
        ASSERT_TRUE(snap.has_value());
        EXPECT_TRUE(snap->text.empty());
        // The failed unit keeps its diagnostic.
        snap = queue.unitView("c", 1);
        ASSERT_TRUE(snap.has_value());
        EXPECT_EQ(snap->text, "no such kernel");
    }
    EXPECT_EQ(std::filesystem::file_size(path), cleanBytes)
        << "open did not truncate the torn tail";

    // A verify hook that disowns the record reverts the unit to
    // pending: recompute, never serve unverifiable bytes.
    {
        serve::CampaignQueue queue;
        ASSERT_TRUE(queue
                        .open(path, dir("cache"),
                              [](std::uint64_t, std::uint64_t,
                                 std::uint64_t) { return false; })
                        .ok());
        auto view = queue.campaignView("c");
        ASSERT_TRUE(view.has_value());
        EXPECT_EQ(view->done, 0u);
        EXPECT_EQ(view->pending, 1u);
        EXPECT_EQ(view->failed, 1u);
    }

    // Interior damage is corruption, not a torn tail.
    std::string contents;
    {
        std::ifstream in(path, std::ios::binary);
        contents.assign((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    }
    std::size_t firstNewline = contents.find('\n');
    ASSERT_NE(firstNewline, std::string::npos);
    {
        std::ofstream rewrite(path, std::ios::binary);
        rewrite << contents.substr(0, firstNewline + 1)
                << "not a record\n"
                << contents.substr(firstNewline + 1);
    }
    EXPECT_FALSE(serve::readQueueJournal(path).ok());
    {
        serve::CampaignQueue queue;
        EXPECT_FALSE(queue.open(path, dir("cache"), nullptr).ok());
    }

    // And a journal pinned to another cache is refused outright.
    {
        std::ofstream rewrite(path, std::ios::binary);
        rewrite << contents;
    }
    {
        serve::CampaignQueue queue;
        auto opened = queue.open(path, dir("elsewhere"), nullptr);
        ASSERT_FALSE(opened.ok());
        EXPECT_NE(opened.error().message().find("pins cache"),
                  std::string::npos);
    }

    // A complete final record whose '\n' never landed: resume must
    // start the next append on a fresh line, or the two records fuse
    // into one unparseable tail and the next restart drops both.
    std::string unterminated = dir("unterminated.jsonl");
    {
        serve::CampaignQueue queue;
        ASSERT_TRUE(queue.open(unterminated, dir("cache"), nullptr).ok());
        ASSERT_TRUE(queue.submit(tinyCampaign("a"), 1024).ok());
    }
    std::uintmax_t size = std::filesystem::file_size(unterminated);
    std::filesystem::resize_file(unterminated, size - 1);
    {
        serve::CampaignQueue queue;
        ASSERT_TRUE(queue.open(unterminated, dir("cache"), nullptr).ok());
        ASSERT_TRUE(queue.submit(tinyCampaign("b"), 1024).ok());
    }
    {
        serve::CampaignQueue queue;
        ASSERT_TRUE(queue.open(unterminated, dir("cache"), nullptr).ok());
        EXPECT_EQ(queue.campaignIds(),
                  (std::vector<std::string>{"a", "b"}));
    }
    auto reread = serve::readQueueJournal(unterminated);
    ASSERT_TRUE(reread.ok()) << reread.error().message();
    EXPECT_FALSE(reread->tornTail);
    EXPECT_EQ(reread->records.size(), 2u);
}

TEST_F(ServeDirs, QueueJournalFailureRefusesAdmissionButDegradesCompletion)
{
    std::string path = dir("queue.jsonl");
    serve::CampaignQueue queue;
    ASSERT_TRUE(queue.open(path, dir("cache"), nullptr).ok());
    ASSERT_TRUE(queue.submit(tinyCampaign("c"), 1024).ok());

    // Every journal append fails from here on.
    io::FaultPlan plan;
    plan.errorRate = 256;
    plan.pathPrefix = _dir;
    io::setFaultPlan(plan);

    // Work the daemon cannot make durable is refused...
    auto refused = queue.submit(tinyCampaign("d"), 1024);
    EXPECT_FALSE(refused.ok());

    // ...but a finished unit is not thrown away: it completes in
    // memory and the journal miss is counted for post-restart
    // recomputation.
    EXPECT_TRUE(queue.complete("c", 0, JobStatus::Done, false, 1, 2, 3,
                               "{\"cycles\": 9}"));
    io::clearFaultPlan();
    EXPECT_EQ(queue.stats().journalErrors, 1u);
    auto snap = queue.unitView("c", 0);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->phase, serve::UnitPhase::Done);

    // A cancel that cannot be journaled is not honored — recovery
    // would resurrect the units it pretended to void.
    io::setFaultPlan(plan);
    EXPECT_FALSE(queue.cancel("c").ok());
    io::clearFaultPlan();
    auto view = queue.campaignView("c");
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->canceled, 0u);
}

TEST_F(ServeDirs, DaemonRunsCampaignsEndToEndWithDedupAndCancel)
{
    serve::ServerOptions options;
    options.workerPath = RUU_WORKER;
    options.socketPath = dir("sock");
    options.cacheDir = dir("cache");
    options.queuePath = dir("queue.jsonl");
    options.jobs = 2;
    options.defaultDeadlineMs = 60'000;
    serve::ServerStats stats;
    std::thread daemon([&] {
        auto result = serve::runServer(options, &stats);
        EXPECT_TRUE(result.ok()) << result.error().message();
    });

    serve::ServeClient client;
    connectClient(client, options.socketPath);

    Request request;
    request.op = Op::Campaign;
    request.campaign = tinyCampaign("run:pair");
    auto ack = client.request(serve::requestToLine(request));
    ASSERT_TRUE(ack.ok()) << ack.error().message();
    auto ackObject = flat::parseObject(*ack);
    ASSERT_TRUE(ackObject.ok()) << *ack;
    EXPECT_EQ(flat::getNumber(*ackObject, "ok").value(), 1u);
    EXPECT_EQ(flat::getNumber(*ackObject, "units").value(), 2u);

    auto watchUnits = [&](bool expectCached) {
        Request watch;
        watch.op = Op::Watch;
        watch.target = "run:pair";
        ASSERT_TRUE(
            client.sendLine(serve::requestToLine(watch)).ok());
        const char *kernels[] = {"lll01", "lll02"};
        for (std::uint64_t u = 0; u < 2; ++u) {
            flat::Object unit = readResult(client);
            EXPECT_EQ(flat::getString(unit, "op").value(), "unit");
            EXPECT_EQ(flat::getNumber(unit, "unit").value(), u);
            EXPECT_EQ(flat::getString(unit, "status").value(), "done");
            EXPECT_EQ(flat::getString(unit, "payload").value(),
                      coldPayload(kernels[u]))
                << "unit " << u
                << " payload differs from a cold run";
            if (expectCached) {
                EXPECT_EQ(flat::getNumber(unit, "cached").value(), 1u);
            }
        }
        flat::Object summary = readResult(client);
        EXPECT_EQ(flat::getString(summary, "op").value(), "watch");
        EXPECT_EQ(flat::getNumber(summary, "ok").value(), 1u);
        EXPECT_EQ(flat::getNumber(summary, "done").value(), 2u);
    };
    watchUnits(false);

    // Resubmitting the same campaign is idempotent, and a re-watch
    // streams the identical payloads from the queue/cache without
    // recomputing.
    auto again = client.request(serve::requestToLine(request));
    ASSERT_TRUE(again.ok());
    EXPECT_NE(again->find("\"ok\": 1"), std::string::npos) << *again;
    watchUnits(false);

    // A divergent spec under the same id is refused.
    Request divergent = request;
    divergent.campaign.cores = {"history"};
    auto refused = client.request(serve::requestToLine(divergent));
    ASSERT_TRUE(refused.ok());
    EXPECT_NE(refused->find("\"ok\": 0"), std::string::npos)
        << *refused;

    // A campaign over an unknown kernel fails its units with explicit
    // verdicts — the daemon classifies, it does not die.
    Request bogus;
    bogus.op = Op::Campaign;
    bogus.campaign = tinyCampaign("run:bogus");
    bogus.campaign.workloads = {"lll99"};
    auto bogusAck = client.request(serve::requestToLine(bogus));
    ASSERT_TRUE(bogusAck.ok());
    EXPECT_NE(bogusAck->find("\"ok\": 1"), std::string::npos);
    {
        Request watch;
        watch.op = Op::Watch;
        watch.target = "run:bogus";
        ASSERT_TRUE(client.sendLine(serve::requestToLine(watch)).ok());
        flat::Object unit = readResult(client);
        EXPECT_EQ(flat::getString(unit, "status").value(), "rejected");
        flat::Object summary = readResult(client);
        EXPECT_EQ(flat::getNumber(summary, "ok").value(), 0u);
        EXPECT_EQ(flat::getNumber(summary, "failed").value(), 1u);
    }

    // Cancel: unknown ids error; a finished campaign voids nothing.
    Request cancel;
    cancel.op = Op::Cancel;
    cancel.target = "run:nope";
    auto cancelAck = client.request(serve::requestToLine(cancel));
    ASSERT_TRUE(cancelAck.ok());
    EXPECT_NE(cancelAck->find("\"ok\": 0"), std::string::npos);
    cancel.target = "run:pair";
    cancelAck = client.request(serve::requestToLine(cancel));
    ASSERT_TRUE(cancelAck.ok());
    auto cancelObject = flat::parseObject(*cancelAck);
    ASSERT_TRUE(cancelObject.ok());
    EXPECT_EQ(flat::getNumber(*cancelObject, "ok").value(), 1u);
    EXPECT_EQ(flat::getNumber(*cancelObject, "canceled").value(), 0u);

    // Watching an unknown campaign is an error line, not a hang.
    {
        Request watch;
        watch.op = Op::Watch;
        watch.target = "run:nope";
        ASSERT_TRUE(client.sendLine(serve::requestToLine(watch)).ok());
        auto line = client.recvLine();
        ASSERT_TRUE(line.ok());
        EXPECT_NE(line->find("unknown campaign"), std::string::npos)
            << *line;
    }

    auto status = client.request("{\"op\": \"status\"}");
    ASSERT_TRUE(status.ok());
    auto statusObject = flat::parseObject(*status);
    ASSERT_TRUE(statusObject.ok()) << *status;
    EXPECT_EQ(flat::getNumber(*statusObject, "campaigns").value(), 2u);
    EXPECT_EQ(flat::getNumber(*statusObject, "units_done").value(), 2u);
    EXPECT_EQ(flat::getNumber(*statusObject, "units_failed").value(),
              1u);

    ASSERT_TRUE(client.request("{\"op\": \"shutdown\"}").ok());
    daemon.join();
    EXPECT_EQ(stats.campaigns, 2u);
    EXPECT_EQ(stats.unitsDone, 2u);
    EXPECT_EQ(stats.unitsFailed, 1u);
}

TEST_F(ServeDirs, InjectCampaignUnitsMatchReplayTrialByteExactly)
{
    serve::ServerOptions options;
    options.workerPath = RUU_WORKER;
    options.socketPath = dir("sock");
    options.cacheDir = dir("cache");
    options.queuePath = dir("queue.jsonl");
    options.jobs = 2;
    options.defaultDeadlineMs = 60'000;
    serve::ServerStats stats;
    std::thread daemon([&] {
        auto result = serve::runServer(options, &stats);
        EXPECT_TRUE(result.ok()) << result.error().message();
    });

    serve::ServeClient client;
    connectClient(client, options.socketPath);
    Request request;
    request.op = Op::Campaign;
    request.campaign.id = "inject:smoke";
    request.campaign.kind = serve::CampaignKind::Inject;
    request.campaign.workloads = {"lll01"};
    request.campaign.cores = {"simple"};
    request.campaign.trials = 2;
    request.campaign.seed = 5;
    auto ack = client.request(serve::requestToLine(request));
    ASSERT_TRUE(ack.ok());
    EXPECT_NE(ack->find("\"units\": 2"), std::string::npos) << *ack;

    // The cold reference: exactly what `ruusim inject --replay-trial`
    // would report for the same campaign identity.
    inject::CampaignOptions cold;
    cold.cores = {CoreKind::Simple};
    for (const Workload &workload : livermoreWorkloads())
        if (workload.name == "lll01")
            cold.workloads = {workload};
    cold.trials = 2;
    cold.seed = 5;

    Request watch;
    watch.op = Op::Watch;
    watch.target = "inject:smoke";
    ASSERT_TRUE(client.sendLine(serve::requestToLine(watch)).ok());
    for (std::uint64_t trial = 0; trial < 2; ++trial) {
        flat::Object unit = readResult(client);
        EXPECT_EQ(flat::getString(unit, "status").value(), "done");
        auto expected = inject::replayTrial(cold, trial);
        ASSERT_TRUE(expected.ok()) << expected.error().message();
        EXPECT_EQ(flat::getString(unit, "payload").value(),
                  inject::trialToLine(*expected))
            << "trial " << trial
            << " diverges from a cold replayTrial";
    }
    flat::Object summary = readResult(client);
    EXPECT_EQ(flat::getNumber(summary, "ok").value(), 1u);

    ASSERT_TRUE(client.request("{\"op\": \"shutdown\"}").ok());
    daemon.join();
    EXPECT_EQ(stats.unitsDone, 2u);
}

TEST_F(ServeDirs, SigkillMidCampaignRecoversByteIdentically)
{
    serve::ServerOptions options;
    options.workerPath = RUU_WORKER;
    options.socketPath = dir("sock");
    options.cacheDir = dir("cache");
    options.queuePath = dir("queue.jsonl");
    options.jobs = 2;
    options.defaultDeadlineMs = 60'000;

    const std::vector<std::string> kernels = {"lll01", "lll02", "lll03",
                                              "lll04"};
    serve::CampaignSpec spec;
    spec.id = "run:four";
    spec.kind = serve::CampaignKind::Run;
    spec.workloads = kernels;
    spec.cores = {"ruu"};

    // First daemon: admit the campaign, wait for at least one unit to
    // land durably, then SIGKILL mid-campaign.
    pid_t first = forkDaemon(options);
    ASSERT_GT(first, 0);
    {
        serve::ServeClient client;
        connectClient(client, options.socketPath);
        Request request;
        request.op = Op::Campaign;
        request.campaign = spec;
        auto ack = client.request(serve::requestToLine(request));
        ASSERT_TRUE(ack.ok()) << ack.error().message();
        EXPECT_NE(ack->find("\"ok\": 1"), std::string::npos) << *ack;

        Request watch;
        watch.op = Op::Watch;
        watch.target = spec.id;
        ASSERT_TRUE(client.sendLine(serve::requestToLine(watch)).ok());
        flat::Object unit = readResult(client);
        EXPECT_EQ(flat::getString(unit, "status").value(), "done");
        ASSERT_EQ(::kill(first, SIGKILL), 0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(first, &status, 0), first);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

    // Second daemon over the same queue + cache: the campaign resumes
    // on its own (no resubmission) and the watch stream is
    // byte-identical to a cold serial run of every unit.
    pid_t second = forkDaemon(options);
    ASSERT_GT(second, 0);
    {
        serve::ServeClient client;
        connectClient(client, options.socketPath);
        Request watch;
        watch.op = Op::Watch;
        watch.target = spec.id;
        ASSERT_TRUE(client.sendLine(serve::requestToLine(watch)).ok());
        for (std::size_t u = 0; u < kernels.size(); ++u) {
            flat::Object unit = readResult(client);
            EXPECT_EQ(flat::getNumber(unit, "unit").value(), u);
            EXPECT_EQ(flat::getString(unit, "status").value(), "done");
            EXPECT_EQ(flat::getString(unit, "payload").value(),
                      coldPayload(kernels[u]))
                << kernels[u]
                << ": post-crash campaign payload differs from a cold "
                   "run";
        }
        flat::Object summary = readResult(client);
        EXPECT_EQ(flat::getNumber(summary, "ok").value(), 1u);
        EXPECT_EQ(flat::getNumber(summary, "done").value(),
                  kernels.size());

        auto statusLine = client.request("{\"op\": \"status\"}");
        ASSERT_TRUE(statusLine.ok());
        auto statusObject = flat::parseObject(*statusLine);
        ASSERT_TRUE(statusObject.ok()) << *statusLine;
        EXPECT_GE(
            flat::getNumber(*statusObject, "units_recovered").value(),
            1u)
            << *statusLine;
        ASSERT_TRUE(client.request("{\"op\": \"shutdown\"}").ok());
    }
    ASSERT_EQ(::waitpid(second, &status, 0), second);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST_F(ServeDirs, JournalPinnedToAnotherCacheIsRefused)
{
    serve::ServeJournalHeader header;
    header.cacheDir = "/somewhere/else";
    serve::ServeJournalWriter writer;
    ASSERT_TRUE(writer.create(dir("journal"), header).ok());

    serve::ServerOptions options;

    options.workerPath = RUU_WORKER;
    options.socketPath = dir("sock");
    options.cacheDir = dir("cache");
    options.journalPath = dir("journal");
    auto result = serve::runServer(options);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message().find("pins cache directory"),
              std::string::npos);
}

} // namespace
} // namespace ruu
