/**
 * @file
 * End-to-end CLI robustness tests.
 *
 * These spawn the real `ruusim` binary and assert on exit codes: the
 * contract is that malformed input of any kind — unknown flags and
 * names, unreadable files, broken trace files, truncated JSON configs,
 * organically faulting programs — produces a diagnostic and status 2,
 * never an abort, while well-formed runs exit 0 (or 1 for genuine
 * verification failures). The tests run from build/tests, next to
 * build/apps/ruusim; they skip when the binary is missing (e.g. a
 * library-only build).
 */

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "sim/json.hh"
#include "uarch/config.hh"

namespace
{

const char *kBinary = "../apps/ruusim";

bool
binaryExists()
{
    std::ifstream probe(kBinary);
    return probe.good();
}

/** Run `ruusim <args>` silenced; return its exit status (-1 on spawn
 * failure or abnormal termination, so a crash never looks like a
 * clean exit code). */
int
runCli(const std::string &args)
{
    std::string cmd =
        std::string(kBinary) + " " + args + " >/dev/null 2>&1";
    int status = std::system(cmd.c_str());
    if (status == -1 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << text;
}

#define REQUIRE_BINARY()                                              \
    do {                                                              \
        if (!binaryExists())                                          \
            GTEST_SKIP() << "ruusim binary not built";                \
    } while (0)

TEST(CliErrors, NoArgumentsExitsTwo)
{
    REQUIRE_BINARY();
    EXPECT_EQ(runCli(""), 2);
}

TEST(CliErrors, UnknownCommandExitsTwo)
{
    REQUIRE_BINARY();
    EXPECT_EQ(runCli("frobnicate lll01"), 2);
}

TEST(CliErrors, UnknownFlagExitsTwo)
{
    REQUIRE_BINARY();
    EXPECT_EQ(runCli("run lll01 --frobnicate"), 2);
}

TEST(CliErrors, UnknownCoreExitsTwo)
{
    REQUIRE_BINARY();
    EXPECT_EQ(runCli("run lll01 --core warp"), 2);
}

TEST(CliErrors, MissingProgramFileExitsTwo)
{
    REQUIRE_BINARY();
    EXPECT_EQ(runCli("run no_such_program.s"), 2);
}

TEST(CliErrors, BadConfigurationValueExitsTwo)
{
    REQUIRE_BINARY();
    EXPECT_EQ(runCli("run lll01 --entries 0"), 2);
}

TEST(CliErrors, MalformedTraceMagicExitsTwo)
{
    REQUIRE_BINARY();
    writeFile("bad_magic.trace", "not_a_trace 1 x 0\n");
    EXPECT_EQ(runCli("trace bad_magic.trace"), 2);
}

TEST(CliErrors, TruncatedTraceExitsTwo)
{
    REQUIRE_BINARY();
    // Header promises five records; the body carries half of one.
    writeFile("truncated.trace", "ruutrace 1 demo 5\n1 2 3\n");
    EXPECT_EQ(runCli("trace truncated.trace"), 2);
}

TEST(CliErrors, TraceWithBogusOpcodeExitsTwo)
{
    REQUIRE_BINARY();
    writeFile("bogus_op.trace",
              "ruutrace 1 demo 1\n"
              "9999 -1 -1 -1 0 0 0 0 0 0 0 0 0\n");
    EXPECT_EQ(runCli("trace bogus_op.trace"), 2);
}

TEST(CliErrors, TraceRoundTripValidates)
{
    REQUIRE_BINARY();
    ASSERT_EQ(runCli("trace lll01 roundtrip.trace"), 0);
    EXPECT_EQ(runCli("trace roundtrip.trace"), 0);
}

TEST(CliErrors, TraceOfTheSuiteExitsTwo)
{
    REQUIRE_BINARY();
    // A trace file holds one workload; "suite" names fourteen.
    std::remove("suite.trace");
    EXPECT_EQ(runCli("trace suite suite.trace"), 2);
    EXPECT_FALSE(std::ifstream("suite.trace").good());
}

TEST(CliErrors, KernelNamesWinOverFiles)
{
    REQUIRE_BINARY();
    writeFile("lll01", "this is not assembly\n");
    EXPECT_EQ(runCli("run lll01"), 0);
    EXPECT_EQ(runCli("run lll15"), 2);
    std::remove("lll01");
}

TEST(CliErrors, TruncatedJsonConfigExitsTwo)
{
    REQUIRE_BINARY();
    writeFile("truncated.json", "{\"pool_entries\": 12, ");
    EXPECT_EQ(runCli("run lll01 --config truncated.json"), 2);
}

TEST(CliErrors, UnknownJsonConfigKeyExitsTwo)
{
    REQUIRE_BINARY();
    writeFile("unknown_key.json", "{\"pool_entrees\": 12}");
    EXPECT_EQ(runCli("run lll01 --config unknown_key.json"), 2);
}

TEST(CliErrors, EmittedConfigRoundTrips)
{
    REQUIRE_BINARY();
    writeFile("roundtrip.json",
              ruu::configToJson(ruu::UarchConfig::cray1()));
    EXPECT_EQ(runCli("run lll01 --config roundtrip.json"), 0);
}

TEST(CliErrors, OrganicallyFaultingProgramExitsTwo)
{
    REQUIRE_BINARY();
    // Double A1 past the 1 Mi-word memory, then load through it.
    writeFile("oob.s",
              ".program oob\n"
              "    amovi A1, 262143\n"
              "    aadd  A1, A1, A1\n"
              "    aadd  A1, A1, A1\n"
              "    aadd  A1, A1, A1\n"
              "    lds   S1, 0(A1)\n"
              "    halt\n");
    EXPECT_EQ(runCli("run oob.s"), 2);
}

TEST(CliErrors, StormSmokeRunsClean)
{
    REQUIRE_BINARY();
    EXPECT_EQ(runCli("storm lll01 --core ruu --points 2"), 0);
}

TEST(CliErrors, InjectUnknownCoreInListExitsTwo)
{
    REQUIRE_BINARY();
    EXPECT_EQ(runCli("inject lll01 --cores ruu,warp --trials 2"), 2);
}

TEST(CliErrors, InjectBadTrialCountExitsTwo)
{
    REQUIRE_BINARY();
    EXPECT_EQ(runCli("inject lll01 --trials nope"), 2);
    EXPECT_EQ(runCli("inject lll01 --trials 0"), 2);
}

TEST(CliErrors, InjectReplayOutOfRangeExitsTwo)
{
    REQUIRE_BINARY();
    EXPECT_EQ(
        runCli("inject lll01 --cores ruu --trials 4 --replay-trial 4"),
        2);
}

TEST(CliErrors, InjectMalformedJournalExitsTwo)
{
    REQUIRE_BINARY();
    writeFile("malformed.jsonl", "this is not a journal\n");
    EXPECT_EQ(runCli("inject lll01 --cores simple --trials 2 "
                     "--journal malformed.jsonl"),
              2);
}

TEST(CliErrors, InjectMismatchedJournalExitsTwo)
{
    REQUIRE_BINARY();
    // A valid header, but for a different campaign (other seed).
    writeFile("mismatched.jsonl",
              "{\"kind\": \"ruu-inject-journal\", \"version\": 1, "
              "\"seed\": 777, \"trials\": 2, \"cores\": \"simple\", "
              "\"workloads\": \"lll01\", \"config\": \"x\"}\n");
    EXPECT_EQ(runCli("inject lll01 --cores simple --trials 2 --seed 1 "
                     "--journal mismatched.jsonl"),
              2);
}

// ---------------------------------------------------------------------
// serve / submit: the daemon and its client obey the same contract —
// malformed invocations and unreachable daemons are status 2, job
// failures are status 1, clean batches are status 0.

TEST(CliErrors, ServeWithoutSocketExitsTwo)
{
    REQUIRE_BINARY();
    EXPECT_EQ(runCli("serve"), 2);
}

TEST(CliErrors, ServeWithPositionalArgumentExitsTwo)
{
    REQUIRE_BINARY();
    EXPECT_EQ(runCli("serve lll01 --socket cli_bogus.sock"), 2);
}

TEST(CliErrors, SubmitWithoutSocketExitsTwo)
{
    REQUIRE_BINARY();
    EXPECT_EQ(runCli("submit lll01"), 2);
}

TEST(CliErrors, SubmitToAbsentDaemonExitsTwo)
{
    REQUIRE_BINARY();
    std::remove("cli_absent.sock");
    // The connect retry schedule is bounded: a daemon that never
    // appears is a clean status-2 diagnosis, not a hang.
    EXPECT_EQ(runCli("submit lll01 --socket cli_absent.sock"), 2);
}

TEST(CliErrors, ServeJournalPinnedElsewhereExitsTwo)
{
    REQUIRE_BINARY();
    // A valid serve journal, pinned to a different cache directory:
    // the daemon must refuse to vouch for entries it knows nothing
    // about, before it ever binds the socket.
    writeFile("cli_pinned.jsonl",
              "{\"kind\": \"ruu-serve-journal\", \"version\": 1, "
              "\"cache_dir\": \"/somewhere/else\"}\n");
    EXPECT_EQ(runCli("serve --socket cli_pinned.sock "
                     "--cache cli_cache --journal cli_pinned.jsonl"),
              2);
}

TEST(CliErrors, ServeSubmitRoundTripObeysTheExitContract)
{
    REQUIRE_BINARY();
    const char *sock = "cli_serve.sock";
    std::remove(sock);
    // A real daemon in the background; every path below talks to it.
    std::string daemon = std::string(kBinary) +
                         " serve --socket cli_serve.sock "
                         "--cache cli_serve_cache -j 2 "
                         ">/dev/null 2>&1 &";
    ASSERT_EQ(std::system(daemon.c_str()), 0);

    EXPECT_EQ(runCli("submit --socket cli_serve.sock --ping"), 0);
    EXPECT_EQ(runCli("submit lll01 --socket cli_serve.sock"), 0);
    // Warm second pass: still clean.
    EXPECT_EQ(runCli("submit lll01 --socket cli_serve.sock"), 0);
    EXPECT_EQ(runCli("submit --socket cli_serve.sock --status"), 0);

    // A job the daemon rejects (unparseable program) is a job
    // failure: status 1, and the daemon stays up.
    writeFile("cli_bad.s", "  florp A1, $!\n  halt\n");
    EXPECT_EQ(runCli("submit cli_bad.s --socket cli_serve.sock"), 1);
    // A client-side unreadable file never reaches the daemon.
    EXPECT_EQ(runCli("submit cli_no_such.s --socket cli_serve.sock"),
              2);
    EXPECT_EQ(runCli("submit --socket cli_serve.sock --ping"), 0);

    // Campaigns obey the same contract. A malformed invocation never
    // reaches the daemon: status 2.
    EXPECT_EQ(runCli("submit --socket cli_serve.sock "
                     "--campaign bogus lll01"),
              2);
    EXPECT_EQ(runCli("submit --socket cli_serve.sock "
                     "--campaign run lll01 --periods 16,64"),
              2);
    EXPECT_EQ(
        runCli("submit --socket cli_serve.sock --campaign run cli_bad.s"),
        2);
    // Watching or canceling a campaign nobody submitted is a job-level
    // failure — the daemon answers with a diagnostic: status 1.
    EXPECT_EQ(runCli("submit --socket cli_serve.sock --watch ghost"), 1);
    EXPECT_EQ(runCli("submit --socket cli_serve.sock --cancel ghost"),
              1);
    // A clean campaign streams to completion: status 0, twice (the
    // resubmission is idempotent and replays from cache).
    EXPECT_EQ(runCli("submit --socket cli_serve.sock "
                     "--campaign run lll01 --core ruu --id pin"),
              0);
    EXPECT_EQ(runCli("submit --socket cli_serve.sock "
                     "--campaign run lll01 --core ruu --id pin"),
              0);
    // Canceling a finished campaign is honored (nothing left to cut).
    EXPECT_EQ(runCli("submit --socket cli_serve.sock --cancel pin"), 0);
    EXPECT_EQ(runCli("submit --socket cli_serve.sock --ping"), 0);

    EXPECT_EQ(runCli("submit --socket cli_serve.sock --stop"), 0);
}

// ---------------------------------------------------------------------
// Graceful drain: SIGTERM and SIGINT are operator shutdown requests.
// The daemon finishes in-flight work, persists its state, and exits 0 —
// the exit code distinguishes a drain from a crash for supervisors.

/** Start a daemon whose PID and eventual exit code land in files;
 * returns the PID once the daemon answers a ping, or -1. */
long
startDrainDaemon(const std::string &tag)
{
    std::remove((tag + ".sock").c_str());
    std::remove((tag + ".pid").c_str());
    std::remove((tag + ".exit").c_str());
    std::string cmd = "(" + std::string(kBinary) + " serve --socket " +
                      tag + ".sock --cache " + tag + "_cache --queue " +
                      tag + "_queue.jsonl -j 2 >/dev/null 2>&1 & echo "
                      "$! > " +
                      tag + ".pid; wait $!; echo $? > " + tag +
                      ".exit) &";
    if (std::system(cmd.c_str()) != 0)
        return -1;
    if (runCli("submit --socket " + tag + ".sock --ping") != 0)
        return -1;
    std::ifstream in(tag + ".pid");
    long pid = -1;
    in >> pid;
    return in.good() ? pid : -1;
}

/** Poll for the daemon's recorded exit code, -1 on timeout. */
int
drainExitCode(const std::string &tag)
{
    for (int i = 0; i < 100; ++i) {
        std::ifstream in(tag + ".exit");
        int code = -1;
        if (in >> code)
            return code;
        ::usleep(100'000);
    }
    return -1;
}

TEST(CliErrors, ServeDrainsOnSigtermWithExitZero)
{
    REQUIRE_BINARY();
    long pid = startDrainDaemon("cli_term");
    ASSERT_GT(pid, 0);
    ASSERT_EQ(::kill(static_cast<pid_t>(pid), SIGTERM), 0);
    EXPECT_EQ(drainExitCode("cli_term"), 0);
    // The drained daemon released its socket; a later client gets a
    // clean connection diagnosis, not a hang on a dead socket file.
    EXPECT_EQ(runCli("submit --socket cli_term.sock --ping"), 2);
}

TEST(CliErrors, ServeDrainsOnSigintWithExitZero)
{
    REQUIRE_BINARY();
    long pid = startDrainDaemon("cli_int");
    ASSERT_GT(pid, 0);
    // Give it queued work first: the drain must still exit 0 with a
    // campaign on the books (the queue journal carries it over).
    EXPECT_EQ(runCli("submit --socket cli_int.sock "
                     "--campaign run lll01 --core ruu --id drainme"),
              0);
    ASSERT_EQ(::kill(static_cast<pid_t>(pid), SIGINT), 0);
    EXPECT_EQ(drainExitCode("cli_int"), 0);
}

TEST(CliErrors, InjectSmokeCampaignStopsResumesAndReplays)
{
    REQUIRE_BINARY();
    std::remove("smoke.jsonl");
    // Stop early (exit 3), resume to completion (exit 0), then replay
    // one trial of the finished campaign (exit 0).
    const std::string campaign =
        "inject lll01 --cores simple --trials 3 --seed 5 "
        "--journal smoke.jsonl";
    EXPECT_EQ(runCli(campaign + " --stop-after 1"), 3);
    EXPECT_EQ(runCli(campaign), 0);
    EXPECT_EQ(runCli("inject lll01 --cores simple --trials 3 --seed 5 "
                     "--replay-trial 2"),
              0);
}

} // namespace
