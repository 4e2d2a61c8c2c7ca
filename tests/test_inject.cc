/**
 * @file
 * ruu::inject unit and integration tests: the fault-port enumeration,
 * outcome names, deterministic trial sampling, and end-to-end
 * campaigns through the crash-contained sandbox — including journal
 * resume, campaign identity, and bit-exact trial replay. The journal
 * reader contract itself is tested once per format in test_journal.cc.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/backoff.hh"
#include "common/file.hh"
#include "common/io_faults.hh"
#include "inject/campaign.hh"
#include "inject/fault_port.hh"
#include "inject/journal.hh"
#include "inject/sandbox.hh"
#include "sim/machine.hh"
#include "sim/random_program.hh"

namespace ruu
{
namespace
{

using inject::FaultPortSet;
using inject::Outcome;
using inject::PortClass;

// ---------------------------------------------------------------------
// FaultPortSet

struct PortedStruct
{
    bool valid = false;
    std::uint32_t tag = 7;
    std::uint64_t value = 0x0123456789abcdefull;
    unsigned cursor = 3;
};

FaultPortSet
portsOf(PortedStruct &s)
{
    FaultPortSet ports;
    ports.addFlag("s.valid", s.valid);
    ports.add("s.tag", PortClass::Tag, s.tag, 32);
    ports.add("s.value", PortClass::Data, s.value, 64);
    ports.add("s.cursor", PortClass::Sequence, s.cursor, 32,
              /*wrap=*/5);
    return ports;
}

TEST(FaultPorts, RegistrationAndGeometry)
{
    PortedStruct s;
    FaultPortSet ports = portsOf(s);
    EXPECT_EQ(ports.size(), 4u);
    EXPECT_EQ(ports.totalBits(), 1u + 32 + 64 + 32);
    EXPECT_EQ(ports.imageBytes(),
              sizeof(bool) + sizeof(std::uint32_t) +
                  sizeof(std::uint64_t) + sizeof(unsigned));
}

TEST(FaultPorts, LocateWalksTheBitSpace)
{
    PortedStruct s;
    FaultPortSet ports = portsOf(s);
    EXPECT_EQ(ports.locate(0).port, 0u);
    EXPECT_EQ(ports.locate(1).port, 1u);
    EXPECT_EQ(ports.locate(1).bit, 0u);
    EXPECT_EQ(ports.locate(32).bit, 31u);
    EXPECT_EQ(ports.locate(33).port, 2u);
    EXPECT_EQ(ports.locate(33 + 63).bit, 63u);
    EXPECT_EQ(ports.locate(33 + 64).port, 3u);
}

TEST(FaultPorts, FlipTogglesExactlyOneBit)
{
    PortedStruct s;
    FaultPortSet ports = portsOf(s);
    auto flip = ports.flip(0); // the valid flag
    EXPECT_EQ(flip.before, 0u);
    EXPECT_EQ(flip.after, 1u);
    EXPECT_TRUE(s.valid);

    auto tag_flip = ports.flip(1 + 3); // tag bit 3: 7 ^ 8 = 15
    EXPECT_EQ(tag_flip.before, 7u);
    EXPECT_EQ(tag_flip.after, 15u);
    EXPECT_EQ(s.tag, 15u);
}

TEST(FaultPorts, WrapKeepsIndicesInRange)
{
    PortedStruct s;
    FaultPortSet ports = portsOf(s);
    // cursor = 3, flip bit 2 -> 7, wrap 5 -> 2.
    auto flip = ports.flip(1 + 32 + 64 + 2);
    EXPECT_EQ(flip.before, 3u);
    EXPECT_EQ(flip.after, 2u);
    EXPECT_EQ(s.cursor, 2u);
}

TEST(FaultPorts, ImageRoundTripAndMismatch)
{
    PortedStruct s;
    FaultPortSet ports = portsOf(s);
    auto image = ports.captureImage();
    EXPECT_EQ(ports.firstMismatch(image), FaultPortSet::kNoMismatch);

    s.value ^= 0xff00;
    EXPECT_EQ(ports.firstMismatch(image), 2u); // s.value is port 2
    ports.restoreImage(image);
    EXPECT_EQ(s.value, 0x0123456789abcdefull);
    EXPECT_EQ(ports.firstMismatch(image), FaultPortSet::kNoMismatch);
}

TEST(FaultPorts, LayoutSignatureTracksStructure)
{
    PortedStruct a, b;
    FaultPortSet pa = portsOf(a), pb = portsOf(b);
    EXPECT_EQ(pa.layoutSignature(), pb.layoutSignature());

    FaultPortSet different = portsOf(a);
    different.addFlag("extra", a.valid);
    EXPECT_NE(pa.layoutSignature(), different.layoutSignature());
}

// ---------------------------------------------------------------------
// Journal

TEST(Journal, OutcomeNamesRoundTrip)
{
    for (Outcome o :
         {Outcome::Masked, Outcome::DetectedInvariant,
          Outcome::DetectedOracle, Outcome::Trapped, Outcome::Hung,
          Outcome::Sdc, Outcome::Unclassified}) {
        auto back = inject::outcomeFromName(inject::outcomeName(o));
        ASSERT_TRUE(back.ok());
        EXPECT_EQ(*back, o);
    }
    EXPECT_FALSE(inject::outcomeFromName("nonsense").ok());
}

// ---------------------------------------------------------------------
// Sampling and campaigns

const Workload &
campaignWorkload()
{
    static const Workload workload = [] {
        RandomProgramOptions options;
        options.loops = 1;
        options.bodyLength = 6;
        options.iterations = 4;
        return makeWorkload(generateRandomProgram(23, options));
    }();
    return workload;
}

inject::CampaignOptions
smallCampaign(const std::string &journal = "")
{
    inject::CampaignOptions options;
    options.cores = {CoreKind::Ruu, CoreKind::History};
    options.workloads = {campaignWorkload()};
    options.trials = 12;
    options.seed = 99;
    options.timeoutMs = 30'000;
    options.journalPath = journal;
    return options;
}

/** Records the wrap of every in-flight op's sequence-number port. */
struct SeqWrapTap : inject::MachineTap
{
    void
    onRunStart(FaultPortSet &ports) override
    {
        for (std::size_t i = 0; i < ports.size(); ++i) {
            const inject::FaultPort &port = ports.port(i);
            if (port.name.size() > 4 &&
                port.name.compare(port.name.size() - 4, 4, ".seq") == 0)
                wraps.push_back(port.wrap);
        }
    }

    std::vector<std::uint64_t> wraps;
};

TEST(FaultPorts, InflightSeqWrapsToTheTrace)
{
    // An entry's sequence number indexes the trace; a flip that sent
    // it past the end would read host memory, so runs could disagree.
    Workload workload = campaignWorkload();
    for (CoreKind kind : {CoreKind::Tomasulo, CoreKind::Rstu,
                          CoreKind::Ruu, CoreKind::SpecRuu,
                          CoreKind::History}) {
        SeqWrapTap tap;
        RunOptions options;
        options.tap = &tap;
        makeCore(kind, UarchConfig::cray1())->run(workload.trace(),
                                                   options);
        ASSERT_FALSE(tap.wraps.empty()) << coreKindName(kind);
        for (std::uint64_t wrap : tap.wraps)
            EXPECT_EQ(wrap, workload.trace().size()) << coreKindName(kind);
    }
}

TEST(Sampling, TrialSeedsAreDeterministicAndSpread)
{
    EXPECT_EQ(inject::trialSeed(1, 0), inject::trialSeed(1, 0));
    EXPECT_NE(inject::trialSeed(1, 0), inject::trialSeed(1, 1));
    EXPECT_NE(inject::trialSeed(1, 0), inject::trialSeed(2, 0));
}

TEST(Sampling, ProbeIsDeterministicAndBounded)
{
    auto options = smallCampaign();
    auto a = inject::probeMachine(CoreKind::Ruu, options.workloads[0],
                                  options);
    auto b = inject::probeMachine(CoreKind::Ruu, options.workloads[0],
                                  options);
    ASSERT_TRUE(a.ok()) << a.error().message();
    ASSERT_TRUE(b.ok()) << b.error().message();
    EXPECT_GT(a->totalBits, 0u);
    EXPECT_GT(a->refCycles, 0u);
    EXPECT_LE(a->lastTapCycle, a->refCycles);
    EXPECT_EQ(a->layoutSignature, b->layoutSignature);
    EXPECT_EQ(a->refCycles, b->refCycles);
    EXPECT_EQ(a->totalBits, b->totalBits);
}

TEST(Sampling, PointsAreDeterministicAndInBounds)
{
    auto options = smallCampaign();
    inject::TrialSampler sampler(options);
    inject::TrialSampler again(options);
    for (std::uint64_t i = 0; i < options.trials; ++i) {
        auto p = sampler.point(i);
        auto q = again.point(i);
        ASSERT_TRUE(p.ok()) << p.error().message();
        ASSERT_TRUE(q.ok());
        EXPECT_EQ(p->seed, q->seed);
        EXPECT_EQ(p->core, q->core);
        EXPECT_EQ(p->workload, q->workload);
        EXPECT_EQ(p->cycle, q->cycle);
        EXPECT_EQ(p->bit, q->bit);
        EXPECT_TRUE(p->core == "ruu" || p->core == "history");
    }
}

class CampaignFile : public ::testing::Test
{
  protected:
    std::string
    path() const
    {
        return ::testing::TempDir() + "inject_campaign_test.jsonl";
    }

    void SetUp() override { std::remove(path().c_str()); }
    void TearDown() override { std::remove(path().c_str()); }
};

TEST_F(CampaignFile, RunsFullyClassifiedAndJournaled)
{
    auto options = smallCampaign(path());
    auto summary = inject::runCampaign(options);
    ASSERT_TRUE(summary.ok()) << summary.error().message();
    EXPECT_EQ(summary->executed, options.trials);
    EXPECT_EQ(summary->trials.size(), options.trials);
    EXPECT_FALSE(summary->stoppedEarly);
    auto tally = inject::tallyOutcomes(summary->trials);
    EXPECT_EQ(tally[Outcome::Unclassified], 0u);

    // Journal carries every trial; a second run resumes all of them.
    auto contents = journal::read<inject::JournalFormat>(path());
    ASSERT_TRUE(contents.ok()) << contents.error().message();
    EXPECT_EQ(contents->records.size(), options.trials);

    auto resumed = inject::runCampaign(options);
    ASSERT_TRUE(resumed.ok()) << resumed.error().message();
    EXPECT_EQ(resumed->resumed, options.trials);
    EXPECT_EQ(resumed->executed, 0u);
}

TEST_F(CampaignFile, StopAfterResumesToTheSameTally)
{
    // Reference: the full campaign without a journal.
    auto reference = inject::runCampaign(smallCampaign());
    ASSERT_TRUE(reference.ok()) << reference.error().message();

    auto options = smallCampaign(path());
    options.stopAfter = 5;
    auto first = inject::runCampaign(options);
    ASSERT_TRUE(first.ok()) << first.error().message();
    EXPECT_TRUE(first->stoppedEarly);
    EXPECT_EQ(first->executed, 5u);

    options.stopAfter = 0;
    auto second = inject::runCampaign(options);
    ASSERT_TRUE(second.ok()) << second.error().message();
    EXPECT_EQ(second->resumed, 5u);
    EXPECT_EQ(second->executed, options.trials - 5);
    EXPECT_FALSE(second->stoppedEarly);

    // The split campaign lands on the identical per-trial results.
    ASSERT_EQ(second->trials.size(), reference->trials.size());
    for (std::size_t i = 0; i < reference->trials.size(); ++i)
        EXPECT_EQ(inject::trialToLine(second->trials[i]),
                  inject::trialToLine(reference->trials[i]))
            << "trial " << i;
}

TEST_F(CampaignFile, MismatchedJournalIsRejected)
{
    auto options = smallCampaign(path());
    options.stopAfter = 2;
    ASSERT_TRUE(inject::runCampaign(options).ok());
    options.stopAfter = 0;
    options.seed = options.seed + 1; // different campaign identity
    auto resumed = inject::runCampaign(options);
    EXPECT_FALSE(resumed.ok());
}

TEST_F(CampaignFile, TornTailIsCutThroughTheIoShim)
{
    auto options = smallCampaign(path());
    options.stopAfter = 2;
    ASSERT_TRUE(inject::runCampaign(options).ok());
    {
        std::ofstream out(path(), std::ios::app | std::ios::binary);
        out << "{\"index\": 2, \"seed\": 1"; // torn mid-record
    }
    auto before = readTextFile(path());
    ASSERT_TRUE(before.ok());

    // Every op under the journal's path fails: the resume must stop at
    // the first of them, before it has touched a byte.
    io::FaultPlan plan;
    plan.errorRate = 256;
    plan.pathPrefix = path();
    io::setFaultPlan(plan);
    options.stopAfter = 0;
    auto resumed = inject::runCampaign(options);
    io::clearFaultPlan();
    ASSERT_FALSE(resumed.ok());
    EXPECT_NE(resumed.error().message().find("(injected)"),
              std::string::npos)
        << resumed.error().message();
    auto after = readTextFile(path());
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(*after == *before)
        << "the failed resume changed the journal";
}

TEST(Campaign, ReplayTrialIsBitExact)
{
    auto options = smallCampaign();
    auto summary = inject::runCampaign(options);
    ASSERT_TRUE(summary.ok()) << summary.error().message();
    // Replay a handful of trials; each must reproduce its campaign
    // record exactly (same outcome, port, values, cycles).
    for (std::uint64_t index : {std::uint64_t{0}, std::uint64_t{5},
                                options.trials - 1}) {
        auto replayed = inject::replayTrial(options, index);
        ASSERT_TRUE(replayed.ok()) << replayed.error().message();
        EXPECT_EQ(inject::trialToLine(*replayed),
                  inject::trialToLine(summary->trials[index]))
            << "trial " << index;
    }
}

TEST(Campaign, EmptyOptionsAreRejected)
{
    inject::CampaignOptions options;
    EXPECT_FALSE(inject::runCampaign(options).ok());
    options = smallCampaign();
    EXPECT_FALSE(inject::replayTrial(options, options.trials).ok());
}

// ---------------------------------------------------------------------
// The shared retry schedule (common/backoff.hh) that replaced the
// campaign's fixed spawn-retry loop: capped exponential growth with
// deterministic jitter, reproducible per (policy, seed).

TEST(Backoff, ScheduleIsDeterministicPerSeed)
{
    BackoffPolicy policy;
    policy.baseUs = 1'000;
    policy.capUs = 64'000;
    policy.maxRetries = 8;
    policy.seed = 42;
    for (unsigned attempt = 0; attempt < policy.maxRetries; ++attempt)
        EXPECT_EQ(backoffDelayUs(policy, attempt),
                  backoffDelayUs(policy, attempt))
            << "attempt " << attempt;

    BackoffPolicy other = policy;
    other.seed = 43;
    bool anyDiffer = false;
    for (unsigned attempt = 0; attempt < policy.maxRetries; ++attempt)
        anyDiffer |= backoffDelayUs(policy, attempt) !=
                     backoffDelayUs(other, attempt);
    EXPECT_TRUE(anyDiffer) << "different seeds, identical jitter";
}

TEST(Backoff, DelaysGrowExponentiallyWithinJitterBounds)
{
    BackoffPolicy policy;
    policy.baseUs = 1'000;
    policy.capUs = 1'000'000'000; // effectively uncapped here
    policy.maxRetries = 10;
    policy.seed = 7;
    for (unsigned attempt = 0; attempt < policy.maxRetries; ++attempt) {
        std::uint64_t nominal = policy.baseUs << attempt;
        std::uint64_t delay = backoffDelayUs(policy, attempt);
        EXPECT_GE(delay, nominal / 2) << "attempt " << attempt;
        EXPECT_LE(delay, nominal) << "attempt " << attempt;
    }
}

TEST(Backoff, CapBoundsEveryDelay)
{
    BackoffPolicy policy;
    policy.baseUs = 1'000;
    policy.capUs = 4'000;
    policy.maxRetries = 40; // far past the cap and past shift overflow
    policy.seed = 3;
    for (unsigned attempt = 0; attempt < policy.maxRetries; ++attempt)
        EXPECT_LE(backoffDelayUs(policy, attempt), policy.capUs)
            << "attempt " << attempt;
    // Once capped, the nominal delay pins at the cap; jitter keeps it
    // in [cap/2, cap] rather than collapsing to zero on shift overflow.
    EXPECT_GE(backoffDelayUs(policy, 35), policy.capUs / 2);
}

TEST(Backoff, ZeroBaseMeansNoSleeping)
{
    BackoffPolicy policy;
    policy.baseUs = 0;
    policy.maxRetries = 4;
    for (unsigned attempt = 0; attempt < policy.maxRetries; ++attempt)
        EXPECT_EQ(backoffDelayUs(policy, attempt), 0u);
}

TEST(Backoff, WalkExhaustsAfterMaxRetries)
{
    BackoffPolicy policy;
    policy.baseUs = 1;
    policy.maxRetries = 3;
    Backoff backoff(policy);
    EXPECT_FALSE(backoff.exhausted());
    for (unsigned i = 0; i < policy.maxRetries; ++i) {
        EXPECT_FALSE(backoff.exhausted()) << "retry " << i;
        backoff.nextDelayUs();
    }
    EXPECT_TRUE(backoff.exhausted());
    EXPECT_EQ(backoff.attempts(), policy.maxRetries);
}

TEST(Backoff, RetryWrapperLeavesChildVerdictsAlone)
{
    // Crashed and TimedOut are the child's verdict, not host trouble:
    // the retry wrapper must hand them back untouched with zero
    // retries burned.
    BackoffPolicy policy;
    policy.baseUs = 1;
    policy.maxRetries = 5;

    unsigned retries = 99;
    auto reported = inject::runSandboxedWithRetry(
        [](inject::SandboxChannel &channel) {
            channel.send("RES", "{\"ok\": 1}");
        },
        2'000, policy, &retries);
    EXPECT_EQ(reported.status, inject::SandboxOutcome::Status::Reported);
    EXPECT_EQ(reported.resLine, "{\"ok\": 1}");
    EXPECT_EQ(retries, 0u);

    retries = 99;
    auto crashed = inject::runSandboxedWithRetry(
        [](inject::SandboxChannel &) { std::abort(); }, 2'000, policy,
        &retries);
    EXPECT_EQ(crashed.status, inject::SandboxOutcome::Status::Crashed);
    EXPECT_EQ(retries, 0u);
}

} // namespace
} // namespace ruu
