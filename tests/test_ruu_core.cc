/**
 * @file
 * Tests for the Register Update Unit (RuuCore, core/window_policies.hh):
 * queue management, NI/LI instance counters and the three bypass variants.
 * Precise-interrupt behaviour has its own suite
 * (test_precise_interrupts.cc).
 */

#include <gtest/gtest.h>

#include "asm/builder.hh"
#include "common/bitfield.hh"
#include "kernels/lll.hh"
#include "sim/experiment.hh"

namespace ruu
{
namespace
{

RunResult
runRuu(ProgramBuilder &builder, UarchConfig config = {},
       StatSet *stats_out = nullptr)
{
    Workload workload = makeWorkload(builder.build());
    auto core = makeCore(CoreKind::Ruu, config);
    RunResult result = core->run(workload.trace());
    EXPECT_TRUE(matchesFunctional(result, workload.func));
    if (stats_out)
        *stats_out = core->stats();
    return result;
}

TEST(RuuCore, SingleInstructionPaysTheCommitCycle)
{
    // Decode 0, dispatch 1, result 3, commit 3; HALT commits at 4.
    // One more cycle than the RSTU: the price of in-order commitment.
    ProgramBuilder b("t");
    b.aadd(regA(1), regA(7), regA(7));
    b.halt();
    StatSet stats;
    RunResult r = runRuu(b, UarchConfig{}, &stats);
    EXPECT_EQ(r.cycles, 5u);
    EXPECT_EQ(stats.value("commits"), 2u);
}

TEST(RuuCore, CommitsEveryInstructionExactlyOnce)
{
    // Branches resolve in the decode stage and never occupy RUU
    // entries (they update no state), so committed entries plus
    // branches must cover the whole trace exactly.
    const Workload &workload = livermoreWorkloads()[0];
    auto core = makeCore(CoreKind::Ruu, UarchConfig{});
    RunResult r = core->run(workload.trace());
    EXPECT_EQ(core->stats().value("commits") +
                  core->stats().value("branches"),
              workload.trace().size());
    EXPECT_EQ(r.instructions, workload.trace().size());
}

TEST(RuuCore, EntriesAreHeldUntilCommitment)
{
    // With 2 entries, a long-latency op at the head holds its slot
    // until it commits; only one more instruction fits meanwhile.
    UarchConfig config;
    config.poolEntries = 2;
    ProgramBuilder builder("t");
    builder.fword(100, 4.0);
    builder.amovi(regA(1), 0);
    builder.lds(regS(1), regA(1), 100);  // long: holds head
    builder.sadd(regS(2), regS(6), regS(6));
    builder.sadd(regS(3), regS(6), regS(6));
    builder.halt();
    StatSet stats;
    RunResult r = runRuu(builder, config, &stats);
    EXPECT_GT(stats.value("stall_ruu_full_cycles"), 0u);
    EXPECT_EQ(r.instructions, 5u);
}

TEST(RuuCore, QueueWrapsAroundCorrectly)
{
    // A small RUU on a real kernel forces many wraps of the circular
    // queue; value verification (in runRuu) catches any slot-reuse bug.
    UarchConfig config;
    config.poolEntries = 3;
    const Workload &workload = livermoreWorkloads()[4]; // lll05
    auto core = makeCore(CoreKind::Ruu, config);
    RunResult r = core->run(workload.trace());
    EXPECT_TRUE(matchesFunctional(r, workload.func));
}

TEST(RuuCore, NiSaturationBlocksIssueWithNarrowCounters)
{
    // counterBits = 1 allows a single live instance per register: the
    // second in-flight writer of S1 must wait in decode (§5).
    UarchConfig config;
    config.counterBits = 1;
    ProgramBuilder b("t");
    b.smovi(regS(1), 1);
    b.smovi(regS(1), 2);
    b.halt();
    StatSet stats;
    RunResult r = runRuu(b, config, &stats);
    EXPECT_GT(stats.value("stall_ni_saturated_cycles"), 0u);
    EXPECT_EQ(r.state.readInt(regS(1)), 2);
}

TEST(RuuCore, SevenInstancesOfOneRegisterCanBeInFlight)
{
    // Seven writers of S1 issued back to back; all commit in order and
    // the final value is the last one.
    ProgramBuilder b("t");
    for (int i = 1; i <= 7; ++i)
        b.smovi(regS(1), i * 10);
    b.halt();
    StatSet stats;
    RunResult r = runRuu(b, UarchConfig{}, &stats);
    EXPECT_EQ(r.state.readInt(regS(1)), 70);
    EXPECT_EQ(stats.value("stall_ni_saturated_cycles"), 0u);
}

TEST(RuuCore, NoBypassWaitsForTheCommitBus)
{
    // §6.2's aggravated dependency: the producer has *completed* by
    // the time the consumer issues, so without bypass the consumer can
    // only pick the value off the RUU-to-register-file bus when the
    // producer commits — which a long reciprocal chain ahead of the
    // producer delays far beyond its execution. The consumer is the
    // last instruction, so its extra wait lengthens the whole run.
    auto build = [] {
        ProgramBuilder b("t");
        b.fword(100, 4.0);
        b.amovi(regA(1), 0);
        b.lds(regS(1), regA(1), 100);
        b.frecip(regS(2), regS(1));        // ~14 cycles
        b.frecip(regS(2), regS(2));        // plugs commit even longer
        b.sadd(regS(3), regS(6), regS(6)); // producer: executes early
        b.nop();
        b.nop();
        b.nop();
        b.nop();
        b.nop();
        b.nop();
        b.fmul(regS(4), regS(3), regS(3)); // consumer, last instruction
        b.halt();
        return b;
    };
    ProgramBuilder with_bypass = build();
    UarchConfig config;
    RunResult fast = runRuu(with_bypass, config);

    ProgramBuilder no_bypass_b = build();
    config.bypass = BypassMode::None;
    RunResult slow = runRuu(no_bypass_b, config);

    EXPECT_GT(slow.cycles, fast.cycles);
    EXPECT_EQ(slow.state.readInt(regS(4)), fast.state.readInt(regS(4)));
}

TEST(RuuCore, LimitedBypassServesARegisterBranchConditions)
{
    // §6.3: the duplicated A register file lets the branch read A0
    // without waiting for commitment. Compare None vs LimitedA on an
    // A0-conditional loop whose head is plugged by FP work.
    auto build = [] {
        ProgramBuilder b("t");
        b.fword(100, 4.0);
        b.amovi(regA(1), 0);
        b.amovi(regA(6), 1);
        b.amovi(regA(5), 20);
        b.label("loop");
        b.lds(regS(1), regA(1), 100);
        b.fadd(regS(2), regS(2), regS(1));
        b.aadd(regA(1), regA(1), regA(6));
        b.asub(regA(0), regA(1), regA(5));
        b.jam("loop");
        b.halt();
        return b;
    };
    UarchConfig config;
    config.bypass = BypassMode::None;
    ProgramBuilder none_b = build();
    RunResult none = runRuu(none_b, config);

    config.bypass = BypassMode::LimitedA;
    ProgramBuilder limited_b = build();
    StatSet stats;
    RunResult limited = runRuu(limited_b, config, &stats);

    EXPECT_LT(limited.cycles, none.cycles);
    EXPECT_GT(stats.value("future_file_reads"), 0u);
}

TEST(RuuCore, FullBypassReadsExecutedResultsOutOfTheRuu)
{
    ProgramBuilder b("t");
    b.fword(100, 4.0);
    b.amovi(regA(1), 0);
    b.lds(regS(1), regA(1), 100);      // plugs the head (11 cycles)
    b.sadd(regS(3), regS(6), regS(6)); // executes early, commits late
    b.nop();
    b.nop();
    b.nop();
    b.nop();
    b.nop();
    b.nop();
    b.sadd(regS(4), regS(3), regS(3)); // issued after S3 executed
    b.halt();
    StatSet stats;
    runRuu(b, UarchConfig{}, &stats);
    EXPECT_GT(stats.value("bypass_reads"), 0u);
}

class RuuKernelTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(RuuKernelTest, CommitsTheSequentialStateForEveryBypassMode)
{
    const Workload &workload = livermoreWorkloads()
        [static_cast<std::size_t>(std::get<0>(GetParam()))];
    UarchConfig config;
    config.bypass = static_cast<BypassMode>(std::get<1>(GetParam()));
    for (unsigned entries : {3u, 12u, 40u}) {
        config.poolEntries = entries;
        auto core = makeCore(CoreKind::Ruu, config);
        RunResult r = core->run(workload.trace());
        EXPECT_TRUE(matchesFunctional(r, workload.func))
            << workload.name << " entries=" << entries << " bypass="
            << bypassModeName(config.bypass);
        EXPECT_EQ(r.instructions, workload.trace().size());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllBypassModes, RuuKernelTest,
    ::testing::Combine(::testing::Range(0, 14), ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &info) {
        return livermoreWorkloads()
                   [static_cast<std::size_t>(std::get<0>(info.param))]
                       .name +
               "_" +
               bypassModeName(
                   static_cast<BypassMode>(std::get<1>(info.param)));
    });

} // namespace
} // namespace ruu
