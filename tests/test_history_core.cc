/**
 * @file
 * Tests for the §4 history-buffer machine (HistoryCore,
 * core/window_policies.hh):
 * scoreboard interlocks, eager state update with old-value logging,
 * rollback-based precise interrupts and their rollback cost.
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
runHistory(ProgramBuilder &builder, UarchConfig config = {},
           StatSet *stats_out = nullptr)
{
    Workload workload = makeWorkload(builder.build());
    auto core = makeCore(CoreKind::History, config);
    RunResult result = core->run(workload.trace());
    EXPECT_TRUE(matchesFunctional(result, workload.func));
    if (stats_out)
        *stats_out = core->stats();
    return result;
}

TEST(HistoryCore, SingleInstructionTiming)
{
    // Decode 0, dispatch 1, completes (and retires) at 3: same station
    // pipeline as the RSTU — eager update means no commit cycle.
    ProgramBuilder b("t");
    b.aadd(regA(1), regA(7), regA(7));
    b.halt();
    RunResult r = runHistory(b);
    EXPECT_EQ(r.cycles, 4u);
}

TEST(HistoryCore, ScoreboardBlocksSecondWriterOfARegister)
{
    // The single-outstanding-writer interlock: the second writer of S1
    // waits in decode until the first completes — exactly what the
    // RUU's NI/LI instance counters eliminate.
    ProgramBuilder b("t");
    b.smovi(regS(1), 10);
    b.smovi(regS(1), 20);
    b.halt();
    StatSet stats;
    RunResult r = runHistory(b, UarchConfig{}, &stats);
    EXPECT_GT(stats.value("stall_dest_busy_cycles"), 0u);
    EXPECT_EQ(r.state.readInt(regS(1)), 20);
}

TEST(HistoryCore, HistoryBufferFullBlocksIssue)
{
    UarchConfig config;
    config.historyEntries = 2;
    ProgramBuilder b("t");
    b.fword(100, 4.0);
    b.amovi(regA(1), 0);
    b.lds(regS(1), regA(1), 100); // 11-cycle entry pins the buffer head
    b.sadd(regS(2), regS(6), regS(6));
    b.sadd(regS(3), regS(6), regS(6));
    b.halt();
    StatSet stats;
    runHistory(b, config, &stats);
    EXPECT_GT(stats.value("stall_history_full_cycles"), 0u);
}

TEST(HistoryCore, RollbackRestoresRegistersAndMemory)
{
    // The fault strikes a load; younger instructions have already
    // updated a register and memory, and the unwind must undo both.
    ProgramBuilder b("t");
    b.fword(100, 4.0);
    b.fword(200, 7.0);
    b.smovi(regS(2), 11);
    b.amovi(regA(1), 0);
    b.lds(regS(1), regA(1), 100);    // seq 3: fault here
    b.smovi(regS(2), 99);            // younger: completes first
    b.sts(regA(1), 200, regS(2));    // younger: overwrites memory
    b.halt();
    Workload workload = makeWorkload(b.build());
    auto core = makeCore(CoreKind::History, UarchConfig{});
    Trace faulty = workload.trace();
    faulty.injectFault(3, Fault::PageFault);
    RunResult r = core->run(faulty);
    ASSERT_TRUE(r.interrupted);
    EXPECT_EQ(r.faultSeq, 3u);
    // Both the register and the memory word are back to their
    // pre-fault (sequential prefix) values.
    EXPECT_EQ(r.state.readInt(regS(2)), 11);
    EXPECT_DOUBLE_EQ(wordToDouble(r.memory.at(200)), 7.0);
    EXPECT_GT(core->stats().value("rollback_cycles"), 0u);
}

class HistoryKernelTest : public ::testing::TestWithParam<int>
{
};

TEST_P(HistoryKernelTest, CommitsTheSequentialStateOnEveryKernel)
{
    const Workload &workload =
        livermoreWorkloads()[static_cast<std::size_t>(GetParam())];
    for (unsigned entries : {4u, 16u}) {
        UarchConfig config;
        config.poolEntries = entries;
        config.historyEntries = entries;
        auto core = makeCore(CoreKind::History, config);
        RunResult r = core->run(workload.trace());
        EXPECT_TRUE(matchesFunctional(r, workload.func))
            << workload.name << " entries=" << entries;
        EXPECT_EQ(r.instructions, workload.trace().size());
    }
}

TEST_P(HistoryKernelTest, InterruptsArePreciseAndRestartable)
{
    const Workload &workload =
        livermoreWorkloads()[static_cast<std::size_t>(GetParam())];
    auto positions = faultableSeqs(workload.trace());
    UarchConfig config;
    config.poolEntries = 12;
    config.historyEntries = 12;
    auto core = makeCore(CoreKind::History, config);
    for (SeqNum seq : {positions.front(),
                       positions[positions.size() / 2],
                       positions.back()}) {
        FaultExperiment experiment =
            runFaultAndResume(*core, workload, seq, Fault::PageFault);
        EXPECT_TRUE(experiment.faulted.interrupted)
            << workload.name << " seq=" << seq;
        EXPECT_TRUE(experiment.precise)
            << workload.name << " seq=" << seq;
        EXPECT_TRUE(experiment.resumedExact)
            << workload.name << " seq=" << seq;
    }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, HistoryKernelTest,
                         ::testing::Range(0, 14),
                         [](const ::testing::TestParamInfo<int> &info) {
                             return livermoreWorkloads()
                                 [static_cast<std::size_t>(info.param)]
                                     .name;
                         });

TEST(HistoryShape, FaultRecoveryCostsRollbackCycles)
{
    // Interrupt latency: the RUU delivers a precise state the cycle
    // the fault reaches the head; the history machine must drain and
    // unwind first.
    const Workload &workload = livermoreWorkloads()[6];
    auto positions = faultableSeqs(workload.trace());
    SeqNum seq = positions[positions.size() / 2];
    Trace faulty = workload.trace();
    faulty.injectFault(seq, Fault::PageFault);

    UarchConfig config;
    config.poolEntries = 15;
    config.historyEntries = 15;
    auto history = makeCore(CoreKind::History, config);
    RunResult hb = history->run(faulty);
    ASSERT_TRUE(hb.interrupted);
    EXPECT_GT(history->stats().value("rollback_cycles"), 0u);
}

} // namespace
} // namespace ruu
