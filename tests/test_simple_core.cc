/**
 * @file
 * Cycle-exact tests for the baseline in-order issue mechanism
 * (core/simple_core.hh). Each micro-sequence's cycle count is derived
 * by hand from the model's issue rules: one instruction per cycle,
 * issue blocks on busy source/destination registers and result-bus
 * conflicts, branches resolve in the issue stage and cost dead cycles
 * (5 taken / 2 untaken), and the run ends one cycle after the last
 * completion.
 */

#include <gtest/gtest.h>

#include "asm/builder.hh"
#include "kernels/lll.hh"
#include "sim/machine.hh"

namespace ruu
{
namespace
{

RunResult
runSimple(ProgramBuilder &builder, StatSet *stats_out = nullptr)
{
    Workload workload = makeWorkload(builder.build());
    auto core = makeCore(CoreKind::Simple, UarchConfig{});
    RunResult result = core->run(workload.trace());
    EXPECT_TRUE(matchesFunctional(result, workload.func));
    if (stats_out)
        *stats_out = core->stats();
    return result;
}

TEST(SimpleCore, SingleInstructionLatency)
{
    // AADD issues at 0 and completes at 2 (address-add latency);
    // HALT issues at 1. End = max(2, 1) + 1 = 3 cycles.
    ProgramBuilder b("t");
    b.aadd(regA(1), regA(7), regA(7));
    b.halt();
    RunResult r = runSimple(b);
    EXPECT_EQ(r.cycles, 3u);
    EXPECT_EQ(r.instructions, 2u);
}

TEST(SimpleCore, DependentChainWaitsForTheBus)
{
    // i0: AADD A1 (issue 0, done 2); i1: AADD A2 = A1+A1 stalls on A1
    // until 2 (done 4); HALT at 3. 5 cycles total.
    ProgramBuilder b("t");
    b.aadd(regA(1), regA(7), regA(7));
    b.aadd(regA(2), regA(1), regA(1));
    b.halt();
    StatSet stats;
    RunResult r = runSimple(b, &stats);
    EXPECT_EQ(r.cycles, 5u);
    EXPECT_EQ(stats.value("stall_src_cycles"), 1u);
}

TEST(SimpleCore, ResultBusConflictDelaysIssue)
{
    // AADD (lat 2) at cycle 0 books bus slot 2. SAND (lat 1) wants to
    // issue at 1 with delivery at 2 — taken — so it slips to cycle 2
    // (delivery 3). HALT at 3. End = 4 cycles.
    ProgramBuilder b("t");
    b.aadd(regA(1), regA(7), regA(7));
    b.sand(regS(1), regS(7), regS(7));
    b.halt();
    StatSet stats;
    RunResult r = runSimple(b, &stats);
    EXPECT_EQ(r.cycles, 4u);
    EXPECT_EQ(stats.value("stall_bus_cycles"), 1u);
}

TEST(SimpleCore, DestinationInterlockBlocksIssue)
{
    // The CRAY-1 rule: a second writer of A1 cannot issue while the
    // first is outstanding. AADD A1 done at 2; MOVA A1 issues at 2.
    ProgramBuilder b("t");
    b.aadd(regA(1), regA(7), regA(7));
    b.mova(regA(1), regA(6));
    b.halt();
    StatSet stats;
    RunResult r = runSimple(b, &stats);
    // MOVA at 2 (transmit lat 1, done 3), HALT at 3: 4 cycles.
    EXPECT_EQ(r.cycles, 4u);
    EXPECT_EQ(stats.value("stall_dst_cycles"), 1u);
}

TEST(SimpleCore, UntakenBranchCostsTwoCycles)
{
    // AADD A0 = 0+0 at 0 (done 2). JAM waits for A0 (cycle 2), falls
    // through, next issue at 2+2 = 4. NOP 4, HALT 5. 6 cycles.
    ProgramBuilder b("t");
    b.aadd(regA(0), regA(7), regA(7));
    b.jam("next");
    b.label("next");
    b.nop();
    b.halt();
    StatSet stats;
    RunResult r = runSimple(b, &stats);
    EXPECT_EQ(r.cycles, 6u);
    EXPECT_EQ(stats.value("branch_dead_cycles"), 2u);
    EXPECT_EQ(stats.value("taken_branches"), 0u);
}

TEST(SimpleCore, TakenBranchCostsFiveCycles)
{
    // AMOVI A7 = -1 (0, done 1); AADD A0 = A7+A7 (1, done 3); JAM at 3
    // taken (to the very next instruction), next issue at 3+5 = 8.
    // NOP 8, HALT 9: 10 cycles.
    ProgramBuilder b("t");
    b.amovi(regA(7), -1);
    b.aadd(regA(0), regA(7), regA(7));
    b.jam("next");
    b.label("next");
    b.nop();
    b.halt();
    StatSet stats;
    RunResult r = runSimple(b, &stats);
    EXPECT_EQ(r.cycles, 10u);
    EXPECT_EQ(stats.value("taken_branches"), 1u);
    EXPECT_EQ(stats.value("stall_branch_cond_cycles"), 1u);
}

TEST(SimpleCore, StoresBypassTheResultBus)
{
    // AMOVI A1 (0, done 1); STS waits for A1 (1), memory write done at
    // 12; HALT at 2. End = 13 cycles. No bus stall: stores produce no
    // register result.
    ProgramBuilder b("t");
    b.amovi(regA(1), 0);
    b.sts(regA(1), 100, regS(7));
    b.halt();
    StatSet stats;
    RunResult r = runSimple(b, &stats);
    EXPECT_EQ(r.cycles, 13u);
    EXPECT_EQ(stats.value("stall_bus_cycles"), 0u);
    EXPECT_EQ(r.memory.at(100), 0u);
}

TEST(SimpleCore, LoadLatencyIsElevenCycles)
{
    ProgramBuilder b("t");
    b.fword(100, 2.5);
    b.amovi(regA(1), 0);
    b.lds(regS(1), regA(1), 100);   // issue 1, data at 12
    b.fadd(regS(2), regS(1), regS(1)); // issue 12, done 18
    b.halt();
    RunResult r = runSimple(b);
    EXPECT_EQ(r.cycles, 19u);
    EXPECT_DOUBLE_EQ(r.state.readDouble(regS(2)), 5.0);
}

TEST(SimpleCore, InstructionBufferMissDelaysColdStart)
{
    ProgramBuilder b("t");
    b.nop();
    b.halt();
    Workload workload = makeWorkload(b.build());
    auto core = makeCore(CoreKind::Simple, UarchConfig{});
    RunOptions options;
    options.modelIBuffers = true;
    RunResult r = core->run(workload.trace(), options);
    // The first fetch misses all four buffers: 14-cycle refill.
    EXPECT_EQ(r.cycles, 16u);
    EXPECT_EQ(core->stats().value("ibuffer_miss_cycles"), 14u);
}

TEST(SimpleCore, ImpreciseInterruptLeavesYoungerResultsBehind)
{
    // A faulting load completes at issue+11; a logical op issued after
    // it completes at issue+2 and has already updated the register
    // file when the fault is detected — the interrupt is imprecise.
    ProgramBuilder b("t");
    b.amovi(regA(1), 0);
    b.lds(regS(1), regA(1), 100);     // seq 1: will fault
    b.smovi(regS(2), 42);             // seq 2: completes first
    b.halt();
    Workload workload = makeWorkload(b.build());
    Trace faulty = workload.trace();
    faulty.injectFault(1, Fault::PageFault);

    auto core = makeCore(CoreKind::Simple, UarchConfig{});
    RunResult r = core->run(faulty);
    EXPECT_TRUE(r.interrupted);
    EXPECT_EQ(r.fault, Fault::PageFault);
    EXPECT_EQ(r.faultSeq, 1u);
    EXPECT_EQ(r.faultPc, workload.trace().at(1).pc);
    // S1 (the faulting load's target) is untouched, but S2 — younger
    // than the fault — has been written: no sequential prefix matches.
    EXPECT_EQ(r.state.readInt(regS(1)), 0);
    EXPECT_EQ(r.state.readInt(regS(2)), 42);
}

TEST(SimpleCore, ReportsName)
{
    auto core = makeCore(CoreKind::Simple, UarchConfig{});
    EXPECT_STREQ(core->name(), "simple");
}

} // namespace
} // namespace ruu
