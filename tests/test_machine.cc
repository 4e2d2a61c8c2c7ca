/**
 * @file
 * Tests for the simulation facade (sim/machine.hh) and the experiment
 * helpers (sim/experiment.hh, sim/report.hh).
 */

#include <gtest/gtest.h>

#include "kernels/lll.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

namespace ruu
{
namespace
{

TEST(Machine, CoreFactoryBuildsEveryKind)
{
    for (CoreKind kind : {CoreKind::Simple, CoreKind::Tomasulo,
                          CoreKind::Rstu, CoreKind::Ruu,
                          CoreKind::SpecRuu, CoreKind::History}) {
        auto core = makeCore(kind, UarchConfig{});
        ASSERT_NE(core, nullptr);
        EXPECT_STREQ(core->name(), coreKindName(kind));
    }
}

TEST(Machine, WorkloadFromSourceAssemblesAndRuns)
{
    Workload workload = workloadFromSource(R"(
.program tiny
    smovi S1, 21
    sadd S1, S1, S1
    amovi A1, 0
    sts 100(A1), S1
    halt
)");
    EXPECT_EQ(workload.name, "tiny");
    EXPECT_EQ(workload.trace().size(), 5u);
    EXPECT_EQ(workload.func.finalMemory.at(100), 42u);
}

TEST(Machine, GoldenMemoryIsCompactedToItsLastStore)
{
    // The golden image holds words only up to its highest store; it
    // still spans the full capacity and compares equal to the dense
    // image a timing run commits.
    Workload workload = workloadFromSource(R"(
.program tiny
    smovi S1, 21
    amovi A1, 0
    sts 100(A1), S1
    sts 7(A1), S1
    halt
)");
    const Memory &golden = workload.func.finalMemory;
    EXPECT_EQ(golden.sizeWords(), Memory::kDefaultWords);
    EXPECT_EQ(golden.backedWords(), 101u);
    EXPECT_EQ(golden.at(Memory::kDefaultWords - 1), 0u);
    auto core = makeCore(CoreKind::Ruu, UarchConfig{});
    RunResult run = core->run(workload.trace());
    EXPECT_EQ(run.memory.backedWords(), Memory::kDefaultWords);
    EXPECT_TRUE(matchesFunctional(run, workload.func));
}

TEST(Memory, CompactAndDenseAreEqualExactlyWhenContentsAndCapacityAre)
{
    Memory dense(4096);
    dense.set(10, 5);
    dense.set(300, 7);
    Memory compact = dense;
    compact.compact(301);
    EXPECT_EQ(compact.backedWords(), 301u);
    EXPECT_TRUE(compact == dense);
    EXPECT_TRUE(dense == compact);

    // Reads past the backing are zero; unmapped reads still fault.
    EXPECT_EQ(compact.load(4000), std::optional<Word>(0));
    EXPECT_EQ(compact.load(4096), std::nullopt);
    EXPECT_FALSE(compact.store(4096, 1));

    // A differing word anywhere, inside or past the backing, or a
    // differing capacity, breaks equality either way round.
    for (Addr addr : {Addr{10}, Addr{300}, Addr{301}, Addr{4095}}) {
        Memory other = dense;
        other.set(addr, 99);
        EXPECT_FALSE(compact == other) << addr;
        EXPECT_FALSE(other == compact) << addr;
    }
    Memory larger(8192);
    larger.set(10, 5);
    larger.set(300, 7);
    larger.compact(301);
    EXPECT_FALSE(compact == larger);
    EXPECT_FALSE(dense == larger);

    // A store past the backing grows it to the full capacity.
    compact.set(4000, 3);
    EXPECT_EQ(compact.backedWords(), 4096u);
    EXPECT_EQ(compact.at(4000), 3u);
    EXPECT_FALSE(compact == dense);
    dense.set(4000, 3);
    EXPECT_TRUE(compact == dense);

    // Two compact images of different backing lengths.
    Memory shortA(4096), shortB(4096);
    shortA.set(5, 1);
    shortB.set(5, 1);
    shortA.compact(6);
    EXPECT_TRUE(shortA == shortB);
    shortB.compact(4096);
    EXPECT_EQ(shortB.backedWords(), 6u);
    EXPECT_TRUE(shortA == shortB);
    Memory empty(4096);
    empty.compact(4096);
    EXPECT_EQ(empty.backedWords(), 0u);
    EXPECT_TRUE(empty == Memory(4096));
    EXPECT_FALSE(empty == shortA);
}

TEST(MachineDeath, WorkloadFromBadSourceIsFatal)
{
    EXPECT_DEATH(workloadFromSource("bogus S1\n"), "assembly");
}

TEST(MachineDeath, NonHaltingProgramIsFatal)
{
    EXPECT_DEATH(workloadFromSource("spin: j spin\n"), "did not halt");
}

TEST(Machine, FaultableSeqsExcludeControlAndBareInstructions)
{
    const Workload &workload = livermoreWorkloads()[0];
    auto seqs = faultableSeqs(workload.trace());
    EXPECT_FALSE(seqs.empty());
    for (SeqNum seq : seqs) {
        const Instruction &inst = workload.trace().at(seq).inst;
        EXPECT_FALSE(isBranch(inst.op));
        EXPECT_NE(inst.op, Opcode::HALT);
        EXPECT_NE(inst.op, Opcode::NOP);
    }
}

TEST(Machine, MatchesFunctionalDetectsDifferences)
{
    const Workload &workload = livermoreWorkloads()[0];
    auto core = makeCore(CoreKind::Ruu, UarchConfig{});
    RunResult r = core->run(workload.trace());
    EXPECT_TRUE(matchesFunctional(r, workload.func));
    r.state.write(regT(63), 0xdeadbeef);
    EXPECT_FALSE(matchesFunctional(r, workload.func));
}

TEST(Experiment, SweepProducesOneRowPerSize)
{
    std::vector<Workload> one = {livermoreWorkloads()[11]}; // small
    AggregateResult baseline = runSuite(CoreKind::Simple, UarchConfig{},
                                        one);
    auto points = sweepPoolSize(CoreKind::Rstu, UarchConfig{},
                                {4u, 16u}, one, baseline.cycles);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].entries, 4u);
    EXPECT_EQ(points[1].entries, 16u);
    EXPECT_GE(points[1].speedup, points[0].speedup);
    EXPECT_GT(points[0].total.issueRate(), 0.0);
}

TEST(Report, ComparisonRendersPaperAndMeasuredColumns)
{
    std::vector<PaperRow> paper = {{4, 1.14, 0.499}, {16, 1.76, 0.77}};
    std::vector<SweepPoint> measured(2);
    measured[0].entries = 4;
    measured[0].speedup = 1.1;
    measured[0].total = {1000, 450};
    measured[1].entries = 8; // no paper row: rendered with blanks
    measured[1].speedup = 1.5;
    measured[1].total = {800, 450};
    std::string out = renderComparison("Table X", paper, measured);
    EXPECT_NE(out.find("Table X"), std::string::npos);
    EXPECT_NE(out.find("1.140"), std::string::npos);
    EXPECT_NE(out.find("1.100"), std::string::npos);
    EXPECT_NE(out.find("-"), std::string::npos);
}

TEST(Report, BaselineTableIncludesTotals)
{
    std::vector<BaselineRow> rows = {{"lll01", 100, 400},
                                     {"lll02", 300, 600}};
    std::string out = renderBaseline("Table 1", rows);
    EXPECT_NE(out.find("Total"), std::string::npos);
    EXPECT_NE(out.find("0.400"), std::string::npos); // 400/1000
    EXPECT_NE(out.find("1000"), std::string::npos);
}

} // namespace
} // namespace ruu
