/**
 * @file
 * Tests for the §7 extension core (SpecRuuCore, core/window_policies.hh):
 * conditional execution from predicted paths, nullification on
 * misprediction, and the predictor design space.
 */

#include <gtest/gtest.h>

#include "asm/builder.hh"
#include "kernels/lll.hh"
#include "sim/experiment.hh"

namespace ruu
{
namespace
{

TEST(SpecRuuCore, LoopBranchesArePredictedAndCommitCorrectly)
{
    // A tight counting loop whose condition is produced right before
    // the branch, so the branch can never resolve at decode and every
    // iteration is genuinely predicted.
    ProgramBuilder b("t");
    b.amovi(regA(1), 0);
    b.amovi(regA(6), 1);
    b.amovi(regA(5), 200);
    b.label("loop");
    b.aadd(regA(1), regA(1), regA(6));
    b.asub(regA(0), regA(1), regA(5));
    b.jam("loop");
    b.halt();
    Workload workload = makeWorkload(b.build());
    UarchConfig config;
    config.poolEntries = 20;
    auto core = makeCore(CoreKind::SpecRuu, config);
    RunResult r = core->run(workload.trace());
    EXPECT_TRUE(matchesFunctional(r, workload.func));
    // The Smith counters keep the loop branch taken; only the final
    // fall-through mispredicts, fetching down the wrong path.
    EXPECT_GT(core->stats().value("predicted_correct"), 190u);
    EXPECT_GE(core->stats().value("mispredicts"), 1u);
    EXPECT_GT(core->stats().value("wrong_path_decoded"), 0u);
}

TEST(SpecRuuCore, WrongPathWorkIsNullifiedNotCommitted)
{
    // A branch whose prediction is wrong: the wrong-path instructions
    // (including register writers) must leave no architectural trace.
    ProgramBuilder b("t");
    b.amovi(regA(7), 1);
    b.aadd(regA(0), regA(7), regA(7)); // A0 = 2 > 0: fall through
    b.jam("target");                   // predicted taken, actually not
    b.smovi(regS(1), 111);             // correct path
    b.halt();
    b.label("target");
    b.smovi(regS(1), 999);             // wrong path
    b.smovi(regS(2), 999);
    b.halt();
    Workload workload = makeWorkload(b.build());
    auto core = makeCore(CoreKind::SpecRuu, UarchConfig{});
    RunResult r = core->run(workload.trace());
    EXPECT_TRUE(matchesFunctional(r, workload.func));
    EXPECT_EQ(r.state.readInt(regS(1)), 111);
    EXPECT_EQ(r.state.readInt(regS(2)), 0);
    EXPECT_EQ(core->stats().value("mispredicts"), 1u);
    EXPECT_GT(core->stats().value("squashed_entries"), 0u);
}

TEST(SpecRuuCore, MultipleUnresolvedBranchesAreAllowed)
{
    // §7: "there is no hard limit to the number of branches that can
    // be predicted" — a chain of quick branches behind one slow
    // condition producer keeps several unresolved at once.
    ProgramBuilder b("t");
    b.fword(100, 4.0);
    b.amovi(regA(1), 0);
    b.amovi(regA(6), 1);
    b.amovi(regA(5), 30);
    b.amovi(regA(3), 0);
    b.label("loop");
    b.lds(regS(1), regA(3), 100);      // fixed address: always 4.0
    b.frecip(regS(2), regS(1));
    b.aadd(regA(1), regA(1), regA(6));
    b.asub(regA(0), regA(1), regA(5));
    b.jam("loop");
    b.halt();
    Workload workload = makeWorkload(b.build());
    UarchConfig config;
    config.poolEntries = 30;
    auto core = makeCore(CoreKind::SpecRuu, config);
    RunResult r = core->run(workload.trace());
    EXPECT_TRUE(matchesFunctional(r, workload.func));
    EXPECT_EQ(core->stats().value("branches"), 30u);
}

class SpecKernelTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SpecKernelTest, CommitsTheSequentialStateOnEveryKernel)
{
    const Workload &workload =
        livermoreWorkloads()[static_cast<std::size_t>(GetParam())];
    for (unsigned entries : {8u, 20u}) {
        UarchConfig config;
        config.poolEntries = entries;
        auto core = makeCore(CoreKind::SpecRuu, config);
        RunResult r = core->run(workload.trace());
        EXPECT_TRUE(matchesFunctional(r, workload.func))
            << workload.name << " entries=" << entries;
        EXPECT_EQ(r.instructions, workload.trace().size());
    }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, SpecKernelTest,
                         ::testing::Range(0, 14));

class SpecPredictorTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SpecPredictorTest, EveryPredictorKindIsCorrect)
{
    // Correctness must not depend on prediction quality.
    UarchConfig config;
    config.poolEntries = 16;
    config.predictor = static_cast<PredictorKind>(GetParam());
    auto core = makeCore(CoreKind::SpecRuu, config);
    for (int i : {0, 4, 10, 13}) {
        const Workload &workload =
            livermoreWorkloads()[static_cast<std::size_t>(i)];
        RunResult r = core->run(workload.trace());
        EXPECT_TRUE(matchesFunctional(r, workload.func))
            << workload.name << " predictor="
            << predictorKindName(config.predictor);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPredictors, SpecPredictorTest, ::testing::Range(0, 4),
    [](const ::testing::TestParamInfo<int> &info) {
        return predictorKindName(
            static_cast<PredictorKind>(info.param));
    });

TEST(SpecRuuCoreDeath, RequiresFullBypass)
{
    UarchConfig config;
    config.bypass = BypassMode::None;
    EXPECT_DEATH(makeCore(CoreKind::SpecRuu, config),
                 "full-bypass");
}

} // namespace
} // namespace ruu
