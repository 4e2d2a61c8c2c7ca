/**
 * @file
 * Cross-cutting integration tests: every core on every kernel commits
 * the sequential architectural state.
 */

#include <gtest/gtest.h>

#include "kernels/lll.hh"
#include "sim/experiment.hh"

namespace ruu
{
namespace
{

class EveryCoreEveryKernel
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(EveryCoreEveryKernel, CommitsTheSequentialState)
{
    CoreKind kind = static_cast<CoreKind>(std::get<0>(GetParam()));
    const Workload &workload = livermoreWorkloads()
        [static_cast<std::size_t>(std::get<1>(GetParam()))];
    UarchConfig config;
    config.poolEntries = 12;
    auto core = makeCore(kind, config);
    RunResult r = core->run(workload.trace());
    EXPECT_FALSE(r.interrupted);
    EXPECT_TRUE(matchesFunctional(r, workload.func))
        << coreKindName(kind) << " on " << workload.name;
    EXPECT_EQ(r.instructions, workload.trace().size());
    EXPECT_GT(r.cycles, workload.trace().size() / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EveryCoreEveryKernel,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Range(0, 14)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &info) {
        return std::string(coreKindName(
                   static_cast<CoreKind>(std::get<0>(info.param)))) +
               "_" +
               livermoreWorkloads()
                   [static_cast<std::size_t>(std::get<1>(info.param))]
                       .name;
    });

TEST(IntegrationShape, InstructionBuffersCostLittleOnTheseLoops)
{
    // §2.2 assumptions (ii)-(iii): all instruction references hit the
    // buffers. Modeling the buffers explicitly must barely change the
    // cycle counts, because every kernel loop fits in 4 x 64 parcels.
    const Workload &workload = livermoreWorkloads()[0];
    UarchConfig config;
    auto core = makeCore(CoreKind::Ruu, config);
    RunResult without = core->run(workload.trace());
    RunOptions options;
    options.modelIBuffers = true;
    RunResult with = core->run(workload.trace(), options);
    EXPECT_TRUE(matchesFunctional(with, workload.func));
    EXPECT_GE(with.cycles, without.cycles);
    EXPECT_LT(with.cycles, without.cycles + 200);
}

} // namespace
} // namespace ruu
