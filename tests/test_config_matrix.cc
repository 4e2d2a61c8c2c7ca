/**
 * @file
 * Configuration-matrix correctness: the structural knobs added on top
 * of the paper's model (result-bus width, memory banks, dispatch
 * paths, commit width) must never change committed values, only
 * timing. Each variant runs every core on a few kernels and checks
 * exact architectural equality with the functional execution, plus the
 * basic sanity that adding a resource never slows the machine down and
 * adding a constraint never speeds it up.
 */

#include <gtest/gtest.h>

#include "kernels/lll.hh"
#include "sim/experiment.hh"

namespace ruu
{
namespace
{

struct Variant
{
    const char *name;
    void (*mutate)(UarchConfig &);
};

const Variant kVariants[] = {
    {"two_buses", [](UarchConfig &c) { c.resultBuses = 2; }},
    {"two_paths_two_buses",
     [](UarchConfig &c) {
         c.dispatchPaths = 2;
         c.resultBuses = 2;
     }},
    {"banks16", [](UarchConfig &c) { c.memoryBanks = 16; }},
    {"banks4_slow",
     [](UarchConfig &c) {
         c.memoryBanks = 4;
         c.bankBusyCycles = 8;
     }},
    {"commit2", [](UarchConfig &c) { c.commitWidth = 2; }},
    {"kitchen_sink",
     [](UarchConfig &c) {
         c.resultBuses = 2;
         c.dispatchPaths = 2;
         c.commitWidth = 2;
         c.memoryBanks = 16;
         c.counterBits = 4;
         c.loadRegisters = 8;
     }},
};

class ConfigMatrix
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ConfigMatrix, EveryCoreCommitsTheSequentialState)
{
    const Variant &variant = kVariants[std::get<0>(GetParam())];
    const Workload &workload = livermoreWorkloads()
        [static_cast<std::size_t>(std::get<1>(GetParam()))];
    UarchConfig config = UarchConfig::cray1();
    config.poolEntries = 12;
    config.historyEntries = 12;
    variant.mutate(config);
    ASSERT_EQ(config.validate(), "");

    for (CoreKind kind : {CoreKind::Simple, CoreKind::Tomasulo,
                          CoreKind::Rstu, CoreKind::Ruu,
                          CoreKind::SpecRuu, CoreKind::History}) {
        auto core = makeCore(kind, config);
        RunResult run = core->run(workload.trace());
        EXPECT_TRUE(matchesFunctional(run, workload.func))
            << variant.name << " / " << core->name() << " / "
            << workload.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsTimesKernels, ConfigMatrix,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(0, 5, 12)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &info) {
        return std::string(kVariants[std::get<0>(info.param)].name) +
               "_" +
               livermoreWorkloads()
                   [static_cast<std::size_t>(std::get<1>(info.param))]
                       .name;
    });

TEST(ConfigMonotonicity, ResourcesNeverHurtConstraintsNeverHelp)
{
    const auto &workloads = livermoreWorkloads();
    UarchConfig base = UarchConfig::cray1();
    base.poolEntries = 15;
    AggregateResult reference = runSuite(CoreKind::Ruu, base, workloads);

    // More buses / wider commit / more load registers: never slower
    // beyond greedy-scheduler wobble (oldest-first dispatch is not a
    // strictly monotone policy; a new resource can perturb the
    // schedule by a fraction of a percent).
    for (auto mutate : {+[](UarchConfig &c) { c.resultBuses = 2; },
                        +[](UarchConfig &c) { c.commitWidth = 2; },
                        +[](UarchConfig &c) { c.loadRegisters = 8; },
                        +[](UarchConfig &c) { c.counterBits = 5; }}) {
        UarchConfig config = base;
        mutate(config);
        AggregateResult richer = runSuite(CoreKind::Ruu, config,
                                          workloads);
        EXPECT_LE(static_cast<double>(richer.cycles),
                  1.005 * static_cast<double>(reference.cycles));
    }

    // Bank conflicts / fewer load registers: never faster than a small
    // tolerance (dispatch-order perturbations can produce sub-0.5%
    // wobble, as EXPERIMENTS.md's assumptions block shows).
    for (auto mutate :
         {+[](UarchConfig &c) { c.memoryBanks = 4; },
          +[](UarchConfig &c) { c.loadRegisters = 2; }}) {
        UarchConfig config = base;
        mutate(config);
        AggregateResult poorer = runSuite(CoreKind::Ruu, config,
                                          workloads);
        EXPECT_GE(static_cast<double>(poorer.cycles),
                  0.99 * static_cast<double>(reference.cycles));
    }
}

} // namespace
} // namespace ruu
