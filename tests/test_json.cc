/**
 * @file
 * Tests for the JSON export of runs and configurations (sim/json.hh).
 */

#include <gtest/gtest.h>

#include "kernels/lll.hh"
#include "sim/json.hh"
#include "sim/machine.hh"

namespace ruu
{
namespace
{

/** Crude structural validation: balanced braces, quoted keys. */
void
expectBalanced(const std::string &json)
{
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        char c = json[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{')
            ++depth;
        else if (c == '}')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
}

TEST(Json, ConfigSerializesEveryKnob)
{
    UarchConfig config;
    config.poolEntries = 42;
    config.bypass = BypassMode::LimitedA;
    config.memoryBanks = 8;
    std::string json = configToJson(config);
    expectBalanced(json);
    EXPECT_NE(json.find("\"pool_entries\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"bypass\": \"limited_a\""), std::string::npos);
    EXPECT_NE(json.find("\"memory_banks\": 8"), std::string::npos);
    EXPECT_NE(json.find("\"fp_recip\": 14"), std::string::npos);
}

TEST(Json, ConfigRoundTripsEveryField)
{
    // Every field set off its default must survive configToJson ->
    // parseUarchConfig; a field the writer drops comes back as its
    // default (a served job once lost its mispredict penalty so).
    const UarchConfig model = UarchConfig::cray1();
    const std::vector<unsigned UarchConfig::*> numbers = {
        &UarchConfig::storeLatency,       &UarchConfig::forwardLatency,
        &UarchConfig::branchTakenPenalty, &UarchConfig::branchUntakenPenalty,
        &UarchConfig::loadRegisters,      &UarchConfig::counterBits,
        &UarchConfig::poolEntries,        &UarchConfig::dispatchPaths,
        &UarchConfig::commitWidth,        &UarchConfig::resultBuses,
        &UarchConfig::memoryBanks,        &UarchConfig::bankBusyCycles,
        &UarchConfig::historyEntries,     &UarchConfig::tuEntries,
        &UarchConfig::rsPerFu,            &UarchConfig::predictorTableBits,
        &UarchConfig::predictedTakenPenalty,
        &UarchConfig::mispredictPenalty,
    };
    UarchConfig config = model;
    for (unsigned UarchConfig::*field : numbers)
        config.*field += 1;
    for (unsigned i = 0; i + 1 < kNumFuKinds; ++i) {
        config.fuLatency[i] += 1;
        config.fuCount[i] += 1;
    }
    config.bypass = BypassMode::FutureFile;
    config.predictor = PredictorKind::Btfn;
    ASSERT_EQ(config.validate(), "");

    auto parsed = parseUarchConfig(configToJson(config));
    ASSERT_TRUE(parsed.ok()) << parsed.error().message();
    for (std::size_t i = 0; i < numbers.size(); ++i) {
        EXPECT_NE(config.*numbers[i], model.*numbers[i]);
        EXPECT_EQ((*parsed).*numbers[i], config.*numbers[i])
            << "field " << i << " of the list did not round-trip";
    }
    EXPECT_EQ(parsed->fuLatency, config.fuLatency);
    EXPECT_EQ(parsed->fuCount, config.fuCount);
    EXPECT_EQ(parsed->bypass, config.bypass);
    EXPECT_EQ(parsed->predictor, config.predictor);
    EXPECT_EQ(configToJson(*parsed), configToJson(config));
}

TEST(Json, RunSerializesResultsAndStats)
{
    const Workload &workload = livermoreWorkloads()[0];
    auto core = makeCore(CoreKind::Ruu, UarchConfig{});
    RunResult run = core->run(workload.trace());
    std::string json = runToJson(workload.name, core->name(), run,
                                 core->stats());
    expectBalanced(json);
    EXPECT_NE(json.find("\"workload\": \"lll01\""), std::string::npos);
    EXPECT_NE(json.find("\"core\": \"ruu\""), std::string::npos);
    EXPECT_NE(json.find("\"cycles\": "), std::string::npos);
    EXPECT_NE(json.find("\"commits\": "), std::string::npos);
    EXPECT_NE(json.find("\"ruu_occupancy\": {"), std::string::npos);
    EXPECT_NE(json.find("\"interrupted\": false"), std::string::npos);
}

TEST(Json, InterruptedRunIncludesFaultObject)
{
    const Workload &workload = livermoreWorkloads()[0];
    auto core = makeCore(CoreKind::Ruu, UarchConfig{});
    Trace faulty = workload.trace();
    SeqNum seq = faultableSeqs(faulty)[50];
    faulty.injectFault(seq, Fault::PageFault);
    RunResult run = core->run(faulty);
    std::string json = runToJson(workload.name, core->name(), run,
                                 core->stats());
    expectBalanced(json);
    EXPECT_NE(json.find("\"interrupted\": true"), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"page_fault\""), std::string::npos);
}

TEST(Json, EscapesSpecialCharacters)
{
    RunResult run;
    StatSet stats;
    std::string json = runToJson("we\"ird\nname", "core", run, stats);
    expectBalanced(json);
    EXPECT_NE(json.find("we\\\"ird\\nname"), std::string::npos);
}

} // namespace
} // namespace ruu
