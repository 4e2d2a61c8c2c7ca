/**
 * @file
 * Differential fuzzing: every issue-logic core must commit exactly the
 * sequential architectural state on randomly generated programs, for
 * many seeds, across aggressive configurations (tiny pools to force
 * wraparound and structural stalls, wide dispatch, narrow counters,
 * banked memory). The random programs mix every instruction class,
 * loops, inter-file traffic, and memory reuse (store-to-load
 * forwarding triggers constantly inside the small data window).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <random>
#include <thread>

#include <stdlib.h>

#include "asm/builder.hh"
#include "common/flat_json.hh"
#include "common/io_faults.hh"
#include "engine/engine.hh"
#include "engine/stream.hh"
#include "inject/snapshot.hh"
#include "kernels/lll.hh"
#include "isa/encoding.hh"
#include "lint/analyze.hh"
#include "lint/dataflow_bound.hh"
#include "lint/resource_bound.hh"
#include "lint/wcirt.hh"
#include "oracle/commit_oracle.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/json.hh"
#include "sim/machine.hh"
#include "sim/random_program.hh"
#include "trap/controller.hh"
#include "trap/handlers.hh"

namespace ruu
{
namespace
{

class FuzzSeeds : public ::testing::TestWithParam<int>
{
  protected:
    Workload
    workload() const
    {
        return makeWorkload(generateRandomProgram(
            static_cast<std::uint64_t>(GetParam()) * 977 + 13));
    }
};

TEST_P(FuzzSeeds, EveryCoreMatchesTheFunctionalSimulator)
{
    Workload w = workload();
    ASSERT_TRUE(w.func.halted);
    for (CoreKind kind : {CoreKind::Simple, CoreKind::Tomasulo,
                          CoreKind::Rstu, CoreKind::Ruu,
                          CoreKind::SpecRuu, CoreKind::History}) {
        UarchConfig config = UarchConfig::cray1();
        config.poolEntries = 6; // small: force wraparound and stalls
        config.historyEntries = 6;
        config.tuEntries = 6;
        config.checkInvariants = true; // panic on tag/bus/order bugs
        auto core = makeCore(kind, config);
        RunResult run = core->run(w.trace());
        EXPECT_FALSE(run.interrupted) << core->name();
        EXPECT_TRUE(matchesFunctional(run, w.func))
            << core->name() << " diverged on " << w.name;
        EXPECT_EQ(run.instructions, w.trace().size()) << core->name();
    }
}

TEST_P(FuzzSeeds, DifferentialCommitOracleAcceptsEveryCore)
{
    // Lockstep differential mode: the commit oracle re-executes every
    // random program instruction-by-instruction against each core's
    // commit stream, checking order discipline, per-commit values, and
    // the final architectural state — a much sharper net than the
    // end-of-run comparison above.
    Workload w = workload();
    for (CoreKind kind : {CoreKind::Simple, CoreKind::Tomasulo,
                          CoreKind::Rstu, CoreKind::Ruu,
                          CoreKind::SpecRuu, CoreKind::History}) {
        UarchConfig config = UarchConfig::cray1();
        config.poolEntries = 6; // small: force wraparound and stalls
        config.historyEntries = 6;
        config.tuEntries = 6;
        auto core = makeCore(kind, config);
        RunOptions options;
        oracle::CommitOracle oracle(w.trace(), *core, options);
        options.observer = &oracle;
        RunResult run = core->run(w.trace(), options);
        EXPECT_TRUE(oracle.finish(run))
            << core->name() << " on " << w.name << ":\n"
            << oracle.report();
    }
}

TEST_P(FuzzSeeds, BothEnginesAreBitExactOnRandomPrograms)
{
    // Cross-engine differential mode: every random program, on every
    // core, must produce byte-identical JSON and an identical commit
    // stream under the interpretive and the compiled cycle engine —
    // uninterrupted and with a seed-derived external interrupt cycle.
    // The small pool forces wraparound, structural stalls, and (on the
    // RUU machines) the compiled path's incremental dispatch/wakeup/
    // completion indices through their squash paths.
    struct Log : CommitObserver
    {
        std::vector<std::pair<SeqNum, Word>> commits;
        void onCommit(SeqNum seq, const TraceRecord &record) override
        {
            commits.emplace_back(seq, record.result);
        }
    };
    Workload w = workload();
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 3371 +
                        97);
    std::uniform_int_distribution<Cycle> pick(1, 500);
    const Cycle interruptCycle = pick(rng);

    ::unsetenv("RUU_ENGINE");
    const engine::Kind saved = engine::defaultKind();
    auto runWith = [&](engine::Kind engineKind, CoreKind coreKind,
                       Cycle at) {
        engine::setDefaultKind(engineKind);
        UarchConfig config = UarchConfig::cray1();
        config.poolEntries = 6;
        config.historyEntries = 6;
        config.tuEntries = 6;
        config.checkInvariants = true;
        auto core = makeCore(coreKind, config);
        Log log;
        RunOptions options;
        options.observer = &log;
        options.interruptAt = at;
        RunResult run = core->run(w.trace(), options);
        return std::make_pair(
            runToJson(w.name, core->name(), run, core->stats()),
            std::move(log.commits));
    };
    for (CoreKind kind : {CoreKind::Simple, CoreKind::Tomasulo,
                          CoreKind::Rstu, CoreKind::Ruu,
                          CoreKind::SpecRuu, CoreKind::History}) {
        for (Cycle at : {kNoCycle, interruptCycle}) {
            auto interp = runWith(engine::Kind::Interp, kind, at);
            auto compiled = runWith(engine::Kind::Compiled, kind, at);
            EXPECT_EQ(interp.first, compiled.first)
                << coreKindName(kind) << " on " << w.name
                << " (interrupt at " << at << ")";
            EXPECT_EQ(interp.second, compiled.second)
                << coreKindName(kind) << " commit streams diverged on "
                << w.name << " (interrupt at " << at << ")";
        }
    }
    engine::setDefaultKind(saved);
}

TEST_P(FuzzSeeds, AggressiveConfigurationsStayCorrect)
{
    Workload w = workload();
    struct Variant
    {
        const char *label;
        void (*mutate)(UarchConfig &);
    };
    for (const Variant &variant : {
             Variant{"wide", [](UarchConfig &c) {
                 c.poolEntries = 40;
                 c.dispatchPaths = 2;
                 c.resultBuses = 2;
             }},
             Variant{"narrow-counters", [](UarchConfig &c) {
                 c.poolEntries = 20;
                 c.counterBits = 1;
             }},
             Variant{"banked", [](UarchConfig &c) {
                 c.poolEntries = 12;
                 c.memoryBanks = 4;
                 c.bankBusyCycles = 6;
             }},
             Variant{"starved", [](UarchConfig &c) {
                 c.poolEntries = 3;
                 c.loadRegisters = 1;
             }},
         }) {
        UarchConfig config = UarchConfig::cray1();
        variant.mutate(config);
        for (CoreKind kind :
             {CoreKind::Rstu, CoreKind::Ruu, CoreKind::SpecRuu}) {
            auto core = makeCore(kind, config);
            RunResult run = core->run(w.trace());
            EXPECT_TRUE(matchesFunctional(run, w.func))
                << core->name() << " / " << variant.label;
        }
    }
}

TEST_P(FuzzSeeds, GeneratedProgramsPassTheLinter)
{
    // The generator's register conventions (every B/T source
    // initialized in the prologue, A5/A6/A7 controlled) must keep
    // random programs free of static errors; style warnings about
    // B/T writes inside random loop bodies are expected.
    Workload w = workload();
    auto diags = lint::analyze(*w.program);
    for (const auto &diag : diags)
        EXPECT_NE(diag.severity, lint::Severity::Error)
            << w.name << ": " << diag.toString();
}

TEST_P(FuzzSeeds, GeneratedProgramsEncodeAndDecode)
{
    Workload w = workload();
    auto image = encodeAll(w.program->instructions());
    auto decoded = decodeAll(image);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, w.program->instructions());
}

TEST_P(FuzzSeeds, FaultsArePreciseOnRandomPrograms)
{
    Workload w = workload();
    auto positions = faultableSeqs(w.trace());
    ASSERT_FALSE(positions.empty());
    SeqNum seq = positions[positions.size() / 2];
    for (CoreKind kind : {CoreKind::Ruu, CoreKind::History}) {
        UarchConfig config = UarchConfig::cray1();
        config.poolEntries = 8;
        config.historyEntries = 8;
        auto core = makeCore(kind, config);
        FaultExperiment experiment =
            runFaultAndResume(*core, w, seq, Fault::PageFault);
        EXPECT_TRUE(experiment.faulted.interrupted) << core->name();
        EXPECT_TRUE(experiment.precise) << core->name();
        EXPECT_TRUE(experiment.resumedExact) << core->name();
    }
}

TEST_P(FuzzSeeds, RandomInterruptSchedulesServiceAndReplayExactly)
{
    // Fuzz the trap controller: a seed-derived burst schedule of
    // external interrupts (irregular arrival gaps, mixed priorities)
    // against every core, every segment under the lockstep commit
    // oracle, and the whole run replayed functionally from the
    // delivery log. Asynchronous interrupts drain to the sequential
    // prefix on every core, so the replay must be bit-exact even on
    // the imprecise machines.
    Workload w = workload();
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 +
                        101);
    std::uniform_int_distribution<Cycle> gap(1, 400);
    std::uniform_int_distribution<unsigned> priority(1, 3);
    std::vector<trap::InterruptEvent> events;
    Cycle at = 0;
    for (int i = 0; i < 6; ++i) {
        at += gap(rng);
        events.push_back({at, priority(rng)});
    }

    trap::TrapConfig tconfig;
    tconfig.checkOracle = true;
    // Random programs keep their data near RandomProgramOptions::
    // dataBase, far below a compact trap area.
    tconfig.layout.exchangeBase = 0xf000;
    tconfig.layout.scratchBase = 0xf800;
    tconfig.memoryWords = 1u << 16;
    // Odd seeds service through the nesting handler, whose EINT..DINT
    // window lets the schedule's higher-priority events preempt a
    // handler mid-service.
    if (GetParam() % 2)
        tconfig.handler = std::make_shared<const Program>(
            trap::nestedCounterHandler());

    for (CoreKind kind : {CoreKind::Simple, CoreKind::Tomasulo,
                          CoreKind::Rstu, CoreKind::Ruu,
                          CoreKind::SpecRuu, CoreKind::History}) {
        auto core = makeCore(kind, UarchConfig::cray1());
        trap::TrapController controller(*core, tconfig);
        trap::TrapRunResult res = controller.run(
            w.trace(), trap::InterruptSource::schedule(events));
        ASSERT_TRUE(res.ok())
            << core->name() << " on " << w.name << ": " << res.error
            << res.oracleFailure;
        trap::ReplayResult replay =
            trap::replayFunctional(w.program, tconfig, res.deliveries);
        ASSERT_TRUE(replay.ok) << core->name() << ": " << replay.error;
        EXPECT_TRUE(replay.state == res.state &&
                    replay.memory == res.memory &&
                    replay.trapRegs == res.trapRegs)
            << core->name() << " on " << w.name
            << ": timing run and functional replay disagree on the "
               "final state";
    }
}

TEST_P(FuzzSeeds, WcirtCeilingIsSoundUnderRandomSchedules)
{
    // Fuzz the certified interrupt-response ceiling (lint/wcirt.hh):
    // seed-derived arrival schedules with mixed priorities (odd seeds
    // nest through the EINT window of the nesting handler) against
    // every core. Every delivery's measured drain residue must stay
    // under the certified cut, and the run's worst delivery latency
    // under the reported WCIRT — on the imprecise machines too, whose
    // ceiling doubles for the restart penalty.
    Workload w = workload();
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 6151 +
                        29);
    std::uniform_int_distribution<Cycle> gap(1, 300);
    std::uniform_int_distribution<unsigned> priority(1, 3);
    std::vector<trap::InterruptEvent> events;
    Cycle at = 0;
    for (int i = 0; i < 5; ++i) {
        at += gap(rng);
        events.push_back({at, priority(rng)});
    }

    trap::TrapConfig tconfig;
    tconfig.layout.exchangeBase = 0xf000;
    tconfig.layout.scratchBase = 0xf800;
    tconfig.memoryWords = 1u << 16;
    auto handler = std::make_shared<const Program>(
        GetParam() % 2 ? trap::nestedCounterHandler()
                       : trap::counterHandler());
    tconfig.handler = handler;

    lint::WcirtParams params;
    params.exchangeCycles = tconfig.exchangeCycles;
    params.maxLevels = tconfig.layout.maxLevels;
    for (CoreKind kind : {CoreKind::Simple, CoreKind::Tomasulo,
                          CoreKind::Rstu, CoreKind::Ruu,
                          CoreKind::SpecRuu, CoreKind::History}) {
        auto core = makeCore(kind, UarchConfig::cray1());
        trap::TrapController controller(*core, tconfig);
        trap::TrapRunResult res = controller.run(
            w.trace(), trap::InterruptSource::schedule(events));
        ASSERT_TRUE(res.ok())
            << core->name() << " on " << w.name << ": " << res.error;

        lint::WcirtBound bound = lint::wcirtBound(
            w.trace(), *handler, UarchConfig::cray1(), kind, params);
        EXPECT_EQ(res.wcirtCeiling, bound.cycles) << core->name();
        EXPECT_LE(res.maxDrainCycles(), bound.breakdown.cut)
            << core->name() << " on " << w.name;
        EXPECT_LE(res.maxDeliveryLatency, res.wcirtCeiling)
            << core->name() << " on " << w.name;
        for (const trap::Delivery &d : res.deliveries) {
            if (d.drainCycles != kNoCycle) {
                EXPECT_LE(d.drainCycles, bound.breakdown.cut)
                    << core->name() << " delivery at cycle " << d.cycle;
            }
        }
    }
}

TEST_P(FuzzSeeds, SnapshotRoundTripsAtRandomCycles)
{
    // Snapshot fuzzing: for each random program, pick seed-derived
    // snapshot cycles and require capture → restore-into-fresh-machine
    // → continue to reproduce the uninterrupted run bit-exactly on
    // every core. The restore path re-verifies the replayed machine
    // against the image byte-for-byte, so any nondeterminism in the
    // registered pipeline state fails here first.
    Workload w = workload();
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 6151 +
                        29);
    for (CoreKind kind : {CoreKind::Simple, CoreKind::Tomasulo,
                          CoreKind::Rstu, CoreKind::Ruu,
                          CoreKind::SpecRuu, CoreKind::History}) {
        UarchConfig config = UarchConfig::cray1();
        config.poolEntries = 6; // small: force wraparound and stalls
        config.historyEntries = 6;
        config.tuEntries = 6;
        config.checkInvariants = true;
        auto clean_core = makeCore(kind, config);
        RunOptions opts;
        RunResult clean = clean_core->run(w.trace());
        ASSERT_FALSE(clean.wedged) << clean_core->name();
        ASSERT_GT(clean.cycles, 2u) << clean_core->name();

        std::uniform_int_distribution<Cycle> pick(1, clean.cycles - 1);
        Cycle at = pick(rng);
        auto capture_core = makeCore(kind, config);
        auto snapshot =
            inject::takeSnapshot(*capture_core, w.trace(), opts, at);
        ASSERT_TRUE(snapshot.ok()) << capture_core->name() << " @ "
                                   << at << ": "
                                   << snapshot.error().message();
        auto resume_core = makeCore(kind, config);
        auto resumed = inject::resumeFromSnapshot(*resume_core,
                                                  w.trace(), opts,
                                                  *snapshot);
        ASSERT_TRUE(resumed.ok()) << resume_core->name() << " @ " << at
                                  << ": " << resumed.error().message();
        EXPECT_TRUE(resumed->verified)
            << resume_core->name() << " @ " << at << ": "
            << resumed->mismatch;
        EXPECT_EQ(resumed->result.cycles, clean.cycles)
            << resume_core->name();
        EXPECT_TRUE(resumed->result.state == clean.state)
            << resume_core->name();
        EXPECT_TRUE(resumed->result.memory == clean.memory)
            << resume_core->name();
    }
}

namespace
{

/**
 * A seed-derived configuration that stays inside validate()'s ranges
 * while exercising every field the resource-bound floors read: unit
 * counts, bus and commit widths, latencies, and branch penalties.
 */
UarchConfig
randomBoundConfig(std::mt19937_64 &rng)
{
    UarchConfig config = UarchConfig::cray1();
    std::uniform_int_distribution<unsigned> units(1, 4);
    std::uniform_int_distribution<unsigned> width(1, 4);
    std::uniform_int_distribution<unsigned> latency(1, 8);
    std::uniform_int_distribution<unsigned> penalty(1, 8);
    std::uniform_int_distribution<unsigned> pool(4, 24);
    for (unsigned i = 0; i < kNumFuKinds; ++i)
        config.fuCount[i] = units(rng);
    for (unsigned i = 0; i < kNumFuKinds - 1; ++i)
        config.fuLatency[i] = latency(rng);
    config.storeLatency = 1 + latency(rng) % 3;
    config.forwardLatency = 1 + latency(rng) % 3;
    config.resultBuses = width(rng);
    config.commitWidth = width(rng);
    config.dispatchPaths = width(rng) > 2 ? 2 : 1;
    config.poolEntries = pool(rng);
    config.branchTakenPenalty = penalty(rng);
    config.branchUntakenPenalty = 1 + penalty(rng) % 4;
    config.predictedTakenPenalty = penalty(rng) % 4;
    config.mispredictPenalty = penalty(rng);
    return config;
}

} // namespace

TEST_P(FuzzSeeds, ResourceBoundIsSoundUnderRandomConfigs)
{
    // The certified bound must hold for *every* core under *every*
    // valid configuration, not just the CRAY-1 defaults the rest of the
    // suite exercises: randomize unit counts, bus/commit widths,
    // latencies, and branch penalties, and require measured cycles to
    // stay at or above the floor everywhere. The dependence-only PR 2
    // bound must never exceed the resource-aware one.
    Workload w = workload();
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 4073 +
                        57);
    for (int trial = 0; trial < 3; ++trial) {
        UarchConfig config = randomBoundConfig(rng);
        ASSERT_EQ(config.validate(), "");
        lint::ResourceBound bound =
            lint::resourceBound(w.trace(), config);
        EXPECT_GE(bound.cycles, bound.dataflow.cycles) << w.name;
        for (CoreKind kind : {CoreKind::Simple, CoreKind::Tomasulo,
                              CoreKind::Rstu, CoreKind::Ruu,
                              CoreKind::SpecRuu, CoreKind::History}) {
            auto core = makeCore(kind, config);
            RunResult run = core->run(w.trace());
            EXPECT_GE(run.cycles, bound.cycles)
                << core->name() << " beat the " << bound.bindingName()
                << " floor on " << w.name << " (trial " << trial << ")";
        }
    }
}

TEST_P(FuzzSeeds, ResourceBoundIsMonotoneUnderRandomConfigs)
{
    // Adding resources (units, buses, commit slots) can only lower or
    // keep the bound; slowing the machine (latencies, penalties) can
    // only raise or keep it. Both directions are fuzzed from a random
    // starting configuration.
    Workload w = workload();
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 2917 +
                        71);
    std::uniform_int_distribution<unsigned> bump(1, 3);
    for (int trial = 0; trial < 3; ++trial) {
        UarchConfig base = randomBoundConfig(rng);
        ASSERT_EQ(base.validate(), "");
        std::uint64_t baseline =
            lint::resourceBound(w.trace(), base).cycles;

        UarchConfig richer = base;
        for (unsigned i = 0; i < kNumFuKinds; ++i)
            richer.fuCount[i] = std::min(8u, base.fuCount[i] + bump(rng));
        richer.resultBuses = std::min(4u, base.resultBuses + bump(rng));
        richer.commitWidth = std::min(4u, base.commitWidth + bump(rng));
        ASSERT_EQ(richer.validate(), "");
        EXPECT_LE(lint::resourceBound(w.trace(), richer).cycles,
                  baseline)
            << w.name << ": adding resources raised the bound";

        UarchConfig slower = base;
        for (unsigned i = 0; i < kNumFuKinds - 1; ++i)
            slower.fuLatency[i] = base.fuLatency[i] + bump(rng);
        slower.storeLatency = base.storeLatency + bump(rng);
        slower.forwardLatency = base.forwardLatency + bump(rng);
        slower.branchTakenPenalty = base.branchTakenPenalty + bump(rng);
        slower.predictedTakenPenalty =
            base.predictedTakenPenalty + bump(rng);
        slower.mispredictPenalty = base.mispredictPenalty + bump(rng);
        ASSERT_EQ(slower.validate(), "");
        EXPECT_GE(lint::resourceBound(w.trace(), slower).cycles,
                  baseline)
            << w.name << ": slowing the machine lowered the bound";
    }
}

/** @p program rebuilt with data initializer @p at passed through @p edit. */
template <typename Edit>
Program
withDataEdit(const Program &program, std::size_t at, Edit edit)
{
    ProgramBuilder builder(program.name());
    for (std::size_t i = 0; i < program.dataInits().size(); ++i) {
        DataInit init = program.dataInits()[i];
        if (i == at)
            edit(init);
        builder.word(init.addr, init.value);
    }
    for (const Instruction &inst : program.instructions())
        builder.emit(inst);
    return builder.build();
}

TEST_P(FuzzSeeds, ContentHashSeparatesEverySingleFieldMutation)
{
    // The serve result cache keys on this hash, so two traces that
    // differ in any one hashed field of any record or data
    // initializer must never hash alike; a fault annotation, which no
    // cached result depends on, must not matter.
    Workload w = workload();
    const Trace &trace = w.trace();
    const std::uint64_t base = traceContentHash(trace);
    ASSERT_EQ(w.contentHash, base);

    auto hashOf = [&](std::shared_ptr<const Program> program,
                      std::size_t at, auto edit) {
        Trace copy(std::move(program));
        for (std::size_t i = 0; i < trace.size(); ++i) {
            TraceRecord record = trace.at(i);
            if (i == at)
                edit(record);
            copy.append(record);
        }
        return traceContentHash(copy);
    };
    auto unchanged = [](auto &) {};
    const auto &data = trace.program().dataInits();
    ASSERT_FALSE(data.empty());
    ASSERT_EQ(hashOf(std::make_shared<const Program>(withDataEdit(
                         trace.program(), 0, unchanged)),
                     0, unchanged),
              base)
        << "rebuilding the program alone moved the hash";

    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 101);
    auto nonzero = [&rng](unsigned bits) {
        std::uint64_t mask = bits >= 64 ? ~0ull : (1ull << bits) - 1;
        std::uint64_t v;
        do
            v = rng() & mask;
        while (v == 0);
        return v;
    };
    auto otherReg = [](RegId reg) {
        return RegId(RegFile::T, (reg.index() + 1) % 64);
    };
    for (int round = 0; round < 200; ++round) {
        // Fields 0-8 are a record's, 9 and 10 a data initializer's.
        unsigned field = static_cast<unsigned>(rng() % 11);
        std::size_t at = rng() % (field >= 9 ? data.size() : trace.size());
        std::uint64_t mutated;
        if (field >= 9) {
            std::uint64_t delta = nonzero(field == 9 ? 20 : 64);
            Program edited = withDataEdit(
                trace.program(), at, [&](DataInit &init) {
                    if (field == 9)
                        init.addr ^= delta;
                    else
                        init.value ^= delta;
                });
            mutated = hashOf(std::make_shared<const Program>(
                                 std::move(edited)),
                             0, unchanged);
        } else {
            mutated = hashOf(
                trace.programPtr(), at, [&](TraceRecord &record) {
                    Instruction &inst = record.inst;
                    switch (field) {
                      case 0:
                        inst.op = static_cast<Opcode>(
                            static_cast<std::uint8_t>(inst.op) ^
                            nonzero(8));
                        break;
                      case 1: inst.dst = otherReg(inst.dst); break;
                      case 2: inst.src1 = otherReg(inst.src1); break;
                      case 3: inst.src2 = otherReg(inst.src2); break;
                      case 4:
                        inst.imm ^= static_cast<std::int64_t>(nonzero(64));
                        break;
                      case 5:
                        inst.target ^=
                            static_cast<ParcelAddr>(nonzero(32));
                        break;
                      case 6:
                        record.pc ^= static_cast<ParcelAddr>(nonzero(32));
                        break;
                      case 7: record.memAddr ^= nonzero(64); break;
                      default: record.taken = !record.taken; break;
                    }
                });
        }
        EXPECT_NE(mutated, base) << "field " << field << " at " << at;
    }

    EXPECT_EQ(hashOf(trace.programPtr(), trace.size() / 2,
                     [](TraceRecord &record) {
                         record.fault = Fault::PageFault;
                     }),
              base)
        << "a fault annotation moved the hash";
}

TEST_P(FuzzSeeds, TraceRebuiltAtAFreedAddressMissesEveryMemo)
{
    // False-hit mode for the in-process memos: take every artifact of a
    // trace, free it, rebuild it in the same storage with one record's
    // destination register changed (a field no sampled fingerprint
    // reads), and every memo must compute afresh for the rebuilt trace.
    Workload w = workload();
    const Trace &trace = w.trace();
    const std::size_t step = trace.size() > 64 ? trace.size() / 64 : 1;
    std::size_t at = kNoSeqNum;
    for (std::size_t i = 1; i < trace.size() && at == kNoSeqNum; ++i)
        if (trace.at(i).inst.writesReg() && (step == 1 || i % step))
            at = i;
    ASSERT_NE(at, kNoSeqNum);

    std::optional<Trace> slot;
    auto rebuild = [&](bool mutate) {
        slot.emplace(trace.programPtr());
        for (std::size_t i = 0; i < trace.size(); ++i) {
            TraceRecord record = trace.at(i);
            if (mutate && i == at)
                record.inst.dst = RegId(RegFile::T,
                                        (record.inst.dst.index() + 1) % 64);
            slot->append(record);
        }
        return &*slot;
    };
    const UarchConfig config = UarchConfig::cray1();
    const Program handler = trap::counterHandler();
    auto takeAll = [&] {
        auto stream = engine::cachedStream(*slot);
        lint::cachedDataflowBound(*slot, config);
        lint::cachedResourceBound(*slot, config);
        lint::cachedWcirtBound(*slot, handler, config, CoreKind::Ruu);
        return stream;
    };
    auto hits = [] {
        return engine::streamCacheStats().hits +
               lint::boundCacheStats().hits +
               lint::resourceBoundCacheStats().hits +
               lint::wcirtBoundCacheStats().hits;
    };

    const Trace *original = rebuild(false);
    const std::vector<std::int16_t> originalDst = takeAll()->dst;
    slot.reset();
    ASSERT_EQ(rebuild(true), original) << "not rebuilt at the same address";
    const std::uint64_t before = hits();
    const std::vector<std::int16_t> rebuiltDst = takeAll()->dst;
    EXPECT_EQ(hits(), before) << "a memo answered for the freed trace";

    EXPECT_NE(rebuiltDst, originalDst);
    EXPECT_EQ(rebuiltDst, engine::compileStream(*slot).dst);
    EXPECT_EQ(lint::cachedDataflowBound(*slot, config).cycles,
              lint::dataflowBound(*slot, config).cycles);
    EXPECT_EQ(lint::cachedResourceBound(*slot, config).cycles,
              lint::resourceBound(*slot, config).cycles);
    EXPECT_EQ(
        lint::cachedWcirtBound(*slot, handler, config, CoreKind::Ruu).cycles,
        lint::wcirtBound(*slot, handler, config, CoreKind::Ruu).cycles);
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, FuzzSeeds, ::testing::Range(0, 24));

TEST(FuzzServe, MalformedRequestsNeverKillTheDaemon)
{
    // Hostile-input mode for the simulation service: hammer a live
    // daemon with garbage — random bytes, truncated and bit-flipped
    // request lines, stray keys — and require that every single line
    // draws a parseable response on a surviving connection. The
    // daemon's contract is that protocol errors are per-line
    // diagnostics, never a dead server.
    serve::ServerOptions options;
    options.workerPath = RUU_WORKER;
    options.socketPath = "./fuzz_serve.sock";
    serve::ServerStats stats;
    std::thread daemon([&] {
        auto result = serve::runServer(options, &stats);
        EXPECT_TRUE(result.ok()) << result.error().message();
    });
    serve::ServeClient client;
    BackoffPolicy retry;
    retry.baseUs = 5'000;
    retry.maxRetries = 20;
    {
        auto connected = client.connect(options.socketPath, retry);
        ASSERT_TRUE(connected.ok()) << connected.error().message();
    }

    serve::Request valid;
    valid.op = serve::Op::Submit;
    valid.job.id = "fuzz";
    valid.job.workload = "lll01";
    const std::string validLine = serve::requestToLine(valid);

    std::mt19937_64 rng(20260809);
    std::uniform_int_distribution<int> mode(0, 4);
    std::uniform_int_distribution<int> printable(0x20, 0x7e);
    std::uniform_int_distribution<int> anyByte(0, 255);
    std::uniform_int_distribution<std::size_t> length(0, 80);
    std::uint64_t badSeen = 0;
    for (int i = 0; i < 300; ++i) {
        std::string line;
        switch (mode(rng)) {
          case 0: // printable garbage
            line.resize(length(rng));
            for (char &c : line)
                c = static_cast<char>(printable(rng));
            break;
          case 1: { // one byte flipped in a valid request
            line = validLine;
            std::uniform_int_distribution<std::size_t> at(
                0, line.size() - 1);
            line[at(rng)] = static_cast<char>(printable(rng));
            break;
          }
          case 2: { // torn mid-line (a SIGKILLed client's last write)
            std::uniform_int_distribution<std::size_t> cut(
                0, validLine.size() - 1);
            line = validLine.substr(0, cut(rng));
            break;
          }
          case 3: // stray keys
            line = "{\"op\": \"status\", \"k" + std::to_string(i) +
                   "\": \"v\"}";
            break;
          default: // raw bytes (anything but the line terminator)
            line.resize(length(rng));
            for (char &c : line) {
                int byte = anyByte(rng);
                c = static_cast<char>(byte == '\n' ? ' ' : byte);
            }
            break;
        }
        if (line.empty() || line == validLine)
            continue; // blank lines and clean submits answer elsewhere
        auto response = client.sendLine(line).ok()
                            ? client.recvLine()
                            : Expected<std::string>(Error("send"));
        ASSERT_TRUE(response.ok())
            << "daemon gone after: " << line << ": "
            << response.error().message();
        auto object = flat::parseObject(*response);
        ASSERT_TRUE(object.ok()) << *response;
        if (flat::getNumber(*object, "ok").value() == 0)
            ++badSeen;
    }
    EXPECT_GT(badSeen, 200u) << "the generator stopped being hostile";

    // The daemon is unscathed: a real batch still runs clean. Mutated
    // lines that happened to stay parseable may have queued stray
    // jobs; drain result lines until the batch summary.
    ASSERT_TRUE(client.sendLine(validLine).ok());
    ASSERT_TRUE(client.recvLine().ok());
    ASSERT_TRUE(client.sendLine("{\"op\": \"run\"}").ok());
    bool anyDone = false;
    while (true) {
        auto line = client.recvLine();
        ASSERT_TRUE(line.ok()) << line.error().message();
        if (line->find("\"op\": \"run\"") != std::string::npos)
            break;
        anyDone |=
            line->find("\"status\": \"done\"") != std::string::npos;
    }
    EXPECT_TRUE(anyDone);
    ASSERT_TRUE(client.request("{\"op\": \"shutdown\"}").ok());
    daemon.join();
    EXPECT_GT(stats.badRequests, 0u);
}

TEST(FuzzServe, HostileCampaignOpsNeverKillTheDaemon)
{
    // The campaign dialect widens the attack surface: kind/trials/
    // periods cross-field rules, comma lists, watch/cancel key
    // strictness. Hammer a live daemon with mutated campaign, watch,
    // and cancel lines — every line must draw a parseable response on
    // a surviving connection, and a clean campaign must still run
    // afterwards.
    serve::ServerOptions options;
    options.workerPath = RUU_WORKER;
    options.socketPath = "./fuzz_campaign.sock";
    serve::ServerStats stats;
    std::thread daemon([&] {
        auto result = serve::runServer(options, &stats);
        EXPECT_TRUE(result.ok()) << result.error().message();
    });
    serve::ServeClient client;
    BackoffPolicy retry;
    retry.baseUs = 5'000;
    retry.maxRetries = 20;
    {
        auto connected = client.connect(options.socketPath, retry);
        ASSERT_TRUE(connected.ok()) << connected.error().message();
    }

    serve::Request valid;
    valid.op = serve::Op::Campaign;
    valid.campaign.id = "fuzz";
    valid.campaign.kind = serve::CampaignKind::Storm;
    valid.campaign.workloads = {"lll01"};
    valid.campaign.cores = {"ruu"};
    valid.campaign.periods = {64};
    const std::string validLine = serve::requestToLine(valid);

    std::mt19937_64 rng(20260810);
    std::uniform_int_distribution<int> mode(0, 4);
    std::uniform_int_distribution<int> printable(0x20, 0x7e);
    std::uint64_t badSeen = 0;
    for (int i = 0; i < 300; ++i) {
        std::string line;
        switch (mode(rng)) {
          case 0: { // one byte flipped in a valid campaign
            line = validLine;
            std::uniform_int_distribution<std::size_t> at(
                0, line.size() - 1);
            line[at(rng)] = static_cast<char>(printable(rng));
            break;
          }
          case 1: { // torn campaign line
            std::uniform_int_distribution<std::size_t> cut(
                0, validLine.size() - 1);
            line = validLine.substr(0, cut(rng));
            break;
          }
          case 2: // cross-field rule violations
            line = i % 2 ? "{\"op\": \"campaign\", \"id\": \"f" +
                               std::to_string(i) +
                               "\", \"kind\": \"run\", \"workloads\": "
                               "\"lll01\", \"cores\": \"ruu\", "
                               "\"trials\": " +
                               std::to_string(i) + "}"
                         : "{\"op\": \"campaign\", \"id\": \"f" +
                               std::to_string(i) +
                               "\", \"kind\": \"storm\", "
                               "\"workloads\": \"lll01\", "
                               "\"cores\": \"ruu\"}";
            break;
          case 3: // watch/cancel with stray or missing keys
            line = i % 2 ? "{\"op\": \"watch\", \"id\": \"x\", \"k" +
                               std::to_string(i) + "\": \"v\"}"
                         : "{\"op\": \"cancel\"}";
            break;
          default: // hostile list bodies
            line = "{\"op\": \"campaign\", \"id\": \"f" +
                   std::to_string(i) +
                   "\", \"kind\": \"run\", \"workloads\": \",,,\", "
                   "\"cores\": \"ruu,,history\"}";
            break;
        }
        if (line.empty() || line == validLine)
            continue;
        auto response = client.sendLine(line).ok()
                            ? client.recvLine()
                            : Expected<std::string>(Error("send"));
        ASSERT_TRUE(response.ok())
            << "daemon gone after: " << line << ": "
            << response.error().message();
        auto object = flat::parseObject(*response);
        ASSERT_TRUE(object.ok()) << *response;
        if (flat::getNumber(*object, "ok").value() == 0)
            ++badSeen;
        // Watching a campaign a mutated line happened to admit must
        // drain that campaign's unit stream before the next probe.
        auto op = flat::optString(*object, "op");
        if (op == "campaign" &&
            flat::getNumber(*object, "ok").value() == 1u) {
            auto id = flat::optString(*object, "id");
            std::string watchLine = "{\"op\": \"watch\", \"id\": \"" +
                                    (id ? *id : "") + "\"}";
            ASSERT_TRUE(client.sendLine(watchLine).ok());
            while (true) {
                auto unitLine = client.recvLine();
                ASSERT_TRUE(unitLine.ok());
                if (unitLine->find("\"op\": \"unit\"") ==
                    std::string::npos)
                    break;
            }
        }
    }
    EXPECT_GT(badSeen, 150u) << "the generator stopped being hostile";

    // The daemon is unscathed: a clean campaign still streams its
    // unit byte-for-byte. A fresh id — a lucky bit flip may have
    // admitted a mutated spec under the original one.
    serve::Request fresh = valid;
    fresh.campaign.id = "fuzz-final";
    ASSERT_TRUE(client.sendLine(serve::requestToLine(fresh)).ok());
    auto ack = client.recvLine();
    ASSERT_TRUE(ack.ok());
    EXPECT_NE(ack->find("\"ok\": 1"), std::string::npos) << *ack;
    ASSERT_TRUE(
        client.sendLine("{\"op\": \"watch\", \"id\": \"fuzz-final\"}")
            .ok());
    bool unitDone = false;
    while (true) {
        auto line = client.recvLine();
        ASSERT_TRUE(line.ok()) << line.error().message();
        if (line->find("\"op\": \"watch\"") != std::string::npos)
            break;
        unitDone |=
            line->find("\"status\": \"done\"") != std::string::npos;
    }
    EXPECT_TRUE(unitDone);
    ASSERT_TRUE(client.request("{\"op\": \"shutdown\"}").ok());
    daemon.join();
    EXPECT_GT(stats.badRequests, 0u);
}

TEST(FuzzServe, SeededIoFaultsNeverKillTheDaemonAndDegradeExplicitly)
{
    // Torture the daemon's own persistence while it serves: seeded
    // error-rate plans scoped to the state directory fail cache
    // stores, journal appends, and queue records at random. The
    // contract is graceful degradation — every submit and campaign
    // draws an explicit verdict (done payloads byte-exact, refusals
    // diagnosed), and the daemon never dies. Crash-at schedules are
    // exercised out of process by scripts/ci_chaos_smoke.sh.
    char tmpl[] = "/tmp/ruu_fuzz_faults_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string state = tmpl;

    serve::ServerOptions options;

    options.workerPath = RUU_WORKER;
    options.socketPath = state + "/sock";
    options.cacheDir = state + "/cache";
    options.journalPath = state + "/journal.jsonl";
    options.queuePath = state + "/queue.jsonl";
    options.jobs = 2;
    options.defaultDeadlineMs = 60'000;
    serve::ServerStats stats;
    serve::ServerStats *statsOut = &stats;
    std::thread daemon([&, statsOut] {
        auto result = serve::runServer(options, statsOut);
        EXPECT_TRUE(result.ok()) << result.error().message();
    });
    serve::ServeClient client;
    BackoffPolicy retry;
    retry.baseUs = 5'000;
    retry.maxRetries = 20;
    {
        auto connected = client.connect(options.socketPath, retry);
        ASSERT_TRUE(connected.ok()) << connected.error().message();
    }

    const std::string expected = [&] {
        for (const Workload &workload : livermoreWorkloads())
            if (workload.name == "lll01") {
                auto core = makeCore(CoreKind::Ruu,
                                     UarchConfig::cray1());
                RunResult run = core->run(workload.trace());
                return runToJson(workload.name, core->name(), run,
                                 core->stats());
            }
        return std::string();
    }();

    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        io::FaultPlan plan;
        plan.seed = seed;
        plan.errorRate = 48;
        plan.pathPrefix = state; // never touch the test's own files
        io::setFaultPlan(plan);

        // A plain batch: the job must land the byte-exact payload
        // even when its cache store fails underneath it.
        serve::Request submit;
        submit.op = serve::Op::Submit;
        submit.job.id = "job";
        submit.job.workload = "lll01";
        auto ack = client.request(serve::requestToLine(submit));
        ASSERT_TRUE(ack.ok()) << ack.error().message();
        ASSERT_TRUE(client.sendLine("{\"op\": \"run\"}").ok());
        bool sawPayload = false;
        while (true) {
            auto line = client.recvLine();
            ASSERT_TRUE(line.ok())
                << "daemon gone under seed " << seed << ": "
                << line.error().message();
            auto object = flat::parseObject(*line);
            ASSERT_TRUE(object.ok()) << *line;
            if (flat::optString(*object, "op") == "run")
                break;
            auto payload = flat::optString(*object, "payload");
            if (payload) {
                EXPECT_EQ(*payload, expected)
                    << "seed " << seed
                    << ": degraded payload is not byte-exact";
                sawPayload = true;
            }
        }
        EXPECT_TRUE(sawPayload) << "seed " << seed;

        // A campaign: admission is either durable (ok 1) or refused
        // with a diagnostic (ok 0) — never silent, never fatal.
        serve::Request campaign;
        campaign.op = serve::Op::Campaign;
        campaign.campaign.id = "c" + std::to_string(seed);
        campaign.campaign.kind = serve::CampaignKind::Run;
        campaign.campaign.workloads = {"lll01"};
        campaign.campaign.cores = {"ruu"};
        auto campaignAck =
            client.request(serve::requestToLine(campaign));
        ASSERT_TRUE(campaignAck.ok()) << campaignAck.error().message();
        auto ackObject = flat::parseObject(*campaignAck);
        ASSERT_TRUE(ackObject.ok()) << *campaignAck;
        if (flat::getNumber(*ackObject, "ok").value() == 1u) {
            std::string watchLine =
                "{\"op\": \"watch\", \"id\": \"c" +
                std::to_string(seed) + "\"}";
            ASSERT_TRUE(client.sendLine(watchLine).ok());
            while (true) {
                auto line = client.recvLine();
                ASSERT_TRUE(line.ok())
                    << "daemon gone mid-watch under seed " << seed;
                auto object = flat::parseObject(*line);
                ASSERT_TRUE(object.ok()) << *line;
                if (flat::optString(*object, "op") != "unit")
                    break;
                auto payload = flat::optString(*object, "payload");
                if (payload) {
                    EXPECT_EQ(*payload, expected) << "seed " << seed;
                }
            }
        } else {
            EXPECT_TRUE(
                flat::optString(*ackObject, "error").has_value())
                << *campaignAck << ": refusal without a diagnostic";
        }
    }
    io::clearFaultPlan();

    // Unscathed after twelve seeded torture rounds: status answers and
    // the shim saw real injections.
    auto status = client.request("{\"op\": \"status\"}");
    ASSERT_TRUE(status.ok()) << status.error().message();
    auto statusObject = flat::parseObject(*status);
    ASSERT_TRUE(statusObject.ok()) << *status;
    EXPECT_GT(flat::getNumber(*statusObject, "io_injected").value(),
              0u)
        << "the fault plans never fired";
    ASSERT_TRUE(client.request("{\"op\": \"shutdown\"}").ok());
    daemon.join();

    std::error_code ec;
    std::filesystem::remove_all(state, ec);
}

TEST(FuzzGenerator, IsDeterministic)
{
    Program a = generateRandomProgram(42);
    Program b = generateRandomProgram(42);
    EXPECT_EQ(a.instructions(), b.instructions());
    Program c = generateRandomProgram(43);
    EXPECT_NE(a.instructions(), c.instructions());
}

TEST(FuzzGenerator, RespectsOptions)
{
    RandomProgramOptions options;
    options.loops = 1;
    options.bodyLength = 4;
    options.iterations = 3;
    options.straightLength = 2;
    Workload w = makeWorkload(generateRandomProgram(7, options));
    EXPECT_TRUE(w.func.halted);
    // prologue + 2 straight + (1 + 3*(4+3)) + 2 straight + halt, give
    // or take the loop skeleton: just bound it loosely.
    EXPECT_LT(w.trace().size(), 200u);
}

} // namespace
} // namespace ruu
