/**
 * @file
 * The compiled-simulation engine: stream decode correctness against
 * the opcode tables, SoA shape invariants, the process-wide stream
 * memo, engine selection, and — the hard contract — byte-identical
 * results between the interpretive and compiled paths on plain runs,
 * interrupt sweeps (serial and 8-way parallel), and fault-injection
 * campaigns.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include <stdlib.h>

#include "engine/engine.hh"
#include "engine/stream.hh"
#include "inject/campaign.hh"
#include "kernels/lll.hh"
#include "oracle/sweep.hh"
#include "par/pool.hh"
#include "sim/json.hh"
#include "sim/machine.hh"
#include "sim/random_program.hh"

namespace ruu
{
namespace
{

constexpr CoreKind kAllCores[] = {
    CoreKind::Simple, CoreKind::Tomasulo, CoreKind::Rstu,
    CoreKind::Ruu,    CoreKind::SpecRuu,  CoreKind::History,
};

/** Pin the process default for a scope; restores (and clears env). */
class EngineScope
{
  public:
    explicit EngineScope(engine::Kind kind)
        : _saved(engine::defaultKind())
    {
        ::unsetenv("RUU_ENGINE");
        engine::setDefaultKind(kind);
    }
    ~EngineScope() { engine::setDefaultKind(_saved); }

  private:
    engine::Kind _saved;
};

/** A commit stream as comparable data. */
struct CommitLog : CommitObserver
{
    std::vector<std::pair<SeqNum, std::uint64_t>> commits;

    void
    onCommit(SeqNum seq, const TraceRecord &record) override
    {
        commits.emplace_back(seq, record.pc);
    }
};

// ---------------------------------------------------------------------
// Engine selection

TEST(EngineSelect, NamesRoundTrip)
{
    EXPECT_STREQ(engine::kindName(engine::Kind::Interp), "interp");
    EXPECT_STREQ(engine::kindName(engine::Kind::Compiled), "compiled");
    EXPECT_EQ(engine::kindFromName("interp"), engine::Kind::Interp);
    EXPECT_EQ(engine::kindFromName("compiled"), engine::Kind::Compiled);
    EXPECT_FALSE(engine::kindFromName("jit").has_value());
    EXPECT_FALSE(engine::kindFromName("").has_value());
}

TEST(EngineSelect, EnvOverridesProcessDefault)
{
    EngineScope scope(engine::Kind::Compiled);
    EXPECT_EQ(engine::resolve(), engine::Kind::Compiled);
    ::setenv("RUU_ENGINE", "interp", 1);
    EXPECT_EQ(engine::resolve(), engine::Kind::Interp);
    ::unsetenv("RUU_ENGINE");
    EXPECT_EQ(engine::resolve(), engine::Kind::Compiled);
}

TEST(EngineSelect, FaultTapForcesInterp)
{
    EngineScope scope(engine::Kind::Compiled);
    EXPECT_EQ(engine::activeFor(false), engine::Kind::Compiled);
    EXPECT_EQ(engine::activeFor(true), engine::Kind::Interp);
}

TEST(EngineSelect, ConsumeEngineFlagForms)
{
    EngineScope scope(engine::Kind::Compiled);
    auto parse = [](std::vector<const char *> argv) {
        std::vector<char *> raw;
        for (const char *a : argv)
            raw.push_back(const_cast<char *>(a));
        raw.push_back(nullptr); // consumeEngineFlag null-terminates
        int argc = static_cast<int>(raw.size()) - 1;
        auto kind = engine::consumeEngineFlag(argc, raw.data());
        return std::make_pair(kind, argc);
    };
    auto [kind, argc] = parse({"prog", "run", "--engine", "interp"});
    EXPECT_EQ(kind, engine::Kind::Interp);
    EXPECT_EQ(argc, 2);
    auto [kind2, argc2] = parse({"prog", "--engine=compiled", "x"});
    EXPECT_EQ(kind2, engine::Kind::Compiled);
    EXPECT_EQ(argc2, 2);
    auto [kind3, argc3] = parse({"prog", "x"});
    EXPECT_FALSE(kind3.has_value());
    EXPECT_EQ(argc3, 2);
}

// ---------------------------------------------------------------------
// Stream decode correctness

TEST(Stream, DecodeMatchesTheOpcodeTables)
{
    for (const Workload &w :
         {livermoreWorkloads()[0], livermoreWorkloads()[7]}) {
        engine::CompiledStream stream = engine::compileStream(w.trace());
        const auto &records = w.trace().records();
        ASSERT_EQ(stream.size(), records.size());
        for (SeqNum s = 0; s < records.size(); ++s) {
            const Instruction &inst = records[s].inst;
            std::uint16_t f = stream.flags[s];
            EXPECT_EQ(bool(f & engine::kOpBranch), isBranch(inst.op));
            EXPECT_EQ(bool(f & engine::kOpCondBranch),
                      isCondBranch(inst.op));
            EXPECT_EQ(bool(f & engine::kOpLoad), isLoad(inst.op));
            EXPECT_EQ(bool(f & engine::kOpStore), isStore(inst.op));
            EXPECT_EQ(bool(f & engine::kOpMem), isMemory(inst.op));
            EXPECT_EQ(bool(f & engine::kOpNopLike), isNopLike(inst.op));
            EXPECT_EQ(bool(f & engine::kOpProgramExit),
                      isProgramExit(inst.op));
            EXPECT_EQ(bool(f & engine::kOpHalt),
                      inst.op == Opcode::HALT);
            EXPECT_EQ(bool(f & engine::kOpWritesReg), inst.dst.valid());
            EXPECT_EQ(bool(f & engine::kOpTaken), records[s].taken);
            EXPECT_EQ(stream.fu[s], inst.fu());
            EXPECT_EQ(stream.op[s], inst.op);
            EXPECT_EQ(stream.dst[s],
                      inst.dst.valid()
                          ? static_cast<std::int16_t>(inst.dst.flat())
                          : std::int16_t{-1});
            EXPECT_EQ(stream.src1[s],
                      inst.src1.valid()
                          ? static_cast<std::int16_t>(inst.src1.flat())
                          : std::int16_t{-1});
            EXPECT_EQ(stream.src2[s],
                      inst.src2.valid()
                          ? static_cast<std::int16_t>(inst.src2.flat())
                          : std::int16_t{-1});
        }
    }
}

TEST(Stream, SoaShapeInvariants)
{
    for (const Workload &w : livermoreWorkloads()) {
        engine::CompiledStream s = engine::compileStream(w.trace());
        std::size_t n = w.trace().size();
        EXPECT_EQ(s.flags.size(), n);
        EXPECT_EQ(s.fu.size(), n);
        EXPECT_EQ(s.op.size(), n);
        EXPECT_EQ(s.dst.size(), n);
        EXPECT_EQ(s.src1.size(), n);
        EXPECT_EQ(s.src2.size(), n);
        EXPECT_EQ(s.depSrc1.size(), n);
        EXPECT_EQ(s.depSrc2.size(), n);
        EXPECT_EQ(s.depMem.size(), n);
        for (SeqNum i = 0; i < n; ++i) {
            // A memory flag is exactly load-or-store, and dependence
            // edges always point strictly backwards.
            EXPECT_EQ(bool(s.flags[i] & engine::kOpMem),
                      bool(s.flags[i] &
                           (engine::kOpLoad | engine::kOpStore)));
            if (s.depSrc1[i] != kNoSeqNum) {
                EXPECT_LT(s.depSrc1[i], i);
            }
            if (s.depSrc2[i] != kNoSeqNum) {
                EXPECT_LT(s.depSrc2[i], i);
            }
            if (s.depMem[i] != kNoSeqNum) {
                EXPECT_LT(s.depMem[i], i);
                EXPECT_TRUE(s.flags[i] & engine::kOpLoad);
                EXPECT_TRUE(s.flags[s.depMem[i]] & engine::kOpStore);
            }
        }
    }
}

TEST(Stream, DependenceEdgesOnAHandWrittenProgram)
{
    auto w = workloadFromSourceChecked(R"(
.program deps
    amovi A1, 0
    lds S1, 1000(A1)
    fadd S2, S1, S1
    sts 1000(A1), S2
    lds S3, 1000(A1)
    halt
)",
                                       "deps");
    ASSERT_TRUE(w) << w.error().message();
    engine::CompiledStream s = engine::compileStream(w.value().trace());
    ASSERT_EQ(s.size(), 6u);
    // amovi has no register source.
    EXPECT_EQ(s.depSrc1[0], kNoSeqNum);
    // First load: base A1 written by seq 0; no store precedes it.
    EXPECT_EQ(s.depSrc1[1], 0u);
    EXPECT_EQ(s.depMem[1], kNoSeqNum);
    // fadd S2, S1, S1: both sources produced by the load.
    EXPECT_EQ(s.depSrc1[2], 1u);
    EXPECT_EQ(s.depSrc2[2], 1u);
    // Second load sees the store at seq 3 as its memory producer.
    EXPECT_TRUE(s.flags[3] & engine::kOpStore);
    EXPECT_EQ(s.depMem[4], 3u);
    EXPECT_TRUE(s.flags[5] & engine::kOpHalt);
}

// ---------------------------------------------------------------------
// The stream memo

TEST(StreamCache, SecondLookupIsAHit)
{
    Workload w = makeWorkload(generateRandomProgram(4242));
    auto before = engine::streamCacheStats();
    auto first = engine::cachedStream(w.trace());
    auto second = engine::cachedStream(w.trace());
    auto after = engine::streamCacheStats();
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(after.lookups, before.lookups + 2);
    EXPECT_GE(after.hits, before.hits + 1);
}

TEST(StreamCache, DistinctTracesGetDistinctStreams)
{
    Workload a = makeWorkload(generateRandomProgram(1));
    Workload b = makeWorkload(generateRandomProgram(2));
    EXPECT_NE(engine::cachedStream(a.trace()).get(),
              engine::cachedStream(b.trace()).get());
}

// ---------------------------------------------------------------------
// Byte identity between the engines

/** One run under @p kind: JSON payload plus the commit stream. */
std::pair<std::string, CommitLog>
runUnder(engine::Kind kind, CoreKind core_kind, const Workload &w,
         Cycle interrupt_at = kNoCycle)
{
    EngineScope scope(kind);
    auto core = makeCore(core_kind, UarchConfig::cray1());
    CommitLog log;
    RunOptions options;
    options.observer = &log;
    options.interruptAt = interrupt_at;
    RunResult result = core->run(w.trace(), options);
    EXPECT_EQ(core->activeEngine(), kind);
    return {runToJson(w.name, core->name(), result, core->stats()),
            std::move(log)};
}

TEST(CrossEngine, PlainRunsAreByteIdentical)
{
    for (const Workload &w :
         {livermoreWorkloads()[2], livermoreWorkloads()[9]}) {
        for (CoreKind kind : kAllCores) {
            auto [ijson, ilog] =
                runUnder(engine::Kind::Interp, kind, w);
            auto [cjson, clog] =
                runUnder(engine::Kind::Compiled, kind, w);
            EXPECT_EQ(ijson, cjson) << coreKindName(kind) << "/"
                                    << w.name;
            EXPECT_EQ(ilog.commits, clog.commits)
                << coreKindName(kind) << "/" << w.name;
        }
    }
}

TEST(CrossEngine, InterruptedRunsAreByteIdentical)
{
    const Workload &w = livermoreWorkloads()[2];
    for (CoreKind kind : kAllCores) {
        for (Cycle at : {Cycle{0}, Cycle{97}, Cycle{4001}}) {
            auto [ijson, ilog] =
                runUnder(engine::Kind::Interp, kind, w, at);
            auto [cjson, clog] =
                runUnder(engine::Kind::Compiled, kind, w, at);
            EXPECT_EQ(ijson, cjson)
                << coreKindName(kind) << " interrupted at " << at;
            EXPECT_EQ(ilog.commits, clog.commits)
                << coreKindName(kind) << " interrupted at " << at;
        }
    }
}

TEST(CrossEngine, RandomProgramsAreByteIdentical)
{
    for (std::uint64_t seed : {101u, 202u, 303u}) {
        Workload w = makeWorkload(generateRandomProgram(seed));
        for (CoreKind kind : kAllCores) {
            auto [ijson, ilog] =
                runUnder(engine::Kind::Interp, kind, w);
            auto [cjson, clog] =
                runUnder(engine::Kind::Compiled, kind, w);
            EXPECT_EQ(ijson, cjson)
                << coreKindName(kind) << " seed " << seed;
            EXPECT_EQ(ilog.commits, clog.commits)
                << coreKindName(kind) << " seed " << seed;
        }
    }
}

oracle::SweepResult
sweepUnder(engine::Kind engine_kind, const Workload &w,
           par::Pool *pool)
{
    EngineScope scope(engine_kind);
    UarchConfig config = UarchConfig::cray1();
    auto core = makeCore(CoreKind::Ruu, config);
    oracle::SweepOptions options;
    options.maxPoints = 16;
    options.pool = pool;
    if (pool) {
        options.coreFactory = [&config] {
            return makeCore(CoreKind::Ruu, config);
        };
    }
    return oracle::sweepInterrupts(*core, w, options);
}

TEST(CrossEngine, InterruptSweepMatchesAtOneAndEightJobs)
{
    Workload w = makeWorkload(generateRandomProgram(777));
    oracle::SweepResult interp = sweepUnder(engine::Kind::Interp, w,
                                            nullptr);
    oracle::SweepResult compiled =
        sweepUnder(engine::Kind::Compiled, w, nullptr);
    par::Pool pool(8);
    oracle::SweepResult compiled8 =
        sweepUnder(engine::Kind::Compiled, w, &pool);
    for (const oracle::SweepResult *r : {&compiled, &compiled8}) {
        EXPECT_EQ(r->points, interp.points);
        EXPECT_EQ(r->faultable, interp.faultable);
        EXPECT_EQ(r->failures, interp.failures);
        EXPECT_EQ(r->precisePoints, interp.precisePoints);
        EXPECT_EQ(r->resumedExact, interp.resumedExact);
        EXPECT_EQ(r->firstFailure, interp.firstFailure);
    }
}

TEST(CrossEngine, InjectJournalIsByteIdenticalAcrossEngines)
{
    // Fault-injection taps force interp inside the trial itself, but
    // the surrounding campaign (golden runs, WCIRT bounds, journal
    // serialization) runs under the session engine — the journal must
    // not depend on it, at any job count.
    auto campaign = [](engine::Kind kind, unsigned jobs,
                       const std::string &journal) {
        EngineScope scope(kind);
        Workload workload = makeWorkload(generateRandomProgram(31));
        inject::CampaignOptions options;
        options.cores = {CoreKind::Ruu, CoreKind::History};
        options.workloads = {workload};
        options.trials = 24;
        options.seed = 5;
        options.timeoutMs = 30'000;
        options.journalPath = journal;
        options.jobs = jobs;
        auto summary = inject::runCampaign(options);
        ASSERT_TRUE(summary) << summary.error().message();
    };
    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };

    std::string ipath = ::testing::TempDir() + "engine_inject_i.jsonl";
    std::string cpath = ::testing::TempDir() + "engine_inject_c.jsonl";
    std::string cpath8 = ::testing::TempDir() + "engine_inject_c8.jsonl";
    for (const std::string &p : {ipath, cpath, cpath8})
        std::remove(p.c_str());

    campaign(engine::Kind::Interp, 1, ipath);
    campaign(engine::Kind::Compiled, 1, cpath);
    campaign(engine::Kind::Compiled, 8, cpath8);

    std::string interp = slurp(ipath);
    EXPECT_FALSE(interp.empty());
    EXPECT_EQ(slurp(cpath), interp);
    EXPECT_EQ(slurp(cpath8), interp);

    for (const std::string &p : {ipath, cpath, cpath8})
        std::remove(p.c_str());
}

} // namespace
} // namespace ruu
