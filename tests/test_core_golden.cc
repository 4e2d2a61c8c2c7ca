/**
 * @file
 * The cores' regression net: a digest of every core's output over the
 * 14 Livermore kernels, a configuration matrix that exercises each of
 * the window cores' policy axes, and both engines, compared with the
 * committed digests in tests/golden/core_digests.txt.
 *
 * A cell digests runToJson (cycles, every registered counter and
 * histogram) plus the commit stream, so a change that moves a single
 * counter, reorders a commit or drops a registered stat fails the cell
 * by name. Each core also has an interrupted cell (an external
 * interrupt and a synchronous fault) and a wedged cell whose digest
 * covers the watchdog's pipeline dump. The fault-port layout of every
 * core is pinned separately: inject campaigns sample bits by position,
 * so a reordered port changes every journal.
 *
 * The cells run on a 4-worker pool (~5 s in Release; ~2.5 min in the
 * Debug ASan+UBSan build with invariant checks). After an intended
 * output change, rewrite the digests with
 *   test_core_golden --gtest_also_run_disabled_tests
 *                    --gtest_filter='*Regenerate*'
 * and review the diff of the golden file cell by cell.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>

#include <stdlib.h>

#include "engine/engine.hh"
#include "inject/fault_port.hh"
#include "kernels/lll.hh"
#include "par/pool.hh"
#include "sim/json.hh"
#include "sim/machine.hh"

namespace ruu
{
namespace
{

constexpr CoreKind kAllCores[] = {
    CoreKind::Simple, CoreKind::Tomasulo, CoreKind::Rstu,
    CoreKind::Ruu,    CoreKind::SpecRuu,  CoreKind::History,
};

/** Pin the process default engine for a scope. */
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

/** FNV-1a over everything a cell observes. */
struct Digest : CommitObserver
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    mix(const std::string &text)
    {
        for (unsigned char c : text) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    }

    void
    onCommit(SeqNum seq, const TraceRecord &record) override
    {
        mix(std::to_string(seq) + ":" + std::to_string(record.pc) + ",");
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }
};

/** One column of the configuration matrix. */
struct ConfigCase
{
    std::string name;
    UarchConfig config;
    bool ibuffers = false;
};

/** The window size the way `--entries N` sets it. */
UarchConfig
withEntries(unsigned n)
{
    UarchConfig c = UarchConfig::cray1();
    c.poolEntries = n;
    c.historyEntries = n;
    c.tuEntries = n;
    return c;
}

/** The matrix columns @p kind runs. */
std::vector<ConfigCase>
configsFor(CoreKind kind)
{
    auto with = [](auto &&edit) {
        UarchConfig c = UarchConfig::cray1();
        edit(c);
        return c;
    };
    std::vector<ConfigCase> out = {
        {"cray1", UarchConfig::cray1()},
        {"entries3", withEntries(3)},
        {"entries50", withEntries(50)},
        {"paths2", with([](UarchConfig &c) { c.dispatchPaths = 2; })},
        {"buses2", with([](UarchConfig &c) { c.resultBuses = 2; })},
        {"banks16", with([](UarchConfig &c) { c.memoryBanks = 16; })},
        {"lregs1", with([](UarchConfig &c) { c.loadRegisters = 1; })},
        {"ctr2", with([](UarchConfig &c) { c.counterBits = 2; })},
        {"ibuffers", UarchConfig::cray1(), true},
    };
    if (kind == CoreKind::Ruu) {
        for (BypassMode mode : {BypassMode::None, BypassMode::LimitedA,
                                BypassMode::FutureFile}) {
            out.push_back({std::string("bypass_") + bypassModeName(mode),
                           with([mode](UarchConfig &c) {
                               c.bypass = mode;
                           })});
        }
    }
    if (kind == CoreKind::SpecRuu) {
        for (PredictorKind p :
             {PredictorKind::AlwaysTaken, PredictorKind::AlwaysNotTaken,
              PredictorKind::Btfn}) {
            out.push_back({std::string("pred_") + predictorKindName(p),
                           with([p](UarchConfig &c) {
                               c.predictor = p;
                           })});
        }
    }
    return out;
}

/** One run to digest. */
struct Cell
{
    std::string name; //!< "core workload config" (the engine prefixes it)
    CoreKind kind;
    UarchConfig config;
    const Trace *trace;
    std::string workload;
    RunOptions options;
};

/** Digest one run: its JSON, its commit stream, any wedge dump. */
std::string
runCell(const Cell &cell)
{
    auto core = makeCore(cell.kind, cell.config);
    Digest digest;
    RunOptions options = cell.options;
    options.observer = &digest;
    RunResult run = core->run(*cell.trace, options);
    digest.mix(runToJson(cell.workload, core->name(), run, core->stats()));
    digest.mix(run.diagnostic);
    return digest.hex();
}

/**
 * Every cell's digest, keyed "engine core workload config". The cells
 * of one engine run on a 4-worker pool (the engine is process-wide, so
 * the two engines take turns); each digest depends on its cell alone.
 */
std::map<std::string, std::string>
computeDigests()
{
    const Workload &lll03 = *sharedLivermoreWorkload("lll03");
    Trace faulty = lll03.trace();
    faulty.injectFault(nextFaultable(faulty, faulty.size() / 2),
                       Fault::PageFault);
    std::vector<Cell> cells;
    for (CoreKind kind : kAllCores) {
        std::string c = coreKindName(kind);
        for (const ConfigCase &cfg : configsFor(kind)) {
            for (const Workload &w : livermoreWorkloads()) {
                RunOptions options;
                options.modelIBuffers = cfg.ibuffers;
                cells.push_back({c + " " + w.name + " " + cfg.name, kind,
                                 cfg.config, &w.trace(), w.name, options});
            }
        }
        UarchConfig cray1 = UarchConfig::cray1();
        RunOptions irq;
        irq.interruptAt = 400;
        cells.push_back({c + " lll03 interrupt_at_400", kind, cray1,
                         &lll03.trace(), "lll03", irq});
        cells.push_back({c + " lll03 page_fault_mid", kind, cray1, &faulty,
                         "lll03", {}});
        RunOptions wedge;
        wedge.maxCycles = 150;
        cells.push_back({c + " lll03 wedged_150", kind, cray1,
                         &lll03.trace(), "lll03", wedge});
    }

    std::map<std::string, std::string> out;
    par::Pool pool(4);
    for (engine::Kind engine :
         {engine::Kind::Interp, engine::Kind::Compiled}) {
        EngineScope scope(engine);
        std::vector<std::string> digests(cells.size());
        pool.forEachIndexed(cells.size(), [&](std::size_t i, unsigned) {
            digests[i] = runCell(cells[i]);
        });
        for (std::size_t i = 0; i < cells.size(); ++i)
            out[std::string(engine::kindName(engine)) + " " +
                cells[i].name] = digests[i];
    }
    return out;
}

std::map<std::string, std::string>
loadGolden()
{
    std::map<std::string, std::string> out;
    std::ifstream in(RUU_CORE_GOLDEN);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        auto cut = line.rfind(' ');
        out[line.substr(0, cut)] = line.substr(cut + 1);
    }
    return out;
}

TEST(CoreGolden, EveryCellMatchesItsDigest)
{
    std::map<std::string, std::string> golden = loadGolden();
    ASSERT_FALSE(golden.empty()) << "no digests in " << RUU_CORE_GOLDEN;
    std::map<std::string, std::string> actual = computeDigests();
    for (const auto &[cell, digest] : actual) {
        auto it = golden.find(cell);
        if (it == golden.end())
            ADD_FAILURE() << "cell '" << cell << "' has no golden digest";
        else if (it->second != digest)
            ADD_FAILURE() << "cell '" << cell << "': golden "
                          << it->second << ", this run " << digest;
    }
    for (const auto &[cell, digest] : golden)
        if (!actual.count(cell))
            ADD_FAILURE() << "golden cell '" << cell << "' was not run";
}

TEST(CoreGolden, DISABLED_Regenerate)
{
    std::ofstream out(RUU_CORE_GOLDEN);
    out << "# engine core workload config digest "
           "(tests/test_core_golden.cc)\n";
    for (const auto &[cell, digest] : computeDigests())
        out << cell << " " << digest << "\n";
}

TEST(CoreGolden, InstructionBuffersCostCyclesOnEveryWindowCore)
{
    // Every window core fetches through the shared decode front, so
    // modelling the CRAY-1 buffers adds their refill cycles on all five.
    const Workload &lll01 = *sharedLivermoreWorkload("lll01");
    for (CoreKind kind : {CoreKind::Tomasulo, CoreKind::Rstu, CoreKind::Ruu,
                          CoreKind::SpecRuu, CoreKind::History}) {
        auto core = makeCore(kind, UarchConfig::cray1());
        RunOptions fetched;
        fetched.modelIBuffers = true;
        Cycle ideal = core->run(lll01.trace()).cycles;
        EXPECT_GT(core->run(lll01.trace(), fetched).cycles, ideal)
            << coreKindName(kind);
    }
}

/** Records the port layout a core registers at run start. */
struct LayoutTap : inject::MachineTap
{
    std::size_t ports = 0;
    std::uint64_t bits = 0;
    std::uint64_t signature = 0;

    void
    onRunStart(inject::FaultPortSet &set) override
    {
        ports = set.size();
        bits = set.totalBits();
        signature = set.layoutSignature();
    }
};

TEST(CoreGolden, PortLayoutsArePinned)
{
    struct Row
    {
        CoreKind kind;
        bool ibuffers;
        std::size_t ports;
        std::uint64_t bits;
        std::uint64_t signature;
    };
    const Row rows[] = {
        {CoreKind::Simple, false, 545, 22112, 0xdd9b904af8a30368ull},
        {CoreKind::Simple, true, 554, 22276, 0x9d9bafc332014cd8ull},
        {CoreKind::Tomasulo, false, 1247, 28752, 0xb9109b00ea387d56ull},
        {CoreKind::Tomasulo, true, 1256, 28916, 0x6d2bb3e8775dc0beull},
        {CoreKind::Rstu, false, 947, 25538, 0xc95985ceb9bd1c85ull},
        {CoreKind::Rstu, true, 956, 25702, 0x8f168e599cd773e5ull},
        {CoreKind::Ruu, false, 1084, 21880, 0xfd17dc8f4fb2b0eeull},
        {CoreKind::Ruu, true, 1093, 22044, 0xe26c12050f84de72ull},
        {CoreKind::SpecRuu, false, 994, 22162, 0x8a891a560926059aull},
        {CoreKind::SpecRuu, true, 1003, 22326, 0x0d44153ebc1b3cc2ull},
        {CoreKind::History, false, 998, 25528, 0x4f228d0697da14a6ull},
        {CoreKind::History, true, 1007, 25692, 0x79227cb817edf46cull},
    };
    const Workload &lll03 = *sharedLivermoreWorkload("lll03");
    for (const Row &row : rows) {
        LayoutTap tap;
        RunOptions options;
        options.tap = &tap;
        options.modelIBuffers = row.ibuffers;
        makeCore(row.kind, UarchConfig::cray1())
            ->run(lll03.trace(), options);
        std::string cell = std::string(coreKindName(row.kind)) +
                           (row.ibuffers ? " with ibuffers" : "");
        EXPECT_EQ(tap.ports, row.ports) << cell;
        EXPECT_EQ(tap.bits, row.bits) << cell;
        EXPECT_EQ(tap.signature, row.signature) << cell;
    }
}

} // namespace
} // namespace ruu
