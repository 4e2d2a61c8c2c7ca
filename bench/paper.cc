/**
 * @file
 * The experiment registry behind EXPERIMENTS.md: the lab that runs each
 * cell once, the paper's numbers, one renderer per generated block, the
 * splice and the claims (see paper.hh).
 */

#include "bench/paper.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <numeric>
#include <set>
#include <span>
#include <sstream>
#include <utility>

#include "asm/builder.hh"
#include "common/logging.hh"
#include "kernels/lll.hh"
#include "lint/bound_summary.hh"
#include "lint/resource_bound.hh"
#include "sim/experiment.hh"
#include "sim/json.hh"
#include "sim/report.hh"
#include "stats/table.hh"

namespace ruu::paper
{
namespace
{

// ---- The lab --------------------------------------------------------------

/** How a cell runs each of its workloads. */
enum class Mode
{
    Plain,         //!< under the paper's §2.2 assumptions
    IBuffers,      //!< with the instruction buffers modeled
    MidTraceFault, //!< page fault at the middle faultable instruction
};

/** One core configuration simulated over one workload set. */
struct Cell
{
    CoreKind kind;
    UarchConfig config = UarchConfig::cray1();
    Mode mode = Mode::Plain;
    std::span<const Workload> workloads = livermoreWorkloads();
};

/** Counters summed over a cell's runs (0 on cores that lack one). */
enum Counter : std::size_t
{
    NoLoadReg, NiBlocked, Branches, Mispredicts, Squashed
};
constexpr std::array<const char *, 5> kCounters = {
    "stall_no_load_reg_cycles", "stall_ni_saturated_cycles", "branches",
    "mispredicts", "squashed_entries"};

/** What one run, or the sum of a cell's runs, measured. */
struct Outcome : AggregateResult
{
    std::array<std::uint64_t, kCounters.size()> counters{}; //!< by Counter
    bool precise = true; //!< MidTraceFault: every interrupt was precise
};

/**
 * The identity of @p cell: its core, configuration, mode and workloads.
 * A configuration is told apart by configToJson, as SuiteArena tells
 * cores apart.
 */
std::string
cellKey(const Cell &cell)
{
    return std::string(coreKindName(cell.kind)) + " " +
           configToJson(cell.config) +
           detail::vformat(" mode=%d workloads=%p+%zu",
                           static_cast<int>(cell.mode),
                           static_cast<const void *>(cell.workloads.data()),
                           cell.workloads.size());
}

/** "ruu pool_entries:25 bypass:none": what differs from the model. */
std::string
describe(const Cell &cell)
{
    // configToJson alternates "name": and value tokens.
    auto tokens = [](const UarchConfig &c) {
        std::vector<std::string> split(1);
        for (char ch : configToJson(c)) {
            if (ch == ' ' || ch == ',')
                split.emplace_back();
            else if (ch != '"' && ch != '{' && ch != '}')
                split.back() += ch;
        }
        std::erase(split, "");
        return split;
    };
    static const std::vector<std::string> model =
        tokens(UarchConfig::cray1());
    std::vector<std::string> mine = tokens(cell.config);
    std::string text = coreKindName(cell.kind);
    for (std::size_t i = 1; i < mine.size(); ++i)
        if (mine[i] != model[i])
            text += " " + mine[i - 1] + mine[i];
    if (cell.mode != Mode::Plain)
        text += cell.mode == Mode::IBuffers ? " with-ibuffers"
                                            : " mid-trace-fault";
    if (cell.workloads.data() != livermoreWorkloads().data() ||
        cell.workloads.size() != livermoreWorkloads().size())
        text += " from " + cell.workloads.front().name;
    return text;
}

/**
 * The numbers of one run of the registry, by cell. run() renders every
 * block against an empty Lab, which records each cell asked for and
 * answers zeros, simulates them all and freezes the Lab; rendering
 * again reads the numbers and refuses a cell the Lab did not record.
 */
class Lab
{
  public:
    struct Result
    {
        Cell cell;
        std::vector<Outcome> runs; //!< per workload
        Outcome total;
    };

    const Outcome &total(const Cell &cell) { return entry(cell).total; }
    const std::vector<Outcome> &runs(const Cell &c) { return entry(c).runs; }

    /** The recorded @p cell, or nullptr. */
    const Result *
    find(const Cell &cell) const
    {
        auto it = _results.find(cellKey(cell));
        return it == _results.end() ? nullptr : &it->second;
    }

    /** Simulate every cell the registry's blocks read, once, on @p pool. */
    static Lab run(par::Pool *pool);

  private:
    Result &
    entry(const Cell &cell)
    {
        auto [it, fresh] = _results.try_emplace(
            cellKey(cell), cell, std::vector<Outcome>(cell.workloads.size()));
        ruu_assert(!fresh || _planning,
                   "a block reads '%s', a cell it did not record",
                   describe(cell).c_str());
        return it->second;
    }

    bool _planning = true;
    std::map<std::string, Result> _results; //!< by cellKey
};

using K = CoreKind;
using B = BypassMode;

// ---- The paper's numbers --------------------------------------------------

/** Table 1: per-loop statistics of the simple issue mechanism. */
const std::vector<BaselineRow> kPaperTable1 = {
    {"LLL1", 7217, 17234},   {"LLL2", 8448, 17102},
    {"LLL3", 14015, 36023},  {"LLL4", 9783, 20643},
    {"LLL5", 8347, 20696},   {"LLL6", 9350, 22034},
    {"LLL7", 4573, 10231},   {"LLL8", 4031, 8026},
    {"LLL9", 4918, 10134},   {"LLL10", 4412, 9420},
    {"LLL11", 12002, 28002}, {"LLL12", 11999, 27991},
    {"LLL13", 8846, 17814},  {"LLL14", 9915, 23573},
};

/** One of Tables 2-6: one core swept over window sizes. */
struct Sweep
{
    const char *title;
    CoreKind kind;
    unsigned dispatchPaths;
    BypassMode bypass;
    std::vector<unsigned> sizes;
    std::vector<PaperRow> paper; //!< speedup, issue rate
};

const std::vector<unsigned> kRstuSizes = {3, 4, 5, 6, 7, 8,
                                          9, 10, 15, 20, 25, 30};
const std::vector<unsigned> kRuuSizes = {3, 4, 6, 8, 10, 12,
                                         15, 20, 25, 30, 40, 50};

/** Tables 2-6, in order. */
const std::vector<Sweep> kSweeps = {
    {"Table 2: RSTU, one data path (paper vs reproduction)", K::Rstu, 1,
     B::Full, kRstuSizes,
     {{3, 0.965, 0.423}, {4, 1.140, 0.499}, {5, 1.294, 0.567},
      {6, 1.424, 0.624}, {7, 1.479, 0.648}, {8, 1.553, 0.681},
      {9, 1.587, 0.696}, {10, 1.642, 0.720}, {15, 1.763, 0.773},
      {20, 1.798, 0.788}, {25, 1.820, 0.798}, {30, 1.821, 0.798}}},
    {"Table 3: RSTU, two data paths (paper vs reproduction)", K::Rstu, 2,
     B::Full, kRstuSizes,
     {{3, 0.976, 0.428}, {4, 1.155, 0.506}, {5, 1.310, 0.574},
      {6, 1.442, 0.632}, {7, 1.515, 0.664}, {8, 1.586, 0.695},
      {9, 1.634, 0.716}, {10, 1.667, 0.730}, {15, 1.796, 0.787},
      {20, 1.832, 0.803}, {25, 1.843, 0.808}, {30, 1.845, 0.809}}},
    {"Table 4: RUU with bypass logic (paper vs reproduction)", K::Ruu, 1,
     B::Full, kRuuSizes,
     {{3, 0.853, 0.374}, {4, 0.937, 0.411}, {6, 1.077, 0.472},
      {8, 1.246, 0.546}, {10, 1.378, 0.604}, {12, 1.502, 0.658},
      {15, 1.597, 0.700}, {20, 1.668, 0.731}, {25, 1.713, 0.751},
      {30, 1.755, 0.769}, {40, 1.780, 0.780}, {50, 1.786, 0.783}}},
    {"Table 5: RUU without bypass logic (paper vs reproduction)", K::Ruu, 1,
     B::None, kRuuSizes,
     {{3, 0.825, 0.361}, {4, 0.906, 0.397}, {6, 1.030, 0.451},
      {8, 1.070, 0.469}, {10, 1.102, 0.483}, {12, 1.190, 0.522},
      {15, 1.212, 0.531}, {20, 1.291, 0.566}, {25, 1.337, 0.586},
      {30, 1.365, 0.598}, {40, 1.447, 0.634}, {50, 1.475, 0.646}}},
    {"Table 6: RUU with limited bypass (paper vs reproduction)", K::Ruu, 1,
     B::LimitedA, kRuuSizes,
     {{3, 0.846, 0.371}, {4, 0.928, 0.407}, {6, 1.064, 0.466},
      {8, 1.115, 0.489}, {10, 1.266, 0.555}, {12, 1.303, 0.571},
      {15, 1.420, 0.622}, {20, 1.448, 0.635}, {25, 1.484, 0.651},
      {30, 1.505, 0.660}, {40, 1.518, 0.665}, {50, 1.547, 0.678}}},
};

const Sweep &
sweep(int table)
{
    return kSweeps[static_cast<std::size_t>(table - 2)];
}

// ---- Cells ----------------------------------------------------------------
//
// A block's renderer and its claims build their cells with the same
// helper, so a claim reads exactly the numbers its block prints.

/** @p kind, @p entries entries and @p bypass on the model, then @p tweak. */
Cell
cell(CoreKind kind, unsigned entries, BypassMode bypass = B::Full,
     const std::function<void(UarchConfig &)> &tweak = {})
{
    Cell made{kind};
    made.config.poolEntries = entries;
    made.config.bypass = bypass;
    if (tweak)
        tweak(made.config);
    return made;
}

/** The simple issue mechanism: every speedup's denominator. */
Cell
baseline()
{
    return {K::Simple};
}

/** Table @p table (2-6) at @p entries. */
Cell
tableCell(int table, unsigned entries)
{
    return cell(sweep(table).kind, entries, sweep(table).bypass,
                [&](UarchConfig &c) {
                    c.dispatchPaths = sweep(table).dispatchPaths;
                });
}

constexpr CoreKind kCeiling[] = {K::Simple, K::Tomasulo, K::Rstu, K::Ruu,
                                 K::SpecRuu};

/** The §3.2.3.1 ceiling: 50 entries and two data paths. */
Cell
ceilingCell(CoreKind kind)
{
    return cell(kind, 50, B::Full, [](UarchConfig &c) { c.dispatchPaths = 2; });
}

/** A 15-entry window and history buffer; a fault run covers lll01. */
Cell
fifteen(CoreKind kind, BypassMode bypass = B::Full, Mode mode = Mode::Plain)
{
    Cell made = cell(kind, 15, bypass,
                     [](UarchConfig &c) { c.historyEntries = 15; });
    made.mode = mode;
    if (mode == Mode::MidTraceFault)
        made.workloads = made.workloads.first(1);
    return made;
}

/** The per-loop detail's mechanisms beside simple issue. */
constexpr std::pair<CoreKind, BypassMode> kDetail[] = {
    {K::Rstu, B::Full},    {K::Ruu, B::Full},     {K::Ruu, B::None},
    {K::SpecRuu, B::Full}, {K::History, B::Full},
};

/** Tomasulo with @p total stations spread over its 11 units. */
Cell
distributedCell(unsigned total)
{
    return cell(K::Tomasulo, 10, B::Full, [total](UarchConfig &c) {
        c.rsPerFu = total / 11;
        c.tuEntries = total;
    });
}

Cell
loadRegsCell(unsigned n)
{
    return cell(K::Ruu, 15, B::Full,
                [n](UarchConfig &c) { c.loadRegisters = n; });
}

Cell
counterCell(unsigned entries, unsigned bits)
{
    return cell(K::Ruu, entries, B::Full,
                [bits](UarchConfig &c) { c.counterBits = bits; });
}

constexpr unsigned kDistances[] = {0, 1, 2, 4, 6, 8, 10, 12, 16};

/**
 * §6.2: a loop with @p distance independent fillers between its A0
 * producer and the JAM that consumes it. A pipelined load ahead of the
 * producer gives every instruction a ~12-cycle commit latency without
 * limiting throughput.
 */
Workload
distanceKernel(unsigned distance)
{
    constexpr int iterations = 400;
    ProgramBuilder b("dist" + std::to_string(distance));
    for (Addr a = 1000; a < 1000 + iterations; ++a)
        b.fword(a, 1.5);
    b.amovi(regA(1), 0);
    b.amovi(regA(6), 1);
    b.amovi(regA(5), iterations);

    b.label("loop");
    b.lds(regS(5), regA(1), 1000);          // commit-latency plug
    b.aadd(regA(1), regA(1), regA(6));
    b.asub(regA(0), regA(1), regA(5));      // A0 producer
    for (unsigned i = 0; i < distance; ++i) // independent fillers
        b.aadd(regA(2 + i % 3), regA(7), regA(7));
    b.jam("loop");                          // the consumer (§6.3)
    b.halt();
    return makeWorkload(b.build());
}

const std::vector<Workload> &
distanceKernels()
{
    static const std::vector<Workload> kernels = [] {
        std::vector<Workload> built;
        for (unsigned distance : kDistances)
            built.push_back(distanceKernel(distance));
        return built;
    }();
    return kernels;
}

Cell
distanceCell(BypassMode bypass)
{
    Cell made = cell(K::Ruu, 30, bypass);
    made.workloads = distanceKernels();
    return made;
}

/** The §4 precise-interrupt schemes. */
struct Scheme
{
    const char *label;
    CoreKind kind;
    BypassMode bypass;
};

constexpr Scheme kSchemes[] = {
    {"rstu (imprecise reference)", K::Rstu, B::Full},
    {"ruu, full bypass", K::Ruu, B::Full},
    {"ruu, future file", K::Ruu, B::FutureFile},
    {"history buffer", K::History, B::Full},
};

/** @p buses result buses, each with a dispatch path to fill it. */
Cell
busesCell(CoreKind kind, unsigned buses)
{
    return cell(kind, 15, B::Full, [buses](UarchConfig &c) {
        c.resultBuses = buses;
        c.dispatchPaths = buses;
    });
}

/** Simple issue, or RUU-15, with @p banks memory banks. */
Cell
assumptionCell(CoreKind kind, unsigned banks, Mode mode = Mode::Plain)
{
    Cell made = cell(kind, kind == K::Simple ? 10 : 15, B::Full,
                     [banks](UarchConfig &c) { c.memoryBanks = banks; });
    made.mode = mode;
    return made;
}

constexpr PredictorKind kPredictors[] = {
    PredictorKind::AlwaysNotTaken, PredictorKind::AlwaysTaken,
    PredictorKind::Btfn, PredictorKind::Smith2Bit};

Cell
predictorCell(CoreKind kind, PredictorKind p = PredictorKind::Smith2Bit)
{
    return cell(kind, 20, B::Full, [p](UarchConfig &c) { c.predictor = p; });
}

constexpr unsigned kPenalties[] = {1, 2, 3, 5, 8, 12};

Cell
penaltyCell(CoreKind kind, unsigned penalty)
{
    return cell(kind, 20, B::Full, [penalty](UarchConfig &c) {
        c.branchTakenPenalty = penalty;
        c.mispredictPenalty = penalty;
    });
}

Cell
commitCell(CoreKind kind, BypassMode bypass, unsigned width)
{
    return cell(kind, 20, bypass,
                [width](UarchConfig &c) { c.commitWidth = width; });
}

// ---- The blocks -----------------------------------------------------------

std::string
count(std::uint64_t value)
{
    return TextTable::fmt(value);
}

std::string
ratio(double value, int precision = 3)
{
    return TextTable::fmt(value, precision);
}

/** @p c's suite speedup over simple issue, as a block prints it. */
std::string
speedupOf(Lab &lab, const Cell &c)
{
    return ratio(lab.total(c).speedupOver(lab.total(baseline()).cycles));
}

std::string
rateOf(Lab &lab, const Cell &c)
{
    return ratio(lab.total(c).issueRate());
}

std::string
cyclesOf(Lab &lab, const Cell &c)
{
    return count(lab.total(c).cycles);
}

/** A table titled @p title, its first column left-aligned if @p left. */
TextTable
table(const std::string &title, std::vector<std::string> headers,
      bool left = false)
{
    TextTable made(std::move(headers));
    made.setTitle(title);
    if (left)
        made.setAlign(0, Align::Left);
    return made;
}

std::string
boundLine(const std::vector<Workload> &workloads, const UarchConfig &config)
{
    return lint::formatBoundSummary(
               lint::summarizeBounds(workloads, config)) +
           "\n";
}

std::string
table1(Lab &lab)
{
    const auto &suite = livermoreWorkloads();
    const std::vector<Outcome> &runs = lab.runs(baseline());
    std::vector<BaselineRow> measured;
    for (std::size_t i = 0; i < suite.size(); ++i)
        measured.push_back(
            {suite[i].name, runs[i].instructions, runs[i].cycles});
    return boundLine(suite, UarchConfig::cray1()) + "\n" +
           renderBaseline("Table 1 (measured): simple issue mechanism, "
                          "14 Livermore loops",
                          measured) +
           "\n" +
           renderBaseline("Table 1 (paper): simple issue mechanism",
                          kPaperTable1);
}

std::string
sweepBlock(Lab &lab, int table)
{
    const Outcome &base = lab.total(baseline());
    std::vector<SweepPoint> points;
    for (unsigned entries : sweep(table).sizes) {
        SweepPoint point;
        point.entries = entries;
        point.total = lab.total(tableCell(table, entries));
        point.speedup = point.total.speedupOver(base.cycles);
        points.push_back(point);
    }
    return detail::vformat("baseline (simple issue): %llu cycles, %llu "
                           "instructions, issue rate %.3f\n\n",
                           static_cast<unsigned long long>(base.cycles),
                           static_cast<unsigned long long>(
                               base.instructions),
                           base.issueRate()) +
           renderComparison(sweep(table).title, sweep(table).paper, points);
}

std::string
decodeCeiling(Lab &lab)
{
    TextTable out = table("§3.2.3.1: issue rate against the one-per-cycle "
                          "decode limit, 50 entries, two data paths",
                          {"Core", "Cycles", "Issue Rate"}, true);
    for (CoreKind kind : kCeiling)
        out.addRow({coreKindName(kind), cyclesOf(lab, ceilingCell(kind)),
                    rateOf(lab, ceilingCell(kind))});
    return out.render();
}

std::string
headline(Lab &lab)
{
    TextTable out = table(
        "Headline ordering: the four mechanisms with 12-entry windows",
        {"Mechanism", "Cycles", "Speedup", "Issue Rate"}, true);
    for (CoreKind kind : {K::Simple, K::Rstu, K::Ruu, K::SpecRuu})
        out.addRow({coreKindName(kind), cyclesOf(lab, cell(kind, 12)),
                    speedupOf(lab, cell(kind, 12)),
                    rateOf(lab, cell(kind, 12))});
    return out.render();
}

std::string
perLoop(Lab &lab)
{
    TextTable speedups = table("Per-loop relative speedup over simple "
                               "issue, 15-entry windows",
                               {"Loop", "Simple Rate", "RSTU", "RUU full",
                                "RUU none", "Spec RUU", "History"},
                               true);
    TextTable limits = table("Per-loop % of certified resource limit "
                             "(bound cycles / actual cycles), 15-entry "
                             "windows",
                             {"Loop", "Bound", "Binding", "Simple", "RSTU",
                              "RUU full", "RUU none", "Spec RUU",
                              "History"},
                             true);
    limits.setAlign(2, Align::Left);
    const auto &suite = livermoreWorkloads();
    const std::vector<Outcome> &base = lab.runs(baseline());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const lint::ResourceBound &bound = lint::cachedResourceBound(
            suite[i].trace(), UarchConfig::cray1());
        std::vector<std::string> speedup = {suite[i].name,
                                            ratio(base[i].issueRate())};
        std::vector<std::string> limit = {
            suite[i].name, count(bound.cycles), bound.bindingName(),
            ratio(bound.pctOfLimit(base[i].cycles), 1)};
        for (auto [kind, bypass] : kDetail) {
            const Outcome &run = lab.runs(fifteen(kind, bypass))[i];
            speedup.push_back(ratio(run.speedupOver(base[i].cycles)));
            limit.push_back(ratio(bound.pctOfLimit(run.cycles), 1));
        }
        speedups.addRow(std::move(speedup));
        limits.addRow(std::move(limit));
    }
    return speedups.render() + "\n" + limits.render();
}

std::string
distributedVsMerged(Lab &lab)
{
    TextTable out = table("Ablation (§3.2.2): distributed stations vs the "
                          "merged pool, equal total capacity",
                          {"Total RS", "Distributed Speedup",
                           "Merged (RSTU) Speedup"});
    for (unsigned total : {11u, 22u, 33u})
        out.addRow({count(total), speedupOf(lab, distributedCell(total)),
                    speedupOf(lab, cell(K::Rstu, total))});
    return out.render();
}

std::string
loadRegisters(Lab &lab)
{
    TextTable out = table("Ablation (§3.2.1.2): load-register count, RUU "
                          "with 15 entries",
                          {"Load Registers", "Speedup", "Issue Rate",
                           "Blocked Cycles"});
    for (unsigned n : {1u, 2u, 3u, 4u, 5u, 6u, 8u})
        out.addRow({count(n), speedupOf(lab, loadRegsCell(n)),
                    rateOf(lab, loadRegsCell(n)),
                    count(lab.total(loadRegsCell(n)).counters[NoLoadReg])});
    return out.render();
}

std::string
counterWidth(Lab &lab)
{
    TextTable out = table("Ablation (§5): NI/LI instance-counter width",
                          {"RUU Entries", "Counter Bits", "Max Instances",
                           "Speedup", "NI-Blocked Cycles"});
    for (unsigned entries : {12u, 25u, 50u})
        for (unsigned bits : {1u, 2u, 3u, 4u, 5u})
            out.addRow({count(entries), count(bits), count((1u << bits) - 1),
                        speedupOf(lab, counterCell(entries, bits)),
                        count(lab.total(counterCell(entries, bits))
                                  .counters[NiBlocked])});
    return out.render();
}

std::string
dependencyDistance(Lab &lab)
{
    TextTable out = table("Ablation (§6.2): producer-to-branch distance vs "
                          "bypass mode, RUU with 30 entries",
                          {"Distance", "Full Bypass Cycles",
                           "No Bypass Cycles", "No-Bypass Penalty"});
    const std::vector<Outcome> &full = lab.runs(distanceCell(B::Full));
    const std::vector<Outcome> &none = lab.runs(distanceCell(B::None));
    for (std::size_t i = 0; i < std::size(kDistances); ++i)
        out.addRow({count(kDistances[i]), count(full[i].cycles),
                    count(none[i].cycles),
                    ratio(static_cast<double>(none[i].cycles) /
                          static_cast<double>(full[i].cycles))});
    return boundLine(distanceKernels(), distanceCell(B::Full).config) +
           "\n" + out.render();
}

std::string
preciseSchemes(Lab &lab)
{
    TextTable out = table(
        "Ablation (§4): precise-interrupt schemes, 15-entry window",
        {"Scheme", "Speedup", "Issue Rate", "Precise", "Fault-Run Cycles"},
        true);
    for (const Scheme &s : kSchemes) {
        const Outcome &fault =
            lab.total(fifteen(s.kind, s.bypass, Mode::MidTraceFault));
        out.addRow({s.label, speedupOf(lab, fifteen(s.kind, s.bypass)),
                    rateOf(lab, fifteen(s.kind, s.bypass)),
                    fault.precise ? "yes" : "NO", count(fault.cycles)});
    }
    return out.render();
}

std::string
futureFile(Lab &lab)
{
    TextTable out = table("§4: RUU cycles with a future file vs full bypass",
                          {"Entries", "Full Bypass Cycles",
                           "Future File Cycles"});
    for (unsigned n : {6u, 15u, 40u})
        out.addRow({count(n), cyclesOf(lab, cell(K::Ruu, n)),
                    cyclesOf(lab, cell(K::Ruu, n, B::FutureFile))});
    return out.render();
}

std::string
resultBuses(Lab &lab)
{
    TextTable out = table("Ablation (§2): result-bus width (1 = the paper's "
                          "model, 2 ~ the real CRAY-1), pool = 15 entries",
                          {"Result Buses", "Simple Rate", "RSTU Speedup",
                           "RUU Speedup", "Spec RUU Speedup"});
    for (unsigned b : {1u, 2u, 3u})
        out.addRow({count(b), rateOf(lab, busesCell(K::Simple, b)),
                    speedupOf(lab, busesCell(K::Rstu, b)),
                    speedupOf(lab, busesCell(K::Ruu, b)),
                    speedupOf(lab, busesCell(K::SpecRuu, b))});
    return out.render();
}

std::string
assumptions(Lab &lab)
{
    TextTable out = table("Ablation (§2.2): lifting the paper's simulation "
                          "assumptions",
                          {"Configuration", "Simple Cycles",
                           "RUU-15 Cycles", "RUU-15 Slowdown"},
                          true);
    Cycle ideal = lab.total(assumptionCell(K::Ruu, 0)).cycles;
    auto add = [&](const std::string &label, unsigned banks, Mode mode) {
        Cycle ruu = lab.total(assumptionCell(K::Ruu, banks, mode)).cycles;
        out.addRow(
            {label, cyclesOf(lab, assumptionCell(K::Simple, banks, mode)),
             count(ruu),
             ratio(static_cast<double>(ruu) / static_cast<double>(ideal))});
    };
    add("paper assumptions (ideal)", 0, Mode::Plain);
    add("+ instruction buffers modeled", 0, Mode::IBuffers);
    for (unsigned banks : {16u, 8u, 4u})
        add("+ " + std::to_string(banks) + " memory banks (4-cycle recovery)",
            banks, Mode::Plain);
    return out.render() +
           "\nThe paper's claim (§2.2) holds when the slowdown column "
           "stays near 1.00 for the\nCRAY-1-like configuration (16 banks, "
           "buffers modeled).\n";
}

std::string
speculative(Lab &lab)
{
    TextTable out = table("§7 extension: conditional execution from "
                          "predicted paths, RUU with 20 entries",
                          {"Configuration", "Speedup", "Issue Rate",
                           "Mispredict %", "Squashed"},
                          true);
    out.addRow({"ruu (no speculation)", speedupOf(lab, predictorCell(K::Ruu)),
                rateOf(lab, predictorCell(K::Ruu)), "-", "-"});
    for (PredictorKind p : kPredictors) {
        const Outcome &run = lab.total(predictorCell(K::SpecRuu, p));
        double branches = static_cast<double>(run.counters[Branches]);
        double mispredicts = static_cast<double>(run.counters[Mispredicts]);
        out.addRow({std::string("spec_ruu / ") + predictorKindName(p),
                    speedupOf(lab, predictorCell(K::SpecRuu, p)),
                    ratio(run.issueRate()),
                    ratio(branches ? 100.0 * mispredicts / branches : 0.0, 1),
                    count(run.counters[Squashed])});
    }
    return out.render();
}

std::string
branchPenalty(Lab &lab)
{
    TextTable out = table("Ablation (§7 motivation): taken-branch dead "
                          "cycles, pool = 20 entries",
                          {"Taken Penalty", "Simple Rate", "RUU Rate",
                           "Spec RUU Rate"});
    for (unsigned p : kPenalties)
        out.addRow({count(p), rateOf(lab, penaltyCell(K::Simple, p)),
                    rateOf(lab, penaltyCell(K::Ruu, p)),
                    rateOf(lab, penaltyCell(K::SpecRuu, p))});
    return out.render();
}

std::string
commitWidth(Lab &lab)
{
    TextTable out = table("Ablation: RUU commit bandwidth (speedup over "
                          "simple issue), 20 entries",
                          {"Commit Width", "RUU full", "RUU none",
                           "Spec RUU"});
    for (unsigned w : {1u, 2u, 4u})
        out.addRow({count(w), speedupOf(lab, commitCell(K::Ruu, B::Full, w)),
                    speedupOf(lab, commitCell(K::Ruu, B::None, w)),
                    speedupOf(lab, commitCell(K::SpecRuu, B::Full, w))});
    return out.render();
}

/** One generated block of EXPERIMENTS.md. */
struct Experiment
{
    std::string id;
    std::function<std::string(Lab &)> render;
};

/** The registry, in document order. */
const std::vector<Experiment> kRegistry = {
    {"table1", table1},
    {"table2", [](Lab &lab) { return sweepBlock(lab, 2); }},
    {"table3", [](Lab &lab) { return sweepBlock(lab, 3); }},
    {"decode_ceiling", decodeCeiling},
    {"table4", [](Lab &lab) { return sweepBlock(lab, 4); }},
    {"table5", [](Lab &lab) { return sweepBlock(lab, 5); }},
    {"table6", [](Lab &lab) { return sweepBlock(lab, 6); }},
    {"headline", headline},
    {"per_loop", perLoop},
    {"distributed_vs_merged", distributedVsMerged},
    {"load_registers", loadRegisters},
    {"counter_width", counterWidth},
    {"dependency_distance", dependencyDistance},
    {"precise_schemes", preciseSchemes},
    {"future_file", futureFile},
    {"result_buses", resultBuses},
    {"assumptions", assumptions},
    {"speculative", speculative},
    {"branch_penalty", branchPenalty},
    {"commit_width", commitWidth},
};

/** Run @p workload of @p cell on @p core, verified by runOneWorkload. */
Outcome
simulate(Core &core, const Cell &cell, const Workload &workload)
{
    Outcome out;
    if (cell.mode == Mode::MidTraceFault) {
        std::vector<SeqNum> seqs = faultableSeqs(workload.trace());
        FaultExperiment run = runFaultAndResume(
            core, workload, seqs[seqs.size() / 2], Fault::PageFault);
        out.cycles = run.faulted.cycles;
        out.instructions = run.faulted.instructions;
        out.precise = run.precise;
        return out;
    }
    RunOptions options;
    options.modelIBuffers = cell.mode == Mode::IBuffers;
    RunResult run = runOneWorkload(core, workload, cell.config, options);
    out.cycles = run.cycles;
    out.instructions = run.instructions;
    for (std::size_t i = 0; i < kCounters.size(); ++i)
        out.counters[i] = core.stats().value(kCounters[i]);
    return out;
}

Lab
Lab::run(par::Pool *pool)
{
    Lab lab;
    for (const Experiment &experiment : kRegistry)
        experiment.render(lab);

    // One job per (cell, workload), cell-major, so a worker's run of
    // consecutive jobs mostly reuses one core. Every job writes its own
    // slot: the numbers do not depend on the schedule.
    std::vector<std::pair<Result *, std::size_t>> jobs;
    for (auto &[key, result] : lab._results)
        for (std::size_t i = 0; i < result.runs.size(); ++i)
            jobs.emplace_back(&result, i);
    std::vector<SuiteArena> arenas(pool ? pool->workers() : 1);
    par::forEachIndexed(pool, jobs.size(), [&](std::size_t job, unsigned w) {
        auto [result, i] = jobs[job];
        const Cell &cell = result->cell;
        result->runs[i] = simulate(arenas[w].core(cell.kind, cell.config),
                                   cell, cell.workloads[i]);
    });

    for (auto &[key, result] : lab._results) {
        for (const Outcome &run : result.runs) {
            result.total.cycles += run.cycles;
            result.total.instructions += run.instructions;
            for (std::size_t i = 0; i < kCounters.size(); ++i)
                result.total.counters[i] += run.counters[i];
            result.total.precise = result.total.precise && run.precise;
        }
    }
    lab._planning = false;
    return lab;
}

/** The block ID of marker line @p line, or "" when it is not one. */
std::string
markerId(const std::string &line, const std::string &prefix)
{
    if (line.size() < prefix.size() + 4 || !line.starts_with(prefix) ||
        !line.ends_with(" -->"))
        return "";
    return line.substr(prefix.size(), line.size() - prefix.size() - 4);
}

} // namespace

Expected<std::string>
splice(const std::string &doc,
       const std::map<std::string, std::string> &blocks)
{
    std::string out, open;
    std::set<std::string> seen;
    std::istringstream lines(doc);
    for (std::string line; std::getline(lines, line);) {
        if (std::string id = markerId(line, "<!-- begin generated: ");
            !id.empty()) {
            if (!open.empty())
                return Error("block '" + id + "' begins inside block '" +
                             open + "'");
            auto block = blocks.find(id);
            if (block == blocks.end())
                return Error("block '" + id + "' is not in the registry");
            if (!seen.insert(id).second)
                return Error("block '" + id + "' appears twice");
            open = id;
            std::string body = block->second;
            body.erase(body.find_last_not_of('\n') + 1);
            out += line + "\n```\n" + body + "\n```\n";
        } else if (std::string end = markerId(line, "<!-- end generated: ");
                   !end.empty()) {
            if (end != open)
                return Error("block '" + end + "' ends without beginning");
            open.clear();
            out += line + "\n";
        } else if (open.empty()) {
            out += line + "\n";
        }
    }
    if (!open.empty())
        return Error("block '" + open + "' never ends");
    for (const auto &[id, body] : blocks)
        if (!seen.count(id))
            return Error("block '" + id + "' is missing its markers");
    return out;
}

// ---- Claims ---------------------------------------------------------------

namespace
{

/**
 * A claim's view of the run. It logs every value it reads, so a failing
 * claim prints what it saw; a cell no block prints reads as zero and
 * fails the claim.
 */
class Reader
{
  public:
    /** The loop argument that reads a cell's suite total. */
    static constexpr std::size_t kSuite = static_cast<std::size_t>(-1);

    explicit Reader(const Lab &lab) : _lab(lab) {}

    Cycle
    cycles(const Cell &cell, std::size_t loop = kSuite)
    {
        return note(cell, loop, "cycles", read(cell, loop).cycles);
    }

    /** Speedup over simple issue, on the suite or on one loop. */
    double
    speedup(const Cell &cell, std::size_t loop = kSuite)
    {
        Cycle base = read(baseline(), loop).cycles;
        return note(cell, loop, "speedup", read(cell, loop).speedupOver(base));
    }

    double
    issueRate(const Cell &cell, std::size_t loop = kSuite)
    {
        return note(cell, loop, "issue rate", read(cell, loop).issueRate());
    }

    std::uint64_t
    counter(const Cell &cell, Counter which)
    {
        return note(cell, kSuite, kCounters[which],
                    read(cell, kSuite).counters[which]);
    }

    bool
    precise(const Cell &cell)
    {
        return note(cell, kSuite, "precise", read(cell, kSuite).precise);
    }

    /**
     * @p value rounds to @p digits, which the claim's sentence quotes:
     * a run that moves a quoted number fails the claim by name.
     */
    bool
    shows(double value, const std::string &digits)
    {
        std::size_t dot = std::min(digits.find('.'), digits.size() - 1);
        int decimals = static_cast<int>(digits.size() - dot - 1);
        std::string printed = ratio(value, decimals);
        _quoted.push_back(digits);
        _log += "  quoted " + digits + ", the run prints " + printed + "\n";
        return printed == digits;
    }

    /** Claim @p name: @p holds, and everything read since the last. */
    ClaimResult
    close(const char *name, bool holds)
    {
        ClaimResult made{name, holds && _complete, std::exchange(_log, ""),
                         std::exchange(_quoted, {})};
        _complete = true;
        return made;
    }

  private:
    const Outcome &
    read(const Cell &cell, std::size_t loop)
    {
        static const Outcome none;
        const Lab::Result *result = _lab.find(cell);
        if (!result) {
            _complete = false;
            _log += "  " + describe(cell) + ": no block prints this cell\n";
            return none;
        }
        return loop == kSuite ? result->total : result->runs.at(loop);
    }

    template <typename T>
    T
    note(const Cell &cell, std::size_t loop, const char *what, T value)
    {
        _log += "  " + describe(cell);
        if (loop != kSuite)
            _log += " [" + cell.workloads[loop].name + "]";
        _log += detail::vformat(": %s %.6g\n", what,
                                static_cast<double>(value));
        return value;
    }

    const Lab &_lab;
    std::string _log;
    std::vector<std::string> _quoted;
    bool _complete = true;
};

/** low < value < high. */
bool
within(double value, double low, double high)
{
    return value > low && value < high;
}

/** |value - target| <= tolerance. */
bool
near(double value, double target, double tolerance)
{
    return std::fabs(value - target) <= tolerance;
}

/** @p holds for every item; reads (and so logs) every item. */
template <typename Range, typename Pred>
bool
all(const Range &items, Pred holds)
{
    bool every = true;
    for (const auto &item : items)
        every = holds(item) && every;
    return every;
}

template <typename T, typename Pred>
bool
all(std::initializer_list<T> items, Pred holds)
{
    return all<std::initializer_list<T>>(items, holds);
}

/** Index of kernel lllNN in the suite. */
std::size_t
lll(int n)
{
    return static_cast<std::size_t>(n - 1);
}

std::vector<std::size_t>
loops()
{
    std::vector<std::size_t> indices(livermoreWorkloads().size());
    std::iota(indices.begin(), indices.end(), 0);
    return indices;
}

/** Suite cycles never rise along @p axis, mapped to cells by @p at. */
template <typename At>
bool
neverRise(Reader &r, std::initializer_list<unsigned> axis, At at)
{
    Cycle previous = ~Cycle{0};
    return all(axis, [&](unsigned n) {
        Cycle cycles = r.cycles(at(n));
        return std::exchange(previous, cycles) >= cycles;
    });
}

/** Table @p table's cell at a given size. */
auto
tableAt(int table)
{
    return [table](unsigned entries) { return tableCell(table, entries); };
}

/** The paper's speedup in Table @p table at @p entries. */
double
paperSpeedup(int table, unsigned entries)
{
    for (const PaperRow &row : sweep(table).paper)
        if (row.entries == entries)
            return row.speedup;
    ruu_panic("Table %d has no %u-entry row", table, entries);
}

/** Cycles of @p slow over cycles of @p fast. */
double
gain(Reader &r, const Cell &slow, const Cell &fast,
     std::size_t loop = Reader::kSuite)
{
    return static_cast<double>(r.cycles(slow, loop)) /
           static_cast<double>(r.cycles(fast, loop));
}

/** Check every claim on @p lab, in document order. */
std::vector<ClaimResult>
checkClaims(const Lab &lab)
{
    std::vector<ClaimResult> results;
    Reader r(lab);
    // One claim: its verdict and the values read since the last claim.
    // Cycles compare exactly; speedups and issue rates are the exact
    // doubles that the blocks print rounded.
    auto claim = [&](const char *name, bool holds) {
        results.push_back(r.close(name, holds));
    };

    double baseRate = r.issueRate(baseline());
    claim("baseline_rate_below_paper",
          within(baseRate, 0.15, 0.438) && r.shows(baseRate, "0.279"));

    std::vector<double> rate;
    for (std::size_t i : loops())
        rate.push_back(r.issueRate(baseline(), i));
    std::vector<double> sorted = rate;
    std::sort(sorted.begin(), sorted.end());
    claim("table1_shape",
          sorted.back() < 0.5 &&
              all({7, 9, 10},
                  [&](int n) { return rate[lll(n)] >= sorted[11]; }) &&
              all({5, 11}, [&](int n) { return rate[lll(n)] <= sorted[3]; }));

    double rstu3 = r.speedup(tableCell(2, 3));
    double rstu25 = r.speedup(tableCell(2, 25));
    claim("table2_shape",
          rstu3 < 1.0 && r.shows(rstu3, "0.98") && r.shows(rstu25, "1.84") &&
              neverRise(r, {3, 5, 8, 15, 30}, tableAt(2)) &&
              r.cycles(tableCell(2, 25)) > r.cycles(tableCell(2, 20)) &&
              near(r.speedup(tableCell(2, 30)), rstu25, 0.01));

    claim("table3_second_path_adds_2_to_4pct", all(kRstuSizes, [&](unsigned n) {
              return within(gain(r, tableCell(2, n), tableCell(3, n)), 1.015,
                            1.045);
          }));

    double spec50 = r.issueRate(ceilingCell(K::SpecRuu));
    claim("issue_rate_below_one_per_cycle",
          all(kCeiling, [&](CoreKind kind) {
              double issue = r.issueRate(ceilingCell(kind));
              return within(issue, 0.15, 1.0) && issue <= spec50;
          }));

    double full3 = r.speedup(tableCell(4, 3));
    double full50 = r.speedup(tableCell(4, 50));
    claim("table4_anchor_rows", full3 < 1.0 && r.shows(full3, "0.84") &&
                                    r.shows(full50, "1.78"));

    double full12 = r.speedup(tableCell(4, 12));
    claim("table4_12_entries_deliver_most", full12 >= 0.9 * full50);

    claim("table4_saturates_by_25",
          near(full50, r.speedup(tableCell(4, 25)), 0.005) &&
              all({6u, 8u, 10u, 12u, 15u, 20u},
                  [&](unsigned n) {
                      return r.speedup(tableCell(4, n)) > paperSpeedup(4, n);
                  }) &&
              r.shows(full12, "1.65"));

    claim("tables4to6_monotone",
          all({4, 5, 6},
              [&](int table) {
                  return neverRise(r, {3, 6, 12, 25}, tableAt(table));
              }) &&
              r.cycles(tableCell(5, 15)) > r.cycles(tableCell(5, 12)));

    double none50 = r.speedup(tableCell(5, 50));
    claim("table5_tracks_then_stays_below",
          r.shows(r.speedup(tableCell(5, 3)), "0.81") &&
              r.speedup(tableCell(5, 4)) < 1.0 &&
              r.speedup(tableCell(5, 6)) >= 1.0 && none50 > 1.0 &&
              none50 <= full50 - 0.4 && r.shows(none50, "1.15"));

    claim("table5_flattens_near_1_16",
          all({12u, 15u, 20u, 25u, 30u, 40u, 50u}, [&](unsigned n) {
              return within(r.speedup(tableCell(5, n)), 1.13, 1.18);
          }));

    claim("table6_strictly_between_5_and_4",
          all(kRuuSizes, [&](unsigned n) {
              Cycle limited = r.cycles(tableCell(6, n));
              return r.cycles(tableCell(4, n)) < limited &&
                     limited < r.cycles(tableCell(5, n));
          }));

    double paper = (paperSpeedup(6, 50) - paperSpeedup(5, 50)) /
                   (paperSpeedup(4, 50) - paperSpeedup(5, 50));
    double ours = (r.speedup(tableCell(6, 50)) - none50) / (full50 - none50);
    claim("table6_recovers_most_of_the_loss", ours > 0.5 && ours > paper);

    Cycle ruu12 = r.cycles(cell(K::Ruu, 12));
    claim("headline_ordering_at_12",
          r.cycles(cell(K::Rstu, 12)) < ruu12 &&
              ruu12 < r.cycles(cell(K::Simple, 12)) &&
              r.cycles(cell(K::SpecRuu, 12)) < ruu12);

    Cell spec15 = fifteen(K::SpecRuu);
    double top =
        std::min(r.speedup(spec15, lll(11)), r.speedup(spec15, lll(12)));
    claim("per_loop_spread",
          within(top, 2.75, 3.5) &&
              all(loops(),
                  [&](std::size_t i) {
                      return i == lll(11) || i == lll(12) ||
                             r.speedup(spec15, i) < top;
                  }) &&
              all({7, 9, 10, 13}, [&](int n) {
                  return r.speedup(fifteen(K::History), lll(n)) < 1.0;
              }));

    std::vector<Cell> columns = {baseline()};
    for (auto [kind, bypass] : kDetail)
        columns.push_back(fifteen(kind, bypass));
    claim("limit_within_23_to_93_pct", all(loops(), [&](std::size_t i) {
              double bound = static_cast<double>(
                  lint::cachedResourceBound(livermoreWorkloads()[i].trace(),
                                            UarchConfig::cray1())
                      .cycles);
              return all(columns, [&](const Cell &column) {
                  double pct =
                      100.0 * bound / static_cast<double>(r.cycles(column, i));
                  return pct >= 23.0 && pct <= 93.0;
              });
          }));

    double merged = r.speedup(cell(K::Rstu, 11));
    claim("merged_pool_beats_distributed",
          all({11u, 22u, 33u},
              [&](unsigned total) {
                  return r.cycles(cell(K::Rstu, total)) <
                         r.cycles(distributedCell(total));
              }) &&
              within(merged - r.speedup(distributedCell(11)), 0.55, 0.65) &&
              r.speedup(distributedCell(22)) < merged - 0.1 &&
              r.speedup(distributedCell(33)) >= merged - 0.1);

    claim("load_regs_4_suffice",
          neverRise(r, {1, 2, 3, 4, 5, 6}, loadRegsCell) &&
              within(r.speedup(loadRegsCell(4)) / r.speedup(loadRegsCell(6)),
                     0.955, 0.965) &&
              static_cast<double>(r.counter(loadRegsCell(8), NoLoadReg)) <
                  0.05 * static_cast<double>(
                             r.counter(loadRegsCell(6), NoLoadReg)));

    claim("counter_width_shape",
          r.counter(counterCell(12, 3), NiBlocked) == 0 &&
              all({25u, 50u},
                  [&](unsigned n) {
                      return r.counter(counterCell(n, 3), NiBlocked) > 0 &&
                             within(1.0 - r.speedup(counterCell(n, 3)) /
                                              r.speedup(counterCell(n, 4)),
                                    0.01, 0.04);
                  }) &&
              all({12u, 25u, 50u}, [&](unsigned n) {
                  return r.counter(counterCell(n, 4), NiBlocked) == 0;
              }));

    // Distances 0-4 and 12-16 cost nothing; 6-10 cost 11-43%.
    auto penalty = [&](std::size_t i) {
        return gain(r, distanceCell(B::None), distanceCell(B::Full), i);
    };
    claim("distance_window",
          all({0u, 1u, 2u, 3u, 7u, 8u},
              [&](std::size_t i) { return penalty(i) == 1.0; }) &&
              all({4u, 5u, 6u}, [&](std::size_t i) {
                  return within(penalty(i), 1.105, 1.435);
              }));

    claim("future_file_equals_full_bypass",
          all({6u, 15u, 40u}, [&](unsigned n) {
              return r.cycles(cell(K::Ruu, n, B::FutureFile)) ==
                     r.cycles(cell(K::Ruu, n));
          }));

    claim("only_rstu_is_imprecise", all(kSchemes, [&](const Scheme &scheme) {
              return r.precise(fifteen(scheme.kind, scheme.bypass,
                                       Mode::MidTraceFault)) ==
                     (scheme.kind != K::Rstu);
          }));

    Cycle history = r.cycles(fifteen(K::History));
    double historyWin = r.speedup(fifteen(K::History));
    double ruuWin = r.speedup(fifteen(K::Ruu));
    claim("history_keeps_little_of_the_win",
          history < r.cycles(baseline()) &&
              history > r.cycles(fifteen(K::Ruu)) &&
              historyWin - 1.0 < 0.5 * (ruuWin - 1.0) &&
              r.shows(historyWin, "1.11") && r.shows(ruuWin, "1.72") &&
              within(gain(r, fifteen(K::History, B::Full, Mode::MidTraceFault),
                          fifteen(K::Ruu, B::Full, Mode::MidTraceFault)),
                     1.8, 2.5));

    auto oneBus = [&](CoreKind kind) {
        return gain(r, busesCell(kind, 1), busesCell(kind, 2));
    };
    claim("one_bus_costs_6_to_8pct",
          all({K::Rstu, K::Ruu, K::SpecRuu},
              [&](CoreKind kind) {
                  return within(oneBus(kind), 1.055, 1.085);
              }) &&
              within(oneBus(K::Simple), 1.015, 1.025));

    claim("assumptions_cost_little",
          all({K::Simple, K::Ruu},
              [&](K kind) {
                  double slack = kind == K::Ruu ? 0.01 : 0.015;
                  Cell ideal = assumptionCell(kind, 0);
                  return near(gain(r, assumptionCell(kind, 0, Mode::IBuffers),
                                   ideal),
                              1.0, slack) &&
                         near(gain(r, assumptionCell(kind, 16), ideal), 1.0,
                              slack);
              }) &&
              r.shows(100.0 * gain(r, assumptionCell(K::Simple, 16),
                                   baseline()) -
                          100.0,
                      "1.3"));

    double ruu20 = r.speedup(predictorCell(K::Ruu));
    Cell bad = predictorCell(K::SpecRuu, PredictorKind::AlwaysNotTaken);
    double missed = 100.0 *
                    static_cast<double>(r.counter(bad, Mispredicts)) /
                    static_cast<double>(r.counter(bad, Branches));
    claim("speculation_shape",
          all({PredictorKind::AlwaysTaken, PredictorKind::Btfn,
               PredictorKind::Smith2Bit},
              [&](PredictorKind p) {
                  double spec = r.speedup(predictorCell(K::SpecRuu, p));
                  return spec - ruu20 >= 0.3 && spec - ruu20 <= 0.5 &&
                         spec > r.speedup(bad);
              }) &&
              r.shows(r.speedup(predictorCell(K::SpecRuu)), "2.16") &&
              r.shows(ruu20, "1.77") && missed > 90.0 &&
              r.shows(missed, "93") && near(r.speedup(bad), ruu20, 0.01));

    // The speculative RUU prints 0.602-0.605 at every penalty.
    claim("branch_penalty_shape",
          within(r.issueRate(penaltyCell(K::Ruu, 12)) /
                     r.issueRate(penaltyCell(K::Ruu, 1)),
                 0.65, 0.75) &&
              all(kPenalties, [&](unsigned penalty) {
                  return within(r.issueRate(penaltyCell(K::SpecRuu, penalty)),
                                0.6015, 0.6055);
              }));

    auto wider = [&](CoreKind kind, BypassMode bypass, unsigned width) {
        return gain(r, commitCell(kind, bypass, 1),
                    commitCell(kind, bypass, width));
    };
    claim("commit_width_not_a_bottleneck",
          wider(K::Ruu, B::Full, 2) < 1.01 &&
              wider(K::Ruu, B::None, 2) < 1.04 &&
              wider(K::Ruu, B::Full, 4) < 1.05 &&
              wider(K::Ruu, B::None, 4) < 1.05 &&
              wider(K::SpecRuu, B::Full, 4) < 1.05);
    return results;
}

} // namespace

PaperRun
runPaper(par::Pool *pool)
{
    Lab lab = Lab::run(pool);
    PaperRun run;
    for (const Experiment &experiment : kRegistry)
        run.blocks[experiment.id] = experiment.render(lab);
    run.claims = checkClaims(lab);
    return run;
}

} // namespace ruu::paper
