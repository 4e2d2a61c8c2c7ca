/**
 * @file
 * ruusim — command-line driver for the library.
 *
 *   ruusim run <prog.s|lllNN|suite> [--core K] [--entries N]
 *          [--buses N] [--banks N] [--load-regs N] [--counter-bits N]
 *          [--bypass M] [--predictor P] [--ibuffers] [--stats]
 *   ruusim sweep <prog.s|lllNN|suite> [--core K] [--sizes a,b,c]
 *          [--no-prune] [--json]
 *   ruusim analyze <prog.s|lllNN|suite> [--json]
 *   ruusim verify <prog.s|lllNN|suite> [--core K] [--sweep]
 *          [--points N]
 *   ruusim storm <prog.s|lllNN|suite> [--core K] [--points N]
 *   ruusim disasm <prog.s>
 *   ruusim lint <prog.s|lllNN|suite> [--Werror]
 *   ruusim trace <prog.s|lllNN> <out.trace>
 *   ruusim trace <in.trace>
 *   ruusim serve --socket PATH [--cache DIR] [--journal FILE] [...]
 *   ruusim submit --socket PATH <prog.s|lllNN|suite> [options]
 *   ruusim list
 *
 * Workloads are either a textual-assembly file or a built-in Livermore
 * kernel name (lll01..lll14); "suite" means all fourteen.
 *
 * Malformed input — unknown flags and names, unreadable files, broken
 * trace files, truncated JSON configs, programs that fault organically —
 * is diagnosed on stderr and exits with status 2. Status 1 is reserved
 * for verification failures on well-formed input.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "asm/parser.hh"
#include "common/error.hh"
#include "common/file.hh"
#include "common/logging.hh"
#include "engine/engine.hh"
#include "inject/campaign.hh"
#include "isa/disasm.hh"
#include "kernels/lll.hh"
#include "lint/analyze.hh"
#include "lint/bound_summary.hh"
#include "lint/resource_bound.hh"
#include "lint/wcirt.hh"
#include "oracle/verify.hh"
#include "par/pool.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/experiment.hh"
#include "sim/json.hh"
#include "stats/table.hh"
#include "trace/trace_io.hh"
#include "trap/controller.hh"

using namespace ruu;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  ruusim run <prog.s|lllNN|suite> [options]\n"
        "  ruusim sweep <prog.s|lllNN|suite> [--core K] [--sizes "
        "a,b,c,...]\n"
        "         [--no-prune] [--json]\n"
        "  ruusim analyze <prog.s|lllNN|suite> [--json]\n"
        "  ruusim verify <prog.s|lllNN|suite> [--core K] [--sweep] "
        "[--points N]\n"
        "  ruusim storm <prog.s|lllNN|suite> [--core K] [--points N]\n"
        "  ruusim inject <prog.s|lllNN|suite> [--cores a,b,...] "
        "[--trials N]\n"
        "         [--seed S] [--journal FILE] [--timeout-ms N]\n"
        "         [--stop-after K] [--replay-trial N] [--bench-out "
        "FILE]\n"
        "  ruusim disasm <prog.s>\n"
        "  ruusim lint <prog.s|lllNN|suite> [--Werror]\n"
        "  ruusim trace <prog.s|lllNN> <out.trace>\n"
        "  ruusim trace <in.trace>\n"
        "  ruusim serve --socket PATH [--cache DIR] [--journal FILE]\n"
        "         [--queue FILE] [--queue-limit N] [--deadline-ms N]\n"
        "         [--max-connections N]\n"
        "  ruusim submit --socket PATH <prog.s|lllNN|suite> [--core K]\n"
        "         [--period N] [--deadline-ms N] [--status|--ping|"
        "--stop]\n"
        "  ruusim submit --socket PATH --campaign KIND <lllNN|suite>\n"
        "         [--cores a,b,...] [--periods a,b,...] [--trials N]\n"
        "         [--seed S] [--id NAME]\n"
        "  ruusim submit --socket PATH --watch ID | --cancel ID\n"
        "  ruusim list\n"
        "options:\n"
        "  --core K          simple|tomasulo|rstu|ruu|spec_ruu|history\n"
        "  --config FILE     load a JSON config (as emitted in --json "
        "runs);\n"
        "                    flags after --config override its fields\n"
        "  --entries N       pool/RUU/history entries (default 10)\n"
        "  --buses N         result buses (default 1)\n"
        "  --banks N         memory banks, 0 = ideal (default 0)\n"
        "  --load-regs N     load registers (default 6)\n"
        "  --counter-bits N  NI/LI width (default 3)\n"
        "  --bypass M        full|none|limited_a|future_file\n"
        "  --predictor P     always_taken|always_not_taken|btfn|"
        "smith_2bit\n"
        "  --sweep           verify: also sweep interrupts over every "
        "point\n"
        "  --points N        verify: interrupt points per core "
        "(0 = all; default 32)\n"
        "                    storm: arrival rates K = 16*4^i, i < N, "
        "capped at 10000\n"
        "                    (default 4: K in {16, 64, 256, 1024})\n"
        "  --cores LIST      inject: comma list of cores (default: all "
        "six)\n"
        "  --trials N        inject: campaign trial count (default "
        "1000)\n"
        "  --seed S          inject: campaign seed (default 1)\n"
        "  --journal FILE    inject: JSONL journal to stream/resume\n"
        "  --timeout-ms N    inject: per-trial wall-clock watchdog "
        "(default 10000)\n"
        "  --stop-after K    inject: stop after K new trials (exit 3)\n"
        "  --replay-trial N  inject: re-run one trial and report it\n"
        "  --bench-out FILE  inject: write the campaign summary JSON\n"
        "  --socket PATH     serve/submit: Unix-domain socket path\n"
        "  --cache DIR       serve: content-addressed result cache\n"
        "  --journal FILE    inject: JSONL journal to stream/resume;\n"
        "                    serve: crash-recovery journal\n"
        "  --queue-limit N   serve: admission-queue bound (default "
        "256)\n"
        "  --deadline-ms N   serve: default per-job watchdog; submit: "
        "per-job\n"
        "                    deadline override\n"
        "  --max-connections N  serve: exit after N connections "
        "(0 = run on)\n"
        "  --queue FILE      serve: durable campaign-queue journal\n"
        "  --campaign KIND   submit: enqueue a run|storm|inject "
        "campaign and\n"
        "                    stream its results (kernels/suite only)\n"
        "  --id NAME         submit: campaign id (default "
        "KIND:<workload>)\n"
        "  --periods LIST    submit: storm-campaign arrival periods "
        "(default:\n"
        "                    K = 16*4^i as for storm --points)\n"
        "  --watch ID        submit: re-attach to a campaign's result "
        "stream\n"
        "  --cancel ID       submit: cancel a campaign's pending "
        "units\n"
        "  --period N        submit: periodic-interrupt arrival period "
        "(cycles)\n"
        "  --status          submit: print the daemon status line and "
        "exit\n"
        "  --ping            submit: probe the daemon and exit\n"
        "  --stop            submit: ask the daemon to shut down\n"
        "  --jobs N, -j N    worker threads for sweep/verify/storm/"
        "inject/serve\n"
        "                    (default: hardware threads, or RUU_JOBS; "
        "output is\n"
        "                    byte-identical at any job count)\n"
        "  --engine K        cycle engine: compiled (default) or "
        "interp, the\n"
        "                    reference oracle (or RUU_ENGINE; output "
        "is\n"
        "                    byte-identical under either engine)\n"
        "  --no-prune        sweep: simulate every (workload, size) "
        "point instead\n"
        "                    of deriving sizes past a certified-bound "
        "hit or plateau\n"
        "  --ibuffers        model the instruction buffers\n"
        "  --stats           dump all per-run statistics\n"
        "  --json            emit one JSON object per run\n"
        "  --Werror          lint: treat warnings as errors\n");
    std::exit(2);
}

/**
 * Diagnose bad input on stderr and exit with status 2 — the recoverable
 * counterpart of ruu_fatal (which is reserved for simulator bugs and
 * exits 1).
 */
#define cliFail(...)                                                  \
    do {                                                              \
        std::fprintf(stderr, "ruusim: error: %s\n",                   \
                     ::ruu::detail::vformat(__VA_ARGS__).c_str());    \
        std::exit(2);                                                 \
    } while (0)

std::string
readFile(const std::string &path)
{
    Expected<std::string> text = readTextFile(path);
    if (!text)
        cliFail("%s", text.error().message().c_str());
    return text.take();
}

/**
 * Resolve a workload argument — "suite", a kernel name or an assembly
 * file — building only what it names. The suite is the cached one; a
 * single kernel or program is built here and kept for the rest of the
 * process, since every command resolves exactly one argument.
 */
const std::vector<Workload> &
resolveWorkloads(const std::string &name)
{
    if (name == "suite")
        return livermoreWorkloads();
    static std::vector<Workload> named;
    if (std::optional<Workload> kernel = livermoreWorkload(name)) {
        named.push_back(std::move(*kernel));
        return named;
    }
    AsmResult assembled = assemble(readFile(name), name);
    if (!assembled.ok()) {
        for (const auto &error : assembled.errors)
            std::fprintf(stderr, "%s: %s\n", name.c_str(),
                         error.toString().c_str());
        std::exit(2);
    }

    // Build the workload by hand instead of via makeWorkload: a
    // user-supplied program that faults or never halts is bad input,
    // not a simulator bug.
    Workload workload;
    workload.name = name;
    workload.program =
        std::make_shared<Program>(std::move(*assembled.program));
    workload.func = runFunctional(workload.program);
    if (workload.func.fault != Fault::None) {
        cliFail("'%s' faults organically (%s at dynamic instruction "
                "%llu); it cannot run as a workload",
                name.c_str(), faultName(workload.func.fault),
                static_cast<unsigned long long>(workload.func.faultSeq));
    }
    if (!workload.func.halted)
        cliFail("'%s' never reaches HALT", name.c_str());
    named.push_back(std::move(workload));
    return named;
}

CoreKind
parseCore(const std::string &name)
{
    for (CoreKind kind :
         {CoreKind::Simple, CoreKind::Tomasulo, CoreKind::Rstu,
          CoreKind::Ruu, CoreKind::SpecRuu, CoreKind::History}) {
        if (name == coreKindName(kind))
            return kind;
    }
    cliFail("unknown core '%s'", name.c_str());
}

BypassMode
parseBypass(const std::string &name)
{
    for (BypassMode mode : {BypassMode::Full, BypassMode::None,
                            BypassMode::LimitedA,
                            BypassMode::FutureFile}) {
        if (name == bypassModeName(mode))
            return mode;
    }
    cliFail("unknown bypass mode '%s'", name.c_str());
}

PredictorKind
parsePredictor(const std::string &name)
{
    for (PredictorKind kind :
         {PredictorKind::AlwaysTaken, PredictorKind::AlwaysNotTaken,
          PredictorKind::Btfn, PredictorKind::Smith2Bit}) {
        if (name == predictorKindName(kind))
            return kind;
    }
    cliFail("unknown predictor '%s'", name.c_str());
}

struct Cli
{
    CoreKind core = CoreKind::Ruu;
    bool coreSet = false;
    UarchConfig config = UarchConfig::cray1();
    bool ibuffers = false;
    bool stats = false;
    bool json = false;
    bool werror = false;
    bool interruptSweep = false;
    bool noPrune = false;
    std::size_t sweepPoints = 32;
    bool pointsSet = false;
    std::vector<unsigned> sizes = {3, 5, 8, 12, 20, 30, 50};
    std::vector<std::string> positional;

    // inject
    std::vector<CoreKind> injectCores;
    std::uint64_t trials = 1000;
    std::uint64_t seed = 1;
    std::string journal;
    unsigned timeoutMs = 10'000;
    std::uint64_t stopAfter = 0;
    std::uint64_t replayTrial = 0;
    bool replaySet = false;
    std::string benchOut;

    // serve / submit
    std::string socketPath;
    std::string cacheDir;
    std::size_t queueLimit = 256;
    unsigned deadlineMs = 0;
    std::uint64_t maxConnections = 0;
    std::uint64_t period = 0;
    bool statusOnly = false;
    bool pingOnly = false;
    bool stopDaemon = false;

    // campaigns (serve-side queue)
    std::string queuePath;
    std::string campaignKind;
    std::string campaignId;
    std::string watchId;
    std::string cancelId;
    std::vector<std::uint64_t> periods;

    /** Worker threads for the parallel drivers (par::Pool). */
    unsigned jobs = par::defaultJobs();
};

Cli
parseArgs(int argc, char **argv)
{
    Cli cli;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--core") {
            cli.core = parseCore(value());
            cli.coreSet = true;
        } else if (arg == "--sweep") {
            cli.interruptSweep = true;
        } else if (arg == "--no-prune") {
            cli.noPrune = true;
        } else if (arg == "--points") {
            cli.sweepPoints =
                static_cast<std::size_t>(atoi(value().c_str()));
            cli.pointsSet = true;
        } else if (arg == "--config") {
            std::string path = value();
            Expected<UarchConfig> parsed =
                parseUarchConfig(readFile(path));
            if (!parsed) {
                cliFail("%s: %s", path.c_str(),
                        parsed.error().message().c_str());
            }
            cli.config = parsed.take();
        } else if (arg == "--entries") {
            unsigned n = static_cast<unsigned>(atoi(value().c_str()));
            cli.config.poolEntries = n;
            cli.config.historyEntries = n;
            cli.config.tuEntries = n;
        } else if (arg == "--buses") {
            cli.config.resultBuses =
                static_cast<unsigned>(atoi(value().c_str()));
        } else if (arg == "--banks") {
            cli.config.memoryBanks =
                static_cast<unsigned>(atoi(value().c_str()));
        } else if (arg == "--load-regs") {
            cli.config.loadRegisters =
                static_cast<unsigned>(atoi(value().c_str()));
        } else if (arg == "--counter-bits") {
            cli.config.counterBits =
                static_cast<unsigned>(atoi(value().c_str()));
        } else if (arg == "--bypass") {
            cli.config.bypass = parseBypass(value());
        } else if (arg == "--predictor") {
            cli.config.predictor = parsePredictor(value());
        } else if (arg == "--cores") {
            std::stringstream list(value());
            std::string item;
            while (std::getline(list, item, ','))
                cli.injectCores.push_back(parseCore(item));
            if (cli.injectCores.empty())
                usage();
        } else if (arg == "--trials") {
            cli.trials = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seed") {
            cli.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--journal") {
            cli.journal = value();
        } else if (arg == "--timeout-ms") {
            cli.timeoutMs =
                static_cast<unsigned>(atoi(value().c_str()));
        } else if (arg == "--stop-after") {
            cli.stopAfter = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--replay-trial") {
            cli.replayTrial =
                std::strtoull(value().c_str(), nullptr, 10);
            cli.replaySet = true;
        } else if (arg == "--bench-out") {
            cli.benchOut = value();
        } else if (arg == "--socket") {
            cli.socketPath = value();
        } else if (arg == "--cache") {
            cli.cacheDir = value();
        } else if (arg == "--queue-limit") {
            cli.queueLimit =
                static_cast<std::size_t>(atoi(value().c_str()));
        } else if (arg == "--deadline-ms") {
            cli.deadlineMs =
                static_cast<unsigned>(atoi(value().c_str()));
        } else if (arg == "--max-connections") {
            cli.maxConnections =
                std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--period") {
            cli.period = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--queue") {
            cli.queuePath = value();
        } else if (arg == "--campaign") {
            cli.campaignKind = value();
        } else if (arg == "--id") {
            cli.campaignId = value();
        } else if (arg == "--watch") {
            cli.watchId = value();
        } else if (arg == "--cancel") {
            cli.cancelId = value();
        } else if (arg == "--periods") {
            std::stringstream list(value());
            std::string item;
            while (std::getline(list, item, ','))
                cli.periods.push_back(
                    std::strtoull(item.c_str(), nullptr, 10));
            if (cli.periods.empty())
                usage();
        } else if (arg == "--status") {
            cli.statusOnly = true;
        } else if (arg == "--ping") {
            cli.pingOnly = true;
        } else if (arg == "--stop") {
            cli.stopDaemon = true;
        } else if (arg == "--ibuffers") {
            cli.ibuffers = true;
        } else if (arg == "--stats") {
            cli.stats = true;
        } else if (arg == "--json") {
            cli.json = true;
        } else if (arg == "--Werror") {
            cli.werror = true;
        } else if (arg == "--sizes") {
            cli.sizes.clear();
            std::stringstream list(value());
            std::string item;
            while (std::getline(list, item, ','))
                cli.sizes.push_back(
                    static_cast<unsigned>(atoi(item.c_str())));
            if (cli.sizes.empty())
                usage();
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
        } else {
            cli.positional.push_back(arg);
        }
    }
    return cli;
}

int
cmdRun(const Cli &cli)
{
    if (cli.positional.size() != 1)
        usage();
    const auto &workloads = resolveWorkloads(cli.positional[0]);
    auto core = makeCore(cli.core, cli.config);
    RunOptions options;
    options.modelIBuffers = cli.ibuffers;

    std::uint64_t cycles = 0, instructions = 0;
    for (const auto &workload : workloads) {
        RunResult run = core->run(workload.trace(), options);
        if (!matchesFunctional(run, workload.func))
            ruu_fatal("'%s' committed the wrong state (simulator bug)",
                      workload.name.c_str());
        if (cli.json) {
            std::printf("%s\n",
                        runToJson(workload.name, core->name(), run,
                                  core->stats())
                            .c_str());
        } else {
            std::printf("%-8s %8llu instructions %9llu cycles  issue "
                        "rate %.3f\n",
                        workload.name.c_str(),
                        static_cast<unsigned long long>(
                            run.instructions),
                        static_cast<unsigned long long>(run.cycles),
                        run.issueRate());
            if (cli.stats)
                std::printf("%s", core->stats().dump().c_str());
        }
        cycles += run.cycles;
        instructions += run.instructions;
    }
    if (workloads.size() > 1 && !cli.json)
        std::printf("total    %8llu instructions %9llu cycles  issue "
                    "rate %.3f\n",
                    static_cast<unsigned long long>(instructions),
                    static_cast<unsigned long long>(cycles),
                    static_cast<double>(instructions) /
                        static_cast<double>(cycles));
    return 0;
}

int
cmdSweep(const Cli &cli)
{
    if (cli.positional.size() != 1)
        usage();
    const auto &workloads = resolveWorkloads(cli.positional[0]);
    par::Pool pool(cli.jobs);
    AggregateResult baseline = runSuite(
        CoreKind::Simple, UarchConfig::cray1(), workloads, &pool);
    // Bound-guided pruning is on by default at the command line; the
    // simulated points are byte-identical either way, --no-prune just
    // forces every (workload, size) cell to actually run.
    SweepOptions options;
    options.prune = !cli.noPrune;
    auto points = sweepPoolSize(cli.core, cli.config, cli.sizes,
                                workloads, baseline.cycles, &pool,
                                options);
    std::size_t simulated = 0, cells = 0;
    for (const auto &point : points) {
        simulated += point.simulated;
        cells += workloads.size();
    }
    if (cli.json) {
        for (const auto &point : points) {
            std::printf(
                "{\"core\": \"%s\", \"entries\": %u, "
                "\"cycles\": %llu, \"instructions\": %llu, "
                "\"speedup\": %.6f, \"issue_rate\": %.6f, "
                "\"simulated\": %zu, \"derived\": %s}\n",
                coreKindName(cli.core), point.entries,
                static_cast<unsigned long long>(point.total.cycles),
                static_cast<unsigned long long>(
                    point.total.instructions),
                point.speedup, point.total.issueRate(),
                point.simulated, point.derived ? "true" : "false");
        }
        return 0;
    }
    TextTable table({"Entries", "Cycles", "Speedup", "Issue Rate",
                     "Simulated"});
    table.setTitle(std::string("sweep of ") + coreKindName(cli.core) +
                   " (baseline: simple issue, " +
                   TextTable::fmt(baseline.cycles) + " cycles)");
    for (const auto &point : points) {
        table.addRow({TextTable::fmt(std::uint64_t{point.entries}),
                      TextTable::fmt(point.total.cycles),
                      TextTable::fmt(point.speedup),
                      TextTable::fmt(point.total.issueRate()),
                      TextTable::fmt(std::uint64_t{point.simulated}) +
                          "/" +
                          TextTable::fmt(
                              std::uint64_t{workloads.size()}) +
                          (point.derived ? " (derived)" : "")});
    }
    std::printf("%s", table.render().c_str());
    if (options.prune && simulated < cells) {
        std::printf("sweep: pruned %zu of %zu simulations past "
                    "certified-bound hits and plateaus (--no-prune "
                    "to disable)\n",
                    cells - simulated, cells);
    }
    return 0;
}

/**
 * Static resource-aware performance analysis (lint/resource_bound.hh):
 * no simulation, just the certified lower bound of each workload under
 * the active configuration, decomposed into its structural floors,
 * with the binding resource named and the (uncertified) queueing
 * estimate alongside.
 */
int
cmdAnalyze(const Cli &cli)
{
    if (cli.positional.size() != 1)
        usage();
    const auto &workloads = resolveWorkloads(cli.positional[0]);

    TextTable table({"Workload", "Records", "Bound", "DepBound",
                     "Decode", "Schedule", "FU", "Bus", "Commit",
                     "Binding", "Estimate", "WCIRT", "%Ceiling"});
    table.setTitle(std::string("analyze: certified resource bound per "
                               "workload (cycles; estimate is M/M/m, "
                               "not certified; WCIRT: interrupt "
                               "delivery ceiling on ") +
                   coreKindName(cli.core) + ", % of segment ceiling)");
    table.setAlign(0, Align::Left);
    table.setAlign(9, Align::Left);

    for (const auto &workload : workloads) {
        const lint::ResourceBound &bound =
            lint::cachedResourceBound(workload.trace(), cli.config);
        // The dual ceiling (lint/wcirt.hh): worst-case interrupt
        // delivery on the selected scheme, handler-independent here.
        static const Program kNoHandler;
        const lint::WcirtBound &wcirt = lint::cachedWcirtBound(
            workload.trace(), kNoHandler, cli.config, cli.core);
        const std::uint64_t segCeil = wcirt.segmentCeiling();
        const double pctSeg =
            segCeil && segCeil != lint::kWcirtUnbounded
                ? 100.0 * static_cast<double>(wcirt.cycles) /
                      static_cast<double>(segCeil)
                : 0.0;
        std::uint64_t fuMax = 0;
        for (std::uint64_t floor : bound.breakdown.fuClass)
            fuMax = std::max(fuMax, floor);
        if (cli.json) {
            std::printf(
                "{\"workload\": \"%s\", \"records\": %zu, "
                "\"bound\": %llu, \"dependence_bound\": %llu, "
                "\"decode\": %llu, \"schedule\": %llu, "
                "\"fu_class_max\": %llu, \"result_bus\": %llu, "
                "\"commit\": %llu, \"binding\": \"%s\", "
                "\"estimate_cycles\": %.2f, "
                "\"estimate_occupancy\": %.4f, "
                "\"wcirt_core\": \"%s\", \"wcirt\": %llu, "
                "\"wcirt_cut\": %llu, \"wcirt_segment\": %llu, "
                "\"wcirt_pct_of_segment\": %.2f}\n",
                workload.name.c_str(),
                workload.trace().records().size(),
                static_cast<unsigned long long>(bound.cycles),
                static_cast<unsigned long long>(bound.dataflow.cycles),
                static_cast<unsigned long long>(bound.breakdown.decode),
                static_cast<unsigned long long>(
                    bound.breakdown.schedule),
                static_cast<unsigned long long>(fuMax),
                static_cast<unsigned long long>(
                    bound.breakdown.resultBus),
                static_cast<unsigned long long>(bound.breakdown.commit),
                bound.bindingName().c_str(), bound.estimateCycles,
                bound.estimateOccupancy, coreKindName(cli.core),
                static_cast<unsigned long long>(wcirt.cycles),
                static_cast<unsigned long long>(wcirt.breakdown.cut),
                static_cast<unsigned long long>(segCeil), pctSeg);
        } else {
            table.addRow(
                {workload.name,
                 TextTable::fmt(
                     std::uint64_t{workload.trace().records().size()}),
                 TextTable::fmt(bound.cycles),
                 TextTable::fmt(bound.dataflow.cycles),
                 TextTable::fmt(bound.breakdown.decode),
                 TextTable::fmt(bound.breakdown.schedule),
                 TextTable::fmt(fuMax),
                 TextTable::fmt(bound.breakdown.resultBus),
                 TextTable::fmt(bound.breakdown.commit),
                 bound.bindingName(),
                 TextTable::fmt(bound.estimateCycles, 1),
                 TextTable::fmt(wcirt.cycles),
                 TextTable::fmt(pctSeg, 1)});
        }
    }
    if (!cli.json) {
        std::printf("%s", table.render().c_str());
        std::printf("%s\n",
                    lint::formatBoundSummary(
                        lint::summarizeBounds(workloads, cli.config))
                        .c_str());
    }
    return 0;
}

/**
 * Run every workload through the full verification stack — lockstep
 * commit oracle, certified resource lower bound, optionally the
 * interrupt sweep — on every core (or the one named by --core).
 * Exit 1 on any failure.
 */
int
cmdVerify(const Cli &cli)
{
    if (cli.positional.size() != 1)
        usage();
    const auto &workloads = resolveWorkloads(cli.positional[0]);

    par::Pool pool(cli.jobs);
    oracle::VerifyOptions options;
    options.config = cli.config;
    options.pool = &pool;
    if (cli.coreSet)
        options.cores = {cli.core};
    options.sweep = cli.interruptSweep;
    options.sweepOptions.maxPoints = cli.sweepPoints;

    std::vector<std::string> headers = {"Workload", "Core",   "Cycles",
                                        "Bound",    "%Limit", "Binding",
                                        "WCIRT",    "Oracle"};
    if (cli.interruptSweep) {
        headers.push_back("Sweep");
        headers.push_back("Precise");
        headers.push_back("%Ceil");
    }
    TextTable table(std::move(headers));
    table.setTitle(cli.interruptSweep
                       ? "verify: commit oracle + resource bound + "
                         "WCIRT ceiling + interrupt sweep"
                       : "verify: commit oracle + resource bound + "
                         "WCIRT ceiling");
    table.setAlign(0, Align::Left);
    table.setAlign(1, Align::Left);
    table.setAlign(5, Align::Left);

    bool ok = true;
    std::string firstFailure;
    for (const auto &workload : workloads) {
        auto cases = oracle::verifyWorkload(workload, options);
        for (const auto &vc : cases) {
            std::vector<std::string> row = {
                vc.workload,
                coreKindName(vc.kind),
                TextTable::fmt(vc.cycles),
                TextTable::fmt(vc.bound.cycles),
                TextTable::fmt(vc.pctOfLimit, 1),
                vc.bound.bindingName(),
                TextTable::fmt(vc.wcirt.cycles),
                vc.oracleOk && vc.matchesFunc && vc.boundOk ? "ok"
                                                            : "FAIL",
            };
            if (cli.interruptSweep) {
                row.push_back(
                    vc.sweep.ok()
                        ? TextTable::fmt(
                              std::uint64_t{vc.sweep.points}) + " pts"
                        : "FAIL");
                row.push_back(
                    TextTable::fmt(100.0 * vc.sweep.preciseFraction(),
                                   0) + "%");
                row.push_back(TextTable::fmt(vc.pctOfWcirt, 1));
            }
            table.addRow(std::move(row));
            if (!vc.ok) {
                ok = false;
                if (firstFailure.empty())
                    firstFailure = vc.workload + " on " +
                                   coreKindName(vc.kind) + ": " +
                                   vc.message;
            }
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("%s\n",
                lint::formatBoundSummary(
                    lint::summarizeBounds(workloads, cli.config))
                    .c_str());
    if (!ok)
        std::fprintf(stderr, "verify FAILED: %s\n",
                     firstFailure.c_str());
    else
        std::printf("verify: all checks passed\n");
    return ok ? 0 : 1;
}

int
cmdDisasm(const Cli &cli)
{
    if (cli.positional.size() != 1)
        usage();
    AsmResult assembled =
        assemble(readFile(cli.positional[0]), cli.positional[0]);
    if (!assembled.ok()) {
        // Malformed input, not a verification failure.
        for (const auto &error : assembled.errors)
            std::fprintf(stderr, "%s\n", error.toString().c_str());
        return 2;
    }
    std::printf("%s", assembled.program->listing().c_str());
    return 0;
}

/**
 * Statically verify workloads without simulating them: kernel names
 * resolve straight to the built-in Program; assembly files are only
 * assembled, never traced.
 */
int
cmdLint(const Cli &cli)
{
    if (cli.positional.size() != 1)
        usage();
    const std::string &name = cli.positional[0];

    std::vector<std::pair<std::string, Program>> targets;
    if (name == "suite") {
        for (const Kernel &kernel : livermoreKernels())
            targets.emplace_back(kernel.name, kernel.program);
    } else {
        for (const Kernel &kernel : livermoreKernels())
            if (kernel.name == name)
                targets.emplace_back(kernel.name, kernel.program);
        if (targets.empty()) {
            AsmResult assembled = assemble(readFile(name), name);
            if (!assembled.ok()) {
                // Malformed input, not a lint finding.
                for (const auto &error : assembled.errors)
                    std::fprintf(stderr, "%s: %s\n", name.c_str(),
                                 error.toString().c_str());
                return 2;
            }
            targets.emplace_back(name, std::move(*assembled.program));
        }
    }

    unsigned errors = 0, warnings = 0;
    for (const auto &[subject, program] : targets) {
        auto diags = lint::analyze(program);
        std::printf("%s",
                    lint::formatDiagnostics(subject, diags).c_str());
        for (const auto &diag : diags) {
            if (diag.severity == lint::Severity::Error)
                ++errors;
            else
                ++warnings;
        }
    }
    std::printf("%zu program(s): %u error(s), %u warning(s)\n",
                targets.size(), errors, warnings);
    return errors || (cli.werror && warnings) ? 1 : 0;
}

/**
 * Two positionals: dump a workload's trace to a file. One positional:
 * load and validate a previously dumped trace, diagnosing malformed
 * files instead of silently rejecting them.
 */
int
cmdTrace(const Cli &cli)
{
    if (cli.positional.size() == 1) {
        Expected<Trace> loaded =
            loadTraceFileChecked(cli.positional[0]);
        if (!loaded)
            cliFail("%s", loaded.error().message().c_str());
        const Trace &trace = loaded.value();
        std::size_t faults = 0;
        for (const auto &record : trace.records())
            if (record.fault != Fault::None)
                ++faults;
        std::printf("%s: valid trace, %zu records, %zu fault "
                    "annotation(s)\n",
                    cli.positional[0].c_str(), trace.size(), faults);
        return 0;
    }
    if (cli.positional.size() != 2)
        usage();
    if (cli.positional[0] == "suite")
        cliFail("trace writes one workload's trace; name a program or "
                "a kernel, not 'suite'");
    const Trace &trace = resolveWorkloads(cli.positional[0]).front().trace();
    if (!saveTraceFile(trace, cli.positional[1]))
        cliFail("cannot write '%s'", cli.positional[1].c_str());
    std::printf("wrote %zu records to %s\n", trace.size(),
                cli.positional[1].c_str());
    return 0;
}

/**
 * Interrupt-storm sweep: run every workload on every core (or the one
 * named by --core) under periodic external interrupts with arrival
 * periods K = 16*4^i (i < --points, capped at 10000 cycles), servicing
 * each delivery with the stock counter handler. Every run is checked
 * two ways — the per-segment lockstep commit oracle, and a bit-exact
 * functional replay of the full delivery log — and reported with its
 * handler-latency and throughput-degradation numbers. Exit 1 when any
 * check fails.
 */
int
cmdStorm(const Cli &cli)
{
    if (cli.positional.size() != 1)
        usage();
    const auto &workloads = resolveWorkloads(cli.positional[0]);

    std::vector<CoreKind> kinds = {CoreKind::Simple,  CoreKind::Tomasulo,
                                   CoreKind::Rstu,    CoreKind::Ruu,
                                   CoreKind::SpecRuu, CoreKind::History};
    if (cli.coreSet)
        kinds = {cli.core};

    std::size_t points = cli.pointsSet ? cli.sweepPoints : 4;
    if (points == 0)
        usage();
    std::vector<Cycle> periods;
    for (std::size_t i = 0; i < points; ++i) {
        std::uint64_t k = 16ull << (2 * i);
        periods.push_back(std::min<std::uint64_t>(k, 10000));
        if (k >= 10000)
            break;
    }

    TextTable table({"Workload", "Core", "K", "Deliveries", "Hdl mean",
                     "Hdl max", "Cycles", "Degrade%", "WCIRT", "%Ceil",
                     "Check"});
    table.setTitle("interrupt storm: periodic external interrupts, "
                   "counter handler, oracle + replay + WCIRT checked");
    table.setAlign(0, Align::Left);
    table.setAlign(1, Align::Left);

    // One cell per (workload, core): the cell runs its baseline and
    // every storm period, and returns fully rendered rows (or JSON
    // lines). Cells run concurrently on the pool; the reduction below
    // stitches them back together in (workload, core) order, so the
    // report is byte-identical to the serial nested loop.
    struct StormCell
    {
        std::vector<std::vector<std::string>> rows;
        std::vector<std::string> jsonLines;
        std::string firstFailure; //!< empty: every period checked out
        std::size_t prunedRuns = 0; //!< periods derived, not simulated
    };

    par::Pool pool(cli.jobs);
    std::size_t cells = workloads.size() * kinds.size();
    auto runCell = [&](std::size_t cell, unsigned) -> StormCell {
        const Workload &workload = workloads[cell / kinds.size()];
        CoreKind kind = kinds[cell % kinds.size()];
        StormCell out;

        // A compact data memory makes the per-delivery core restarts
        // cheap; fall back to the default layout for programs whose
        // data reaches up into it.
        trap::TrapConfig tconfig;
        tconfig.checkOracle = true;
        Addr maxAddr = 0;
        for (const auto &record : workload.trace().records())
            maxAddr = std::max(maxAddr, record.memAddr);
        for (const auto &init : workload.program->dataInits())
            maxAddr = std::max(maxAddr, init.addr);
        if (maxAddr < 0xe000) {
            tconfig.layout.exchangeBase = 0xf000;
            tconfig.layout.scratchBase = 0xf800;
            tconfig.memoryWords = 1u << 16;
        }

        // Pin the handler program so the controller and the pruning
        // decision below share one cached WCIRT bound entry.
        auto handlerProg =
            std::make_shared<const Program>(trap::counterHandler());
        tconfig.handler = handlerProg;
        lint::WcirtParams wparams;
        wparams.exchangeCycles = tconfig.exchangeCycles;
        wparams.maxLevels = tconfig.layout.maxLevels;
        const lint::WcirtBound &bound = lint::cachedWcirtBound(
            workload.trace(), *handlerProg, cli.config, kind, wparams);
        const std::uint64_t segCeil = bound.segmentCeiling();

        auto core = makeCore(kind, cli.config);
        RunResult baseline = core->run(workload.trace());

        for (Cycle period : periods) {
            // An arrival period past the certified segment ceiling can
            // never tick before the run completes: the row is derived,
            // byte-identical to the simulation it skips (--no-prune
            // forces the run; kWcirtUnbounded never satisfies the >).
            const bool pruned = !cli.noPrune && period > segCeil;
            trap::TrapRunResult res;
            bool good = true;
            std::string why;
            if (pruned) {
                ++out.prunedRuns;
                res.completed = true;
                res.cycles = baseline.cycles;
                res.instructions = baseline.instructions;
                res.wcirtCeiling = bound.cycles;
            } else {
                trap::TrapController controller(*core, tconfig);
                res = controller.run(
                    workload.trace(),
                    trap::InterruptSource::periodic(period, 1));

                good = res.ok();
                why = res.error;
                if (good && !res.oracleFailure.empty()) {
                    good = false;
                    why = res.oracleFailure;
                }
                if (good) {
                    auto replay = trap::replayFunctional(
                        workload.program, tconfig, res.deliveries);
                    if (!replay.ok) {
                        good = false;
                        why = replay.error;
                    } else if (replay.state != res.state ||
                               replay.memory != res.memory ||
                               replay.trapRegs != res.trapRegs) {
                        good = false;
                        why = "timing run and functional replay "
                              "disagree on the final state";
                    }
                }
            }
            const double pctCeil =
                res.wcirtCeiling
                    ? 100.0 *
                          static_cast<double>(res.maxDeliveryLatency) /
                          static_cast<double>(res.wcirtCeiling)
                    : 0.0;
            double degrade =
                baseline.cycles
                    ? 100.0 *
                          (static_cast<double>(res.cycles) -
                           static_cast<double>(baseline.cycles)) /
                          static_cast<double>(baseline.cycles)
                    : 0.0;

            if (cli.json) {
                out.jsonLines.push_back(detail::vformat(
                    "{\"workload\": \"%s\", \"core\": \"%s\", "
                    "\"k\": %llu, \"deliveries\": %zu, "
                    "\"handler_mean_cycles\": %.2f, "
                    "\"handler_max_cycles\": %llu, "
                    "\"cycles\": %llu, \"baseline_cycles\": %llu, "
                    "\"degradation_pct\": %.2f, \"wcirt\": %llu, "
                    "\"max_delivery_latency\": %llu, "
                    "\"pct_ceiling\": %.2f, \"ok\": %s, "
                    "\"pruned\": %s}",
                    workload.name.c_str(), coreKindName(kind),
                    static_cast<unsigned long long>(period),
                    res.deliveries.size(), res.meanHandlerCycles(),
                    static_cast<unsigned long long>(
                        res.maxHandlerCycles()),
                    static_cast<unsigned long long>(res.cycles),
                    static_cast<unsigned long long>(baseline.cycles),
                    degrade,
                    static_cast<unsigned long long>(res.wcirtCeiling),
                    static_cast<unsigned long long>(
                        res.maxDeliveryLatency),
                    pctCeil, good ? "true" : "false",
                    pruned ? "true" : "false"));
            } else {
                out.rows.push_back(
                    {workload.name, coreKindName(kind),
                     TextTable::fmt(std::uint64_t{period}),
                     TextTable::fmt(
                         std::uint64_t{res.deliveries.size()}),
                     TextTable::fmt(res.meanHandlerCycles(), 1),
                     TextTable::fmt(
                         std::uint64_t{res.maxHandlerCycles()}),
                     TextTable::fmt(res.cycles),
                     TextTable::fmt(degrade, 1),
                     TextTable::fmt(res.wcirtCeiling),
                     TextTable::fmt(pctCeil, 1),
                     good ? "ok" : "FAIL"});
            }
            if (!good && out.firstFailure.empty()) {
                out.firstFailure = workload.name + " on " +
                                   coreKindName(kind) + " (K=" +
                                   std::to_string(period) + "): " + why;
            }
        }
        return out;
    };

    bool ok = true;
    std::string firstFailure;
    std::size_t prunedRuns = 0;
    par::mapReduce<StormCell>(
        &pool, cells, 0, runCell,
        [&](int &, StormCell &cell, std::size_t) {
            for (const std::string &line : cell.jsonLines)
                std::printf("%s\n", line.c_str());
            for (auto &row : cell.rows)
                table.addRow(std::move(row));
            prunedRuns += cell.prunedRuns;
            if (!cell.firstFailure.empty()) {
                ok = false;
                if (firstFailure.empty())
                    firstFailure = cell.firstFailure;
            }
        });
    if (!cli.json)
        std::printf("%s", table.render().c_str());
    if (!ok)
        std::fprintf(stderr, "storm FAILED: %s\n", firstFailure.c_str());
    else if (!cli.json) {
        std::printf("storm: all runs serviced, oracle-checked, and "
                    "replayed bit-exactly\n");
        if (prunedRuns) {
            std::printf("storm: derived %zu run(s) past the certified "
                        "segment ceiling (--no-prune to simulate "
                        "them)\n",
                        prunedRuns);
        }
    }
    return ok ? 0 : 1;
}

/** One trial in human-readable form. */
void
printTrial(const inject::TrialResult &trial)
{
    std::printf("trial %llu: %s/%s cycle %llu bit %llu\n"
                "  port:    %s\n"
                "  flip:    0x%llx -> 0x%llx\n"
                "  outcome: %s (%llu cycles, %llu retries)\n",
                static_cast<unsigned long long>(trial.point.index),
                trial.point.core.c_str(), trial.point.workload.c_str(),
                static_cast<unsigned long long>(trial.point.cycle),
                static_cast<unsigned long long>(trial.point.bit),
                trial.port.c_str(),
                static_cast<unsigned long long>(trial.before),
                static_cast<unsigned long long>(trial.after),
                inject::outcomeName(trial.outcome),
                static_cast<unsigned long long>(trial.cycles),
                static_cast<unsigned long long>(trial.retries));
    if (!trial.detail.empty())
        std::printf("  detail:  %s\n", trial.detail.c_str());
}

/**
 * Soft-error fault-injection campaign (docs/FAULTS.md). Samples
 * (core, workload, cycle, bit) points from --seed, runs each in a
 * crash-contained sandbox, classifies it against the detector stack,
 * and streams results to --journal for resumability. Exit 0 when the
 * campaign completes fully classified, 1 when any trial ends
 * unclassified, 2 on malformed input (including a corrupt or
 * mismatched journal), 3 when --stop-after cut the campaign short.
 */
int
cmdInject(const Cli &cli)
{
    if (cli.positional.size() != 1)
        usage();
    inject::CampaignOptions options;
    options.workloads = resolveWorkloads(cli.positional[0]);
    if (!cli.injectCores.empty())
        options.cores = cli.injectCores;
    else if (cli.coreSet)
        options.cores = {cli.core};
    else
        options.cores = {CoreKind::Simple,  CoreKind::Tomasulo,
                         CoreKind::Rstu,    CoreKind::Ruu,
                         CoreKind::SpecRuu, CoreKind::History};
    options.trials = cli.trials;
    options.seed = cli.seed;
    options.timeoutMs = cli.timeoutMs;
    options.journalPath = cli.journal;
    options.stopAfter = cli.stopAfter;
    options.config = cli.config;
    options.modelIBuffers = cli.ibuffers;
    options.jobs = cli.jobs;

    if (cli.replaySet) {
        Expected<inject::TrialResult> trial =
            inject::replayTrial(options, cli.replayTrial);
        if (!trial)
            cliFail("%s", trial.error().message().c_str());
        if (cli.json)
            std::printf("%s\n", inject::trialToLine(*trial).c_str());
        else
            printTrial(*trial);
        return trial->outcome == inject::Outcome::Unclassified ? 1 : 0;
    }

    if (!cli.json) {
        std::uint64_t step = std::max<std::uint64_t>(1,
                                                     cli.trials / 20);
        options.progress = [step](std::uint64_t done,
                                  std::uint64_t total,
                                  const inject::TrialResult &last) {
            if (done % step == 0 || done == total)
                std::fprintf(stderr,
                             "inject: %llu/%llu trials (last: %s)\n",
                             static_cast<unsigned long long>(done),
                             static_cast<unsigned long long>(total),
                             inject::outcomeName(last.outcome));
        };
    }

    Expected<inject::CampaignSummary> summary =
        inject::runCampaign(options);
    if (!summary)
        cliFail("%s", summary.error().message().c_str());

    const std::vector<inject::Outcome> kOutcomes = {
        inject::Outcome::Masked,
        inject::Outcome::DetectedInvariant,
        inject::Outcome::DetectedOracle,
        inject::Outcome::Trapped,
        inject::Outcome::Hung,
        inject::Outcome::Sdc,
        inject::Outcome::Unclassified,
    };

    // Per-core outcome tallies (the AVF-style vulnerability view).
    std::map<std::string, std::map<inject::Outcome, std::uint64_t>>
        byCore;
    for (const auto &trial : summary->trials)
        ++byCore[trial.point.core][trial.outcome];
    auto total = inject::tallyOutcomes(summary->trials);
    std::uint64_t unclassified = total[inject::Outcome::Unclassified];

    if (cli.json) {
        std::ostringstream os;
        os << "{\"seed\": " << options.seed
           << ", \"trials\": " << options.trials
           << ", \"completed\": " << summary->trials.size()
           << ", \"resumed\": " << summary->resumed
           << ", \"executed\": " << summary->executed
           << ", \"stopped_early\": "
           << (summary->stoppedEarly ? "true" : "false")
           << ", \"wall_seconds\": " << summary->wallSeconds
           << ", \"trials_per_sec\": " << summary->trialsPerSecond()
           << ", \"outcomes\": {";
        bool first = true;
        for (inject::Outcome o : kOutcomes) {
            if (!first)
                os << ", ";
            first = false;
            os << "\"" << inject::outcomeName(o)
               << "\": " << total[o];
        }
        os << "}, \"by_core\": {";
        first = true;
        for (auto &[core, tally] : byCore) {
            if (!first)
                os << ", ";
            first = false;
            os << "\"" << core << "\": {";
            bool inner = true;
            for (inject::Outcome o : kOutcomes) {
                if (!inner)
                    os << ", ";
                inner = false;
                os << "\"" << inject::outcomeName(o)
                   << "\": " << tally[o];
            }
            os << "}";
        }
        os << "}}";
        std::printf("%s\n", os.str().c_str());
        if (!cli.benchOut.empty()) {
            std::ofstream out(cli.benchOut);
            if (!out)
                cliFail("cannot write '%s'", cli.benchOut.c_str());
            out << os.str() << "\n";
        }
    } else {
        TextTable table({"Core", "Trials", "Masked", "Det-inv",
                         "Det-orc", "Trapped", "Hung", "SDC",
                         "Unclass", "Unmasked%"});
        table.setTitle("fault-injection campaign: seed " +
                       std::to_string(options.seed) + ", " +
                       std::to_string(summary->trials.size()) + "/" +
                       std::to_string(options.trials) + " trials");
        table.setAlign(0, Align::Left);
        for (auto &[core, tally] : byCore) {
            std::uint64_t n = 0;
            for (auto &[o, count] : tally)
                n += count;
            double unmasked =
                n ? 100.0 *
                        static_cast<double>(
                            n - tally[inject::Outcome::Masked]) /
                        static_cast<double>(n)
                  : 0.0;
            table.addRow(
                {core, TextTable::fmt(n),
                 TextTable::fmt(tally[inject::Outcome::Masked]),
                 TextTable::fmt(
                     tally[inject::Outcome::DetectedInvariant]),
                 TextTable::fmt(tally[inject::Outcome::DetectedOracle]),
                 TextTable::fmt(tally[inject::Outcome::Trapped]),
                 TextTable::fmt(tally[inject::Outcome::Hung]),
                 TextTable::fmt(tally[inject::Outcome::Sdc]),
                 TextTable::fmt(tally[inject::Outcome::Unclassified]),
                 TextTable::fmt(unmasked, 1)});
        }
        std::printf("%s", table.render().c_str());
        std::printf("inject: %llu trials in %.1fs (%.1f trials/sec), "
                    "%llu resumed from journal\n",
                    static_cast<unsigned long long>(summary->executed),
                    summary->wallSeconds, summary->trialsPerSecond(),
                    static_cast<unsigned long long>(summary->resumed));
        if (!cli.benchOut.empty()) {
            std::ofstream out(cli.benchOut);
            if (!out)
                cliFail("cannot write '%s'", cli.benchOut.c_str());
            out << "{\"seed\": " << options.seed
                << ", \"trials\": " << options.trials
                << ", \"completed\": " << summary->trials.size()
                << ", \"wall_seconds\": " << summary->wallSeconds
                << ", \"trials_per_sec\": "
                << summary->trialsPerSecond() << "}\n";
        }
    }

    if (unclassified) {
        std::fprintf(stderr,
                     "inject: %llu trial(s) ended unclassified\n",
                     static_cast<unsigned long long>(unclassified));
        return 1;
    }
    if (summary->stoppedEarly)
        return 3;
    return 0;
}

/**
 * ruusimd: serve simulation batches on a Unix-domain socket
 * (docs/SERVE.md). Runs until `ruusim submit --stop`, the connection
 * cap, or a fatal environment error (exit 2 — bad socket path,
 * mismatched recovery journal). Job failures never end the daemon.
 */
int
cmdServe(const Cli &cli)
{
    if (cli.socketPath.empty() || !cli.positional.empty())
        usage();
    serve::ServerOptions options;
    options.socketPath = cli.socketPath;
    options.cacheDir = cli.cacheDir;
    options.journalPath = cli.journal;
    options.jobs = cli.jobs;
    options.queueLimit = cli.queueLimit;
    if (cli.deadlineMs)
        options.defaultDeadlineMs = cli.deadlineMs;
    options.seed = cli.seed;
    options.maxConnections = cli.maxConnections;
    options.queuePath = cli.queuePath;
    options.handleSignals = true; // SIGTERM/SIGINT drain, exit 0

    std::fprintf(stderr, "ruusim: serving on %s (%u worker%s%s%s%s)\n",
                 cli.socketPath.c_str(), cli.jobs,
                 cli.jobs == 1 ? "" : "s",
                 cli.cacheDir.empty() ? "" : ", cached",
                 cli.journal.empty() ? "" : ", journaled",
                 cli.queuePath.empty() ? "" : ", queued");
    serve::ServerStats stats;
    Expected<int> result = serve::runServer(options, &stats);
    if (!result)
        cliFail("%s", result.error().message().c_str());
    std::fprintf(stderr,
                 "ruusim: served %llu connection(s), %llu job(s) done, "
                 "%llu recovered\n",
                 static_cast<unsigned long long>(stats.connections),
                 static_cast<unsigned long long>(stats.jobsDone),
                 static_cast<unsigned long long>(stats.recovered));
    return *result;
}

/**
 * Stream a campaign's unit results: payloads to stdout in unit order
 * (byte-identical to the equivalent cold run), failures to stderr.
 * Returns 0 when every unit is done, 1 otherwise (including an
 * unknown campaign or a daemon draining mid-watch).
 */
int
watchCampaign(serve::ServeClient &client, const std::string &id)
{
    serve::Request request;
    request.op = serve::Op::Watch;
    request.target = id;
    if (auto sent = client.sendLine(serve::requestToLine(request));
        !sent)
        cliFail("%s", sent.error().message().c_str());
    bool anyFailed = false;
    while (true) {
        auto line = client.recvLine();
        if (!line)
            cliFail("%s", line.error().message().c_str());
        auto object = flat::parseObject(*line);
        if (!object)
            cliFail("unparseable response: %s", line->c_str());
        if (flat::optString(*object, "op") == "unit") {
            auto status = flat::optString(*object, "status");
            if (status == "done") {
                auto payload = flat::optString(*object, "payload");
                if (payload)
                    std::printf("%s\n", payload->c_str());
            } else {
                auto unit = flat::optNumber(*object, "unit");
                auto why = flat::optString(*object, "error");
                std::fprintf(
                    stderr, "ruusim: campaign '%s' unit %llu %s: %s\n",
                    id.c_str(),
                    static_cast<unsigned long long>(unit ? *unit : 0),
                    status ? status->c_str() : "?",
                    why ? why->c_str() : "");
                anyFailed = true;
            }
            continue;
        }
        // Terminal line: the watch summary, or an error verdict
        // (unknown campaign, daemon draining).
        if (flat::optNumber(*object, "ok") == 1u)
            break;
        if (auto why = flat::optString(*object, "error"))
            std::fprintf(stderr, "ruusim: watch '%s': %s\n", id.c_str(),
                         why->c_str());
        anyFailed = true;
        break;
    }
    return anyFailed ? 1 : 0;
}

/**
 * Enqueue a durable server-side campaign, then stream its results.
 * Campaigns name built-in kernels only: the daemon re-expands and
 * re-runs units across restarts, so the workload must resolve by name
 * alone — no program text travels.
 */
int
submitCampaign(serve::ServeClient &client, const Cli &cli)
{
    if (cli.positional.size() != 1)
        usage();
    const std::string &name = cli.positional[0];

    serve::CampaignSpec spec;
    auto kind = serve::campaignKindFromName(cli.campaignKind);
    if (!kind)
        cliFail("unknown campaign kind '%s' (run|storm|inject)",
                cli.campaignKind.c_str());
    spec.kind = kind.take();

    if (name == "suite") {
        for (const auto &kernel : livermoreKernels())
            spec.workloads.push_back(kernel.name);
    } else {
        bool builtin = false;
        for (const auto &kernel : livermoreKernels())
            builtin = builtin || kernel.name == name;
        if (!builtin) {
            cliFail("campaigns run built-in kernels only; '%s' is not "
                    "one (see 'ruusim list')",
                    name.c_str());
        }
        spec.workloads.push_back(name);
    }

    std::vector<CoreKind> kinds = cli.injectCores;
    if (kinds.empty()) {
        if (spec.kind == serve::CampaignKind::Inject) {
            kinds = {CoreKind::Simple,  CoreKind::Tomasulo,
                     CoreKind::Rstu,    CoreKind::Ruu,
                     CoreKind::SpecRuu, CoreKind::History};
        } else {
            kinds = {cli.core};
        }
    }
    for (CoreKind coreKind : kinds)
        spec.cores.push_back(coreKindName(coreKind));

    if (spec.kind == serve::CampaignKind::Storm) {
        spec.periods = cli.periods;
        if (spec.periods.empty()) {
            // Mirror `ruusim storm --points`: K = 16*4^i, capped.
            std::size_t points = cli.pointsSet ? cli.sweepPoints : 4;
            if (points == 0)
                usage();
            for (std::size_t i = 0; i < points; ++i) {
                std::uint64_t k = 16ull << (2 * i);
                spec.periods.push_back(
                    std::min<std::uint64_t>(k, 10000));
                if (k >= 10000)
                    break;
            }
        }
    } else if (!cli.periods.empty()) {
        cliFail("--periods applies to storm campaigns only");
    }

    if (spec.kind == serve::CampaignKind::Inject) {
        spec.trials = cli.trials;
        spec.seed = cli.seed;
    }

    std::string configJson = configToJson(cli.config);
    if (configJson != configToJson(UarchConfig::cray1()))
        spec.configJson = configJson;
    spec.deadlineMs = cli.deadlineMs;
    spec.id = cli.campaignId.empty()
                  ? std::string(serve::campaignKindName(spec.kind)) +
                        ":" + name
                  : cli.campaignId;

    serve::Request request;
    request.op = serve::Op::Campaign;
    request.campaign = spec;
    auto ack = client.request(serve::requestToLine(request));
    if (!ack)
        cliFail("%s", ack.error().message().c_str());
    auto object = flat::parseObject(*ack);
    if (!object)
        cliFail("unparseable ack: %s", ack->c_str());
    if (flat::optNumber(*object, "ok") != 1u) {
        auto why = flat::optString(*object, "error");
        std::fprintf(stderr, "ruusim: campaign '%s' refused: %s\n",
                     spec.id.c_str(),
                     why ? why->c_str() : ack->c_str());
        return 1;
    }
    return watchCampaign(client, spec.id);
}

/**
 * Submit a batch to a running ruusimd and print each result payload —
 * byte-identical to `ruusim run <workload> --json` output. Exit 0 when
 * every job is done, 1 when any job fails (including shed submits),
 * 2 on malformed input or connection trouble. With --campaign /
 * --watch / --cancel, drive the durable campaign queue instead.
 */
int
cmdSubmit(const Cli &cli)
{
    if (cli.socketPath.empty())
        usage();

    serve::ServeClient client;
    BackoffPolicy retry;
    retry.baseUs = 10'000;
    retry.capUs = 500'000;
    retry.maxRetries = 10;
    retry.seed = cli.seed;
    if (auto connected = client.connect(cli.socketPath, retry);
        !connected)
        cliFail("%s", connected.error().message().c_str());

    auto oneShot = [&](const char *op) -> int {
        auto response = client.request(std::string("{\"op\": \"") +
                                       op + "\"}");
        if (!response)
            cliFail("%s", response.error().message().c_str());
        std::printf("%s\n", response->c_str());
        auto object = flat::parseObject(*response);
        return object && flat::optNumber(*object, "ok") == 1u ? 0 : 1;
    };
    if (cli.pingOnly)
        return oneShot("ping");
    if (cli.statusOnly)
        return oneShot("status");
    if (cli.stopDaemon)
        return oneShot("shutdown");

    if (!cli.cancelId.empty()) {
        serve::Request request;
        request.op = serve::Op::Cancel;
        request.target = cli.cancelId;
        auto response = client.request(serve::requestToLine(request));
        if (!response)
            cliFail("%s", response.error().message().c_str());
        std::printf("%s\n", response->c_str());
        auto object = flat::parseObject(*response);
        return object && flat::optNumber(*object, "ok") == 1u ? 0 : 1;
    }
    if (!cli.watchId.empty())
        return watchCampaign(client, cli.watchId);
    if (!cli.campaignKind.empty())
        return submitCampaign(client, cli);

    if (cli.positional.size() != 1)
        usage();
    const std::string &name = cli.positional[0];

    // Build the batch client-side: kernel names travel by name,
    // assembly files travel as source text (the daemon reads no
    // files on a client's behalf).
    std::vector<serve::JobSpec> jobs;
    auto isKernel = [](const std::string &candidate) {
        for (const auto &kernel : livermoreKernels())
            if (kernel.name == candidate)
                return true;
        return false;
    };
    if (name == "suite") {
        for (const auto &kernel : livermoreKernels()) {
            serve::JobSpec job;
            job.id = kernel.name;
            job.workload = kernel.name;
            jobs.push_back(std::move(job));
        }
    } else if (isKernel(name)) {
        serve::JobSpec job;
        job.id = name;
        job.workload = name;
        jobs.push_back(std::move(job));
    } else {
        serve::JobSpec job;
        job.id = name;
        job.program = readFile(name);
        job.name = name;
        jobs.push_back(std::move(job));
    }
    std::string configJson = configToJson(cli.config);
    bool defaultConfig =
        configJson == configToJson(UarchConfig::cray1());
    for (serve::JobSpec &job : jobs) {
        job.core = coreKindName(cli.core);
        if (!defaultConfig)
            job.configJson = configJson;
        job.period = cli.period;
        job.deadlineMs = cli.deadlineMs;
    }

    bool anyFailed = false;
    for (const serve::JobSpec &job : jobs) {
        serve::Request request;
        request.op = serve::Op::Submit;
        request.job = job;
        auto ack = client.request(serve::requestToLine(request));
        if (!ack)
            cliFail("%s", ack.error().message().c_str());
        auto object = flat::parseObject(*ack);
        if (!object)
            cliFail("unparseable ack: %s", ack->c_str());
        if (flat::optNumber(*object, "ok") != 1u) {
            auto why = flat::optString(*object, "error");
            std::fprintf(stderr,
                         "ruusim: submit: job '%s' refused: %s\n",
                         job.id.c_str(),
                         why ? why->c_str() : ack->c_str());
            anyFailed = true;
        }
    }

    if (auto sent = client.sendLine("{\"op\": \"run\"}"); !sent)
        cliFail("%s", sent.error().message().c_str());
    while (true) {
        auto line = client.recvLine();
        if (!line)
            cliFail("%s", line.error().message().c_str());
        auto object = flat::parseObject(*line);
        if (!object)
            cliFail("unparseable response: %s", line->c_str());
        auto op = flat::optString(*object, "op");
        if (op == "run")
            break; // batch summary: every result line has arrived
        if (op != "result") {
            auto why = flat::optString(*object, "error");
            cliFail("server error: %s",
                    why ? why->c_str() : line->c_str());
        }
        auto id = flat::optString(*object, "id");
        auto status = flat::optString(*object, "status");
        if (status == "done") {
            auto payload = flat::optString(*object, "payload");
            if (payload)
                std::printf("%s\n", payload->c_str());
        } else {
            auto why = flat::optString(*object, "error");
            std::fprintf(stderr, "ruusim: submit: job '%s' %s: %s\n",
                         id ? id->c_str() : "?",
                         status ? status->c_str() : "?",
                         why ? why->c_str() : "");
            anyFailed = true;
        }
    }
    return anyFailed ? 1 : 0;
}

int
cmdList()
{
    for (const auto &kernel : livermoreKernels())
        std::printf("%-8s %s\n", kernel.name.c_str(),
                    kernel.description.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    // Strip -j/--jobs and --engine before subcommand parsing so every
    // subcommand accepts them in any position.
    unsigned jobs = par::consumeJobsFlag(argc, argv);
    engine::consumeEngineFlag(argc, argv);
    std::string command = argv[1];
    Cli cli = parseArgs(argc, argv);
    cli.jobs = jobs;
    std::string problem = cli.config.validate();
    if (!problem.empty())
        cliFail("bad configuration: %s", problem.c_str());

    if (command == "run")
        return cmdRun(cli);
    if (command == "sweep")
        return cmdSweep(cli);
    if (command == "analyze")
        return cmdAnalyze(cli);
    if (command == "verify")
        return cmdVerify(cli);
    if (command == "storm")
        return cmdStorm(cli);
    if (command == "inject")
        return cmdInject(cli);
    if (command == "disasm")
        return cmdDisasm(cli);
    if (command == "lint")
        return cmdLint(cli);
    if (command == "trace")
        return cmdTrace(cli);
    if (command == "serve")
        return cmdServe(cli);
    if (command == "submit")
        return cmdSubmit(cli);
    if (command == "list")
        return cmdList();
    usage();
}
