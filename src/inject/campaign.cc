#include "inject/campaign.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>

#include "arch/executor.hh"
#include "inject/sandbox.hh"
#include "oracle/commit_oracle.hh"
#include "par/ordered.hh"
#include "sim/json.hh"

namespace ruu::inject
{

namespace
{

/** Hex encoding of a byte image (pre-fault snapshot transport). */
std::string
toHex(const std::vector<std::uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (std::uint8_t b : bytes) {
        out += digits[b >> 4];
        out += digits[b & 0xf];
    }
    return out;
}

/** Keep only the last @p keep characters of @p text. */
std::string
tail(const std::string &text, std::size_t keep)
{
    if (text.size() <= keep)
        return text;
    return "..." + text.substr(text.size() - keep);
}

/** The campaign identity string pinned in the journal header. */
std::string
configSignature(const CampaignOptions &options)
{
    std::string sig = configToJson(options.config);
    if (options.modelIBuffers)
        sig += " +ibuf";
    return sig;
}

JournalHeader
makeHeader(const CampaignOptions &options)
{
    JournalHeader header;
    header.seed = options.seed;
    header.trials = options.trials;
    for (CoreKind kind : options.cores)
        header.cores.push_back(coreKindName(kind));
    for (const Workload &workload : options.workloads)
        header.workloads.push_back(workload.name);
    header.config = configSignature(options);
    return header;
}

Expected<bool>
validateOptions(const CampaignOptions &options)
{
    if (options.cores.empty())
        return Error("campaign has no cores");
    if (options.workloads.empty())
        return Error("campaign has no workloads");
    if (options.trials == 0)
        return Error("campaign has no trials");
    return true;
}

/**
 * The trial body run inside the sandboxed child: build the machine,
 * arm the injector, run, classify with the detector stack, report.
 */
void
runTrialChild(const CampaignOptions &options, CoreKind kind,
              const Workload &workload, const TrialPoint &point,
              const ProbeInfo &probe, SandboxChannel &channel)
{
    UarchConfig config = options.config;
    // Trials always run with the invariant checker armed: it is one
    // of the campaign's detectors.
    config.checkInvariants = true;
    auto core = makeCore(kind, config);

    RunOptions opts;
    opts.modelIBuffers = options.modelIBuffers;
    // Simulation watchdog: generous multiple of the fault-free run,
    // so a fault-induced livelock classifies as Hung with a pipeline
    // dump instead of eating the host timeout.
    opts.maxCycles = probe.refCycles * 10 + 10'000;

    oracle::CommitOracle oracle(workload.trace(), *core, opts);
    opts.observer = &oracle;

    InjectorTap tap(point.cycle, point.bit);
    opts.tap = &tap;

    TrialResult res;
    res.point = point;
    tap.onFire = [&](FaultPortSet &ports,
                     const FaultPortSet::FlipResult &flip,
                     const std::vector<std::uint8_t> &pre) {
        res.port = ports.describe(flip.port) + " bit " +
                   std::to_string(flip.bit);
        res.before = flip.before;
        res.after = flip.after;
        // PRE record: the injection coordinates plus the pre-fault
        // snapshot, journal-line format, written before the flipped
        // machine advances a single cycle — a child that crashes or
        // hangs from here on still leaves them behind.
        TrialResult pre_record = res;
        pre_record.detail = "pre-fault snapshot cycle=" +
                            std::to_string(point.cycle) + " layout=" +
                            std::to_string(ports.layoutSignature()) +
                            " image=" + toHex(pre);
        channel.send("PRE", trialToLine(pre_record));
    };

    RunResult run = core->run(workload.trace(), opts);
    res.cycles = run.cycles;

    if (!tap.fired()) {
        // The sampler bounds cycles by the probe's lastTapCycle, so
        // this is a campaign bug; surface it as unclassified.
        res.outcome = Outcome::Unclassified;
        res.detail = "injection cycle " + std::to_string(point.cycle) +
                     " was never reached (run ended at cycle " +
                     std::to_string(run.cycles) + ")";
        channel.send("RES", trialToLine(res));
        return;
    }

    if (run.wedged) {
        res.outcome = Outcome::Hung;
        res.detail = run.diagnostic + "\npre-fault snapshot cycle=" +
                     std::to_string(tap.firedAt()) + " layout=" +
                     std::to_string(tap.layoutSignature()) + " image=" +
                     toHex(tap.preImage());
        channel.send("RES", trialToLine(res));
        return;
    }

    bool midOk = oracle.ok();
    bool finOk = oracle.finish(run);
    if (!midOk) {
        res.outcome = Outcome::DetectedOracle;
        res.detail = oracle.report();
    } else if (run.interrupted) {
        res.outcome = Outcome::Trapped;
        res.detail = std::string(faultName(run.fault)) + " at seq " +
                     std::to_string(run.faultSeq) + ", pc " +
                     std::to_string(run.faultPc);
    } else if (!matchesFunctional(run, workload.func)) {
        res.outcome = Outcome::Sdc;
        res.detail = finOk ? "final architectural state differs from "
                             "the functional run"
                           : oracle.report();
    } else if (!finOk) {
        res.outcome = Outcome::DetectedOracle;
        res.detail = oracle.report();
    } else {
        res.outcome = Outcome::Masked;
        if (run.cycles != probe.refCycles)
            res.detail = "timing changed: " +
                         std::to_string(run.cycles) + " vs " +
                         std::to_string(probe.refCycles) +
                         " reference cycles";
    }
    channel.send("RES", trialToLine(res));
}

/** Run one trial in the sandbox, with bounded spawn retries. */
Expected<TrialResult>
runOneTrial(const CampaignOptions &options, CoreKind kind,
            const Workload &workload, const TrialPoint &point,
            const ProbeInfo &probe)
{
    // Spawn failure is transient host pressure; wait it out on the
    // shared backoff schedule, jitter-seeded by the trial so parallel
    // workers don't hammer in lockstep.
    BackoffPolicy policy;
    policy.maxRetries = options.maxRetries;
    policy.seed = point.seed;
    unsigned retries = 0;
    SandboxOutcome out = runSandboxedWithRetry(
        [&](SandboxChannel &channel) {
            runTrialChild(options, kind, workload, point, probe,
                          channel);
        },
        options.timeoutMs, policy, &retries);
    if (out.status == SandboxOutcome::Status::SpawnFailed)
        return Error("trial " + std::to_string(point.index) +
                     ": sandbox spawn failed after " +
                     std::to_string(retries + 1) + " attempts: " +
                     out.spawnError);

    // Whatever the child managed to report before dying carries the
    // injection coordinates (PRE) or the full classification (RES).
    TrialResult res;
    res.point = point;
    if (!out.preLine.empty()) {
        if (auto pre = parseTrialLine(out.preLine))
            res = *pre;
    }
    res.retries = retries;

    switch (out.status) {
      case SandboxOutcome::Status::Reported: {
        auto parsed = parseTrialLine(out.resLine);
        if (!parsed) {
            res.outcome = Outcome::Unclassified;
            res.detail = "unparseable child report (" +
                         parsed.error().message() + "): " +
                         tail(out.resLine, 256);
            break;
        }
        std::uint64_t kept_retries = res.retries;
        res = *parsed;
        res.retries = kept_retries;
        break;
      }
      case SandboxOutcome::Status::Crashed: {
        // Fail-stop containment: assertion aborts and faulted-slot
        // dereferences are the invariant layer doing its job.
        res.outcome = Outcome::DetectedInvariant;
        std::string how =
            out.signal ? std::string("signal ") +
                             strsignal(out.signal)
                       : "exit code " + std::to_string(out.exitCode);
        res.detail = "trial process died (" + how + "): " +
                     tail(out.stderrText, 2000);
        break;
      }
      case SandboxOutcome::Status::TimedOut:
        res.outcome = Outcome::Hung;
        res.detail = "host watchdog (" +
                     std::to_string(options.timeoutMs) +
                     " ms) killed the trial; " +
                     (res.detail.empty() ? std::string("no PRE record")
                                         : res.detail) +
                     (out.stderrText.empty()
                          ? ""
                          : "; stderr: " + tail(out.stderrText, 1000));
        break;
      case SandboxOutcome::Status::SpawnFailed:
        break; // unreachable (handled above)
    }
    return res;
}

} // namespace

std::uint64_t
splitmix64(std::uint64_t &state)
{
    return par::splitmix64(state);
}

std::uint64_t
trialSeed(std::uint64_t seed, std::uint64_t index)
{
    // par::jobSeed is the same derivation; the journal format pins it.
    return par::jobSeed(seed, index);
}

void
ProbeTap::onRunStart(FaultPortSet &ports)
{
    _info.totalBits = ports.totalBits();
    _info.portCount = ports.size();
    _info.layoutSignature = ports.layoutSignature();
}

void
ProbeTap::onCycle(Cycle cycle, FaultPortSet &ports)
{
    (void)ports;
    _info.lastTapCycle = cycle;
}

void
InjectorTap::onRunStart(FaultPortSet &ports)
{
    _layout = ports.layoutSignature();
}

void
InjectorTap::onCycle(Cycle cycle, FaultPortSet &ports)
{
    if (_fired || cycle < _target)
        return;
    _fired = true;
    _firedAt = cycle;
    _pre = ports.captureImage();
    _flip = ports.flip(_bit % ports.totalBits());
    _portDesc = ports.describe(_flip.port);
    if (onFire)
        onFire(ports, _flip, _pre);
}

std::map<Outcome, std::uint64_t>
tallyOutcomes(const std::vector<TrialResult> &trials)
{
    std::map<Outcome, std::uint64_t> tally;
    for (const TrialResult &trial : trials)
        ++tally[trial.outcome];
    return tally;
}

Expected<ProbeInfo>
probeMachine(CoreKind kind, const Workload &workload,
             const CampaignOptions &options)
{
    UarchConfig config = options.config;
    config.checkInvariants = true;
    auto core = makeCore(kind, config);

    ProbeTap tap;
    RunOptions opts;
    opts.modelIBuffers = options.modelIBuffers;
    opts.tap = &tap;
    RunResult run = core->run(workload.trace(), opts);
    if (run.wedged)
        return Error(std::string("reference run of ") +
                     coreKindName(kind) + " on " + workload.name +
                     " wedged");
    if (!matchesFunctional(run, workload.func))
        return Error(std::string("reference run of ") +
                     coreKindName(kind) + " on " + workload.name +
                     " diverges from the functional execution");
    ProbeInfo info = tap.info();
    info.refCycles = run.cycles;
    if (info.totalBits == 0)
        return Error(std::string("core ") + coreKindName(kind) +
                     " registered no fault ports");
    return info;
}

Expected<ProbeInfo>
TrialSampler::probe(std::size_t core_index, std::size_t workload_index)
{
    // Single-flight under the lock: concurrent workers asking for the
    // same (core, workload) wait for one deterministic reference run
    // instead of racing duplicates.
    std::lock_guard<std::mutex> lock(_mutex);
    auto key = std::make_pair(core_index, workload_index);
    auto it = _probes.find(key);
    if (it != _probes.end())
        return it->second;
    auto info = probeMachine(_options.cores[core_index],
                             _options.workloads[workload_index],
                             _options);
    if (!info)
        return info.error();
    _probes[key] = *info;
    return *info;
}

Expected<TrialPoint>
TrialSampler::point(std::uint64_t index)
{
    TrialPoint point;
    point.index = index;
    point.seed = trialSeed(_options.seed, index);
    std::uint64_t state = point.seed;
    std::size_t core_index = splitmix64(state) % _options.cores.size();
    std::size_t workload_index =
        splitmix64(state) % _options.workloads.size();
    auto info = probe(core_index, workload_index);
    if (!info)
        return info.error();
    // Bound the cycle by the last cycle the tap actually observes, so
    // every sampled point fires.
    point.cycle = splitmix64(state) % (info->lastTapCycle + 1);
    point.bit = splitmix64(state) % info->totalBits;
    point.core = coreKindName(_options.cores[core_index]);
    point.workload = _options.workloads[workload_index].get().name;
    return point;
}

Expected<CampaignSummary>
runCampaign(const CampaignOptions &options)
{
    if (auto valid = validateOptions(options); !valid)
        return valid.error();

    CampaignSummary summary;
    summary.header = makeHeader(options);

    std::vector<bool> done(options.trials, false);
    std::vector<TrialResult> results(options.trials);

    JournalWriter writer;
    auto replay = [&](const JournalContents &journal) -> Expected<bool> {
        if (journal.header != summary.header)
            return Error("journal '" + options.journalPath +
                         "' describes a different campaign (seed, "
                         "trials, cores, workloads, or configuration "
                         "differ)");
        for (const TrialResult &trial : journal.records) {
            if (trial.point.index >= options.trials)
                return Error("journal '" + options.journalPath +
                             "' has out-of-range trial index " +
                             std::to_string(trial.point.index));
            if (!done[trial.point.index])
                ++summary.resumed;
            done[trial.point.index] = true;
            results[trial.point.index] = trial;
        }
        return true;
    };
    if (!options.journalPath.empty())
        if (auto opened =
                writer.open(options.journalPath, summary.header, replay);
            !opened)
            return opened.error();

    TrialSampler sampler(options);
    auto start = std::chrono::steady_clock::now();

    // The trials still to run, in index order. A serial campaign walks
    // this list front to back and stops after stopAfter new trials, so
    // the parallel engine dispatches exactly that prefix.
    std::vector<std::uint64_t> pending;
    for (std::uint64_t index = 0; index < options.trials; ++index)
        if (!done[index])
            pending.push_back(index);
    std::size_t torun = pending.size();
    if (options.stopAfter && options.stopAfter < torun) {
        torun = options.stopAfter;
        summary.stoppedEarly = true;
    }

    // Ordered streaming commit (par/ordered.hh): workers finish trials
    // in scheduling order, but journal lines, progress callbacks and
    // error propagation all follow pending-list (= trial index) order,
    // so the journal ends exactly where the serial campaign's would.
    par::OrderedCommitter<TrialResult> committer(
        [&](std::size_t pos, const TrialResult &ready) -> Expected<bool> {
            std::uint64_t index = pending[pos];
            if (writer.isOpen())
                if (auto wrote = writer.add(ready); !wrote)
                    return wrote.error();
            results[index] = ready;
            done[index] = true;
            ++summary.executed;
            if (options.progress)
                options.progress(summary.resumed + summary.executed,
                                 options.trials, ready);
            return true;
        });

    par::Pool pool(options.jobs);
    par::forEachIndexed(
        options.jobs > 1 ? &pool : nullptr, torun,
        [&](std::size_t pos, unsigned) {
            // A campaign-fatal error at an earlier position makes
            // this trial unjournalable; don't burn a sandbox on it.
            if (committer.doomed(pos))
                return;
            std::uint64_t index = pending[pos];
            auto point = sampler.point(index);
            if (!point) {
                committer.fail(pos,
                               Error(point.error())
                                   .context("trial " +
                                            std::to_string(index)));
                return;
            }
            std::size_t core_index = 0, workload_index = 0;
            {
                // Re-derive the indices the sampler chose (same
                // stream).
                std::uint64_t state = point->seed;
                core_index =
                    splitmix64(state) % options.cores.size();
                workload_index =
                    splitmix64(state) % options.workloads.size();
            }
            auto probe = sampler.probe(core_index, workload_index);
            if (!probe) {
                committer.fail(pos, Error(probe.error()));
                return;
            }
            auto trial = runOneTrial(options,
                                     options.cores[core_index],
                                     options.workloads[workload_index],
                                     *point, *probe);
            if (!trial) {
                committer.fail(pos, Error(trial.error()));
                return;
            }
            committer.commit(pos, std::move(*trial));
        });

    if (committer.failed())
        return committer.error();

    summary.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    for (std::uint64_t index = 0; index < options.trials; ++index)
        if (done[index])
            summary.trials.push_back(results[index]);
    return summary;
}

Expected<TrialResult>
replayTrial(const CampaignOptions &options, std::uint64_t index)
{
    if (auto valid = validateOptions(options); !valid)
        return valid.error();
    if (index >= options.trials)
        return Error("trial index " + std::to_string(index) +
                     " is out of range (campaign has " +
                     std::to_string(options.trials) + " trials)");
    TrialSampler sampler(options);
    auto point = sampler.point(index);
    if (!point)
        return point.error();
    std::uint64_t state = point->seed;
    std::size_t core_index = splitmix64(state) % options.cores.size();
    std::size_t workload_index =
        splitmix64(state) % options.workloads.size();
    auto probe = sampler.probe(core_index, workload_index);
    if (!probe)
        return probe.error();
    return runOneTrial(options, options.cores[core_index],
                       options.workloads[workload_index], *point,
                       *probe);
}

} // namespace ruu::inject
