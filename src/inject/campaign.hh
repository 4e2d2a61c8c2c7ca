/**
 * @file
 * Soft-error fault-injection campaigns.
 *
 * A campaign samples (core × workload × cycle × port-bit) points from
 * a seeded PRNG, runs each point as one trial in a crash-contained
 * sandbox (sandbox.hh), and classifies every trial with the repo's
 * detector stack: the invariant checker (assertion/crash containment),
 * the lockstep commit oracle, the trap machinery, and the cycle
 * watchdog. Results stream to an append-only JSONL journal
 * (journal.hh) so an interrupted campaign resumes where it stopped,
 * and every trial is replayable bit-exactly from (campaign seed,
 * trial index) alone — the trial's coordinates are derived from a
 * SplitMix64 stream plus a deterministic per-(core, workload) probe of
 * the machine's port layout and reference timing.
 */

#ifndef RUU_INJECT_CAMPAIGN_HH
#define RUU_INJECT_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <mutex>

#include "common/error.hh"
#include "inject/fault_port.hh"
#include "inject/journal.hh"
#include "par/pool.hh"
#include "sim/machine.hh"

namespace ruu::inject
{

/** SplitMix64 step (the campaign's only randomness primitive). */
std::uint64_t splitmix64(std::uint64_t &state);

/** The derived seed of trial @p index under campaign @p seed. */
std::uint64_t trialSeed(std::uint64_t seed, std::uint64_t index);

/**
 * Deterministic facts about one (core, workload) machine that trial
 * derivation needs: the port layout and the fault-free timing.
 */
struct ProbeInfo
{
    Cycle refCycles = 0;     //!< fault-free run length in cycles
    Cycle lastTapCycle = 0;  //!< last cycle the tap was called at
    std::uint64_t totalBits = 0;
    std::uint64_t portCount = 0;
    std::uint64_t layoutSignature = 0;
};

/** Tap that records ProbeInfo during a clean reference run. */
class ProbeTap : public MachineTap
{
  public:
    void onRunStart(FaultPortSet &ports) override;
    void onCycle(Cycle cycle, FaultPortSet &ports) override;

    const ProbeInfo &info() const { return _info; }

  private:
    ProbeInfo _info;
};

/**
 * Tap that injects one bit flip: at the first cycle >= the target it
 * captures the pre-fault image, flips the chosen flat bit (with the
 * port's wrap modulus), and invokes onFire — the campaign child uses
 * that callback to emit the PRE record before the fault can take the
 * process down.
 */
class InjectorTap : public MachineTap
{
  public:
    InjectorTap(Cycle target, std::uint64_t flat_bit)
        : _target(target), _bit(flat_bit)
    {}

    /** Called once, immediately after the flip. */
    std::function<void(FaultPortSet &ports,
                       const FaultPortSet::FlipResult &flip,
                       const std::vector<std::uint8_t> &pre_image)>
        onFire;

    void onRunStart(FaultPortSet &ports) override;
    void onCycle(Cycle cycle, FaultPortSet &ports) override;

    bool fired() const { return _fired; }
    Cycle firedAt() const { return _firedAt; }
    const FaultPortSet::FlipResult &flip() const { return _flip; }
    /** "name (class, N bits)" of the flipped port. */
    const std::string &portDescription() const { return _portDesc; }
    const std::vector<std::uint8_t> &preImage() const { return _pre; }
    std::uint64_t layoutSignature() const { return _layout; }

  private:
    Cycle _target;
    std::uint64_t _bit;
    bool _fired = false;
    Cycle _firedAt = 0;
    FaultPortSet::FlipResult _flip;
    std::string _portDesc;
    std::vector<std::uint8_t> _pre;
    std::uint64_t _layout = 0;
};

/** Everything that defines (and re-defines, on resume) a campaign. */
struct CampaignOptions
{
    std::vector<CoreKind> cores;

    /**
     * Bound by reference, never copied: each workload (its trace and
     * memory images) must outlive every campaign call that uses it.
     */
    std::vector<std::reference_wrapper<const Workload>> workloads;
    std::uint64_t trials = 1000;
    std::uint64_t seed = 1;
    unsigned timeoutMs = 10'000;   //!< per-trial wall-clock watchdog
    unsigned maxRetries = 3;       //!< sandbox spawn retries per trial
    std::string journalPath;       //!< empty: in-memory only
    std::uint64_t stopAfter = 0;   //!< stop after N new trials (0: off)
    UarchConfig config = UarchConfig::cray1();
    bool modelIBuffers = false;

    /**
     * Concurrent trial sandboxes (1 = the serial reference loop).
     * Trials are deterministic functions of (seed, index), and the
     * journal is committed strictly in trial-index order, so the
     * journal — and therefore resume and --replay-trial — is
     * byte-identical at any job count.
     */
    unsigned jobs = 1;

    /** Optional per-trial progress hook (done, total, last result). */
    std::function<void(std::uint64_t done, std::uint64_t total,
                       const TrialResult &last)>
        progress;
};

/** A finished (or early-stopped) campaign. */
struct CampaignSummary
{
    JournalHeader header;
    std::vector<TrialResult> trials; //!< all known trials, index order
    std::uint64_t resumed = 0;  //!< trials recovered from the journal
    std::uint64_t executed = 0; //!< trials run by this invocation
    bool stoppedEarly = false;  //!< stopAfter cut the run short
    double wallSeconds = 0;     //!< wall-clock of this invocation
    /** Trials per second of this invocation (0 when none ran). */
    double trialsPerSecond() const
    {
        return wallSeconds > 0 ? executed / wallSeconds : 0.0;
    }
};

/** Outcome tally of @p trials. */
std::map<Outcome, std::uint64_t>
tallyOutcomes(const std::vector<TrialResult> &trials);

/**
 * Deterministically probe the (core, workload) machine: run it clean
 * with a ProbeTap and verify the reference run is sound. Errors when
 * the clean run wedges or diverges from the functional execution.
 */
Expected<ProbeInfo> probeMachine(CoreKind kind, const Workload &workload,
                                 const CampaignOptions &options);

/**
 * Derive trial @p index's coordinates from the campaign seed and the
 * probe cache (filled on demand). Exposed for tests and --replay-trial.
 */
class TrialSampler
{
  public:
    explicit TrialSampler(const CampaignOptions &options)
        : _options(options)
    {}

    Expected<TrialPoint> point(std::uint64_t index);

    /**
     * The probe backing @p point (cached; thread-safe — concurrent
     * campaign workers share one sampler).
     */
    Expected<ProbeInfo> probe(std::size_t core_index,
                              std::size_t workload_index);

  private:
    const CampaignOptions &_options;
    std::mutex _mutex;
    std::map<std::pair<std::size_t, std::size_t>, ProbeInfo> _probes;
};

/**
 * Run (or resume) a campaign. When options.journalPath names an
 * existing journal, its header must describe this exact campaign
 * (seed, trial count, cores, workloads, configuration); its finished
 * trials are kept and only the remainder runs. Every completed trial
 * is appended to the journal before the next one starts.
 */
Expected<CampaignSummary> runCampaign(const CampaignOptions &options);

/**
 * Re-run the single trial @p index of the campaign described by
 * @p options, in the same sandbox, and return its (deterministic)
 * result. The journal is neither read nor written.
 */
Expected<TrialResult> replayTrial(const CampaignOptions &options,
                                  std::uint64_t index);

} // namespace ruu::inject

#endif // RUU_INJECT_CAMPAIGN_HH
