/**
 * @file
 * One interrupt-storm cell: a workload on one core under periodic
 * external interrupts, serviced by the stock counter handler, with
 * every check a trap run gets — the controller's own verdict, the
 * per-segment commit oracle, and a bit-exact functional replay of the
 * delivery log. `ruusim storm` runs one cell per (workload, core) over
 * several arrival periods; a ruusimd period job is one cell at one
 * period. Both report a period in the same `storm --json` line.
 */

#ifndef RUU_TRAP_STORM_HH
#define RUU_TRAP_STORM_HH

#include <memory>
#include <string>

#include "lint/wcirt.hh"
#include "sim/machine.hh"
#include "trap/controller.hh"

namespace ruu::trap
{

/** One arrival period of a storm cell: its run and its verdict. */
struct StormRun
{
    Cycle period = 0;
    Cycle baselineCycles = 0; //!< the same core without interrupts

    /** Derived past the certified segment ceiling, not simulated. */
    bool pruned = false;

    TrapRunResult result;

    /** Why a check failed (checkStormRun); empty when all passed. */
    std::string failure;

    bool ok() const { return failure.empty(); }

    /** Cycles lost to servicing, as a percentage of the baseline. */
    double degradationPct() const;

    /** Worst delivery latency as a percentage of the WCIRT ceiling. */
    double pctCeiling() const;
};

/** A workload on one core, ready to run at any arrival period. */
class StormCell
{
  public:
    /** Runs the baseline (no interrupts) once, up front. */
    StormCell(const Workload &workload, CoreKind kind,
              const UarchConfig &config);

    /**
     * Run @p period under the trap controller and check it. With
     * @p prune, a period past the certified segment ceiling — one that
     * can never tick before the program completes — is derived from
     * the baseline instead: byte-identical to the run it skips.
     */
    StormRun run(Cycle period, bool prune);

    /** @p run as one `storm --json` line. */
    std::string json(const StormRun &run) const;

  private:
    const Workload &_workload;
    CoreKind _kind;
    TrapConfig _config;
    std::unique_ptr<Core> _core;
    RunResult _baseline;
    const lint::WcirtBound &_bound;
};

/**
 * Check a finished storm run, in order: the controller's verdict, the
 * commit oracle's, the functional replay of the delivery log, and the
 * bit-exact match of the final registers, memory and trap registers
 * with that replay.
 * @return the first failing check's reason; empty when all pass.
 */
std::string checkStormRun(const std::shared_ptr<const Program> &program,
                          const TrapConfig &config,
                          const TrapRunResult &res);

} // namespace ruu::trap

#endif // RUU_TRAP_STORM_HH
