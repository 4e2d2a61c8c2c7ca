/**
 * @file
 * The one-line static-bound summary shared by `ruusim analyze`,
 * `ruusim verify` and the paper registry (bench/paper.cc): the suite's
 * certified resource-aware lower bound, how much it tightened the
 * dependence-only bound, and which resource binds how many workloads.
 * One formatter so the three surfaces can never drift apart.
 */

#ifndef RUU_LINT_BOUND_SUMMARY_HH
#define RUU_LINT_BOUND_SUMMARY_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/machine.hh"
#include "uarch/config.hh"

namespace ruu::lint
{

/** Aggregated certified bounds of one workload set. */
struct BoundSummary
{
    std::size_t workloads = 0;
    std::uint64_t certified = 0;  //!< sum of resource-aware bounds
    std::uint64_t dependence = 0; //!< sum of dependence-only bounds

    /** Workload count per binding resource name. */
    std::map<std::string, unsigned> bindings;

    /** How much the resource floors tightened the dependence bound. */
    double tightenedPct() const;

    /** "bus x3, commit x2"-style histogram of binding resources. */
    std::string bindingHistogram() const;
};

/** Aggregate cachedResourceBound over @p workloads under @p config. */
BoundSummary summarizeBounds(const std::vector<Workload> &workloads,
                             const UarchConfig &config);

/** The standard summary line (no trailing newline). */
std::string formatBoundSummary(const BoundSummary &summary);

} // namespace ruu::lint

#endif // RUU_LINT_BOUND_SUMMARY_HH
