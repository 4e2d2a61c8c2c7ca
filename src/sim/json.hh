/**
 * @file
 * Machine-readable (JSON) export of run results, statistics, and
 * configurations, for plotting and regression tooling around the
 * benches (`ruusim run ... --json`).
 */

#ifndef RUU_SIM_JSON_HH
#define RUU_SIM_JSON_HH

#include <string>

#include "common/error.hh"
#include "core/core.hh"

namespace ruu
{

/**
 * Serialize @p config as a JSON object holding every field
 * parseUarchConfig reads — all but the checkInvariants debug switch —
 * so the two round-trip, and the text can tell configs apart (cache
 * keys, journal headers, core reuse).
 */
std::string configToJson(const UarchConfig &config);

/**
 * Parse a UarchConfig from the JSON object emitted by configToJson
 * (`ruusim run --config file.json` round-trips). Keys are optional and
 * default to UarchConfig::cray1(); unknown keys, type mismatches,
 * truncated input, and range errors (UarchConfig::validate) are
 * reported with their position in the text.
 */
Expected<UarchConfig> parseUarchConfig(const std::string &text);

/**
 * Serialize one run as a JSON object:
 * `{"workload": ..., "core": ..., "cycles": ..., "instructions": ...,
 *   "issue_rate": ..., "interrupted": ..., "fault": {...}?,
 *   "counters": {...}, "histograms": {...}}`.
 */
std::string runToJson(const std::string &workload,
                      const std::string &core_name,
                      const RunResult &result, const StatSet &stats);

} // namespace ruu

#endif // RUU_SIM_JSON_HH
