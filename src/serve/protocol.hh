/**
 * @file
 * The ruusimd wire protocol.
 *
 * Newline-delimited flat JSON (common/flat_json.hh — the inject
 * journal's dialect) over a Unix-domain stream socket. A client
 * submits a batch of simulation jobs, then asks for the batch to run;
 * per-job results stream back in submission order, each carrying the
 * exact `ruusim run --json` payload, so serve output is byte-
 * comparable to a cold serial run.
 *
 * Requests (one object per line):
 *
 *   {"op": "ping"}
 *   {"op": "status"}
 *   {"op": "submit", "id": I, ...job fields...}
 *   {"op": "run"}
 *   {"op": "shutdown"}
 *   {"op": "campaign", "id": I, "kind": K, ...campaign fields...}
 *   {"op": "watch", "id": I}
 *   {"op": "cancel", "id": I}
 *
 * Submit job fields: exactly one of "workload" (built-in kernel name)
 * or "program" (assembly source, read client-side — the daemon needs
 * no file access); optional "name" (display name for a program),
 * "core" (default "ruu"), "config" (embedded JSON object text as
 * emitted by configToJson), "period" (periodic external-interrupt
 * arrival period in cycles; 0 = plain run), "deadline_ms" (per-job
 * wall-clock watchdog override).
 *
 * Campaign fields (docs/SERVE.md, serve/queue.hh) name a server-side
 * durable sweep: "kind" is "run", "storm", or "inject"; "workloads"
 * and "cores" are comma lists of built-in kernel and core-scheme
 * names (campaigns carry no program text — they outlive the
 * submitting client, so everything must resolve server-side);
 * "periods" (storm only) is a comma list of arrival periods; "trials"
 * and "seed" (inject only) size the trial sweep; "config" and
 * "deadline_ms" are as for submit. The daemon acks with the unit
 * count and executes in the background; "watch" streams one
 * {"op": "unit", ...} line per unit in unit order, then a
 * {"op": "watch", ...} summary; "cancel" voids units not yet
 * dispatched.
 *
 * Responses: every line carries "ok" (1/0) and echoes "op"; submit
 * acks echo "id"; a shed submit answers ok 0 with error "overloaded".
 * During run, one {"op": "result", "id": I, "status": S, "cached": C,
 * "payload"|"error": ...} line per job in submission order, then a
 * {"op": "run", ...} summary. Unknown operations, unknown keys, and
 * malformed lines produce an error response — never a dead server.
 */

#ifndef RUU_SERVE_PROTOCOL_HH
#define RUU_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/flat_json.hh"

namespace ruu::serve
{

/** Protocol operations. */
enum class Op
{
    Ping,
    Status,
    Submit,
    Run,
    Shutdown,
    Campaign,
    Watch,
    Cancel,
};

/** The name of @p op as it appears on the wire. */
const char *opName(Op op);

/** One simulation job as submitted by a client. */
struct JobSpec
{
    std::string id;         //!< client-chosen identifier, echoed back
    std::string workload;   //!< built-in kernel name (xor program)
    std::string program;    //!< assembly source text (xor workload)
    std::string name;       //!< display name for a program submission
    std::string core = "ruu";
    std::string configJson; //!< empty = default (cray1) configuration
    std::uint64_t period = 0;     //!< interrupt period; 0 = plain run
    std::uint64_t deadlineMs = 0; //!< 0 = server default
};

/** What a campaign sweeps over. */
enum class CampaignKind
{
    Run,   //!< plain runs: workloads × cores
    Storm, //!< interrupt storms: workloads × cores × periods
    Inject, //!< fault injection: one unit per trial
};

/** The wire name of @p kind ("run", "storm", "inject"). */
const char *campaignKindName(CampaignKind kind);

/** Inverse of campaignKindName. */
Expected<CampaignKind> campaignKindFromName(const std::string &name);

/**
 * One durable server-side campaign as submitted by a client. Only
 * built-in names — a campaign outlives its submitting client, so
 * nothing in the spec may depend on client-side file access.
 */
struct CampaignSpec
{
    std::string id; //!< client-chosen identifier, unique per daemon
    CampaignKind kind = CampaignKind::Run;
    std::vector<std::string> workloads; //!< built-in kernel names
    std::vector<std::string> cores;     //!< core-scheme names
    std::vector<std::uint64_t> periods; //!< storm arrival periods
    std::uint64_t trials = 0;           //!< inject trial count
    std::uint64_t seed = 1;             //!< inject campaign seed
    std::string configJson; //!< empty = default configuration
    std::uint64_t deadlineMs = 0; //!< per-unit deadline; 0 = default
};

/** A parsed request line. */
struct Request
{
    Op op = Op::Ping;
    JobSpec job;           //!< meaningful when op == Op::Submit
    CampaignSpec campaign; //!< meaningful when op == Op::Campaign
    std::string target;    //!< campaign id for Op::Watch / Op::Cancel
};

/**
 * Parse one request line. Strict: unknown operations, unknown or
 * ill-typed keys, and submits naming both (or neither of) a workload
 * and a program are errors.
 */
Expected<Request> parseRequest(const std::string &line);

/** Serialize @p request as one wire line (no trailing newline). */
std::string requestToLine(const Request &request);

/** Job outcome classification on the wire. */
enum class JobStatus
{
    Done,     //!< payload holds the result JSON
    Rejected, //!< bad job (unknown kernel, bad program/config/core)
    Crashed,  //!< the job's process died (signal or exit code)
    TimedOut, //!< the per-job deadline expired
    Failed,   //!< host trouble (spawn retries exhausted, ...)
};

/** The wire name of @p status ("done", "rejected", ...). */
const char *jobStatusName(JobStatus status);

/** Inverse of jobStatusName. */
Expected<JobStatus> jobStatusFromName(const std::string &name);

/** One job's result line. */
std::string resultToLine(const std::string &id, JobStatus status,
                         bool cached, const std::string &payloadOrError);

/** One campaign unit's result line, streamed by watch. */
std::string unitResultToLine(const std::string &id, std::uint64_t unit,
                             JobStatus status, bool cached,
                             const std::string &payloadOrError);

/** A generic error response (ok 0). */
std::string errorToLine(const std::string &message);

} // namespace ruu::serve

#endif // RUU_SERVE_PROTOCOL_HH
