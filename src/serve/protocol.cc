#include "serve/protocol.hh"

#include <sstream>

namespace ruu::serve
{

const char *
opName(Op op)
{
    switch (op) {
      case Op::Ping: return "ping";
      case Op::Status: return "status";
      case Op::Submit: return "submit";
      case Op::Run: return "run";
      case Op::Shutdown: return "shutdown";
      case Op::Campaign: return "campaign";
      case Op::Watch: return "watch";
      case Op::Cancel: return "cancel";
    }
    return "ping";
}

const char *
campaignKindName(CampaignKind kind)
{
    switch (kind) {
      case CampaignKind::Run: return "run";
      case CampaignKind::Storm: return "storm";
      case CampaignKind::Inject: return "inject";
    }
    return "run";
}

Expected<CampaignKind>
campaignKindFromName(const std::string &name)
{
    for (CampaignKind k : {CampaignKind::Run, CampaignKind::Storm,
                           CampaignKind::Inject})
        if (name == campaignKindName(k))
            return k;
    return Error("unknown campaign kind '" + name + "'");
}

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Done: return "done";
      case JobStatus::Rejected: return "rejected";
      case JobStatus::Crashed: return "crashed";
      case JobStatus::TimedOut: return "timed-out";
      case JobStatus::Failed: return "failed";
    }
    return "failed";
}

Expected<JobStatus>
jobStatusFromName(const std::string &name)
{
    for (JobStatus s : {JobStatus::Done, JobStatus::Rejected,
                        JobStatus::Crashed, JobStatus::TimedOut,
                        JobStatus::Failed})
        if (name == jobStatusName(s))
            return s;
    return Error("unknown status '" + name + "'");
}

Expected<Request>
parseRequest(const std::string &line)
{
    auto object = flat::parseObject(line);
    if (!object)
        return Error(object.error()).context("request");
    auto op = flat::getString(*object, "op");
    if (!op)
        return Error(op.error()).context("request");

    Request request;
    if (*op == "ping") {
        request.op = Op::Ping;
    } else if (*op == "status") {
        request.op = Op::Status;
    } else if (*op == "run") {
        request.op = Op::Run;
    } else if (*op == "shutdown") {
        request.op = Op::Shutdown;
    } else if (*op == "submit") {
        request.op = Op::Submit;
    } else if (*op == "campaign") {
        request.op = Op::Campaign;
    } else if (*op == "watch") {
        request.op = Op::Watch;
    } else if (*op == "cancel") {
        request.op = Op::Cancel;
    } else {
        return Error("request: unknown op '" + *op + "'");
    }

    if (request.op == Op::Watch || request.op == Op::Cancel) {
        // Exactly the op and the campaign id, nothing else.
        if (object->size() != 2)
            return Error(std::string("request: op '") + *op +
                         "' takes exactly an \"id\"");
        auto id = flat::getString(*object, "id");
        if (!id || id->empty())
            return Error(std::string("request: op '") + *op +
                         "' needs a non-empty \"id\"");
        request.target = *id;
        return request;
    }

    if (request.op == Op::Campaign) {
        CampaignSpec &spec = request.campaign;
        bool sawKind = false;
        for (const auto &[key, value] : *object) {
            if (key == "op")
                continue;
            if (key == "id" && value.isString) {
                spec.id = value.text;
            } else if (key == "kind" && value.isString) {
                auto kind = campaignKindFromName(value.text);
                if (!kind)
                    return Error(kind.error()).context("request");
                spec.kind = *kind;
                sawKind = true;
            } else if (key == "workloads" && value.isString) {
                spec.workloads = flat::splitCommas(value.text);
            } else if (key == "cores" && value.isString) {
                spec.cores = flat::splitCommas(value.text);
            } else if (key == "periods" && value.isString) {
                auto periods = flat::splitNumbers(value.text);
                if (!periods)
                    return Error(periods.error())
                        .context("request: \"periods\"");
                spec.periods = *periods;
            } else if (key == "trials" && !value.isString) {
                spec.trials = value.number;
            } else if (key == "seed" && !value.isString) {
                spec.seed = value.number;
            } else if (key == "config" && value.isString) {
                spec.configJson = value.text;
            } else if (key == "deadline_ms" && !value.isString) {
                spec.deadlineMs = value.number;
            } else {
                return Error("request: unknown or ill-typed key '" +
                             key + "'");
            }
        }
        if (spec.id.empty())
            return Error("request: campaign needs an \"id\"");
        if (!sawKind)
            return Error("request: campaign needs a \"kind\"");
        if (spec.workloads.empty())
            return Error("request: campaign needs \"workloads\"");
        if (spec.cores.empty())
            return Error("request: campaign needs \"cores\"");
        if (spec.kind == CampaignKind::Storm && spec.periods.empty())
            return Error("request: storm campaign needs \"periods\"");
        if (spec.kind != CampaignKind::Storm && !spec.periods.empty())
            return Error("request: only storm campaigns take "
                         "\"periods\"");
        if (spec.kind == CampaignKind::Inject && spec.trials == 0)
            return Error("request: inject campaign needs \"trials\"");
        if (spec.kind != CampaignKind::Inject && spec.trials != 0)
            return Error("request: only inject campaigns take "
                         "\"trials\"");
        return request;
    }

    if (request.op != Op::Submit) {
        // Argument-free operations carry nothing but the op: a stray
        // key is a client bug (or fuzz input) worth diagnosing.
        if (object->size() != 1)
            return Error(std::string("request: op '") + *op +
                         "' takes no other keys");
        return request;
    }

    JobSpec &job = request.job;
    for (const auto &[key, value] : *object) {
        if (key == "op")
            continue;
        if (key == "id" && value.isString) {
            job.id = value.text;
        } else if (key == "workload" && value.isString) {
            job.workload = value.text;
        } else if (key == "program" && value.isString) {
            job.program = value.text;
        } else if (key == "name" && value.isString) {
            job.name = value.text;
        } else if (key == "core" && value.isString) {
            job.core = value.text;
        } else if (key == "config" && value.isString) {
            job.configJson = value.text;
        } else if (key == "period" && !value.isString) {
            job.period = value.number;
        } else if (key == "deadline_ms" && !value.isString) {
            job.deadlineMs = value.number;
        } else {
            return Error("request: unknown or ill-typed key '" + key +
                         "'");
        }
    }
    if (job.id.empty())
        return Error("request: submit needs an \"id\"");
    if (job.workload.empty() == job.program.empty())
        return Error("request: submit needs exactly one of "
                     "\"workload\" or \"program\"");
    return request;
}

std::string
requestToLine(const Request &request)
{
    std::ostringstream os;
    os << "{\"op\": \"" << opName(request.op) << "\"";
    if (request.op == Op::Submit) {
        const JobSpec &job = request.job;
        os << ", \"id\": \"" << flat::escape(job.id) << "\"";
        if (!job.workload.empty())
            os << ", \"workload\": \"" << flat::escape(job.workload)
               << "\"";
        if (!job.program.empty())
            os << ", \"program\": \"" << flat::escape(job.program)
               << "\"";
        if (!job.name.empty())
            os << ", \"name\": \"" << flat::escape(job.name) << "\"";
        if (job.core != "ruu")
            os << ", \"core\": \"" << flat::escape(job.core) << "\"";
        if (!job.configJson.empty())
            os << ", \"config\": \"" << flat::escape(job.configJson)
               << "\"";
        if (job.period)
            os << ", \"period\": " << job.period;
        if (job.deadlineMs)
            os << ", \"deadline_ms\": " << job.deadlineMs;
    } else if (request.op == Op::Campaign) {
        const CampaignSpec &spec = request.campaign;
        os << ", \"id\": \"" << flat::escape(spec.id) << "\""
           << ", \"kind\": \"" << campaignKindName(spec.kind) << "\""
           << ", \"workloads\": \""
           << flat::escape(flat::joinCommas(spec.workloads)) << "\""
           << ", \"cores\": \""
           << flat::escape(flat::joinCommas(spec.cores)) << "\"";
        if (!spec.periods.empty())
            os << ", \"periods\": \"" << flat::joinNumbers(spec.periods)
               << "\"";
        if (spec.trials)
            os << ", \"trials\": " << spec.trials;
        if (spec.kind == CampaignKind::Inject)
            os << ", \"seed\": " << spec.seed;
        if (!spec.configJson.empty())
            os << ", \"config\": \"" << flat::escape(spec.configJson)
               << "\"";
        if (spec.deadlineMs)
            os << ", \"deadline_ms\": " << spec.deadlineMs;
    } else if (request.op == Op::Watch || request.op == Op::Cancel) {
        os << ", \"id\": \"" << flat::escape(request.target) << "\"";
    }
    os << "}";
    return os.str();
}

std::string
resultToLine(const std::string &id, JobStatus status, bool cached,
             const std::string &payloadOrError)
{
    std::ostringstream os;
    os << "{\"ok\": " << (status == JobStatus::Done ? 1 : 0)
       << ", \"op\": \"result\""
       << ", \"id\": \"" << flat::escape(id) << "\""
       << ", \"status\": \"" << jobStatusName(status) << "\""
       << ", \"cached\": " << (cached ? 1 : 0) << ", \""
       << (status == JobStatus::Done ? "payload" : "error") << "\": \""
       << flat::escape(payloadOrError) << "\"}";
    return os.str();
}

std::string
unitResultToLine(const std::string &id, std::uint64_t unit,
                 JobStatus status, bool cached,
                 const std::string &payloadOrError)
{
    std::ostringstream os;
    os << "{\"ok\": " << (status == JobStatus::Done ? 1 : 0)
       << ", \"op\": \"unit\""
       << ", \"id\": \"" << flat::escape(id) << "\""
       << ", \"unit\": " << unit
       << ", \"status\": \"" << jobStatusName(status) << "\""
       << ", \"cached\": " << (cached ? 1 : 0) << ", \""
       << (status == JobStatus::Done ? "payload" : "error") << "\": \""
       << flat::escape(payloadOrError) << "\"}";
    return os.str();
}

std::string
errorToLine(const std::string &message)
{
    return "{\"ok\": 0, \"error\": \"" + flat::escape(message) + "\"}";
}

} // namespace ruu::serve
