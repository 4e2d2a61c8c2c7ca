#include "inject/journal.hh"

#include <sstream>

namespace ruu::inject
{

using flat::escape;

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::Masked: return "masked";
      case Outcome::DetectedInvariant: return "detected-invariant";
      case Outcome::DetectedOracle: return "detected-oracle";
      case Outcome::Trapped: return "trapped";
      case Outcome::Hung: return "hung";
      case Outcome::Sdc: return "sdc";
      case Outcome::Unclassified: return "unclassified";
    }
    return "unclassified";
}

Expected<Outcome>
outcomeFromName(const std::string &name)
{
    for (Outcome o : {Outcome::Masked, Outcome::DetectedInvariant,
                      Outcome::DetectedOracle, Outcome::Trapped,
                      Outcome::Hung, Outcome::Sdc, Outcome::Unclassified})
        if (name == outcomeName(o))
            return o;
    return Error("unknown outcome '" + name + "'");
}

std::string
JournalFormat::headerFields(const JournalHeader &header)
{
    std::ostringstream os;
    os << ", \"seed\": " << header.seed
       << ", \"trials\": " << header.trials
       << ", \"cores\": \"" << escape(flat::joinCommas(header.cores))
       << "\""
       << ", \"workloads\": \""
       << escape(flat::joinCommas(header.workloads)) << "\""
       << ", \"config\": \"" << escape(header.config) << "\"";
    return os.str();
}

Expected<JournalHeader>
JournalFormat::parseHeader(const flat::Object &object)
{
    flat::Fields in(object);
    JournalHeader header;
    header.seed = in.number("seed");
    header.trials = in.number("trials");
    header.cores = in.list("cores");
    header.workloads = in.list("workloads");
    header.config = in.string("config");
    if (const Error *e = in.error())
        return *e;
    return header;
}

std::string
trialToLine(const TrialResult &trial)
{
    std::ostringstream os;
    os << "{\"index\": " << trial.point.index
       << ", \"seed\": " << trial.point.seed
       << ", \"core\": \"" << escape(trial.point.core) << "\""
       << ", \"workload\": \"" << escape(trial.point.workload)
       << "\""
       << ", \"cycle\": " << trial.point.cycle
       << ", \"bit\": " << trial.point.bit
       << ", \"port\": \"" << escape(trial.port) << "\""
       << ", \"before\": " << trial.before
       << ", \"after\": " << trial.after
       << ", \"outcome\": \"" << outcomeName(trial.outcome) << "\""
       << ", \"cycles\": " << trial.cycles
       << ", \"retries\": " << trial.retries
       << ", \"detail\": \"" << escape(trial.detail) << "\"}";
    return os.str();
}

Expected<TrialResult>
parseTrialLine(const std::string &line)
{
    flat::Fields in(line);
    TrialResult trial;
    trial.point.index = in.number("index");
    trial.point.seed = in.number("seed");
    trial.point.core = in.string("core");
    trial.point.workload = in.string("workload");
    trial.point.cycle = in.number("cycle");
    trial.point.bit = in.number("bit");
    trial.port = in.string("port");
    trial.before = in.number("before");
    trial.after = in.number("after");
    std::string outcome = in.string("outcome");
    trial.cycles = in.number("cycles");
    trial.retries = in.number("retries");
    trial.detail = in.string("detail");
    if (const Error *e = in.error())
        return *e;
    auto parsed = outcomeFromName(outcome);
    if (!parsed)
        return parsed.error();
    trial.outcome = *parsed;
    return trial;
}

} // namespace ruu::inject
