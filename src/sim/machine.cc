#include "sim/machine.hh"

#include <algorithm>

#include "asm/parser.hh"
#include "common/logging.hh"
#include "core/simple_core.hh"
#include "core/window_core.hh"

namespace ruu
{

const char *
coreKindName(CoreKind kind)
{
    switch (kind) {
      case CoreKind::Simple: return "simple";
      case CoreKind::Tomasulo: return "tomasulo";
      case CoreKind::Rstu: return "rstu";
      case CoreKind::Ruu: return "ruu";
      case CoreKind::SpecRuu: return "spec_ruu";
      case CoreKind::History: return "history";
    }
    return "?";
}

std::optional<CoreKind>
coreKindFromName(const std::string &name)
{
    static const CoreKind kKinds[] = {
        CoreKind::Simple, CoreKind::Tomasulo, CoreKind::Rstu,
        CoreKind::Ruu,    CoreKind::SpecRuu,  CoreKind::History,
    };
    for (CoreKind kind : kKinds)
        if (name == coreKindName(kind))
            return kind;
    return std::nullopt;
}

std::unique_ptr<Core>
makeCore(CoreKind kind, const UarchConfig &config)
{
    switch (kind) {
      case CoreKind::Simple:
        return std::make_unique<SimpleCore>(config);
      case CoreKind::Tomasulo:
        return std::make_unique<TomasuloCore>(config);
      case CoreKind::Rstu:
        return std::make_unique<RstuCore>(config);
      case CoreKind::Ruu:
        return std::make_unique<RuuCore>(config);
      case CoreKind::SpecRuu:
        return std::make_unique<SpecRuuCore>(config);
      case CoreKind::History:
        return std::make_unique<HistoryCore>(config);
    }
    ruu_panic("unknown core kind");
}

void
compactGolden(FuncResult &func)
{
    // Only data initializers and stores write memory, so every word
    // past the highest of them is zero: no need to scan the image.
    Addr end = 0;
    for (const DataInit &init : func.trace.program().dataInits())
        end = std::max<Addr>(end, init.addr + 1);
    for (const TraceRecord &record : func.trace.records())
        if (isStore(record.inst.op))
            end = std::max<Addr>(end, record.memAddr + 1);
    func.finalMemory.compact(end);
}

Expected<Workload>
makeWorkloadChecked(Program program, const FuncSimOptions &options)
{
    Workload workload;
    workload.name = program.name();
    workload.program =
        std::make_shared<const Program>(std::move(program));
    workload.func = runFunctional(workload.program, options);
    if (workload.func.fault != Fault::None)
        return Error("program '" + workload.name + "' faulted (" +
                     faultName(workload.func.fault) +
                     ") at dynamic instruction " +
                     std::to_string(workload.func.faultSeq));
    if (!workload.func.halted)
        return Error("program '" + workload.name +
                     "' did not halt within the instruction limit");
    compactGolden(workload.func);
    workload.contentHash = traceContentHash(workload.trace());
    return workload;
}

Expected<Workload>
workloadFromSourceChecked(const std::string &source,
                          const std::string &name)
{
    AsmResult assembled = assemble(source, name);
    if (!assembled.ok()) {
        std::string all;
        for (const auto &error : assembled.errors)
            all += "\n  " + error.toString();
        return Error("assembly of '" + name + "' failed:" + all);
    }
    return makeWorkloadChecked(std::move(*assembled.program));
}

Workload
makeWorkload(Program program, const FuncSimOptions &options)
{
    auto workload = makeWorkloadChecked(std::move(program), options);
    if (!workload)
        ruu_fatal("%s", workload.error().message().c_str());
    return workload.take();
}

Workload
workloadFromSource(const std::string &source, const std::string &name)
{
    auto workload = workloadFromSourceChecked(source, name);
    if (!workload)
        ruu_fatal("%s", workload.error().message().c_str());
    return workload.take();
}

bool
matchesFunctional(const RunResult &run, const FuncResult &func)
{
    return run.state == func.finalState && run.memory == func.finalMemory;
}

std::vector<SeqNum>
faultableSeqs(const Trace &trace)
{
    std::vector<SeqNum> seqs;
    for (SeqNum seq = 0; seq < trace.size(); ++seq) {
        const Instruction &inst = trace.at(seq).inst;
        if (isBranch(inst.op) || inst.op == Opcode::HALT ||
            inst.op == Opcode::NOP) {
            continue;
        }
        seqs.push_back(seq);
    }
    return seqs;
}

SeqNum
nextFaultable(const Trace &trace, SeqNum from)
{
    for (SeqNum seq = from; seq < trace.size(); ++seq) {
        const Instruction &inst = trace.at(seq).inst;
        if (isBranch(inst.op) || inst.op == Opcode::HALT ||
            inst.op == Opcode::NOP) {
            continue;
        }
        return seq;
    }
    return kNoSeqNum;
}

FaultExperiment
runFaultAndResume(Core &core, const Workload &workload, SeqNum seq,
                  Fault fault)
{
    ruu_assert(fault != Fault::None, "injecting Fault::None");
    FaultExperiment experiment;

    Trace faulty = workload.trace();
    faulty.injectFault(seq, fault);
    experiment.faulted = core.run(faulty);

    if (!experiment.faulted.interrupted)
        return experiment;

    // Preciseness: the interrupted state must equal the sequential
    // execution of everything before the faulting instruction.
    FuncResult prefix = runPrefix(workload.program, seq);
    experiment.precise =
        experiment.faulted.state == prefix.finalState &&
        experiment.faulted.memory == prefix.finalMemory &&
        experiment.faulted.faultSeq == seq;

    // Service the fault (clear the annotation) and restart from the
    // faulting instruction with the interrupted machine state.
    RunOptions resume;
    resume.startSeq = experiment.faulted.faultSeq;
    resume.initialState = &experiment.faulted.state;
    resume.initialMemory = &experiment.faulted.memory;
    experiment.resumed = core.run(workload.trace(), resume);

    experiment.resumedExact =
        !experiment.resumed.interrupted &&
        matchesFunctional(experiment.resumed, workload.func);
    return experiment;
}

} // namespace ruu
