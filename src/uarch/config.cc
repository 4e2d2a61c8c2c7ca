#include "uarch/config.hh"

#include <utility>

namespace ruu
{

const char *
bypassModeName(BypassMode mode)
{
    switch (mode) {
      case BypassMode::Full: return "full";
      case BypassMode::None: return "none";
      case BypassMode::LimitedA: return "limited_a";
      case BypassMode::FutureFile: return "future_file";
    }
    return "?";
}

const char *
predictorKindName(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::AlwaysTaken: return "always_taken";
      case PredictorKind::AlwaysNotTaken: return "always_not_taken";
      case PredictorKind::Btfn: return "btfn";
      case PredictorKind::Smith2Bit: return "smith_2bit";
    }
    return "?";
}

std::string
UarchConfig::validate() const
{
    if (predictorTableBits < 1 || predictorTableBits > 20)
        return "predictorTableBits must be in 1..20";
    if (poolEntries < 1)
        return "poolEntries must be at least 1";
    if (counterBits < 1 || counterBits > 8)
        return "counterBits must be in 1..8";
    if (loadRegisters < 1)
        return "loadRegisters must be at least 1";
    if (dispatchPaths < 1 || dispatchPaths > 4)
        return "dispatchPaths must be in 1..4";
    if (commitWidth < 1 || commitWidth > 4)
        return "commitWidth must be in 1..4";
    if (resultBuses < 1 || resultBuses > 4)
        return "resultBuses must be in 1..4";
    if (memoryBanks != 0 && (memoryBanks & (memoryBanks - 1)) != 0)
        return "memoryBanks must be zero or a power of two";
    if (memoryBanks != 0 && bankBusyCycles < 1)
        return "bankBusyCycles must be positive";
    if (tuEntries < 1)
        return "tuEntries must be at least 1";
    if (historyEntries < 2)
        return "historyEntries must be at least 2";
    if (rsPerFu < 1)
        return "rsPerFu must be at least 1";
    if (storeLatency < 1)
        return "storeLatency must be at least 1";
    if (forwardLatency < 1)
        return "forwardLatency must be at least 1";
    if (latency(FuKind::Memory) < 1)
        return "memory latency must be at least 1";
    for (unsigned i = 0; i < kNumFuKinds - 1; ++i) {
        if (fuLatency[i] < 1)
            return std::string("latency of ") +
                   fuKindName(static_cast<FuKind>(i)) +
                   " must be at least 1";
    }
    for (unsigned i = 0; i < kNumFuKinds; ++i) {
        if (fuCount[i] < 1 || fuCount[i] > 8)
            return std::string("unit count of ") +
                   fuKindName(static_cast<FuKind>(i)) +
                   " must be in 1..8";
    }
    const std::pair<unsigned, const char *> sizes[] = {
        {poolEntries, "poolEntries"},       {tuEntries, "tuEntries"},
        {historyEntries, "historyEntries"}, {loadRegisters, "loadRegisters"},
        {rsPerFu, "rsPerFu"},
    };
    for (const auto &[size, name] : sizes)
        if (size > kMaxEntries)
            return std::string(name) + " must be at most " +
                   std::to_string(kMaxEntries);
    return "";
}

} // namespace ruu
