#include "kernels/lll.hh"

#include <iterator>
#include <mutex>

namespace ruu
{

namespace
{

/** One kernel's name and constructor. */
struct KernelEntry
{
    const char *name;
    Kernel (*make)();
};

/** The suite, in order: every kernel is built through this table. */
constexpr KernelEntry kKernels[] = {
    {"lll01", makeLll01}, {"lll02", makeLll02}, {"lll03", makeLll03},
    {"lll04", makeLll04}, {"lll05", makeLll05}, {"lll06", makeLll06},
    {"lll07", makeLll07}, {"lll08", makeLll08}, {"lll09", makeLll09},
    {"lll10", makeLll10}, {"lll11", makeLll11}, {"lll12", makeLll12},
    {"lll13", makeLll13}, {"lll14", makeLll14},
};

} // namespace

const std::vector<Kernel> &
livermoreKernels()
{
    static const std::vector<Kernel> kernels = [] {
        std::vector<Kernel> all;
        for (const KernelEntry &entry : kKernels)
            all.push_back(entry.make());
        return all;
    }();
    return kernels;
}

const std::vector<Workload> &
livermoreWorkloads()
{
    static const std::vector<Workload> workloads = [] {
        std::vector<Workload> all;
        for (const auto &kernel : livermoreKernels())
            all.push_back(makeWorkload(kernel.program));
        return all;
    }();
    return workloads;
}

std::optional<Workload>
livermoreWorkload(const std::string &name)
{
    for (const KernelEntry &entry : kKernels)
        if (name == entry.name)
            return makeWorkload(entry.make().program);
    return std::nullopt;
}

const Workload *
sharedLivermoreWorkload(const std::string &name)
{
    constexpr std::size_t kCount = std::size(kKernels);
    static std::once_flag built[kCount];
    static std::optional<Workload> workloads[kCount];
    static std::mutex building;
    for (std::size_t i = 0; i < kCount; ++i)
        if (name == kKernels[i].name) {
            std::call_once(built[i], [i] {
                std::lock_guard<std::mutex> lock(building);
                workloads[i] = makeWorkload(kKernels[i].make().program);
            });
            return &*workloads[i];
        }
    return nullptr;
}

} // namespace ruu
