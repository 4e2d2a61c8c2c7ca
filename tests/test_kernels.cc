/**
 * @file
 * Validation of the 14 hand-compiled Livermore loops: every kernel's
 * functional execution must reproduce its independent C++ reference
 * implementation bit-for-bit, and the dynamic footprints must stay in
 * the range the paper's Table 1 workloads occupy.
 */

#include <gtest/gtest.h>

#include "common/bitfield.hh"
#include "kernels/lll.hh"

namespace ruu
{
namespace
{

class KernelTest : public ::testing::TestWithParam<int>
{
  protected:
    const Kernel &kernel() const
    {
        return livermoreKernels()[static_cast<std::size_t>(GetParam())];
    }
};

TEST_P(KernelTest, FunctionalExecutionMatchesReferenceBitExactly)
{
    const Kernel &k = kernel();
    Workload workload = makeWorkload(k.program);
    ASSERT_TRUE(workload.func.halted);
    ASSERT_FALSE(k.expected.empty());
    for (const auto &[addr, word] : k.expected) {
        EXPECT_EQ(workload.func.finalMemory.at(addr), word)
            << k.name << " memory word " << addr << ": got "
            << wordToDouble(workload.func.finalMemory.at(addr))
            << ", reference " << wordToDouble(word);
    }
}

TEST_P(KernelTest, DynamicFootprintIsPaperScale)
{
    // The paper's loops execute 4k-14k dynamic instructions each
    // (Table 1); the reproduction targets the same scale.
    const Kernel &k = kernel();
    Workload workload = makeWorkload(k.program);
    EXPECT_GE(workload.trace().size(), 4000u) << k.name;
    EXPECT_LE(workload.trace().size(), 16000u) << k.name;
    // Every kernel ends in HALT, which is the last record.
    EXPECT_EQ(workload.trace().records().back().inst.op, Opcode::HALT);
}

TEST_P(KernelTest, UsesConditionalBranchesAndMemory)
{
    const Kernel &k = kernel();
    Workload workload = makeWorkload(k.program);
    EXPECT_GT(workload.trace().countCondBranches(), 0u) << k.name;
    EXPECT_GT(workload.trace().countMemOps(), 0u) << k.name;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelTest,
                         ::testing::Range(0, 14),
                         [](const ::testing::TestParamInfo<int> &info) {
                             return livermoreKernels()
                                 [static_cast<std::size_t>(info.param)]
                                     .name;
                         });

TEST(KernelSuite, HasFourteenDistinctKernels)
{
    const auto &kernels = livermoreKernels();
    ASSERT_EQ(kernels.size(), 14u);
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        EXPECT_FALSE(kernels[i].description.empty());
        for (std::size_t j = i + 1; j < kernels.size(); ++j)
            EXPECT_NE(kernels[i].name, kernels[j].name);
    }
}

TEST(KernelSuite, WorkloadsAreCachedAndConsistent)
{
    const auto &first = livermoreWorkloads();
    const auto &second = livermoreWorkloads();
    EXPECT_EQ(&first, &second); // built once
    ASSERT_EQ(first.size(), 14u);
    // Total dynamic footprint is comparable to the paper's 117,856.
    std::size_t total = 0;
    for (const auto &workload : first)
        total += workload.trace().size();
    EXPECT_GT(total, 80000u);
    EXPECT_LT(total, 200000u);
}

TEST(KernelSuite, SingleKernelLookupBuildsTheSuiteWorkload)
{
    const auto &suite = livermoreWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const Workload &want = suite[i];
        std::optional<Workload> got = livermoreWorkload(want.name);
        ASSERT_TRUE(got.has_value()) << want.name;
        EXPECT_EQ(got->name, want.name);

        const Program &gp = *got->program, &wp = *want.program;
        EXPECT_EQ(gp.name(), wp.name());
        EXPECT_EQ(gp.instructions(), wp.instructions()) << want.name;
        EXPECT_EQ(gp.listing(), wp.listing()) << want.name;
        ASSERT_EQ(gp.dataInits().size(), wp.dataInits().size());
        for (std::size_t d = 0; d < gp.dataInits().size(); ++d) {
            EXPECT_EQ(gp.dataInits()[d].addr, wp.dataInits()[d].addr);
            EXPECT_EQ(gp.dataInits()[d].value, wp.dataInits()[d].value);
        }

        ASSERT_EQ(got->trace().size(), want.trace().size()) << want.name;
        for (SeqNum seq = 0; seq < want.trace().size(); ++seq) {
            const TraceRecord &a = got->trace().at(seq);
            const TraceRecord &b = want.trace().at(seq);
            ASSERT_TRUE(a.inst == b.inst && a.staticIndex == b.staticIndex &&
                        a.pc == b.pc && a.memAddr == b.memAddr &&
                        a.result == b.result &&
                        a.storeValue == b.storeValue &&
                        a.taken == b.taken && a.fault == b.fault)
                << want.name << " record " << seq;
        }
        EXPECT_EQ(got->func.finalState, want.func.finalState) << want.name;
        EXPECT_TRUE(got->func.finalMemory == want.func.finalMemory)
            << want.name;
    }
    for (const char *name : {"suite", "lll00", "lll15", "LLL01", "lll1", ""})
        EXPECT_FALSE(livermoreWorkload(name).has_value()) << name;
}

TEST(KernelSuite, RegisterFileDiversity)
{
    // The suite must exercise the B and T register files — the paper's
    // §3.2.1 hardware-cost argument and §6.3 branch-chain discussion
    // both hinge on them.
    bool uses_b = false, uses_t = false;
    for (const auto &kernel : livermoreKernels()) {
        for (const auto &inst : kernel.program.instructions()) {
            for (RegId reg : {inst.dst, inst.src1, inst.src2}) {
                if (!reg.valid())
                    continue;
                uses_b |= reg.file() == RegFile::B;
                uses_t |= reg.file() == RegFile::T;
            }
        }
    }
    EXPECT_TRUE(uses_b);
    EXPECT_TRUE(uses_t);
}

} // namespace
} // namespace ruu
