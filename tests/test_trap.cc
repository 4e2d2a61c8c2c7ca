/**
 * @file
 * End-to-end interrupt servicing: exchange packages, interrupt
 * sources, and the segmented trap controller driving every timing
 * core through synchronous faults, asynchronous interrupts, nesting,
 * and the delivery-log functional replay that closes each run.
 *
 * The edge cases the robustness work names explicitly are all here: a
 * fault on the first dynamic instruction, a fault at the end of a
 * loop's final iteration, back-to-back faults on consecutive
 * instructions, and an asynchronous interrupt arriving the same cycle
 * a synchronous fault surfaces.
 */

#include <gtest/gtest.h>

#include "asm/builder.hh"
#include "isa/reg.hh"
#include "kernels/lll.hh"
#include "sim/machine.hh"
#include "trap/controller.hh"
#include "trap/handlers.hh"
#include "trap/interrupt_source.hh"
#include "trap/storm.hh"
#include "trap/trap.hh"

namespace ruu
{
namespace
{

using trap::Delivery;
using trap::InterruptEvent;
using trap::InterruptSource;
using trap::ReplayResult;
using trap::TrapConfig;
using trap::TrapController;
using trap::TrapLayout;
using trap::TrapRunResult;

constexpr CoreKind kAllCores[] = {CoreKind::Simple,  CoreKind::Tomasulo,
                                  CoreKind::Rstu,    CoreKind::Ruu,
                                  CoreKind::SpecRuu, CoreKind::History};

/** A small summation loop: 8 loads, 8 iterations, one final store. */
const Workload &
loopWorkload()
{
    static const Workload workload = [] {
        ProgramBuilder b("trap_loop");
        for (int i = 0; i < 8; ++i)
            b.word(static_cast<Addr>(100 + i), static_cast<Word>(10 + i));
        b.amovi(regA(1), 100); // element pointer
        b.amovi(regA(2), 8);   // remaining count
        b.amovi(regA(3), 1);
        b.smovi(regS(1), 0);   // running sum
        b.label("loop");
        b.lds(regS(2), regA(1), 0);
        b.sadd(regS(1), regS(1), regS(2));
        b.aadd(regA(1), regA(1), regA(3));
        b.asub(regA(2), regA(2), regA(3));
        b.mova(regA(0), regA(2));
        b.jan("loop");
        b.sts(regA(1), 0, regS(1)); // sum lands at word 108
        b.halt();
        return makeWorkload(b.build());
    }();
    return workload;
}

TrapConfig
makeConfig()
{
    TrapConfig config;
    config.checkOracle = true;
    // Segment restarts copy the whole memory image, so the tests use a
    // compact 64Ki-word memory; every test program's data (and all 14
    // Livermore kernels) sits far below the relocated trap area.
    config.layout.exchangeBase = 0xf000;
    config.layout.scratchBase = 0xf800;
    config.memoryWords = 1u << 16;
    return config;
}

/** Timing result vs. the delivery-log functional replay, bit-exact. */
void
expectReplayMatches(const Workload &workload, const TrapConfig &config,
                    const TrapRunResult &res, const char *label)
{
    ReplayResult replay =
        trap::replayFunctional(workload.program, config, res.deliveries);
    ASSERT_TRUE(replay.ok) << label << ": " << replay.error;
    EXPECT_TRUE(res.state == replay.state) << label;
    EXPECT_TRUE(res.memory == replay.memory) << label;
    EXPECT_TRUE(res.trapRegs == replay.trapRegs) << label;
    EXPECT_EQ(res.instructions, replay.instructions) << label;
}

TEST(ExchangePackage, DeliverAndReturnRoundTrip)
{
    TrapLayout layout;
    Memory memory;
    ASSERT_TRUE(trap::initTrapMemory(memory, layout));

    ArchState state;
    for (unsigned i = 0; i < 8; ++i) {
        state.write(regA(i), 1000 + i);
        state.write(regS(i), 2000 + i);
    }
    TrapRegs regs;
    regs.setIe(true);

    ASSERT_TRUE(trap::deliverTrap(state, memory, regs, layout, 1,
                                  kCausePageFault, 42));

    // The handler context: trap registers loaded, frame exchanged.
    EXPECT_EQ(regs.epc, 42u);
    EXPECT_EQ(regs.cause, kCausePageFault);
    EXPECT_FALSE(regs.ie());
    EXPECT_EQ(regs.level(), 1u);
    Addr pkg = layout.packageBase(1);
    EXPECT_EQ(state.read(regA(7)), pkg);
    EXPECT_EQ(state.read(regA(6)), layout.scratchBase);
    // The interrupted frame sits in the package.
    EXPECT_EQ(memory.at(pkg + trap::kPkgA + 3), 1003u);
    EXPECT_EQ(memory.at(pkg + trap::kPkgS + 5), 2005u);
    EXPECT_EQ(memory.at(pkg + trap::kPkgStatus) & TrapRegs::kStatusIe,
              TrapRegs::kStatusIe);

    ASSERT_TRUE(trap::returnFromTrap(state, memory, regs, layout));
    EXPECT_EQ(state.read(regA(3)), 1003u);
    EXPECT_EQ(state.read(regS(5)), 2005u);
    EXPECT_EQ(regs.epc, 42u);
    EXPECT_TRUE(regs.ie());
    EXPECT_EQ(regs.level(), 0u);

    // Level 0 has no package to return through.
    EXPECT_FALSE(trap::returnFromTrap(state, memory, regs, layout));
    // Levels beyond the configured depth are rejected, not exchanged.
    EXPECT_FALSE(trap::deliverTrap(state, memory, regs, layout,
                                   layout.maxLevels, kCausePageFault, 0));
}

TEST(ExchangePackage, HandlerFrameAndEpcEditsBecomeArchitectural)
{
    TrapLayout layout;
    Memory memory;
    ASSERT_TRUE(trap::initTrapMemory(memory, layout));
    ArchState state;
    state.write(regA(3), 7);
    TrapRegs regs;
    ASSERT_TRUE(trap::deliverTrap(state, memory, regs, layout, 1,
                                  kCauseArithmetic, 10));

    // A handler patches the interrupted context with plain stores into
    // its package: a register repair and a resume-point edit.
    Addr pkg = layout.packageBase(1);
    memory.set(pkg + trap::kPkgA + 3, 99);
    memory.set(pkg + trap::kPkgEpc, 14);

    ASSERT_TRUE(trap::returnFromTrap(state, memory, regs, layout));
    EXPECT_EQ(state.read(regA(3)), 99u);
    EXPECT_EQ(regs.epc, 14u);
}

TEST(InterruptSourceTest, ExplicitScheduleOrdersAndMasks)
{
    InterruptSource source = InterruptSource::schedule({
        {200, 1},
        {100, 1},
        {100, 3},
    });
    auto e = source.next(0);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->cycle, 100u);
    EXPECT_EQ(e->priority, 3u); // same-cycle tie goes to priority
    // Masked below level 1: only the priority-3 request is eligible.
    auto high = source.next(1);
    ASSERT_TRUE(high.has_value());
    EXPECT_EQ(high->priority, 3u);
    EXPECT_FALSE(source.next(3).has_value());

    source.delivered(*e, 150);
    e = source.next(0);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->cycle, 100u);
    EXPECT_EQ(e->priority, 1u);
    EXPECT_EQ(source.pendingCount(), 2u);
    EXPECT_EQ(source.deliveredCount(), 1u);
}

TEST(InterruptSourceTest, PeriodicCoalescesMissedTicks)
{
    InterruptSource source = InterruptSource::periodic(100);
    auto e = source.next(0);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->cycle, 100u);
    // Delivery long after several missed ticks: they coalesce into one
    // pending request at the next period boundary.
    source.delivered(*e, 570);
    e = source.next(0);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->cycle, 600u);
    EXPECT_FALSE(source.exhausted());
    EXPECT_FALSE(source.next(1).has_value()); // priority 1 masked at 1
}

TEST(TrapServicing, FaultOnFirstFaultableInstructionAllCores)
{
    const Workload &w = loopWorkload();
    SeqNum first = faultableSeqs(w.trace()).front();
    for (CoreKind kind : kAllCores) {
        auto core = makeCore(kind, UarchConfig{});
        TrapConfig config = makeConfig();
        TrapController controller(*core, config);
        TrapRunResult res =
            controller.run(w.trace(), InterruptSource{}, {first});

        ASSERT_TRUE(res.completed) << coreKindName(kind) << ": "
                                   << res.error;
        ASSERT_EQ(res.deliveries.size(), 1u) << coreKindName(kind);
        EXPECT_TRUE(res.deliveries[0].sync);
        EXPECT_EQ(res.deliveries[0].cause, kCausePageFault);
        EXPECT_EQ(res.deliveries[0].epc, w.trace().at(first).pc);

        if (core->preciseInterrupts()) {
            EXPECT_TRUE(res.oracleFailure.empty())
                << coreKindName(kind) << ": " << res.oracleFailure;
            EXPECT_EQ(res.impreciseSyncDeliveries, 0u);
            // Servicing must be invisible to the program's own result.
            EXPECT_TRUE(res.state == w.func.finalState)
                << coreKindName(kind);
            expectReplayMatches(w, config, res, coreKindName(kind));
        } else {
            EXPECT_EQ(res.impreciseSyncDeliveries, 1u)
                << coreKindName(kind);
        }
    }
}

TEST(TrapServicing, FaultAtEndOfFinalLoopIteration)
{
    // The classic corner the sweep always includes: the drain near the
    // loop's final backward branch, where the pipeline is at its
    // emptiest and the remaining trace is a handful of instructions.
    const Workload &w = loopWorkload();
    std::vector<SeqNum> faultable = faultableSeqs(w.trace());
    SeqNum last = faultable.back();
    for (CoreKind kind : {CoreKind::Ruu, CoreKind::SpecRuu,
                          CoreKind::History}) {
        auto core = makeCore(kind, UarchConfig{});
        TrapConfig config = makeConfig();
        TrapController controller(*core, config);
        TrapRunResult res =
            controller.run(w.trace(), InterruptSource{}, {last});
        ASSERT_TRUE(res.completed) << coreKindName(kind) << ": "
                                   << res.error;
        ASSERT_EQ(res.deliveries.size(), 1u);
        EXPECT_EQ(res.deliveries[0].epc, w.trace().at(last).pc);
        EXPECT_TRUE(res.oracleFailure.empty()) << res.oracleFailure;
        EXPECT_TRUE(res.state == w.func.finalState) << coreKindName(kind);
        expectReplayMatches(w, config, res, coreKindName(kind));
    }
}

TEST(TrapServicing, BackToBackFaultsOnConsecutiveInstructions)
{
    const Workload &w = loopWorkload();
    std::vector<SeqNum> faultable = faultableSeqs(w.trace());
    SeqNum firstOfPair = kNoSeqNum;
    for (std::size_t i = 0; i + 1 < faultable.size(); ++i) {
        if (faultable[i + 1] == faultable[i] + 1) {
            firstOfPair = faultable[i];
            break;
        }
    }
    ASSERT_NE(firstOfPair, kNoSeqNum);

    for (CoreKind kind : {CoreKind::Ruu, CoreKind::SpecRuu,
                          CoreKind::History}) {
        auto core = makeCore(kind, UarchConfig{});
        TrapConfig config = makeConfig();
        TrapController controller(*core, config);
        TrapRunResult res = controller.run(
            w.trace(), InterruptSource{}, {firstOfPair, firstOfPair + 1});
        ASSERT_TRUE(res.completed) << coreKindName(kind) << ": "
                                   << res.error;
        ASSERT_EQ(res.deliveries.size(), 2u) << coreKindName(kind);
        EXPECT_TRUE(res.deliveries[0].sync && res.deliveries[1].sync);
        // Exactly one instruction commits between the two exchanges.
        EXPECT_EQ(res.deliveries[1].globalInstr,
                  res.deliveries[0].globalInstr +
                      res.handlerInstructions / 2 + 1);
        EXPECT_TRUE(res.oracleFailure.empty()) << res.oracleFailure;
        EXPECT_TRUE(res.state == w.func.finalState) << coreKindName(kind);
        expectReplayMatches(w, config, res, coreKindName(kind));
    }
}

TEST(TrapServicing, AsyncSameCycleAsSyncFaultIsDeterministic)
{
    // An external interrupt at cycle 0 and an injected fault on the
    // first faultable instruction contend for the same cut. The drain
    // rule decides: the interrupt stops decode before the faulting
    // instruction issues, so the async delivery comes first and the
    // fault fires deterministically after the handler returns.
    const Workload &w = loopWorkload();
    SeqNum first = faultableSeqs(w.trace()).front();

    std::vector<Delivery> previous;
    for (int round = 0; round < 2; ++round) {
        auto core = makeCore(CoreKind::Ruu, UarchConfig{});
        TrapConfig config = makeConfig();
        TrapController controller(*core, config);
        TrapRunResult res = controller.run(
            w.trace(), InterruptSource::schedule({{0, 1}}), {first});
        ASSERT_TRUE(res.completed) << res.error;
        ASSERT_EQ(res.deliveries.size(), 2u);
        EXPECT_FALSE(res.deliveries[0].sync);
        EXPECT_EQ(res.deliveries[0].cause, kCauseExternal + 1);
        EXPECT_TRUE(res.deliveries[1].sync);
        EXPECT_EQ(res.deliveries[1].cause, kCausePageFault);
        EXPECT_TRUE(res.oracleFailure.empty()) << res.oracleFailure;
        EXPECT_TRUE(res.state == w.func.finalState);
        expectReplayMatches(w, config, res, "ruu");

        if (round == 0) {
            previous = res.deliveries;
        } else {
            // Bit-for-bit repeatable delivery log.
            ASSERT_EQ(previous.size(), res.deliveries.size());
            for (std::size_t i = 0; i < previous.size(); ++i) {
                EXPECT_EQ(previous[i].cycle, res.deliveries[i].cycle);
                EXPECT_EQ(previous[i].globalInstr,
                          res.deliveries[i].globalInstr);
                EXPECT_EQ(previous[i].cause, res.deliveries[i].cause);
            }
        }
    }
}

TEST(TrapServicing, PeriodicStormOnAllSixCoresReplaysBitExactly)
{
    const Workload &w = loopWorkload();
    for (CoreKind kind : kAllCores) {
        auto core = makeCore(kind, UarchConfig{});
        TrapConfig config = makeConfig();
        TrapController controller(*core, config);
        TrapRunResult res =
            controller.run(w.trace(), InterruptSource::periodic(16));

        ASSERT_TRUE(res.completed) << coreKindName(kind) << ": "
                                   << res.error;
        EXPECT_GE(res.deliveries.size(), 2u) << coreKindName(kind);
        EXPECT_EQ(res.dropped, 0u);
        EXPECT_EQ(res.impreciseSyncDeliveries, 0u);
        EXPECT_TRUE(res.oracleFailure.empty())
            << coreKindName(kind) << ": " << res.oracleFailure;

        // Asynchronous delivery is precise on every core: the whole
        // run — handlers included — must replay bit-exactly.
        expectReplayMatches(w, config, res, coreKindName(kind));

        // The counter handler writes only its scratch area and its own
        // exchange package, which the program never loads: every RTI
        // keeps the program's trace.
        EXPECT_EQ(res.regenerations, 0u) << coreKindName(kind);

        // The handler's scratch counter saw every delivery.
        Word count =
            res.memory.at(config.layout.scratchBase + kCauseExternal + 1);
        EXPECT_EQ(count, res.deliveries.size()) << coreKindName(kind);

        // Servicing never disturbs the program's own results.
        EXPECT_TRUE(res.state == w.func.finalState) << coreKindName(kind);
        EXPECT_EQ(res.memory.at(108), w.func.finalMemory.at(108));
    }
}

TEST(TrapServicing, NestedDeliveryInsideTheHandlerWindow)
{
    const Workload &w = loopWorkload();
    for (CoreKind kind : {CoreKind::Simple, CoreKind::Ruu,
                          CoreKind::SpecRuu, CoreKind::History}) {
        auto core = makeCore(kind, UarchConfig{});
        TrapConfig config = makeConfig();
        config.handler = std::make_shared<const Program>(
            trap::nestedCounterHandler());
        TrapController controller(*core, config);
        // The priority-1 request interrupts the program; the
        // priority-2 request is already pending when the handler opens
        // its EINT window, so it preempts the handler itself.
        TrapRunResult res = controller.run(
            w.trace(), InterruptSource::schedule({{0, 1}, {1, 2}}));

        ASSERT_TRUE(res.completed) << coreKindName(kind) << ": "
                                   << res.error;
        ASSERT_EQ(res.deliveries.size(), 2u) << coreKindName(kind);
        EXPECT_EQ(res.deliveries[0].level, 1u);
        EXPECT_EQ(res.deliveries[0].cause, kCauseExternal + 1);
        EXPECT_EQ(res.deliveries[1].level, 2u);
        EXPECT_EQ(res.deliveries[1].cause, kCauseExternal + 2);
        EXPECT_EQ(res.maxDepth, 2u);
        // The outer handler's latency covers the nested delivery.
        EXPECT_GT(res.deliveries[0].handlerCycles,
                  res.deliveries[1].handlerCycles);
        EXPECT_TRUE(res.oracleFailure.empty())
            << coreKindName(kind) << ": " << res.oracleFailure;
        EXPECT_TRUE(res.state == w.func.finalState) << coreKindName(kind);
        // Both causes counted once, at their own levels.
        EXPECT_EQ(res.memory.at(config.layout.scratchBase +
                                kCauseExternal + 1),
                  1u);
        EXPECT_EQ(res.memory.at(config.layout.scratchBase +
                                kCauseExternal + 2),
                  1u);
        expectReplayMatches(w, config, res, coreKindName(kind));
    }
}

TEST(TrapServicing, WatchdogTurnsARunawaySegmentIntoADiagnostic)
{
    const Workload &w = loopWorkload();
    auto core = makeCore(CoreKind::Ruu, UarchConfig{});
    TrapConfig config;
    config.maxCyclesPerSegment = 3; // far below the loop's runtime
    TrapController controller(*core, config);
    TrapRunResult res = controller.run(w.trace(), InterruptSource{});
    ASSERT_TRUE(res.wedged);
    EXPECT_FALSE(res.completed);
    EXPECT_NE(res.error.find("watchdog"), std::string::npos) << res.error;
    EXPECT_NE(res.error.find("ruu"), std::string::npos) << res.error;
}

TEST(TrapServicing, UnrepairedOrganicFaultFailsWithoutAborting)
{
    // A genuinely out-of-range load: catchable, delivered to the
    // handler — but the stock handler does not repair it, so the
    // instruction faults again on restart and the controller reports
    // the loop instead of spinning or aborting.
    ProgramBuilder b("trap_oob");
    b.amovi(regA(1), 262143); // doubled past the 1Mi-word memory
    b.aadd(regA(1), regA(1), regA(1));
    b.aadd(regA(1), regA(1), regA(1));
    b.aadd(regA(1), regA(1), regA(1));
    b.lds(regS(1), regA(1), 0);
    b.halt();
    auto program = std::make_shared<const Program>(b.build());
    FuncResult func = runFunctional(program);
    ASSERT_EQ(func.fault, Fault::PageFault);

    auto core = makeCore(CoreKind::Ruu, UarchConfig{});
    TrapConfig config = makeConfig();
    TrapController controller(*core, config);
    TrapRunResult res = controller.run(func.trace, InterruptSource{});
    ASSERT_TRUE(res.failed);
    EXPECT_FALSE(res.completed);
    ASSERT_EQ(res.deliveries.size(), 1u);
    EXPECT_TRUE(res.deliveries[0].sync);
    EXPECT_NE(res.error.find("unrepaired"), std::string::npos)
        << res.error;
}

TEST(TrapServicing, StormAcceptanceMatrixOnALivermoreKernel)
{
    // The acceptance shape of `ruusim storm`, in miniature: one
    // kernel, all six cores, two arrival rates, oracle attached, and
    // the delivery-log replay closing every run.
    const Workload &w = livermoreWorkloads()[2]; // lll03: inner product
    for (CoreKind kind : kAllCores) {
        for (Cycle period : {64u, 256u}) {
            auto core = makeCore(kind, UarchConfig{});
            TrapConfig config = makeConfig();
            TrapController controller(*core, config);
            TrapRunResult res = controller.run(
                w.trace(), InterruptSource::periodic(period));
            ASSERT_TRUE(res.completed)
                << coreKindName(kind) << " K=" << period << ": "
                << res.error;
            EXPECT_TRUE(res.oracleFailure.empty())
                << coreKindName(kind) << " K=" << period << ": "
                << res.oracleFailure;
            EXPECT_GE(res.deliveries.size(), 1u);
            EXPECT_GT(res.meanHandlerCycles(), 0.0);
            EXPECT_GE(res.maxHandlerCycles(),
                      static_cast<Cycle>(res.meanHandlerCycles()));
            EXPECT_TRUE(res.state == w.func.finalState)
                << coreKindName(kind) << " K=" << period;
            EXPECT_EQ(res.regenerations, 0u)
                << coreKindName(kind) << " K=" << period;
            expectReplayMatches(w, config, res, coreKindName(kind));
        }
    }
}

// ---------------------------------------------------------------------
// The keep rule: an RTI keeps the interrupted program's trace only when
// re-deriving it would reproduce it. Each handler below breaks one of
// the rule's conditions, so the program's trace must be regenerated —
// and the run must still replay bit-exactly.

/** Word 107 holds the loop's last element (17); it is loaded last. */
constexpr Addr kLastElement = 107;
constexpr Word kPatched = 1000;

/** The loop's sum once the last element reads kPatched. */
constexpr Word kPatchedSum = 10 + 11 + 12 + 13 + 14 + 15 + 16 + kPatched;

/** A handler that overwrites the loop's last element. */
Program
patchingHandler()
{
    ProgramBuilder b("trap_patching_handler");
    b.handler();
    b.amovi(regA(1), kLastElement);
    b.smovi(regS(1), kPatched);
    b.sts(regA(1), 0, regS(1));
    b.rti();
    return b.build();
}

/**
 * A handler that opens an EINT window at level 1 and patches the
 * loop's last element only when entered at level 2 (the nested,
 * priority-2 cause).
 */
Program
nestedPatchingHandler()
{
    ProgramBuilder b("trap_nested_patching_handler");
    b.handler();
    b.mfcause(regS(1));
    b.movas(regA(1), regS(1));
    b.amovi(regA(2), kCauseExternal + 2);
    b.asub(regA(0), regA(1), regA(2));
    b.jaz("nested");
    b.eint(); // preemption window opens
    b.nop();
    b.nop();
    b.nop();
    b.dint(); // window closes
    b.rti();
    b.label("nested");
    b.amovi(regA(3), kLastElement);
    b.smovi(regS(4), kPatched);
    b.sts(regA(3), 0, regS(4));
    b.rti();
    return b.build();
}

/** A handler that restarts the interrupted program from its start. */
Program
restartingHandler()
{
    ProgramBuilder b("trap_restarting_handler");
    b.handler();
    b.smovi(regS(1), 0);
    b.sts(regA(7), trap::kPkgEpc, regS(1)); // saved epc := pc 0
    b.rti();
    return b.build();
}

/** A handler that overwrites the program's running sum, S1. */
Program
sumEditingHandler()
{
    ProgramBuilder b("trap_sum_editing_handler");
    b.handler();
    b.smovi(regS(1), 5000);
    b.sts(regA(7), trap::kPkgS + 1, regS(1)); // saved S1 := 5000
    b.rti();
    return b.build();
}

TEST(TrapKeepRule, HandlerStoreTheProgramLoadsRegenerates)
{
    const Workload &w = loopWorkload();
    for (CoreKind kind : kAllCores) {
        auto core = makeCore(kind, UarchConfig{});
        TrapConfig config = makeConfig();
        config.handler = std::make_shared<const Program>(patchingHandler());
        TrapController controller(*core, config);
        TrapRunResult res =
            controller.run(w.trace(), InterruptSource::schedule({{0, 1}}));
        ASSERT_TRUE(res.completed) << coreKindName(kind) << ": "
                                   << res.error;
        ASSERT_EQ(res.deliveries.size(), 1u) << coreKindName(kind);
        EXPECT_EQ(res.regenerations, 1u) << coreKindName(kind);
        EXPECT_TRUE(res.oracleFailure.empty())
            << coreKindName(kind) << ": " << res.oracleFailure;
        EXPECT_EQ(res.memory.at(108), kPatchedSum) << coreKindName(kind);
        expectReplayMatches(w, config, res, coreKindName(kind));
    }
}

TEST(TrapKeepRule, NestedHandlerStoreRegeneratesTheProgram)
{
    const Workload &w = loopWorkload();
    for (CoreKind kind : kAllCores) {
        auto core = makeCore(kind, UarchConfig{});
        TrapConfig config = makeConfig();
        config.handler =
            std::make_shared<const Program>(nestedPatchingHandler());
        TrapController controller(*core, config);
        TrapRunResult res = controller.run(
            w.trace(), InterruptSource::schedule({{0, 1}, {1, 2}}));
        ASSERT_TRUE(res.completed) << coreKindName(kind) << ": "
                                   << res.error;
        ASSERT_EQ(res.deliveries.size(), 2u) << coreKindName(kind);
        EXPECT_EQ(res.deliveries[1].level, 2u) << coreKindName(kind);
        // The level-1 handler resumes on a regenerated trace, as every
        // handler level does; the program's, because of the level-2
        // store it is about to load.
        EXPECT_EQ(res.regenerations, 2u) << coreKindName(kind);
        EXPECT_TRUE(res.oracleFailure.empty())
            << coreKindName(kind) << ": " << res.oracleFailure;
        EXPECT_EQ(res.memory.at(108), kPatchedSum) << coreKindName(kind);
        expectReplayMatches(w, config, res, coreKindName(kind));
    }
}

TEST(TrapKeepRule, SavedEpcEditRegenerates)
{
    const Workload &w = loopWorkload();
    for (CoreKind kind : kAllCores) {
        auto core = makeCore(kind, UarchConfig{});
        TrapConfig config = makeConfig();
        config.handler =
            std::make_shared<const Program>(restartingHandler());
        TrapController controller(*core, config);
        TrapRunResult res = controller.run(
            w.trace(), InterruptSource::schedule({{30, 1}}));
        ASSERT_TRUE(res.completed) << coreKindName(kind) << ": "
                                   << res.error;
        ASSERT_EQ(res.deliveries.size(), 1u) << coreKindName(kind);
        ASSERT_NE(res.deliveries[0].epc, 0u) << coreKindName(kind);
        EXPECT_EQ(res.regenerations, 1u) << coreKindName(kind);
        EXPECT_TRUE(res.oracleFailure.empty())
            << coreKindName(kind) << ": " << res.oracleFailure;
        // The restart re-ran a prefix of the program, which recomputes
        // the same result.
        EXPECT_GT(res.instructions - res.handlerInstructions,
                  w.trace().size())
            << coreKindName(kind);
        EXPECT_TRUE(res.state == w.func.finalState) << coreKindName(kind);
        expectReplayMatches(w, config, res, coreKindName(kind));
    }
}

TEST(TrapKeepRule, SavedFrameEditRegenerates)
{
    const Workload &w = loopWorkload();
    for (CoreKind kind : kAllCores) {
        auto core = makeCore(kind, UarchConfig{});
        TrapConfig config = makeConfig();
        config.handler =
            std::make_shared<const Program>(sumEditingHandler());
        TrapController controller(*core, config);
        TrapRunResult res = controller.run(
            w.trace(), InterruptSource::schedule({{30, 1}}));
        ASSERT_TRUE(res.completed) << coreKindName(kind) << ": "
                                   << res.error;
        ASSERT_EQ(res.deliveries.size(), 1u) << coreKindName(kind);
        EXPECT_EQ(res.regenerations, 1u) << coreKindName(kind);
        EXPECT_TRUE(res.oracleFailure.empty())
            << coreKindName(kind) << ": " << res.oracleFailure;
        EXPECT_GT(res.memory.at(108), 5000u) << coreKindName(kind);
        expectReplayMatches(w, config, res, coreKindName(kind));
    }
}

// ---------------------------------------------------------------------
// The storm cell shared by `ruusim storm` and ruusimd's period jobs.

TEST(StormCellTest, FitsTheTrapAreaAboveTheProgramsData)
{
    const Workload &w = loopWorkload(); // highest word: 108
    TrapConfig config;
    trap::fitTrapMemory(config, w.trace());
    EXPECT_EQ(config.layout.exchangeBase, 0x800u);
    EXPECT_EQ(config.layout.scratchBase, 0x1000u);
    EXPECT_EQ(config.memoryWords, 0x1000u + trap::kScratchWords);

    // Data inside the default exchange area pushes the trap area past
    // it, on the next 0x800 boundary.
    ProgramBuilder b("trap_high_data");
    b.word(0xff018, 7);
    b.amovi(regA(1), 0xff018);
    b.lds(regS(1), regA(1), 0);
    b.halt();
    Workload high = makeWorkload(b.build());
    trap::fitTrapMemory(config, high.trace());
    EXPECT_EQ(config.layout.exchangeBase, 0xff800u);
    EXPECT_EQ(config.layout.scratchBase, 0x100000u);
    for (CoreKind kind : kAllCores) {
        trap::StormCell cell(high, kind, UarchConfig{});
        trap::StormRun run = cell.run(16, false);
        EXPECT_TRUE(run.ok()) << coreKindName(kind) << ": " << run.failure;
        EXPECT_EQ(run.result.memory.at(0xff018), 7u) << coreKindName(kind);
    }
}

TEST(StormCellTest, ReproducesTheStormJsonLine)
{
    const Workload &w = livermoreWorkloads()[2]; // lll03
    trap::StormCell cell(w, CoreKind::Ruu, UarchConfig::cray1());
    trap::StormRun run = cell.run(64, true);
    EXPECT_EQ(run.result.regenerations, 0u);
    EXPECT_EQ(cell.json(run),
              "{\"workload\": \"lll03\", \"core\": \"ruu\", \"k\": 64, "
              "\"deliveries\": 1998, \"handler_mean_cycles\": 45.00, "
              "\"handler_max_cycles\": 45, \"cycles\": 127875, "
              "\"baseline_cycles\": 19518, \"degradation_pct\": 555.16, "
              "\"wcirt\": 327, \"max_delivery_latency\": 34, "
              "\"pct_ceiling\": 10.40, \"ok\": true, \"pruned\": false}");
}

TEST(StormCellTest, CheckReportsEachFailureReason)
{
    const Workload &w = loopWorkload();
    TrapConfig config = makeConfig();

    TrapRunResult res;
    res.completed = true;
    res.oracleFailure = "seq 3: committed record does not match";
    EXPECT_EQ(trap::checkStormRun(w.program, config, res),
              res.oracleFailure);

    res.failed = true;
    res.error = "double fault";
    EXPECT_EQ(trap::checkStormRun(w.program, config, res), "double fault");

    // A clean controller verdict still has to survive the replay: an
    // empty delivery log replays the bare program, whose final memory
    // this result does not carry.
    TrapRunResult unreplayed;
    unreplayed.completed = true;
    EXPECT_EQ(trap::checkStormRun(w.program, config, unreplayed),
              "timing run and functional replay disagree on the final "
              "state");
}

} // namespace
} // namespace ruu
