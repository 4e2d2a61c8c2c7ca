/**
 * @file
 * Configuration of the modeled microarchitecture.
 *
 * Defaults reproduce the paper's model architecture (§2): CRAY-1 scalar
 * functional-unit latencies, a single result bus, a single decode-and-
 * issue unit, 6 load registers, and 3-bit NI/LI instance counters.
 */

#ifndef RUU_UARCH_CONFIG_HH
#define RUU_UARCH_CONFIG_HH

#include <array>
#include <cstdint>
#include <string>

#include "isa/opcode.hh"

namespace ruu
{

/** RUU source-operand bypass variants evaluated in the paper's §6. */
enum class BypassMode : std::uint8_t
{
    Full,     //!< §6.1, Table 4: read executed results out of the RUU
    None,     //!< §6.2, Table 5: monitor the result and commit buses only
    LimitedA, //!< §6.3, Table 6: duplicate (future) A register file
    /**
     * §4's full future file (Smith & Pleszkun): every register file is
     * duplicated and updated from the result bus; the architectural
     * copy is updated in order at commit. The paper asserts this
     * "achieves the same performance as a reorder buffer with bypass
     * logic" — the reproduction verifies the equivalence exactly
     * (claim `future_file_equals_full_bypass`, tests/test_paper.cc).
     */
    FutureFile,
};

/** Printable bypass-mode name. */
const char *bypassModeName(BypassMode mode);

/** Branch predictors for the §7 conditional-execution extension. */
enum class PredictorKind : std::uint8_t
{
    AlwaysTaken,    //!< static: predict every branch taken
    AlwaysNotTaken, //!< static: predict every branch not taken
    Btfn,           //!< static: backward taken, forward not taken
    Smith2Bit,      //!< dynamic: table of 2-bit saturating counters
};

/** Printable predictor name. */
const char *predictorKindName(PredictorKind kind);

/** All tunables of the modeled machine. */
struct UarchConfig
{
    /**
     * Functional-unit latency by FuKind, in cycles from dispatch to the
     * result appearing on the result bus. Defaults are the CRAY-1
     * scalar unit times the paper models.
     */
    std::array<unsigned, kNumFuKinds> fuLatency = {
        2,  // AddrAdd
        6,  // AddrMul
        3,  // ScalarAdd
        1,  // ScalarLogical
        2,  // ScalarShift
        3,  // PopLz
        6,  // FpAdd
        7,  // FpMul
        14, // FpRecip
        11, // Memory (scalar load)
        1,  // Transmit
        0,  // None (branches resolve in the issue stage)
    };

    /**
     * Functional units per FuKind. The paper's model machine has one
     * unit of every class (the CRAY-1 scalar unit set); larger counts
     * are consumed by the resource-bound analyzer
     * (lint/resource_bound.hh), whose per-class service floors divide
     * by them. The timing cores currently always model one unit per
     * class, so counts above one only loosen the analyzer's floor —
     * which keeps the bound sound.
     */
    std::array<unsigned, kNumFuKinds> fuCount = {
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    };

    /**
     * Cycles for a store to hand its address/data to the memory unit
     * and publish the data for load forwarding.
     */
    unsigned storeLatency = 1;

    /** Cycles for a load satisfied by load-register forwarding. */
    unsigned forwardLatency = 1;

    /** Dead cycles after a taken branch resolves (CRAY-1-like). */
    unsigned branchTakenPenalty = 5;

    /** Dead cycles after an untaken conditional branch resolves. */
    unsigned branchUntakenPenalty = 2;

    /** Load registers for memory disambiguation (§3.2.1.2). */
    unsigned loadRegisters = 6;

    /** Width n of the NI/LI instance counters (§5); max 2^n-1 copies. */
    unsigned counterBits = 3;

    /** Entries in the RSTU pool / RUU queue. */
    unsigned poolEntries = 10;

    /** Data paths from the merged pool to the FUs (Table 2 vs 3). */
    unsigned dispatchPaths = 1;

    /** Instructions the RUU may commit per cycle. */
    unsigned commitWidth = 1;

    /**
     * Result buses (same-cycle delivery slots). The paper's model has
     * one; the real CRAY-1 scalar unit had separate address and scalar
     * result buses, approximated by 2 (§2; the result_buses block of
     * EXPERIMENTS.md).
     */
    unsigned resultBuses = 1;

    /**
     * Interleaved memory banks; 0 disables bank-conflict modeling,
     * matching the paper's §2.2 assumption (i). The CRAY-1 had 16.
     */
    unsigned memoryBanks = 0;

    /** Bank recovery time after an access (CRAY-1: 4 cycles). */
    unsigned bankBusyCycles = 4;

    /** History-buffer entries (HistoryCore, the §4 alternative). */
    unsigned historyEntries = 16;

    /** Tag Unit entries (TomasuloCore). */
    unsigned tuEntries = 10;

    /** Reservation stations per functional unit (TomasuloCore). */
    unsigned rsPerFu = 2;

    /** RUU bypass variant (RuuCore). */
    BypassMode bypass = BypassMode::Full;

    // --- §7 conditional-execution extension (SpecRuuCore) --------------

    /** Branch predictor driving conditional execution. */
    PredictorKind predictor = PredictorKind::Smith2Bit;

    /** log2 of the Smith counter table size. */
    unsigned predictorTableBits = 8;

    /** Fetch bubble after a predicted-taken branch (with a BTB). */
    unsigned predictedTakenPenalty = 1;

    /** Dead cycles from a mispredicted branch's resolution to redirect. */
    unsigned mispredictPenalty = 5;

    /**
     * Run the microarchitectural invariant checker
     * (lint/invariant_checker.hh) every cycle; Core::run panics when a
     * run finishes with violations. Also enabled for every core by
     * setting the RUU_CHECK_INVARIANTS environment variable non-empty.
     */
    bool checkInvariants = false;

    /** Latency of @p kind. */
    unsigned latency(FuKind kind) const
    {
        return fuLatency[static_cast<unsigned>(kind)];
    }

    /** Number of units of @p kind. */
    unsigned units(FuKind kind) const
    {
        return fuCount[static_cast<unsigned>(kind)];
    }

    /** The paper's model machine (all defaults). */
    static UarchConfig cray1() { return UarchConfig{}; }

    /**
     * Upper bound validate() puts on each buffer size: poolEntries,
     * tuEntries, historyEntries, loadRegisters and rsPerFu. Far above
     * the paper's largest window (50), and small enough that a
     * mistyped size is a diagnostic rather than a failed allocation.
     */
    static constexpr unsigned kMaxEntries = 4096;

    /** Validate ranges; returns an error message or "" when valid. */
    std::string validate() const;
};

} // namespace ruu

#endif // RUU_UARCH_CONFIG_HH
