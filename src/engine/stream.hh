/**
 * @file
 * Pre-decoded micro-op streams — the data side of compiled simulation.
 *
 * A CompiledStream is the one-time answer to every trace-invariant
 * question the cycle loops ask about a record: opcode class flags,
 * functional-unit kind, register operands in flat form, and the
 * dynamic dependence edges (last register writer per source, last
 * store to the loaded word). It is a dense structure of arrays so the
 * hot loop touches one flag word per record instead of re-decoding
 * through the opcode table (whose accessors carry always-on asserts).
 *
 * Streams are immutable once built and shared read-only. A stream is
 * one of its trace's artifacts (trace/trace.hh): the parallel sweep
 * workers (src/par) all resolve the same kernel to the same Trace
 * object, so each trace is decoded once, and the stream is freed with
 * the trace.
 *
 * Fault annotations are deliberately NOT part of the stream. They are
 * the only mutable field of a trace (Trace::injectFault), and the
 * cores read them straight from the live TraceRecord — so a stream
 * stays valid across the thousands of injectFault/clearFaults
 * mutations of a fault-sweep campaign, and the trace copies a sweep
 * annotates share it.
 */

#ifndef RUU_ENGINE_STREAM_HH
#define RUU_ENGINE_STREAM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "isa/opcode.hh"
#include "trace/trace.hh"

namespace ruu::engine
{

/** Per-record opcode-class flags (bitwise OR in CompiledStream). */
enum : std::uint16_t
{
    kOpBranch = 1u << 0,      //!< any branch form
    kOpCondBranch = 1u << 1,  //!< conditional branch
    kOpLoad = 1u << 2,
    kOpStore = 1u << 3,
    kOpMem = 1u << 4,         //!< load or store
    kOpNopLike = 1u << 5,     //!< NOP / RTI / EINT / DINT
    kOpProgramExit = 1u << 6, //!< HALT / RTI
    kOpHalt = 1u << 7,
    kOpWritesReg = 1u << 8,   //!< valid destination register
    kOpTaken = 1u << 9,       //!< branch outcome (trace-static)
};

/** The pre-decoded form of one whole trace. */
struct CompiledStream
{
    /** Opcode-class flag word per dynamic instruction. */
    std::vector<std::uint16_t> flags;

    /** Functional-unit kind per dynamic instruction. */
    std::vector<FuKind> fu;

    /** Opcode per dynamic instruction. */
    std::vector<Opcode> op;

    /** Flat destination register, or -1 when none. */
    std::vector<std::int16_t> dst;

    /** Flat source registers, or -1 when absent. */
    std::vector<std::int16_t> src1, src2;

    /**
     * Dependence edges: producing dynamic instruction of each source
     * register (kNoSeqNum when the value predates the trace), and of
     * the loaded word for loads (the last store to that address).
     */
    std::vector<SeqNum> depSrc1, depSrc2, depMem;

    /** Number of dynamic instructions. */
    std::size_t size() const { return flags.size(); }
};

/** Decode @p trace into a stream. Linear in trace length. */
CompiledStream compileStream(const Trace &trace);

/** Hit/lookup counters of cachedStream, summed over every trace. */
struct StreamCacheStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
};

/**
 * The stream of @p trace, decoded on its first lookup and kept among
 * the trace's artifacts (it depends on nothing else — not the config,
 * not fault annotations). Thread-safe; the returned stream is
 * immutable and shared.
 */
std::shared_ptr<const CompiledStream> cachedStream(const Trace &trace);

/** Counters of cachedStream since process start. */
StreamCacheStats streamCacheStats();

} // namespace ruu::engine

#endif // RUU_ENGINE_STREAM_HH
