/**
 * @file
 * Port-registration helpers shared by the timing cores.
 *
 * The out-of-order cores all build their pipelines from InflightOp
 * reservation-station entries plus a few cursors; these helpers give
 * every core the same port naming and the same safety rules (index-like
 * fields wrap to their structure's capacity, host pointers are never
 * registered).
 */

#ifndef RUU_INJECT_PORTS_HH
#define RUU_INJECT_PORTS_HH

#include <string>

#include "core/window_core.hh"
#include "inject/fault_port.hh"

namespace ruu::inject
{

/**
 * Register the flippable fields of one reservation-station entry.
 * The entry's sequence number indexes the trace (its decoded FU and
 * halt flag are looked up by it), so it wraps to @p trace_length.
 * @p dest_tag_wrap is nonzero for cores whose destination tag indexes
 * a structure (the Tomasulo Tag Unit): a flipped tag then lands on a
 * real slot instead of outside the array. The `rec` pointer and the
 * `loadReg` host index are deliberately not ports.
 */
inline void
exposeInflightOp(FaultPortSet &ports, const std::string &prefix,
                 InflightOp &op, std::uint64_t trace_length,
                 std::uint64_t dest_tag_wrap = 0)
{
    ports.addFlag(prefix + ".valid", op.valid);
    ports.add(prefix + ".seq", PortClass::Sequence, op.seq, 32,
              trace_length);
    ports.add(prefix + ".destTag", PortClass::Tag, op.destTag, 32,
              dest_tag_wrap);
    for (unsigned s = 0; s < 2; ++s) {
        std::string sp = prefix + ".src" + std::to_string(s);
        ports.addFlag(sp + ".needed", op.src[s].needed);
        ports.addFlag(sp + ".ready", op.src[s].ready);
        ports.add(sp + ".tag", PortClass::Tag, op.src[s].tag, 32);
    }
    ports.addFlag(prefix + ".isLoad", op.isLoad);
    ports.addFlag(prefix + ".isStore", op.isStore);
    ports.addFlag(prefix + ".addrResolved", op.addrResolved);
    ports.addFlag(prefix + ".forwarded", op.forwarded);
    ports.addFlag(prefix + ".fwdDataReady", op.fwdDataReady);
    ports.add(prefix + ".fwdTag", PortClass::Tag, op.fwdTag, 32);
    ports.addFlag(prefix + ".dispatched", op.dispatched);
    ports.addFlag(prefix + ".executed", op.executed);
    ports.addFlag(prefix + ".faulted", op.faulted);
    ports.addFlag(prefix + ".lrReleased", op.lrReleased);
    ports.add(prefix + ".completeCycle", PortClass::Sequence,
              op.completeCycle, 32);
}

/** Register a queue cursor that must stay inside [0, wrap). */
inline void
exposeCursor(FaultPortSet &ports, const std::string &name,
             unsigned &value, std::uint64_t wrap)
{
    ports.add(name, PortClass::Sequence, value, 32, wrap);
}

} // namespace ruu::inject

#endif // RUU_INJECT_PORTS_HH
