#include "gpu/scoreboard.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace emerald::gpu
{

using isa::Instruction;
using isa::Opcode;
using isa::Operand;

Scoreboard::Scoreboard(unsigned num_warps)
    : _pendingWrites(static_cast<std::size_t>(num_warps) * numSlots, 0),
      _pendingTotal(num_warps, 0)
{
}

SlotList
Scoreboard::destSlots(const Instruction &instr)
{
    SlotList slots;
    if (instr.op == Opcode::SETP) {
        slots.push_back(predSlot(instr.dst.index));
        return slots;
    }
    if (instr.dst.kind == Operand::Kind::Reg) {
        unsigned count = instr.op == Opcode::TEX ? 4 : 1;
        for (unsigned i = 0; i < count; ++i)
            slots.push_back(static_cast<unsigned>(instr.dst.index) + i);
    }
    return slots;
}

bool
Scoreboard::ready(unsigned warp, const Instruction &instr) const
{
    if (instr.guard >= 0 && pending(warp, predSlot(instr.guard)))
        return false;
    // BLEND/STFB read an RGBA quad per register operand.
    unsigned width =
        (instr.op == Opcode::BLEND || instr.op == Opcode::STFB) ? 4 : 1;
    for (const Operand &src : instr.src) {
        if (src.kind == Operand::Kind::Reg) {
            for (unsigned i = 0; i < width; ++i) {
                if (pending(warp, static_cast<unsigned>(src.index) + i))
                    return false;
            }
        } else if (src.kind == Operand::Kind::Pred &&
                   pending(warp, predSlot(src.index))) {
            return false;
        }
    }
    for (unsigned slot : destSlots(instr)) {
        if (pending(warp, slot))
            return false;
    }
    return true;
}

void
Scoreboard::markPending(unsigned warp, const SlotList &slots)
{
    for (unsigned slot : slots)
        ++_pendingWrites[warp * numSlots + slot];
    _pendingTotal[warp] += slots.size();
}

void
Scoreboard::release(unsigned warp, const SlotList &slots)
{
    for (unsigned slot : slots) {
        auto &count = _pendingWrites[warp * numSlots + slot];
        panic_if(count == 0, "scoreboard underflow");
        --count;
    }
    _pendingTotal[warp] -= slots.size();
}

void
Scoreboard::resetWarp(unsigned warp)
{
    auto first = _pendingWrites.begin() +
                 static_cast<std::ptrdiff_t>(warp * numSlots);
    std::fill(first, first + numSlots, 0);
    _pendingTotal[warp] = 0;
}

} // namespace emerald::gpu
