/**
 * @file
 * Per-warp register scoreboard: tracks pending writes so the issue
 * logic can enforce RAW/WAW dependences. Predicates are tracked in
 * the same namespace, offset past the general registers.
 */

#ifndef EMERALD_GPU_SCOREBOARD_HH
#define EMERALD_GPU_SCOREBOARD_HH

#include <array>
#include <cstdint>
#include <vector>

#include "gpu/isa/instruction.hh"

namespace emerald::gpu
{

/**
 * The register/predicate slots one instruction writes: at most four
 * (a TEX quad). Fixed-size so the issue path never allocates.
 */
class SlotList
{
  public:
    static constexpr unsigned capacity = 4;

    void
    push_back(unsigned slot)
    {
        _slots[_size++] = static_cast<std::uint8_t>(slot);
    }

    const std::uint8_t *begin() const { return _slots.data(); }
    const std::uint8_t *end() const { return _slots.data() + _size; }
    unsigned size() const { return _size; }
    bool empty() const { return _size == 0; }

  private:
    std::array<std::uint8_t, capacity> _slots{};
    std::uint8_t _size = 0;
};

class Scoreboard
{
  public:
    /** Slot index of a predicate register in the pending table. */
    static constexpr unsigned
    predSlot(int pred)
    {
        return isa::maxRegs + static_cast<unsigned>(pred);
    }

    static constexpr unsigned numSlots = isa::maxRegs + isa::maxPreds;
    static_assert(numSlots <= 256, "SlotList stores slots as bytes");

    explicit Scoreboard(unsigned num_warps);

    /** Registers written by @p instr (dest regs; quads for TEX). */
    static SlotList destSlots(const isa::Instruction &instr);

    /**
     * True when @p instr has no hazard in warp @p warp: none of the
     * register/pred slots it reads (incl. guard, bases) or writes has
     * a pending write.
     */
    bool ready(unsigned warp, const isa::Instruction &instr) const;

    /** Mark @p slots pending in @p warp (one write each). */
    void markPending(unsigned warp, const SlotList &slots);

    /** Release one pending write on each of @p slots. */
    void release(unsigned warp, const SlotList &slots);

    /** True when nothing is pending for @p warp. */
    bool idle(unsigned warp) const { return _pendingTotal[warp] == 0; }

    /** Clear all state for @p warp (new task assigned). */
    void resetWarp(unsigned warp);

  private:
    bool pending(unsigned warp, unsigned slot) const
    {
        return _pendingWrites[warp * numSlots + slot] != 0;
    }

    std::vector<std::uint8_t> _pendingWrites;
    /** Sum of each warp's pending writes, so idle() is O(1). */
    std::vector<unsigned> _pendingTotal;
};

} // namespace emerald::gpu

#endif // EMERALD_GPU_SCOREBOARD_HH
