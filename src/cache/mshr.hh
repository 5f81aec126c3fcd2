/**
 * @file
 * Miss status holding registers for the non-blocking caches.
 */

#ifndef EMERALD_CACHE_MSHR_HH
#define EMERALD_CACHE_MSHR_HH

#include <vector>

#include "sim/packet.hh"
#include "sim/types.hh"

namespace emerald::cache
{

/** One outstanding line fill with its waiting requests. */
struct Mshr
{
    Addr lineAddr = 0;
    bool fillSent = false;
    /** Original requests to answer once the line arrives. */
    std::vector<MemPacket *> targets;
};

/**
 * A fixed-capacity MSHR file: a slot array searched linearly by line
 * address (the configured caches have at most 16 MSHRs). A released
 * slot keeps its target vector's capacity, so misses in steady state
 * allocate nothing.
 */
class MshrFile
{
  public:
    MshrFile(unsigned num_entries, unsigned targets_per_entry);

    /** Look up the MSHR covering @p line_addr, or nullptr. */
    Mshr *find(Addr line_addr);

    /** True when a new MSHR can be allocated. */
    bool available() const { return _inUse < _slots.size(); }

    /**
     * Allocate an MSHR for @p line_addr.
     * @pre available() and no entry for the line exists.
     */
    Mshr &allocate(Addr line_addr);

    /** True when @p mshr can absorb one more target. */
    bool
    canAddTarget(const Mshr &mshr) const
    {
        return mshr.targets.size() < _targetsPerEntry;
    }

    /** Release the MSHR for @p line_addr. */
    void release(Addr line_addr);

    std::size_t inUse() const { return _inUse; }

    /** All live entries sorted by line address, for checkpointing. */
    std::vector<const Mshr *> sortedEntries() const;

  private:
    /** Slot index holding @p line_addr, or _slots.size(). */
    std::size_t slotOf(Addr line_addr) const;

    /** Line addresses are line-aligned, so this never matches one. */
    static constexpr Addr freeSlot = ~Addr(0);

    unsigned _targetsPerEntry;
    std::vector<Mshr> _slots;
    /** Line address per slot (freeSlot when free): the search key. */
    std::vector<Addr> _lineOf;
    std::size_t _inUse = 0;
};

} // namespace emerald::cache

#endif // EMERALD_CACHE_MSHR_HH
