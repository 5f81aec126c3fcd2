#include "cache/mshr.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace emerald::cache
{

MshrFile::MshrFile(unsigned num_entries, unsigned targets_per_entry)
    : _targetsPerEntry(targets_per_entry), _slots(num_entries),
      _lineOf(num_entries, freeSlot)
{
}

std::size_t
MshrFile::slotOf(Addr line_addr) const
{
    return static_cast<std::size_t>(
        std::find(_lineOf.begin(), _lineOf.end(), line_addr) -
        _lineOf.begin());
}

Mshr *
MshrFile::find(Addr line_addr)
{
    std::size_t slot = slotOf(line_addr);
    return slot < _slots.size() ? &_slots[slot] : nullptr;
}

Mshr &
MshrFile::allocate(Addr line_addr)
{
    panic_if(!available(), "MSHR file overflow");
    panic_if(find(line_addr), "duplicate MSHR for line 0x%llx",
             (unsigned long long)line_addr);
    std::size_t slot = slotOf(freeSlot);
    _lineOf[slot] = line_addr;
    ++_inUse;
    Mshr &mshr = _slots[slot];
    mshr.lineAddr = line_addr;
    return mshr;
}

void
MshrFile::release(Addr line_addr)
{
    std::size_t slot = slotOf(line_addr);
    panic_if(slot == _slots.size(), "releasing unknown MSHR 0x%llx",
             (unsigned long long)line_addr);
    _lineOf[slot] = freeSlot;
    --_inUse;
    Mshr &mshr = _slots[slot];
    mshr.fillSent = false;
    mshr.targets.clear();
}

std::vector<const Mshr *>
MshrFile::sortedEntries() const
{
    std::vector<const Mshr *> live;
    live.reserve(_inUse);
    for (std::size_t slot = 0; slot < _slots.size(); ++slot) {
        if (_lineOf[slot] != freeSlot)
            live.push_back(&_slots[slot]);
    }
    std::sort(live.begin(), live.end(),
              [](const Mshr *a, const Mshr *b) {
                  return a->lineAddr < b->lineAddr;
              });
    return live;
}

} // namespace emerald::cache
