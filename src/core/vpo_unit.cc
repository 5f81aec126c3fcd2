#include "core/vpo_unit.hh"

#include <algorithm>

#include "core/wt_mapping.hh"
#include "sim/logging.hh"

namespace emerald::core
{

void
Pmrb::reset()
{
    _masks.clear();
    _nextExpected = 0;
}

void
Pmrb::insert(PrimitiveMask mask)
{
    panic_if(mask.count == 0, "empty primitive mask");
    auto [it, inserted] = _masks.emplace(mask.firstSeq, std::move(mask));
    panic_if(!inserted, "duplicate PMRB mask for seq %llu",
             (unsigned long long)it->first);
}

PrimitiveMask
Pmrb::pop(bool ooo)
{
    panic_if(!ready(ooo), "PMRB pop with no %s mask ready",
             ooo ? "buffered" : "in-order");
    PrimitiveMask mask = std::move(_masks.begin()->second);
    _masks.erase(_masks.begin());
    // In order this is the mask's end; out of order it never moves
    // back, which keeps in-order consumers sane if modes are mixed
    // across draws.
    _nextExpected =
        std::max(_nextExpected, mask.firstSeq + mask.count);
    return mask;
}

std::vector<std::uint32_t>
computeClusterMasks(const std::vector<PrimRecord> &prims,
                    const WtMapping &mapping,
                    unsigned cores_per_cluster, unsigned num_clusters)
{
    std::vector<std::uint32_t> masks(num_clusters, 0);
    for (std::size_t slot = 0; slot < prims.size(); ++slot) {
        const PrimRecord &prim = prims[slot];
        if (prim.culled())
            continue;
        for (int ty = prim.tcY0; ty <= prim.tcY1; ++ty) {
            for (int tx = prim.tcX0; tx <= prim.tcX1; ++tx) {
                if (tx < 0 || ty < 0 ||
                    tx >= static_cast<int>(mapping.tcCols()) ||
                    ty >= static_cast<int>(mapping.tcRows())) {
                    continue;
                }
                unsigned core =
                    mapping.coreOf(static_cast<unsigned>(tx),
                                   static_cast<unsigned>(ty));
                unsigned cluster = core / cores_per_cluster;
                masks[cluster] |= 1u << slot;
            }
        }
    }
    return masks;
}

} // namespace emerald::core
