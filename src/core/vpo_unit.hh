/**
 * @file
 * The Vertex Processing and Operations (VPO) unit (paper Fig. 6).
 *
 * When a vertex warp finishes shading, bounding boxes are computed
 * for each primitive it covers and a warp-sized primitive mask is
 * produced per SIMT cluster: bit i set means primitive i overlaps
 * screen space owned by that cluster. Masks are delivered to every
 * cluster's Primitive Mask Reorder Buffer (PMRB), which releases
 * primitives strictly in draw-call order.
 */

#ifndef EMERALD_CORE_VPO_UNIT_HH
#define EMERALD_CORE_VPO_UNIT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/rasterizer.hh"

namespace emerald::core
{

/** One post-clip primitive, shared by the clusters that raster it. */
struct PrimRecord
{
    /** Draw-order sequence number of the primitive slot. */
    std::uint64_t seq = 0;
    /** Post-clip triangles (near clip may fan out up to 3). */
    std::vector<SetupPrim> tris;
    /** TC-tile bounding box over all triangles (inclusive). */
    int tcX0 = 0, tcY0 = 0, tcX1 = -1, tcY1 = -1;

    bool culled() const { return tris.empty(); }
};

/** A per-cluster primitive mask for one vertex warp. */
struct PrimitiveMask
{
    std::uint64_t firstSeq = 0;
    unsigned count = 0;
    /** Bit i: primitive (firstSeq + i) covers this cluster. */
    std::uint32_t bits = 0;
    /** Primitive payloads, indexed by slot. */
    std::shared_ptr<std::vector<PrimRecord>> prims;
};

/**
 * The PMRB: collects masks out of order, releases primitive slots in
 * sequence order (paper Fig. 6 element 4).
 */
class Pmrb
{
  public:
    /** Prepare for a new draw. */
    void reset();

    /** Insert a mask (keyed by its firstSeq). */
    void insert(PrimitiveMask mask);

    /**
     * True when a mask can be consumed: the next in-order one or, with
     * @p ooo, any buffered one.
     */
    bool
    ready(bool ooo) const
    {
        return !_masks.empty() &&
               (ooo || _masks.begin()->first == _nextExpected);
    }

    /**
     * Pop the lowest-sequence buffered mask. With @p ooo it may skip
     * masks that have not arrived: out-of-order primitive rendering
     * (paper Section 3.3.6: safe when depth testing is enabled and
     * blending is disabled). @pre ready(ooo).
     */
    PrimitiveMask pop(bool ooo);

    std::uint64_t nextExpected() const { return _nextExpected; }
    bool empty() const { return _masks.empty(); }

  private:
    std::uint64_t _nextExpected = 0;
    std::map<std::uint64_t, PrimitiveMask> _masks;
};

/**
 * Bounding-box based cluster mask computation (paper Fig. 6
 * elements 2-3). Returns one mask word per cluster.
 */
class WtMapping;

std::vector<std::uint32_t>
computeClusterMasks(const std::vector<PrimRecord> &prims,
                    const WtMapping &mapping,
                    unsigned cores_per_cluster, unsigned num_clusters);

} // namespace emerald::core

#endif // EMERALD_CORE_VPO_UNIT_HH
