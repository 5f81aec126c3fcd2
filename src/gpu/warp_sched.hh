/**
 * @file
 * Pluggable warp-scheduling policies for the SIMT cores.
 *
 * Each SimtCore scheduler lane owns a fixed, interleaved subset of the
 * warp slots (slot % schedulers == lane). The core keeps, per lane, a
 * mask of the owned slots that are eligible to issue this cycle
 * (docs/scheduling.md lists what makes a slot eligible); when it is
 * non-zero, the lane's WarpScheduler picks one slot from it, and the
 * core issues that warp and reports the choice back through issued().
 *
 * Policies register by name in a factory registry (--warp-sched picks
 * one at run time); createWarpScheduler() is the only construction
 * path, so adding a policy never touches the core. Built in:
 *
 *   lrr   Loose round-robin over the owned slots — the default, and
 *         bit-identical in issue order to the core's original scan.
 *   gto   Greedy-then-oldest: stay on the last-issued warp while it
 *         remains ready, else fall back to the oldest resident warp.
 *   wasp  WaSP-style lookahead (PAPERS.md): warps closest to their
 *         next memory instruction issue first, mimicking a prefetcher
 *         by pulling memory traffic earlier into the frame.
 */

#ifndef EMERALD_GPU_WARP_SCHED_HH
#define EMERALD_GPU_WARP_SCHED_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gpu/warp.hh"

namespace emerald::gpu
{

/** The --warp-sched policy used when none is requested. */
inline constexpr const char *defaultWarpSchedPolicy = "lrr";

class WarpScheduler
{
  public:
    WarpScheduler(std::vector<unsigned> owned, unsigned scheduler_id)
        : _owned(std::move(owned)), _id(scheduler_id)
    {}

    virtual ~WarpScheduler() = default;

    /**
     * Choose the warp to issue this cycle. Bit k of @p eligible is
     * set when owned slot ownedSlots()[k] is valid, unblocked and
     * scoreboard-ready; @p eligible is never 0. Returns the chosen
     * slot (a warp-array index whose bit is set). Every policy's
     * choice is the highest-priority eligible slot under a total
     * order that breaks ties by slot.
     */
    virtual unsigned pick(const std::vector<Warp> &warps,
                          std::uint64_t eligible) = 0;

    /** The core issued from @p slot this cycle. */
    virtual void issued(unsigned slot) { (void)slot; }

    virtual const char *policyName() const = 0;

    /**
     * Policy-private cursor state for checkpointing (e.g. the LRR
     * rotation point). One u64 is enough for every built-in policy;
     * stateless policies keep the 0 default.
     */
    virtual std::uint64_t cursorState() const { return 0; }
    virtual void setCursorState(std::uint64_t state) { (void)state; }

    const std::vector<unsigned> &ownedSlots() const { return _owned; }
    unsigned schedulerId() const { return _id; }

  protected:
    /** Owned warp slots, ascending; bit k of a mask is _owned[k]. */
    std::vector<unsigned> _owned;
    unsigned _id;
};

using WarpSchedulerFactory =
    std::function<std::unique_ptr<WarpScheduler>(
        std::vector<unsigned> owned, unsigned scheduler_id)>;

/**
 * Register a policy under @p policy (fatal on duplicates). Policies
 * self-register lazily inside the registry accessor, never through
 * static initializers — those are linker-stripped from static
 * libraries.
 */
void registerWarpScheduler(const std::string &policy,
                           WarpSchedulerFactory factory);

/**
 * Construct the named policy for one scheduler lane. An empty
 * @p policy selects defaultWarpSchedPolicy; an unknown name is fatal
 * with a near-miss suggestion.
 */
std::unique_ptr<WarpScheduler>
createWarpScheduler(const std::string &policy,
                    std::vector<unsigned> owned, unsigned scheduler_id);

/** All registered policy names, sorted. */
std::vector<std::string> warpSchedulerPolicies();

} // namespace emerald::gpu

#endif // EMERALD_GPU_WARP_SCHED_HH
