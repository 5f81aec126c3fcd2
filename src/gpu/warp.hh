/**
 * @file
 * Warp tasks and warp execution state.
 *
 * Work reaches the SIMT cores as WarpTasks: 32 pre-initialized thread
 * contexts plus a program and execution environment. Vertex warps,
 * fragment warps (built by the TC stage) and compute warps (built by
 * the kernel dispatcher) all use this one abstraction — the unified
 * shader model the paper builds on GPGPU-Sim.
 */

#ifndef EMERALD_GPU_WARP_HH
#define EMERALD_GPU_WARP_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "gpu/isa/executor.hh"
#include "gpu/simt_stack.hh"

namespace emerald::gpu
{

enum class WarpTaskType : std::uint8_t { Vertex, Fragment, Compute };

/** A unit of shader work: one warp's worth of threads. */
struct WarpTask
{
    WarpTaskType type = WarpTaskType::Compute;
    const isa::Program *program = nullptr;
    std::array<isa::ThreadContext, isa::warpSize> threads;
    std::uint32_t activeMask = 0;
    isa::ExecEnv env;

    /**
     * Memory reads charged when the warp launches (vertex attribute
     * fetch, Section 3.3.3). The warp cannot issue until they return.
     */
    std::vector<isa::ThreadMemAccess> initFetch;
    AccessKind initFetchKind = AccessKind::Vertex;

    /** Barrier group for compute warps; -1 = no group. */
    int ctaKey = -1;
    /** Warps in the barrier group. */
    unsigned ctaWarps = 0;

    /** Caller-private identifier (TC tile id, batch id, ...). */
    std::uint64_t tag = 0;

    /**
     * Invoked when the warp fully completes (all threads exited, all
     * reads returned). Receives the final thread contexts.
     */
    std::function<void(WarpTask &, isa::ThreadContext *)> onComplete;
};

/** Runtime state of one warp slot inside a SIMT core. */
struct Warp
{
    bool valid = false;
    WarpTask task;
    SimtStack stack;

    /** Init-fetch transactions still outstanding. */
    unsigned pendingInitFetch = 0;
    /** Memory instructions with outstanding read transactions. */
    unsigned pendingMemInstrs = 0;
    bool atBarrier = false;
    /** Set when execution ran dry and the warp awaits drain. */
    bool draining = false;

    /** Instruction line of the last I-fetch (for L1I traffic). */
    std::int64_t lastFetchLine = -1;
    /** Synthetic I-fetch base address, hashed from the program name. */
    Addr fetchBase = 0;

    std::uint64_t warpInstrsExecuted = 0;

    /**
     * Core-wide launch order (monotonic per SimtCore); the GTO warp
     * scheduler's age tie-breaker. Only comparisons between
     * concurrently resident warps matter.
     */
    std::uint64_t launchSeq = 0;

    std::uint32_t
    aliveMask() const
    {
        std::uint32_t mask = 0;
        for (unsigned lane = 0; lane < isa::warpSize; ++lane) {
            if (task.threads[lane].alive)
                mask |= 1u << lane;
        }
        return mask;
    }

    /** True when no further instructions will issue. */
    bool
    executionDone() const
    {
        return stack.empty() || (stack.activeMask() & aliveMask()) == 0;
    }
};

} // namespace emerald::gpu

#endif // EMERALD_GPU_WARP_HH
