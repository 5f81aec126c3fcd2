/**
 * @file
 * The SIMT core timing model (paper Table 2, Fig. 5 element 1).
 *
 * Per cycle, each warp scheduler issues at most one instruction from
 * a ready warp. Instructions execute functionally at issue; the
 * timing model then tracks result latency through a scoreboard (ALU /
 * SFU / shared memory) or through the memory system (coalesced
 * transactions into the per-core L1 caches: L1I instruction, L1D
 * global+pixel, L1T texture, L1Z depth, L1C constant+vertex).
 *
 * Readiness is event-driven: each scheduler lane keeps a mask of its
 * eligible slots, recomputed only for the slots an event touches
 * (docs/scheduling.md), so a cycle with nothing to issue costs O(1).
 */

#ifndef EMERALD_GPU_SIMT_CORE_HH
#define EMERALD_GPU_SIMT_CORE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "gpu/coalescer.hh"
#include "gpu/scoreboard.hh"
#include "gpu/warp.hh"
#include "gpu/warp_sched.hh"
#include "sim/clocked.hh"
#include "sim/sim_object.hh"

namespace emerald::mem
{
class TrafficTraceWriter;
} // namespace emerald::mem

namespace emerald::gpu
{

/** Requestor id used for all GPU-originated memory traffic. */
constexpr int gpuRequestorId = 100;

/** Static configuration of one SIMT core. */
struct SimtCoreParams
{
    unsigned maxWarps = 48;
    unsigned maxThreads = 2048;
    unsigned numRegisters = 65536;
    unsigned schedulers = 2;
    /** Queued tasks awaiting a free warp slot. */
    unsigned taskQueueDepth = 8;

    Cycle aluLatency = 4;
    Cycle sfuLatency = 16;
    Cycle sharedMemLatency = 24;
    unsigned lsuIssuePerCycle = 2;
    unsigned maxPendingMemInstrsPerWarp = 6;
    /** Instructions per I-cache line (synthetic 8 B encoding). */
    unsigned instrsPerFetchLine = 16;

    /**
     * Warp scheduling policy (--warp-sched), resolved through the
     * warp_sched.hh registry; "" selects the default (lrr).
     */
    std::string warpSched;

    cache::CacheParams l1i;
    cache::CacheParams l1d;
    cache::CacheParams l1t;
    cache::CacheParams l1z;
    cache::CacheParams l1c;
};

/**
 * One SIMT core with its private L1 caches. All L1s miss into the
 * downstream sink provided at construction (the cluster's port into
 * the GPU interconnect).
 */
class SimtCore : public SimObject,
                 public Clocked,
                 public MemClient,
                 public MemRequestor
{
  public:
    SimtCore(Simulation &sim, const std::string &name,
             ClockDomain &domain, const SimtCoreParams &params,
             MemSink &downstream);

    /**
     * Offer a warp task.
     * @return false when the core's task queue is full.
     */
    bool tryAddTask(WarpTask &&task);

    /** True when no work is queued, resident, or in flight. */
    bool idle() const;

    /** True when the task queue can take @p tasks more tasks. */
    bool
    hasTaskRoom(unsigned tasks = 1) const
    {
        return _taskQueue.size() + tasks <= _params.taskQueueDepth;
    }

    const SimtCoreParams &params() const { return _params; }

    /** Barrier groups with arrived warps still waiting on the rest. */
    std::size_t openBarrierGroups() const
    {
        return _barrierArrived.size();
    }

    /** The L1 cache that services @p kind. */
    cache::Cache &l1ForKind(AccessKind kind);

    cache::Cache &l1i() { return *_l1i; }
    cache::Cache &l1d() { return *_l1d; }
    cache::Cache &l1t() { return *_l1t; }
    cache::Cache &l1z() { return *_l1z; }
    cache::Cache &l1c() { return *_l1c; }

    void memResponse(MemPacket *pkt) override;
    void retryRequest() override;
    std::string requestorName() const override { return name(); }

    /**
     * Mirror every transaction the LSU successfully hands to an L1
     * into @p writer as client @p client (--capture-trace). Null
     * detaches. The writer must outlive the core or be detached.
     */
    void
    setTrafficCapture(mem::TrafficTraceWriter *writer, unsigned client)
    {
        _traceWriter = writer;
        _traceClient = client;
    }

    void serialize(CheckpointOut &out) const override;
    void unserialize(CheckpointIn &in) override;
    /** A busy core's in-flight state does not round-trip. */
    bool checkpointSafe() const override;

    /** @{ Statistics. */
    Scalar statCyclesActive;
    Scalar statWarpInstrs;
    Scalar statThreadInstrs;
    Scalar statTasksVertex;
    Scalar statTasksFragment;
    Scalar statTasksCompute;
    Scalar statStallNoReadyWarp;
    Scalar statLsuStalls;
    /** @} */

  protected:
    bool tick() override;

  private:
    /** A memory instruction with outstanding read transactions. */
    struct MemInstrState
    {
        bool inUse = false;
        unsigned slot = 0;
        SlotList regSlots;
        unsigned outstanding = 0;
        bool initFetch = false;
    };

    /** One coalesced transaction queued for the LSU. */
    struct LsuTxn
    {
        Addr lineAddr;
        bool write;
        AccessKind kind;
        /** Index into _memInstrs, or -1 for posted traffic. */
        int memInstrId;
    };

    /** A pending fixed-latency scoreboard release. */
    struct Writeback
    {
        Tick release;
        unsigned slot;
        SlotList regs;
    };

    void launchQueuedTasks();
    bool issueFrom(unsigned scheduler);
    void executeWarp(unsigned slot);
    void chargeInstructionFetch(Warp &warp);
    /** Base of @p program's synthetic I-fetch addresses. */
    static Addr fetchBaseFor(const isa::Program &program);
    void finishDrainedWarps();
    void drainLsu();
    void processWritebacks();
    bool writebacksPending() const;
    void barrierArrive(unsigned slot);

    /** Whether @p slot may issue now (see _eligible). */
    bool computeEligible(unsigned slot) const;
    /** Re-derive @p slot's bit in its lane's eligible mask. */
    void refreshEligible(unsigned slot);
    /** EMERALD_CHECKS: panic if any incremental mask is stale. */
    void verifyEligible() const;

    unsigned allocMemInstr(unsigned slot, const SlotList &regs,
                           bool init_fetch);

    SimtCoreParams _params;
    MemSink &_downstream;

    std::unique_ptr<cache::Cache> _l1i;
    std::unique_ptr<cache::Cache> _l1d;
    std::unique_ptr<cache::Cache> _l1t;
    std::unique_ptr<cache::Cache> _l1z;
    std::unique_ptr<cache::Cache> _l1c;

    std::vector<Warp> _warps;
    Scoreboard _scoreboard;
    std::deque<WarpTask> _taskQueue;

    /**
     * Per scheduler lane, bit k set when the lane's k-th owned slot
     * (slot k * schedulers + lane) may issue: valid, not draining or
     * at a barrier, no init fetch, under the pending-memory cap, and
     * scoreboard-ready for the instruction at its pc. Updated by
     * refreshEligible() at every event that can change one of those.
     */
    std::vector<std::uint64_t> _eligible;
    /** Valid warp slots. */
    unsigned _resident = 0;
    /**
     * Bitset over slots (64 per word) of warps that ran dry and wait
     * for their reads and writebacks before completing.
     */
    std::vector<std::uint64_t> _draining;

    /** Registers and threads currently allocated to resident warps. */
    unsigned _regsInUse = 0;
    unsigned _threadsInUse = 0;

    std::vector<MemInstrState> _memInstrs;
    std::vector<unsigned> _memInstrFreeList;

    std::deque<LsuTxn> _lsuQueue;
    /**
     * Packet for the head LSU transaction, rejected by its L1 and
     * held until the cache's retryRequest() wakes us. The core sleeps
     * instead of re-offering every cycle.
     */
    MemPacket *_lsuRetryPkt = nullptr;

    /**
     * Pending scoreboard releases, one FIFO per fixed latency: ALU
     * (also control and store-only memory), SFU, shared memory. All
     * entries of a FIFO share one latency, so their release ticks are
     * monotonic and the front is the next due.
     */
    std::array<std::deque<Writeback>, 3> _writebacks;

    /** Barrier bookkeeping: ctaKey -> arrived count. */
    std::map<int, unsigned> _barrierArrived;

    /** One scheduling policy per scheduler lane (warp_sched.hh). */
    std::vector<std::unique_ptr<WarpScheduler>> _warpScheds;
    /** Monotonic warp-launch counter feeding Warp::launchSeq. */
    std::uint64_t _launchSeq = 0;

    /** Traffic-trace capture sink, or null (setTrafficCapture). */
    mem::TrafficTraceWriter *_traceWriter = nullptr;
    unsigned _traceClient = 0;

    isa::StepEffects _effects; // Reused each issue to avoid churn.
    std::vector<CoalescedAccess> _lines; // coalesce() output, reused.
};

} // namespace emerald::gpu

#endif // EMERALD_GPU_SIMT_CORE_HH
