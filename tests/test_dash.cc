#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "mem/dash_scheduler.hh"
#include "mem/frfcfs_scheduler.hh"
#include "mem/memory_system.hh"
#include "sim/serialize/serialize.hh"
#include "sim/simulation.hh"

using namespace emerald;
using namespace emerald::mem;

namespace
{

DashParams
testParams()
{
    DashParams p;
    p.switchingUnit = ticksFromUs(1.0);
    p.quantum = ticksFromUs(100.0);
    p.numCpuCores = 4;
    return p;
}

MemPacket
cpuPkt(int core)
{
    return MemPacket(0, 128, false, TrafficClass::Cpu,
                     AccessKind::CpuData, core);
}

MemPacket
gpuPkt()
{
    return MemPacket(0, 128, false, TrafficClass::Gpu,
                     AccessKind::Texture, 100);
}

/**
 * Eager reference for the lazily evaluated switch: what a timer event
 * running ahead of every same-tick event does at each boundary.
 */
struct EagerSwitch
{
    explicit EagerSwitch(const DashParams &params)
        : params(params), p(params.initialP), rng(params.seed),
          next(params.switchingUnit)
    {}

    void
    advanceTo(Tick now)
    {
        for (; next <= now; next += params.switchingUnit) {
            if (intensive < nonUrgent)
                p = std::min(0.95, p + params.pStep);
            else if (intensive > nonUrgent)
                p = std::max(0.05, p - params.pStep);
            intensive = 0;
            nonUrgent = 0;
            favourIntensiveCpu = rng.chance(p);
        }
    }

    DashParams params;
    double p;
    Random rng;
    Tick next;
    bool favourIntensiveCpu = false;
    std::uint64_t intensive = 0;
    std::uint64_t nonUrgent = 0;
};

/** Run @p sim up to exactly @p when. */
void
advanceTo(Simulation &sim, Tick when)
{
    EventFunction mark([] {}, "mark");
    sim.eventQueue().schedule(mark, when);
    sim.run(when);
}

} // namespace

TEST(DashCoordinator, UrgencyFollowsExpectedProgress)
{
    Simulation sim;
    DashCoordinator dash(sim, "dash", testParams());
    int gpu = dash.registerIp("gpu", TrafficClass::Gpu, 0.9);

    dash.beginIpPeriod(gpu, ticksFromMs(33.0), 1000.0);

    // At t=0 expected progress is 0: not urgent.
    EXPECT_FALSE(dash.ipUrgent(gpu, sim.curTick()));

    // Half way through the period with no progress: urgent.
    Tick half = ticksFromMs(16.5);
    EXPECT_TRUE(dash.ipUrgent(gpu, half));

    // On pace: not urgent (0.9 threshold).
    dash.addIpProgress(gpu, 500.0);
    EXPECT_FALSE(dash.ipUrgent(gpu, half));

    // Slightly behind but above threshold: still not urgent.
    // expected=0.75, actual=0.5/1.0 -> 0.5 < 0.9*0.75: urgent again.
    EXPECT_TRUE(dash.ipUrgent(gpu, ticksFromMs(24.75)));

    dash.endIpPeriod(gpu);
    EXPECT_FALSE(dash.ipUrgent(gpu, half));
    dash.shutdown();
}

TEST(DashCoordinator, PriorityLevels)
{
    Simulation sim;
    DashCoordinator dash(sim, "dash", testParams());
    int gpu = dash.registerIp("gpu", TrafficClass::Gpu, 0.9);
    dash.beginIpPeriod(gpu, ticksFromMs(33.0), 1000.0);

    MemPacket cpu0 = cpuPkt(0);
    MemPacket gpu_pkt = gpuPkt();

    // All CPU cores start non-intensive (no bandwidth history).
    EXPECT_EQ(dash.priorityOf(cpu0, 0), 1);
    // Non-urgent IP ranks below non-intensive CPU.
    EXPECT_GT(dash.priorityOf(gpu_pkt, 0), 1);
    // Urgent IP outranks everything.
    Tick late = ticksFromMs(20.0);
    EXPECT_EQ(dash.priorityOf(gpu_pkt, late), 0);
    dash.shutdown();
}

TEST(DashCoordinator, TcmClusteringSplitsHeavyCores)
{
    Simulation sim;
    DashCoordinator dash(sim, "dash", testParams());

    // Core 3 produces the overwhelming share of traffic.
    for (int i = 0; i < 100; ++i) {
        MemPacket p = cpuPkt(3);
        dash.serviced(p, 0);
    }
    MemPacket light = cpuPkt(0);
    dash.serviced(light, 0);
    dash.recluster();

    EXPECT_FALSE(dash.cpuIntensive(0));
    EXPECT_TRUE(dash.cpuIntensive(3));
    dash.shutdown();
}

TEST(DashCoordinator, DtbIncludesIpBandwidth)
{
    // With DTB (whole-system bandwidth), a huge GPU byte count makes
    // the threshold budget large enough that all CPU cores stay
    // non-intensive - the effect the paper discusses in Section 5.1.1.
    Simulation sim;
    DashParams p = testParams();
    p.useTotalBandwidth = true;
    DashCoordinator dash(sim, "dash", p);
    dash.registerIp("gpu", TrafficClass::Gpu, 0.9);

    for (int i = 0; i < 100; ++i) {
        MemPacket g = gpuPkt();
        dash.serviced(g, 0);
    }
    for (int i = 0; i < 10; ++i) {
        MemPacket c = cpuPkt(2);
        dash.serviced(c, 0);
    }
    dash.recluster();
    EXPECT_FALSE(dash.cpuIntensive(2));
    dash.shutdown();

    // Same traffic under DCB classifies core 2 as intensive.
    Simulation sim2;
    DashCoordinator dcb(sim2, "dash", testParams());
    dcb.registerIp("gpu", TrafficClass::Gpu, 0.9);
    for (int i = 0; i < 100; ++i) {
        MemPacket g = gpuPkt();
        dcb.serviced(g, 0);
    }
    for (int i = 0; i < 10; ++i) {
        MemPacket c = cpuPkt(2);
        dcb.serviced(c, 0);
    }
    dcb.recluster();
    EXPECT_TRUE(dcb.cpuIntensive(2));
    dcb.shutdown();
}

TEST(DashScheduler, PicksUrgentIpFirst)
{
    Simulation sim;
    DashCoordinator dash(sim, "dash", testParams());
    int gpu = dash.registerIp("gpu", TrafficClass::Gpu, 0.9);
    DashScheduler sched(dash);

    MemorySystemParams mp;
    mp.geom.channels = 1;
    mp.timing = lpddr3Timing(1333, 32, 128);
    FrfcfsScheduler basis;
    MemorySystem mem(sim, "mem", mp, basis);
    AddressMap map(mp.geom, AddrMapScheme::RoRaBaCoCh);

    // Build a queue view: an old CPU request and a new GPU request.
    std::vector<DramScheduler::QueueEntry> queue;
    MemPacket cpu = cpuPkt(0);
    MemPacket gp = gpuPkt();
    queue.push_back({&cpu, map.decode(0), 0});
    queue.push_back({&gp, map.decode(4096), 10});

    // GPU not urgent: CPU (non-intensive, level 1) wins.
    dash.beginIpPeriod(gpu, ticksFromMs(33.0), 100.0);
    EXPECT_EQ(sched.pick(mem.channel(0), queue, 0), 0u);

    // Make the GPU urgent: it must win despite being younger.
    Tick late = ticksFromMs(30.0);
    EXPECT_EQ(sched.pick(mem.channel(0), queue, late), 1u);
    dash.shutdown();
}

TEST(DashCoordinator, ProbabilityAdapts)
{
    // Each switching unit steers P toward the side it starved: up by
    // pStep when non-urgent IPs got more service than intensive CPU
    // cores, down in the opposite case, clamped to [0.05, 0.95].
    const DashParams params = testParams();
    const Tick unit = params.switchingUnit;

    Simulation sim;
    DashCoordinator dash(sim, "dash", params);
    dash.registerIp("gpu", TrafficClass::Gpu, 0.9); // Never urgent.
    for (int i = 0; i < 8; ++i) {
        MemPacket c = cpuPkt(3);
        dash.serviced(c, 0);
    }
    dash.recluster();
    ASSERT_TRUE(dash.cpuIntensive(3));
    EXPECT_NEAR(dash.currentP(), 0.5, 1e-9);

    // Serve @p pkt inside the next unit; P as of that unit's end.
    Tick boundary = 0;
    auto serveUnit = [&](const MemPacket &pkt) {
        advanceTo(sim, boundary + unit / 2);
        dash.serviced(pkt, sim.curTick());
        boundary += unit;
        advanceTo(sim, boundary);
        return dash.currentP();
    };
    // The whole test stays inside the first quantum (100 units), so
    // core 3 stays intensive.
    const MemPacket gpu = gpuPkt();
    for (int k = 1; k <= 12; ++k) {
        EXPECT_NEAR(serveUnit(gpu), std::min(0.95, 0.5 + 0.05 * k), 1e-9)
            << "GPU-only unit " << k;
    }
    const MemPacket cpu3 = cpuPkt(3);
    for (int k = 1; k <= 21; ++k) {
        EXPECT_NEAR(serveUnit(cpu3), std::max(0.05, 0.95 - 0.05 * k),
                    1e-9)
            << "CPU-only unit " << k;
    }
    ASSERT_TRUE(dash.cpuIntensive(3));
    dash.shutdown();
}

TEST(DashCoordinator, LazySwitchMatchesEagerReference)
{
    const DashParams params = testParams();
    const Tick unit = params.switchingUnit;

    Simulation sim;
    DashCoordinator dash(sim, "dash", params);
    dash.registerIp("gpu", TrafficClass::Gpu, 0.9); // Never urgent.
    DashScheduler sched(dash);
    MemorySystemParams mp;
    mp.geom.channels = 1;
    mp.timing = lpddr3Timing(1333, 32, 128);
    FrfcfsScheduler basis;
    MemorySystem mem(sim, "mem", mp, basis);
    AddressMap map(mp.geom, AddrMapScheme::RoRaBaCoCh);

    // Make CPU core 3 intensive, so the switch decides between it and
    // the GPU. The quantum timer reclusters every 100 units.
    for (int i = 0; i < 8; ++i) {
        MemPacket c = cpuPkt(3);
        dash.serviced(c, 0);
    }
    dash.recluster();
    ASSERT_TRUE(dash.cpuIntensive(3));

    EagerSwitch ref(params);

    MemPacket gpu = gpuPkt();
    MemPacket cpu3 = cpuPkt(3);
    std::vector<DramScheduler::QueueEntry> queue = {
        {&gpu, map.decode(0), 0}, {&cpu3, map.decode(4096), 0}};

    struct Step
    {
        Tick when;
        unsigned gpuServices;
        unsigned cpuServices;
    };
    const Step script[] = {
        {unit / 2, 2, 1},                 // Inside the first unit.
        {unit, 3, 0},                     // Exactly on a boundary.
        {unit, 0, 2},                     // Same tick again.
        {2 * unit + unit / 3, 1, 4},
        {3 * unit, 0, 0},                 // Boundary, no service.
        {3 * unit + unit / 2, 2, 1},
        {5 * unit + unit / 2, 1, 2},      // Checkpoint, mid-unit.
        {7 * unit, 4, 1},                 // Several boundaries at once.
        {7 * unit + 1, 0, 3},
        {1500 * unit + unit / 4, 1, 1},   // Idle gap of ~1500 units.
        {1500 * unit + unit / 2, 5, 0},
        {1501 * unit, 0, 2},
        {2600 * unit, 2, 2},              // Another gap, on a boundary.
        {2600 * unit + unit / 5, 3, 1},
    };
    // Taken before anything else reaches the coordinator at that tick,
    // with the boundaries at 4 and 5 units not yet applied.
    const std::size_t checkpoint_at = 6;

    // The restored copy: same topology, built at tick 0 like the
    // original so its quantum timer stays in phase.
    Simulation sim2;
    DashCoordinator dash2(sim2, "dash", params);
    dash2.registerIp("gpu", TrafficClass::Gpu, 0.9);
    DashScheduler sched2(dash2);
    bool restored = false;

    auto expect_matches = [&](DashCoordinator &d, DashScheduler &s,
                              Tick now, const char *who,
                              std::size_t step) {
        EXPECT_EQ(d.currentP(), ref.p) << who << " step " << step;
        EXPECT_EQ(d.priorityOf(gpu, now),
                  ref.favourIntensiveCpu ? 3 : 2)
            << who << " step " << step;
        // Row misses everywhere: the pick is the favoured level's
        // oldest entry (a non-intensive core 3 always wins at level 1).
        std::size_t want =
            !d.cpuIntensive(3) || ref.favourIntensiveCpu ? 1 : 0;
        EXPECT_EQ(s.pick(mem.channel(0), queue, now), want)
            << who << " step " << step;
    };

    auto service = [&](const Step &step) {
        for (unsigned g = 0; g < step.gpuServices; ++g) {
            ++ref.nonUrgent;
            dash.serviced(gpu, step.when);
            if (restored)
                dash2.serviced(gpu, step.when);
        }
        for (unsigned c = 0; c < step.cpuServices; ++c) {
            if (dash.cpuIntensive(3))
                ++ref.intensive;
            dash.serviced(cpu3, step.when);
            if (restored)
                dash2.serviced(cpu3, step.when);
        }
    };

    for (std::size_t i = 0; i < std::size(script); ++i) {
        const Step &step = script[i];
        advanceTo(sim, step.when);
        if (i == checkpoint_at) {
            ASSERT_NE(step.when % unit, 0u);
            CheckpointOut out("dash");
            dash.serialize(out);
            const std::string &bytes = out.bytes();
            // The section holds the switch as of now, queried or not.
            CheckpointOut again("dash");
            dash.currentP();
            dash.serialize(again);
            EXPECT_EQ(again.bytes(), bytes);
            CheckpointIn in(out.sectionName(), bytes.data(),
                            bytes.size());
            sim2.eventQueue().restoreTime(step.when, 0);
            dash2.unserialize(in);
            restored = true;
        } else if (restored) {
            advanceTo(sim2, step.when);
        }
        ref.advanceTo(step.when);

        // Odd steps reach the coordinator through serviced() first,
        // even steps through the queries.
        const bool service_first = i % 2 == 1;
        if (service_first)
            service(step);
        expect_matches(dash, sched, step.when, "live", i);
        if (restored)
            expect_matches(dash2, sched2, step.when, "restored", i);
        if (!service_first)
            service(step);
    }
    // The comparisons ran with both sides visible: P moved.
    EXPECT_NE(ref.p, params.initialP);
    dash.shutdown();
    dash2.shutdown();
}
