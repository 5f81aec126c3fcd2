#include <gtest/gtest.h>

#include "mem/frfcfs_scheduler.hh"
#include "mem/memory_system.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

using namespace emerald;
using namespace emerald::mem;

namespace
{

struct Catcher : public MemClient
{
    std::vector<std::pair<Tick, Addr>> done;
    Simulation *sim = nullptr;

    void
    memResponse(MemPacket *pkt) override
    {
        done.emplace_back(sim->curTick(), pkt->addr);
        delete pkt;
    }
};

MemorySystemParams
params2ch(double rate = 1333.0)
{
    MemorySystemParams mp;
    mp.geom.channels = 2;
    mp.timing = lpddr3Timing(rate, 32, 128);
    mp.statsBucket = ticksFromUs(10.0);
    return mp;
}

MemPacket *
readPkt(Addr addr, Catcher *c, TrafficClass tc = TrafficClass::Gpu,
        int req = 0)
{
    return new MemPacket(addr, 128, false, tc, AccessKind::GlobalData,
                         req, c, 0);
}

/** FR-FCFS that records the order it issues requests in. */
struct IssueRecorder : public FrfcfsScheduler
{
    std::vector<Addr> issued;

    void
    serviced(const MemPacket &pkt, Tick) override
    {
        issued.push_back(pkt.addr);
    }
};

} // namespace

TEST(DramTiming, LpddrDerivation)
{
    DramTiming t = lpddr3Timing(1333.0, 32, 128);
    // 1333 Mb/s/pin * 32 bits = 5.332 GB/s; 128 B burst ~ 24 ns.
    EXPECT_NEAR(static_cast<double>(t.tBURST), 24010.0, 200.0);
    EXPECT_GT(t.tRCD, 0u);
    EXPECT_GT(t.tRP, 0u);
    EXPECT_GE(t.tRAS, t.tRCD);
}

TEST(DramChannel, SingleReadLatencyIsRcdPlusClPlusBurst)
{
    Simulation sim;
    Catcher catcher;
    catcher.sim = &sim;
    FrfcfsScheduler sched;
    MemorySystem mem(sim, "mem", params2ch(), sched);

    ASSERT_TRUE(mem.tryAccept(readPkt(0, &catcher)));
    sim.run();
    ASSERT_EQ(catcher.done.size(), 1u);
    const DramTiming &t = mem.params().timing;
    EXPECT_EQ(catcher.done[0].first, t.tRCD + t.tCL + t.tBURST);
    EXPECT_EQ(mem.channel(0).statRowClosedMisses.value(), 1.0);
}

TEST(DramChannel, RowHitsAreFasterThanConflicts)
{
    Simulation sim;
    Catcher catcher;
    catcher.sim = &sim;
    FrfcfsScheduler sched;
    MemorySystem mem(sim, "mem", params2ch(), sched);

    // Same row twice (hit), then a different row in the same bank
    // (conflict).
    ASSERT_TRUE(mem.tryAccept(readPkt(0, &catcher)));
    sim.run();
    ASSERT_TRUE(mem.tryAccept(readPkt(256, &catcher)));
    sim.run();
    ASSERT_TRUE(mem.tryAccept(readPkt(1 << 20, &catcher)));
    sim.run();

    ASSERT_EQ(catcher.done.size(), 3u);
    EXPECT_EQ(mem.channel(0).statRowHits.value(), 1.0);
    EXPECT_EQ(mem.channel(0).statRowConflicts.value(), 1.0);

    Tick hit_latency = catcher.done[1].first - catcher.done[0].first;
    Tick conflict_latency =
        catcher.done[2].first - catcher.done[1].first;
    EXPECT_GT(conflict_latency, hit_latency);
}

TEST(DramChannel, FrfcfsPrefersRowHitOverOlder)
{
    Simulation sim;
    Catcher catcher;
    catcher.sim = &sim;
    FrfcfsScheduler sched;
    MemorySystem mem(sim, "mem", params2ch(), sched);

    // Open row 0 of bank 0.
    ASSERT_TRUE(mem.tryAccept(readPkt(0, &catcher)));
    sim.run();

    // Enqueue a conflicting request first, then a row hit. FR-FCFS
    // must service the hit first.
    Addr conflict = 1 << 20;
    Addr hit = 256;
    ASSERT_TRUE(mem.tryAccept(readPkt(conflict, &catcher)));
    ASSERT_TRUE(mem.tryAccept(readPkt(hit, &catcher)));
    sim.run();

    ASSERT_EQ(catcher.done.size(), 3u);
    EXPECT_EQ(catcher.done[1].second, hit);
    EXPECT_EQ(catcher.done[2].second, conflict);
}

TEST(DramChannel, BytesPerActivationTracksRowReuse)
{
    Simulation sim;
    Catcher catcher;
    catcher.sim = &sim;
    FrfcfsScheduler sched;
    MemorySystem mem(sim, "mem", params2ch(), sched);

    // 8 hits in row 0, then a conflict forces the row closed and
    // samples the bytes-per-activation distribution.
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(mem.tryAccept(readPkt(Addr(i) * 256, &catcher)));
    sim.run();
    ASSERT_TRUE(mem.tryAccept(readPkt(1 << 20, &catcher)));
    sim.run();

    ASSERT_EQ(mem.channel(0).statBytesPerActivation.count(), 1u);
    EXPECT_EQ(mem.channel(0).statBytesPerActivation.mean(),
              8.0 * 128.0);
}

TEST(DramChannel, QueueFullRejects)
{
    Simulation sim;
    Catcher catcher;
    catcher.sim = &sim;
    MemorySystemParams mp = params2ch();
    mp.queueCapacity = 4;
    FrfcfsScheduler sched;
    MemorySystem mem(sim, "mem", mp, sched);

    int accepted = 0;
    for (int i = 0; i < 20; ++i) {
        MemPacket *pkt = readPkt(Addr(i) * 4096, &catcher);
        if (mem.tryAccept(pkt))
            ++accepted;
        else
            delete pkt;
    }
    // Both channels' queues (4 each) can be full, plus in-flight.
    EXPECT_LE(accepted, 12);
    sim.run();
}

TEST(DramChannel, PerClassBandwidthAccounting)
{
    Simulation sim;
    Catcher catcher;
    catcher.sim = &sim;
    FrfcfsScheduler sched;
    MemorySystem mem(sim, "mem", params2ch(), sched);

    ASSERT_TRUE(
        mem.tryAccept(readPkt(0, &catcher, TrafficClass::Cpu, 1)));
    ASSERT_TRUE(
        mem.tryAccept(readPkt(4096, &catcher, TrafficClass::Gpu)));
    ASSERT_TRUE(mem.tryAccept(
        readPkt(8192, &catcher, TrafficClass::Display, 101)));
    sim.run();

    EXPECT_EQ(mem.bytesFor(TrafficClass::Cpu), 128u);
    EXPECT_EQ(mem.bytesFor(TrafficClass::Gpu), 128u);
    EXPECT_EQ(mem.bytesFor(TrafficClass::Display), 128u);
}

TEST(Hmc, RoutesByTrafficClass)
{
    Simulation sim;
    Catcher catcher;
    catcher.sim = &sim;
    MemorySystemParams mp = params2ch();
    mp.hmc = true;
    mp.hmcCpuChannels = 1;
    FrfcfsScheduler sched;
    MemorySystem mem(sim, "mem", mp, sched);

    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(mem.tryAccept(readPkt(Addr(i) * 128, &catcher,
                                          TrafficClass::Cpu, 0)));
        ASSERT_TRUE(mem.tryAccept(readPkt(Addr(i) * 128, &catcher,
                                          TrafficClass::Gpu)));
    }
    sim.run();

    // All CPU traffic on channel 0, all GPU traffic on channel 1.
    EXPECT_EQ(mem.channel(0).statRequests.value(), 8.0);
    EXPECT_EQ(mem.channel(1).statRequests.value(), 8.0);
    double ch0_cpu = 0, ch1_gpu = 0;
    for (double b : mem.channel(0).statBwCpu.buckets())
        ch0_cpu += b;
    for (double b : mem.channel(1).statBwGpu.buckets())
        ch1_gpu += b;
    EXPECT_EQ(ch0_cpu, 8 * 128.0);
    EXPECT_EQ(ch1_gpu, 8 * 128.0);
}

TEST(Hmc, IpMappingStripesAcrossBanks)
{
    // Under the IP-channel scheme, sequential lines should hit many
    // banks (parallelism) and thus see fewer row hits than the
    // page-striped CPU scheme for a strided stream.
    Simulation sim;
    Catcher catcher;
    catcher.sim = &sim;
    MemorySystemParams mp = params2ch();
    mp.hmc = true;
    FrfcfsScheduler sched;
    MemorySystem mem(sim, "mem", mp, sched);

    for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(mem.tryAccept(
            readPkt(Addr(i) * 128, &catcher, TrafficClass::Gpu)));
    }
    sim.run();
    // 16 sequential lines cover 8 banks twice: 8 misses + 8 hits at
    // most; verify multiple banks were activated.
    EXPECT_GE(mem.channel(1).statRowClosedMisses.value(), 8.0);
}

class DramRandomTraffic : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DramRandomTraffic, AllRequestsCompleteExactlyOnce)
{
    Simulation sim;
    Catcher catcher;
    catcher.sim = &sim;
    FrfcfsScheduler sched;
    MemorySystem mem(sim, "mem", params2ch(), sched);
    Random rng(GetParam());

    unsigned sent = 0;
    for (int burst = 0; burst < 50; ++burst) {
        for (int i = 0; i < 10; ++i) {
            Addr addr = (rng.next() & 0xffffff80ULL) & 0x0fffffffULL;
            bool write = rng.chance(0.3);
            auto *pkt = new MemPacket(addr, 128, write,
                                      TrafficClass::Gpu,
                                      AccessKind::GlobalData, 0,
                                      write ? nullptr : &catcher, 0);
            if (mem.tryAccept(pkt))
                sent += write ? 0 : 1;
            else
                delete pkt;
        }
        sim.run();
    }
    EXPECT_EQ(catcher.done.size(), sent);

    // Monotone completion times.
    for (std::size_t i = 1; i < catcher.done.size(); ++i)
        EXPECT_GE(catcher.done[i].first, catcher.done[i - 1].first);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DramRandomTraffic,
                         ::testing::Values(1u, 2u, 3u, 7u, 13u));

TEST(DramChannel, CompletionsStayInIssueOrder)
{
    Simulation sim;
    Catcher catcher;
    catcher.sim = &sim;
    IssueRecorder sched;
    MemorySystemParams mp = params2ch();
    mp.geom.channels = 1;
    MemorySystem mem(sim, "mem", mp, sched);

    // Row conflicts, row hits and other banks, all queued at once:
    // FR-FCFS issues them out of arrival order.
    const Addr addrs[] = {0,        1 << 20, 256,     4096,
                          1 << 21, 512,     8192,    (1 << 20) + 256};
    for (Addr addr : addrs)
        ASSERT_TRUE(mem.tryAccept(readPkt(addr, &catcher)));
    sim.run();

    ASSERT_EQ(catcher.done.size(), std::size(addrs));
    ASSERT_EQ(sched.issued.size(), std::size(addrs));
    EXPECT_NE(sched.issued, std::vector<Addr>(std::begin(addrs),
                                              std::end(addrs)));
    for (std::size_t i = 0; i < catcher.done.size(); ++i) {
        EXPECT_EQ(catcher.done[i].second, sched.issued[i]) << i;
        if (i > 0) {
            EXPECT_GT(catcher.done[i].first, catcher.done[i - 1].first)
                << i;
        }
    }
}
