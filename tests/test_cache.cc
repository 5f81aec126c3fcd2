#include <gtest/gtest.h>

#include <map>

#include "cache/cache.hh"
#include "sim/random.hh"
#include "sim/serialize/serialize.hh"
#include "sim/simulation.hh"

using namespace emerald;
using namespace emerald::cache;

namespace
{

/** Terminal memory: accepts everything, responds after a delay. */
struct FakeMemory : public MemSink
{
    Simulation &sim;
    Tick delay;
    std::vector<std::unique_ptr<EventFunction>> events;
    unsigned reads = 0;
    unsigned writes = 0;

    FakeMemory(Simulation &s, Tick d) : sim(s), delay(d) {}

    bool
    tryAccept(MemPacket *pkt) override
    {
        if (pkt->write)
            ++writes;
        else
            ++reads;
        events.push_back(std::make_unique<EventFunction>(
            [pkt] { completePacket(pkt); }, "fake.resp"));
        sim.eventQueue().schedule(*events.back(),
                                  sim.curTick() + delay);
        return true;
    }
};

struct Requestor : public MemClient
{
    unsigned responses = 0;
    Tick lastResponse = 0;
    /** Address of every response, in completion order. */
    std::vector<Addr> order;
    Simulation *sim = nullptr;

    void
    memResponse(MemPacket *pkt) override
    {
        ++responses;
        lastResponse = sim->curTick();
        order.push_back(pkt->addr);
        delete pkt;
    }
};

struct Rig
{
    Simulation sim;
    ClockDomain &clk;
    FakeMemory memory;
    Cache cache;
    Requestor client;

    explicit Rig(CacheParams params, Tick mem_delay = ticksFromNs(100))
        : clk(sim.createClockDomain(1000.0, "clk")),
          memory(sim, mem_delay),
          cache(sim, "l1", clk, params)
    {
        cache.setDownstream(memory);
        client.sim = &sim;
    }

    bool
    read(Addr addr)
    {
        auto *pkt = new MemPacket(addr, 4, false, TrafficClass::Gpu,
                                  AccessKind::GlobalData, 0, &client);
        bool ok = cache.tryAccept(pkt);
        if (!ok)
            delete pkt;
        return ok;
    }

    bool
    write(Addr addr)
    {
        auto *pkt = new MemPacket(addr, 4, true, TrafficClass::Gpu,
                                  AccessKind::GlobalData, 0, &client);
        bool ok = cache.tryAccept(pkt);
        if (!ok)
            delete pkt;
        return ok;
    }
};

CacheParams
smallCache()
{
    CacheParams p;
    p.sizeBytes = 1024; // 8 lines.
    p.assoc = 2;
    p.lineSize = 128;
    p.hitLatency = 2;
    p.mshrs = 4;
    p.targetsPerMshr = 4;
    return p;
}

} // namespace

TEST(Cache, MissThenHit)
{
    Rig rig(smallCache());
    ASSERT_TRUE(rig.read(0x1000));
    rig.sim.run();
    EXPECT_EQ(rig.client.responses, 1u);
    EXPECT_EQ(rig.cache.statMisses.value(), 1.0);
    EXPECT_EQ(rig.memory.reads, 1u);

    Tick miss_time = rig.client.lastResponse;
    ASSERT_TRUE(rig.read(0x1000));
    rig.sim.run();
    EXPECT_EQ(rig.client.responses, 2u);
    EXPECT_EQ(rig.cache.statHits.value(), 1.0);
    EXPECT_EQ(rig.memory.reads, 1u); // No second fill.
    // Hit is far faster than miss.
    EXPECT_LT(rig.client.lastResponse - miss_time, miss_time);
}

TEST(Cache, MshrMergesSameLine)
{
    Rig rig(smallCache());
    ASSERT_TRUE(rig.read(0x2000));
    ASSERT_TRUE(rig.read(0x2004));
    ASSERT_TRUE(rig.read(0x2008));
    rig.sim.run();
    EXPECT_EQ(rig.client.responses, 3u);
    EXPECT_EQ(rig.memory.reads, 1u); // One fill serves all three.
    EXPECT_EQ(rig.cache.statMshrMerges.value(), 2.0);
}

TEST(Cache, MshrFullRejects)
{
    CacheParams p = smallCache();
    p.mshrs = 2;
    Rig rig(p);
    ASSERT_TRUE(rig.read(0x1000));
    ASSERT_TRUE(rig.read(0x2000));
    EXPECT_FALSE(rig.read(0x3000)); // Third distinct line: no MSHR.
    EXPECT_EQ(rig.cache.statRejects.value(), 1.0);
    rig.sim.run();
    EXPECT_TRUE(rig.read(0x3000)); // Frees up after fills.
    rig.sim.run();
}

TEST(Cache, TargetsPerMshrLimit)
{
    CacheParams p = smallCache();
    p.targetsPerMshr = 2;
    Rig rig(p);
    ASSERT_TRUE(rig.read(0x1000));
    ASSERT_TRUE(rig.read(0x1004));
    EXPECT_FALSE(rig.read(0x1008));
    rig.sim.run();
}

TEST(Cache, DirtyEvictionWritesBack)
{
    CacheParams p = smallCache(); // 4 sets x 2 ways.
    Rig rig(p);
    // Three lines mapping to the same set (set stride = 4 * 128).
    Addr stride = 4 * 128;
    ASSERT_TRUE(rig.write(0x0));
    rig.sim.run();
    ASSERT_TRUE(rig.read(stride));
    rig.sim.run();
    ASSERT_TRUE(rig.read(2 * stride)); // Evicts the dirty line 0.
    rig.sim.run();
    EXPECT_EQ(rig.cache.statWritebacks.value(), 1.0);
    EXPECT_EQ(rig.memory.writes, 1u);

    // Line 0 must now miss again.
    ASSERT_TRUE(rig.read(0x0));
    rig.sim.run();
    EXPECT_EQ(rig.cache.statMisses.value(), 4.0);
}

TEST(Cache, LruVictimSelection)
{
    Rig rig(smallCache());
    Addr stride = 4 * 128;
    // Fill both ways of set 0, touch line A again, then insert C:
    // B (least recent) must be evicted, A stays.
    ASSERT_TRUE(rig.read(0));           // A
    rig.sim.run();
    ASSERT_TRUE(rig.read(stride));      // B
    rig.sim.run();
    ASSERT_TRUE(rig.read(0));           // Touch A.
    rig.sim.run();
    ASSERT_TRUE(rig.read(2 * stride));  // C evicts B.
    rig.sim.run();
    EXPECT_TRUE(rig.cache.isCached(0));
    EXPECT_FALSE(rig.cache.isCached(stride));
    EXPECT_TRUE(rig.cache.isCached(2 * stride));
}

TEST(Cache, PostedWritesComplete)
{
    Rig rig(smallCache());
    auto *pkt = new MemPacket(0x40, 4, true, TrafficClass::Gpu,
                              AccessKind::Color, 0, nullptr);
    ASSERT_TRUE(rig.cache.tryAccept(pkt));
    rig.sim.run(); // Must not leak or crash; fill + dirty install.
    EXPECT_TRUE(rig.cache.isCached(0x40));
}

TEST(Cache, SameTickResponsesCompleteInArrivalOrder)
{
    Rig rig(smallCache());
    ASSERT_TRUE(rig.read(0x1000));
    ASSERT_TRUE(rig.read(0x2000));
    rig.sim.run();
    rig.client.order.clear();

    // Three hits accepted in one tick share a due tick.
    ASSERT_TRUE(rig.read(0x2000));
    ASSERT_TRUE(rig.read(0x1000));
    ASSERT_TRUE(rig.read(0x2004));
    rig.sim.run();
    EXPECT_EQ(rig.client.order,
              (std::vector<Addr>{0x2000, 0x1000, 0x2004}));

    // A fill answers its merged targets in arrival order, all at once.
    rig.client.order.clear();
    ASSERT_TRUE(rig.read(0x5008));
    ASSERT_TRUE(rig.read(0x5000));
    ASSERT_TRUE(rig.read(0x5004));
    rig.sim.run();
    EXPECT_EQ(rig.client.order,
              (std::vector<Addr>{0x5008, 0x5000, 0x5004}));
}

TEST(Cache, CheckpointListsMshrsByLineAddress)
{
    Rig rig(smallCache());
    rig.sim.checkpointRegistry().registerClient("client", rig.client);
    // Slots fill in miss order; the section lists lines in order.
    ASSERT_TRUE(rig.read(0x3000));
    ASSERT_TRUE(rig.read(0x1000));
    ASSERT_TRUE(rig.read(0x2000));
    ASSERT_TRUE(rig.read(0x1004));

    CheckpointOut out("l1");
    rig.cache.serialize(out);
    const std::string &bytes = out.bytes();
    CheckpointIn in(out.sectionName(), bytes.data(), bytes.size());
    ASSERT_EQ(in.getU64("num_mshrs"), 3u);
    EXPECT_EQ(in.getU64("mshr0.line_addr"), 0x1000u);
    EXPECT_EQ(in.getU64("mshr0.num_targets"), 2u);
    EXPECT_EQ(in.getU64("mshr1.line_addr"), 0x2000u);
    EXPECT_EQ(in.getU64("mshr2.line_addr"), 0x3000u);
    rig.sim.run();
    EXPECT_EQ(rig.client.responses, 4u);
}

TEST(MshrFile, CapacityMergingAndReleaseInAnyOrder)
{
    MshrFile file(4, 3);
    MemPacket pkt(0, 4, false, TrafficClass::Gpu, AccessKind::GlobalData,
                  0);
    for (Addr line : {0x4000, 0x1000, 0x3000, 0x2000}) {
        ASSERT_TRUE(file.available());
        Mshr &mshr = file.allocate(line);
        EXPECT_EQ(mshr.lineAddr, line);
        EXPECT_TRUE(mshr.targets.empty());
    }
    EXPECT_FALSE(file.available());
    EXPECT_EQ(file.inUse(), 4u);
    EXPECT_EQ(file.find(0x5000), nullptr);

    // Merging stops at targetsPerMshr.
    Mshr *merged = file.find(0x1000);
    ASSERT_NE(merged, nullptr);
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(file.canAddTarget(*merged));
        merged->targets.push_back(&pkt);
    }
    EXPECT_FALSE(file.canAddTarget(*merged));
    file.find(0x3000)->targets.push_back(&pkt);

    // Release out of allocation order; the survivors keep their state.
    file.release(0x1000);
    file.release(0x4000);
    EXPECT_EQ(file.inUse(), 2u);
    EXPECT_EQ(file.find(0x1000), nullptr);
    EXPECT_EQ(file.find(0x4000), nullptr);
    ASSERT_NE(file.find(0x3000), nullptr);
    EXPECT_EQ(file.find(0x3000)->targets.size(), 1u);

    // A reused slot starts empty but keeps its targets' capacity.
    Mshr &reused = file.allocate(0x5000);
    EXPECT_TRUE(reused.targets.empty());
    EXPECT_FALSE(reused.fillSent);
    file.allocate(0x0);
    EXPECT_FALSE(file.available());
    EXPECT_GE(file.find(0x5000)->targets.capacity() +
                  file.find(0x0)->targets.capacity(),
              3u);

    std::vector<Addr> sorted;
    for (const Mshr *mshr : file.sortedEntries())
        sorted.push_back(mshr->lineAddr);
    EXPECT_EQ(sorted, (std::vector<Addr>{0x0, 0x2000, 0x3000, 0x5000}));
}

/**
 * Property test: the timing cache's hit/miss decisions must match a
 * simple reference model over random traffic.
 */
class CacheVsReference : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheVsReference, HitMissSequenceMatches)
{
    CacheParams p;
    p.sizeBytes = 2048;
    p.assoc = 2;
    p.lineSize = 128;
    p.mshrs = 1; // Serialize so LRU state is deterministic.
    Rig rig(p);
    Random rng(GetParam());

    // Reference: per-set LRU lists.
    unsigned sets = 2048 / 128 / 2;
    std::vector<std::vector<Addr>> ref(sets);

    for (int i = 0; i < 2000; ++i) {
        Addr line = (rng.next() % 64) * 128;
        auto set = static_cast<unsigned>((line / 128) % sets);
        auto &lru = ref[set];
        auto it = std::find(lru.begin(), lru.end(), line);
        bool ref_hit = it != lru.end();
        if (ref_hit)
            lru.erase(it);
        lru.push_back(line);
        if (lru.size() > 2)
            lru.erase(lru.begin());

        double hits_before = rig.cache.statHits.value();
        ASSERT_TRUE(rig.read(line));
        rig.sim.run(); // Complete before the next access.
        bool model_hit = rig.cache.statHits.value() > hits_before;
        ASSERT_EQ(model_hit, ref_hit) << "access " << i << " line 0x"
                                      << std::hex << line;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheVsReference,
                         ::testing::Values(11u, 22u, 33u));
