#include <gtest/gtest.h>
#include "soc/soc_top.hh"

using namespace emerald;

TEST(SocSmoke, TwoFramesBaseline) {
    soc::SocParams p;
    p.model = scenes::WorkloadId::M2_Cube;
    p.frames = 2;
    p.fbWidth = 192;
    p.fbHeight = 144;
    p.cpuPrepRequests = 300;
    soc::SocTop soc(p);
    soc.run(ticksFromMs(500.0));
    ASSERT_EQ(soc.app().frames().size(), 2u);
    EXPECT_GT(soc.app().frames()[1].gpuTime(), 0u);
    EXPECT_GT(soc.memory().totalBytes(), 100000u);
    EXPECT_GT(soc.memory().bytesFor(TrafficClass::Display), 10000u);
    EXPECT_GT(soc.memory().bytesFor(TrafficClass::Cpu), 10000u);
}

TEST(SocSmoke, DashAndHmcRun) {
    for (auto cfg : {soc::MemConfig::DCB, soc::MemConfig::HMC}) {
        soc::SocParams p;
        p.memConfig = cfg;
        p.model = scenes::WorkloadId::M4_Triangles;
        p.frames = 2;
        p.fbWidth = 192;
        p.fbHeight = 144;
        p.cpuPrepRequests = 300;
        soc::SocTop soc(p);
        soc.run(ticksFromMs(500.0));
        EXPECT_EQ(soc.app().frames().size(), 2u) << soc::memConfigName(cfg);
    }
}

TEST(SocSmoke, DashEventsBoundedByQuanta) {
    // DASH's probabilistic switch is evaluated lazily, so the only DASH
    // events are the clustering quantum (1M cycles of the 2 GHz CPU).
    // A switch timer would add one event every 250 ns.
    soc::SocParams p;
    p.memConfig = soc::MemConfig::DCB;
    p.model = scenes::WorkloadId::M4_Triangles;
    p.frames = 2;
    p.fbWidth = 192;
    p.fbHeight = 144;
    p.cpuPrepRequests = 300;
    ASSERT_EQ(p.cpuClockMHz, 2000.0);
    const Tick quantum = ticksFromUs(500.0);
    soc::SocTop soc(p);
    soc.sim().enableProfiling();
    soc.run(ticksFromMs(500.0));
    ASSERT_EQ(soc.app().frames().size(), 2u);
    const Tick elapsed = soc.sim().curTick();
    ASSERT_GT(elapsed, quantum);
    EXPECT_LE(soc.sim().profiler().eventsFor("dash"),
              elapsed / quantum + 1);
}
