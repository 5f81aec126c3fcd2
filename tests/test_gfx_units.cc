#include <gtest/gtest.h>

#include "core/dfsl.hh"
#include "core/shader_builder.hh"
#include "core/tc_stage.hh"
#include "core/vpo_unit.hh"
#include "core/wt_mapping.hh"

using namespace emerald;
using namespace emerald::core;

namespace
{

FragmentTile
tileAt(int tx, int ty, std::uint16_t cover)
{
    FragmentTile t;
    t.tileX = tx;
    t.tileY = ty;
    t.coverMask = cover;
    return t;
}

} // namespace

TEST(Pmrb, ReleasesInSequenceOrder)
{
    Pmrb pmrb;
    pmrb.reset();

    auto prims = std::make_shared<std::vector<PrimRecord>>();
    // Second warp's mask arrives first.
    pmrb.insert({10, 10, 0x3ffu, prims});
    EXPECT_FALSE(pmrb.ready(false));

    pmrb.insert({0, 10, 0x001u, prims});
    ASSERT_TRUE(pmrb.ready(false));
    PrimitiveMask first = pmrb.pop(false);
    EXPECT_EQ(first.firstSeq, 0u);
    ASSERT_TRUE(pmrb.ready(false));
    EXPECT_EQ(pmrb.pop(false).firstSeq, 10u);
    EXPECT_TRUE(pmrb.empty());
    EXPECT_EQ(pmrb.nextExpected(), 20u);
}

TEST(ClusterMasks, CoverageFollowsBoundingBoxes)
{
    WtMapping map(256, 192, 4, 1); // 4 cores = 4 clusters of 1.
    std::vector<PrimRecord> prims(2);
    prims[0].seq = 0;
    prims[0].tris.resize(1); // Non-culled.
    prims[0].tcX0 = 0;
    prims[0].tcY0 = 0;
    prims[0].tcX1 = 0;
    prims[0].tcY1 = 0; // Single TC tile -> single cluster.
    prims[1].seq = 1;
    prims[1].tris.resize(1);
    prims[1].tcX0 = 0;
    prims[1].tcY0 = 0;
    prims[1].tcX1 = 31;
    prims[1].tcY1 = 23; // Whole screen -> every cluster.

    auto masks = computeClusterMasks(prims, map, 1, 4);
    ASSERT_EQ(masks.size(), 4u);
    unsigned owner = map.coreOf(0, 0);
    for (unsigned c = 0; c < 4; ++c) {
        EXPECT_EQ((masks[c] >> 1) & 1u, 1u) << "cluster " << c;
        EXPECT_EQ(masks[c] & 1u, c == owner ? 1u : 0u);
    }
}

TEST(ClusterMasks, CulledPrimitivesCoverNothing)
{
    WtMapping map(256, 192, 4, 1);
    std::vector<PrimRecord> prims(1);
    prims[0].seq = 0; // tris empty -> culled.
    auto masks = computeClusterMasks(prims, map, 1, 4);
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_EQ(masks[c], 0u);
}

TEST(TcUnit, CoalescesDisjointTilesIntoOneInstance)
{
    TcUnit tc(2, 16, 8);
    // Four raster tiles of TC tile (0,0), full coverage each.
    for (int ty = 0; ty < 2; ++ty)
        for (int tx = 0; tx < 2; ++tx)
            ASSERT_TRUE(tc.tryAdd(tileAt(tx, ty, 0xffffu), 0));
    // Full instance flushes immediately.
    ASSERT_TRUE(tc.hasReady());
    TcInstance inst = tc.popReady();
    EXPECT_EQ(inst.tcX, 0u);
    EXPECT_EQ(inst.fragmentCount(), 64u);
    EXPECT_EQ(tc.flushesFull, 1u);
}

TEST(TcUnit, MergesPartialCoverageFromTwoPrimitives)
{
    TcUnit tc(2, 16, 8);
    ASSERT_TRUE(tc.tryAdd(tileAt(0, 0, 0x00ffu), 0));
    ASSERT_TRUE(tc.tryAdd(tileAt(0, 0, 0xff00u), 1));
    EXPECT_FALSE(tc.hasReady()); // Not full, still staging.
    tc.drain();
    ASSERT_TRUE(tc.hasReady());
    EXPECT_EQ(tc.popReady().fragmentCount(), 16u);
}

TEST(TcUnit, OverlapForcesFlush)
{
    TcUnit tc(2, 16, 8);
    ASSERT_TRUE(tc.tryAdd(tileAt(0, 0, 0x0f0fu), 0));
    // Overlapping coverage at the same raster tile position.
    ASSERT_TRUE(tc.tryAdd(tileAt(0, 0, 0x0001u), 1));
    EXPECT_EQ(tc.flushesConflict, 1u);
    ASSERT_TRUE(tc.hasReady());
    EXPECT_EQ(tc.popReady().fragmentCount(), 8u); // First instance.
    tc.drain();
    ASSERT_TRUE(tc.hasReady());
    EXPECT_EQ(tc.popReady().fragmentCount(), 1u); // Second.
}

TEST(TcUnit, TimeoutFlushesStaleStaging)
{
    TcUnit tc(1, 8, 4);
    ASSERT_TRUE(tc.tryAdd(tileAt(2, 2, 0x000fu), 100));
    tc.tickTimeouts(104);
    EXPECT_FALSE(tc.hasReady());
    tc.tickTimeouts(109);
    EXPECT_TRUE(tc.hasReady());
    EXPECT_EQ(tc.flushesTimeout, 1u);
}

TEST(TcUnit, DistinctPositionsUseDistinctEngines)
{
    TcUnit tc(2, 16, 8);
    ASSERT_TRUE(tc.tryAdd(tileAt(0, 0, 0x1u), 0));
    ASSERT_TRUE(tc.tryAdd(tileAt(10, 10, 0x1u), 0));
    // Third position: both engines busy.
    EXPECT_FALSE(tc.tryAdd(tileAt(20, 20, 0x1u), 0));
    tc.drain();
    EXPECT_EQ(tc.flushesDrain, 2u);
    // Engines freed.
    EXPECT_TRUE(tc.tryAdd(tileAt(20, 20, 0x1u), 0));
}

TEST(TcStage, NextTimeoutCycle)
{
    // No engine staging: nothing can time out.
    TcUnit tc(2, 8, 4);
    EXPECT_FALSE(tc.nextTimeoutCycle());

    // The minimum over staging engines, moved by each add.
    ASSERT_TRUE(tc.tryAdd(tileAt(0, 0, 0x000fu), 100));
    EXPECT_EQ(tc.nextTimeoutCycle(), 108u);
    ASSERT_TRUE(tc.tryAdd(tileAt(10, 10, 0x000fu), 103));
    EXPECT_EQ(tc.nextTimeoutCycle(), 108u);
    ASSERT_TRUE(tc.tryAdd(tileAt(0, 0, 0x00f0u), 106));
    EXPECT_EQ(tc.nextTimeoutCycle(), 111u);

    // It is exactly the first cycle tickTimeouts() flushes at.
    EXPECT_FALSE(tc.tickTimeouts(110));
    EXPECT_TRUE(tc.tickTimeouts(111));
    EXPECT_EQ(tc.flushesTimeout, 1u);
    EXPECT_EQ(tc.nextTimeoutCycle(), 114u);
    EXPECT_TRUE(tc.drain());
    EXPECT_FALSE(tc.drain());
    EXPECT_FALSE(tc.nextTimeoutCycle());

    // A full ready queue blocks every timeout flush until an issue.
    TcUnit full(1, 8, 1);
    ASSERT_TRUE(full.tryAdd(tileAt(0, 0, 0x000fu), 100));
    ASSERT_TRUE(full.drain());
    ASSERT_TRUE(full.readyQueueFull());
    ASSERT_TRUE(full.tryAdd(tileAt(10, 10, 0x000fu), 105));
    EXPECT_FALSE(full.nextTimeoutCycle());
    EXPECT_FALSE(full.tickTimeouts(200));
    full.popReady();
    EXPECT_EQ(full.nextTimeoutCycle(), 113u);
}

TEST(ShaderBuilder, EarlyZWhenEligible)
{
    ShaderBuilder builder;
    RenderState state;
    state.depthTest = true;
    state.depthWrite = true;
    state.blend = false;
    const auto *prog = builder.buildFragment(
        "fs", "sto o[0], 1.0\nsto o[1], 1.0\nsto o[2], 1.0\n"
              "sto o[3], 1.0\n",
        state);
    EXPECT_TRUE(builder.lastUsedEarlyZ());
    // First instruction is the ztest, last is exit.
    EXPECT_EQ(prog->code.front().op, gpu::isa::Opcode::ZTEST);
    EXPECT_EQ(prog->code.back().op, gpu::isa::Opcode::EXIT);
    // Ends with stfb before exit.
    EXPECT_EQ(prog->code[prog->code.size() - 2].op,
              gpu::isa::Opcode::STFB);
}

TEST(ShaderBuilder, LateZWithDiscard)
{
    ShaderBuilder builder;
    RenderState state;
    const auto *prog = builder.buildFragment(
        "fs", "discard\nsto o[0], 1.0\n", state);
    EXPECT_FALSE(builder.lastUsedEarlyZ());
    EXPECT_NE(prog->code.front().op, gpu::isa::Opcode::ZTEST);
    // A ztest still appears (late).
    bool has_ztest = false;
    for (const auto &instr : prog->code)
        has_ztest |= instr.op == gpu::isa::Opcode::ZTEST;
    EXPECT_TRUE(has_ztest);
}

TEST(ShaderBuilder, BlendEpilogueWhenBlending)
{
    ShaderBuilder builder;
    RenderState state;
    state.blend = true;
    state.depthWrite = false;
    const auto *prog = builder.buildFragment(
        "fs", "sto o[0], 0.5\n", state);
    EXPECT_FALSE(builder.lastUsedEarlyZ()); // depthWrite off.
    bool has_blend = false;
    for (const auto &instr : prog->code)
        has_blend |= instr.op == gpu::isa::Opcode::BLEND;
    EXPECT_TRUE(has_blend);
}

TEST(ShaderBuilder, NoZTestWhenDepthDisabled)
{
    ShaderBuilder builder;
    RenderState state;
    state.depthTest = false;
    const auto *prog = builder.buildFragment(
        "fs", "sto o[0], 0.5\n", state);
    for (const auto &instr : prog->code)
        EXPECT_NE(instr.op, gpu::isa::Opcode::ZTEST);
}

TEST(Dfsl, EvaluationSweepsWtRange)
{
    DfslParams p;
    p.minWT = 1;
    p.maxWT = 5;
    p.runFrames = 3;
    DfslController dfsl(p);

    // Evaluation: WT 1..5 in order.
    for (unsigned wt = 1; wt <= 5; ++wt) {
        EXPECT_TRUE(dfsl.evaluating());
        EXPECT_EQ(dfsl.wtForNextFrame(), wt);
        // Pretend WT=3 is fastest.
        dfsl.frameCompleted(wt == 3 ? 100 : 200 + wt);
    }
    // Run phase uses the best WT.
    for (unsigned f = 0; f < 3; ++f) {
        EXPECT_FALSE(dfsl.evaluating());
        EXPECT_EQ(dfsl.wtForNextFrame(), 3u);
        dfsl.frameCompleted(100);
    }
    // Next phase re-evaluates from scratch.
    EXPECT_TRUE(dfsl.evaluating());
    EXPECT_EQ(dfsl.wtForNextFrame(), 1u);
}

TEST(Dfsl, ReEvaluationAdaptsToNewOptimum)
{
    DfslParams p;
    p.minWT = 1;
    p.maxWT = 3;
    p.runFrames = 2;
    DfslController dfsl(p);

    // Phase 1: WT 1 best.
    dfsl.frameCompleted(50);
    dfsl.frameCompleted(100);
    dfsl.frameCompleted(100);
    EXPECT_EQ(dfsl.bestWT(), 1u);
    dfsl.frameCompleted(50);
    dfsl.frameCompleted(50);

    // Phase 2: content changed, WT 3 best now.
    dfsl.frameCompleted(100);
    dfsl.frameCompleted(100);
    dfsl.frameCompleted(40);
    EXPECT_EQ(dfsl.bestWT(), 3u);
    EXPECT_EQ(dfsl.wtForNextFrame(), 3u);
}

TEST(Dfsl, RejectsBadRange)
{
    DfslParams p;
    p.minWT = 5;
    p.maxWT = 2;
    EXPECT_DEATH({ DfslController dfsl(p); }, "WT range");
}

TEST(Pmrb, OutOfOrderPopSkipsMissingMasks)
{
    Pmrb pmrb;
    pmrb.reset();
    auto prims = std::make_shared<std::vector<PrimRecord>>();
    // Mask for seq 10 arrives; seq 0 has not. In-order pop stalls,
    // OOO pop (paper Section 3.3.6) proceeds.
    pmrb.insert({10, 10, 0x3u, prims});
    EXPECT_FALSE(pmrb.ready(false));
    ASSERT_TRUE(pmrb.ready(true));
    PrimitiveMask mask = pmrb.pop(true);
    EXPECT_EQ(mask.firstSeq, 10u);
    EXPECT_TRUE(pmrb.empty());

    // The late mask can still be consumed afterwards.
    pmrb.insert({0, 10, 0x1u, prims});
    ASSERT_TRUE(pmrb.ready(true));
    EXPECT_EQ(pmrb.pop(true).firstSeq, 0u);
    EXPECT_TRUE(pmrb.empty());
}

TEST(TcUnit, FragmentCountSumsAcrossSlots)
{
    TcUnit tc(2, 16, 8);
    ASSERT_TRUE(tc.tryAdd(tileAt(0, 0, 0x0003u), 0)); // 2 frags.
    ASSERT_TRUE(tc.tryAdd(tileAt(1, 0, 0x00ffu), 0)); // 8 frags.
    ASSERT_TRUE(tc.tryAdd(tileAt(0, 1, 0x000fu), 0)); // 4 frags.
    tc.drain();
    ASSERT_TRUE(tc.hasReady());
    EXPECT_EQ(tc.popReady().fragmentCount(), 14u);
}

TEST(TcUnit, ReadyQueueBoundRespected)
{
    TcUnit tc(1, 16, 1); // Ready queue of depth 1.
    ASSERT_TRUE(tc.tryAdd(tileAt(0, 0, 0xffffu), 0));
    ASSERT_TRUE(tc.tryAdd(tileAt(1, 0, 0xffffu), 0));
    ASSERT_TRUE(tc.tryAdd(tileAt(0, 1, 0xffffu), 0));
    ASSERT_TRUE(tc.tryAdd(tileAt(1, 1, 0xffffu), 0)); // Full: flush.
    EXPECT_TRUE(tc.hasReady());
    // The freed engine can stage a new position, but with the ready
    // queue full a timeout cannot flush it out.
    ASSERT_TRUE(tc.tryAdd(tileAt(4, 4, 0xffffu), 0));
    tc.tickTimeouts(1000);
    EXPECT_FALSE(tc.empty());
    tc.popReady(); // Make room; now the drain can flush.
    tc.drain();
    ASSERT_TRUE(tc.hasReady());
    EXPECT_EQ(tc.popReady().tcX, 2u);
}
