/**
 * @file
 * Tests for the scheduling-policy registries (gpu/warp_sched.hh and
 * mem/sched_factory.hh): registry lookup with near-miss diagnostics,
 * the built-in policies' pick() behavior, LRR's bit-exactness
 * against the core's original round-robin scan, an end-to-end smoke
 * run of every warp policy through the full timing model, and a
 * golden of each policy's issue timing on three kernels.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "core/shader_builder.hh"
#include "gpu/gpu_top.hh"
#include "gpu/warp_sched.hh"
#include "mem/sched_factory.hh"
#include "scenes/shaders.hh"
#include "sim/simulation.hh"
#include "sim/simulation_builder.hh"
#include "soc/configs.hh"

using namespace emerald;

namespace
{

/** Run one vecadd kernel on a fresh rig and check the results. */
std::uint64_t
runVecAdd(const SimulationBuilder &builder)
{
    soc::StandaloneGpu rig(64, 64, soc::caseStudy2GpuParams(),
                           soc::caseStudy2MemParams(), builder);
    auto &fmem = rig.functionalMemory();
    unsigned n = 1024;
    Addr a = fmem.allocate(n * 4), b = fmem.allocate(n * 4),
         c = fmem.allocate(n * 4);
    for (unsigned i = 0; i < n; ++i) {
        fmem.writeF32(a + i * 4, static_cast<float>(i));
        fmem.writeF32(b + i * 4, 2.0f);
    }
    core::ShaderBuilder sb;
    gpu::KernelLaunch launch;
    launch.program = sb.buildKernel("vecadd",
                                    scenes::kernelVecAddSource());
    launch.blockX = 128;
    launch.gridX = n / 128;
    launch.memory = &fmem;
    launch.constants = {static_cast<float>(a), static_cast<float>(b),
                        static_cast<float>(c), static_cast<float>(n)};
    bool done = false;
    launch.onDone = [&] { done = true; };
    rig.kernels().launch(std::move(launch));
    EXPECT_TRUE(rig.runUntil([&] { return done; }));
    for (unsigned i = 0; i < n; ++i) {
        EXPECT_FLOAT_EQ(fmem.readF32(c + i * 4),
                        static_cast<float>(i) + 2.0f)
            << i;
    }
    return rig.sim().determinismHash();
}

/** Issue-timing fingerprint of one kernel run (golden test). */
struct IssueTiming
{
    std::uint64_t hash = 0;
    std::uint64_t warpInstrs = 0;
    std::uint64_t cyclesActive = 0;
    std::uint64_t stallNoReadyWarp = 0;

    bool
    operator==(const IssueTiming &o) const
    {
        return hash == o.hash && warpInstrs == o.warpInstrs &&
               cyclesActive == o.cyclesActive &&
               stallNoReadyWarp == o.stallNoReadyWarp;
    }
};

std::ostream &
operator<<(std::ostream &os, const IssueTiming &t)
{
    return os << "{0x" << std::hex << t.hash << std::dec << "ULL, "
              << t.warpInstrs << ", " << t.cyclesActive << ", "
              << t.stallNoReadyWarp << "}";
}

/**
 * Run kernel @p kernel ("vecadd", "reduce" or "saxpy") under warp
 * policy @p policy on a fresh case-study-II rig and collect its
 * event-stream hash plus the core-summed issue counters.
 */
IssueTiming
runIssueTiming(const std::string &kernel, const std::string &policy)
{
    soc::StandaloneGpu rig(
        64, 64, soc::caseStudy2GpuParams(), soc::caseStudy2MemParams(),
        SimulationBuilder().checkDeterminism().warpScheduler(policy));
    auto &fmem = rig.functionalMemory();
    core::ShaderBuilder sb;
    gpu::KernelLaunch launch;
    launch.memory = &fmem;
    if (kernel == "reduce") {
        unsigned n = 2048, block = 64;
        Addr in = fmem.allocate(n * 4), out = fmem.allocate(n / block * 4);
        for (unsigned i = 0; i < n; ++i)
            fmem.writeF32(in + i * 4, 1.0f);
        launch.program =
            sb.buildKernel("reduce", scenes::kernelReduceSource());
        launch.blockX = block;
        launch.gridX = n / block;
        launch.sharedBytesPerCta = block * 4;
        launch.constants = {static_cast<float>(in),
                            static_cast<float>(out)};
    } else {
        unsigned n = 2048;
        Addr x = fmem.allocate(n * 4), y = fmem.allocate(n * 4),
             z = fmem.allocate(n * 4);
        for (unsigned i = 0; i < n; ++i) {
            fmem.writeF32(x + i * 4, static_cast<float>(i));
            fmem.writeF32(y + i * 4, 1.0f);
        }
        launch.blockX = 128;
        launch.gridX = n / 128;
        if (kernel == "vecadd") {
            launch.program =
                sb.buildKernel("vecadd", scenes::kernelVecAddSource());
            launch.constants = {static_cast<float>(x),
                                static_cast<float>(y),
                                static_cast<float>(z),
                                static_cast<float>(n)};
        } else {
            launch.program = sb.buildKernel(
                "saxpy", scenes::kernelSaxpyBranchySource());
            launch.constants = {static_cast<float>(x),
                                static_cast<float>(y), 3.0f,
                                static_cast<float>(n)};
        }
    }
    bool done = false;
    launch.onDone = [&] { done = true; };
    rig.kernels().launch(std::move(launch));
    EXPECT_TRUE(rig.runUntil([&] { return done; }));

    IssueTiming t;
    t.hash = rig.sim().determinismHash();
    for (unsigned c = 0; c < rig.gpu().numCores(); ++c) {
        gpu::SimtCore &core = rig.gpu().core(c);
        t.warpInstrs +=
            static_cast<std::uint64_t>(core.statWarpInstrs.value());
        t.cyclesActive +=
            static_cast<std::uint64_t>(core.statCyclesActive.value());
        t.stallNoReadyWarp += static_cast<std::uint64_t>(
            core.statStallNoReadyWarp.value());
    }
    return t;
}

} // namespace

// Registry lookup --------------------------------------------------------

TEST(WarpSchedRegistry, BuiltinsAreRegistered)
{
    auto policies = gpu::warpSchedulerPolicies();
    for (const char *name : {"lrr", "gto", "wasp"}) {
        EXPECT_NE(std::find(policies.begin(), policies.end(), name),
                  policies.end())
            << name;
    }
}

TEST(WarpSchedRegistry, EmptyNameSelectsDefault)
{
    auto sched = gpu::createWarpScheduler("", {0, 2, 4}, 0);
    ASSERT_NE(sched, nullptr);
    EXPECT_STREQ(sched->policyName(), gpu::defaultWarpSchedPolicy);
}

TEST(WarpSchedRegistry, UnknownPolicySuggestsNearMiss)
{
    EXPECT_DEATH(gpu::createWarpScheduler("lr", {0}, 0),
                 "unknown warp scheduler policy 'lr'.*did you mean "
                 "'lrr'");
    EXPECT_DEATH(gpu::createWarpScheduler("gtoo", {0}, 0),
                 "did you mean 'gto'");
}

TEST(MemSchedRegistry, BuiltinsAreRegistered)
{
    auto policies = mem::memSchedulerPolicies();
    for (const char *name : {"frfcfs", "dash"}) {
        EXPECT_NE(std::find(policies.begin(), policies.end(), name),
                  policies.end())
            << name;
    }
}

TEST(MemSchedRegistry, FrfcfsBundleHasNoCoordinator)
{
    Simulation sim;
    mem::MemSchedContext ctx{sim};
    auto bundle = mem::createMemScheduler("", ctx);
    ASSERT_NE(bundle.scheduler, nullptr);
    EXPECT_EQ(bundle.coordinator, nullptr);
    EXPECT_STREQ(bundle.scheduler->policyName(), "FR-FCFS");
}

TEST(MemSchedRegistry, DashBundleCarriesCoordinator)
{
    Simulation sim;
    mem::MemSchedContext ctx{sim};
    ctx.coordinatorName = "dash";
    auto bundle = mem::createMemScheduler("dash", ctx);
    ASSERT_NE(bundle.scheduler, nullptr);
    ASSERT_NE(bundle.coordinator, nullptr);
    EXPECT_STREQ(bundle.scheduler->policyName(), "DASH");
    bundle.coordinator->shutdown();
}

TEST(MemSchedRegistry, UnknownPolicySuggestsNearMiss)
{
    Simulation sim;
    mem::MemSchedContext ctx{sim};
    EXPECT_DEATH(mem::createMemScheduler("frfcf", ctx),
                 "unknown memory scheduler policy 'frfcf'.*did you "
                 "mean 'frfcfs'");
}

// Pick behavior ----------------------------------------------------------

namespace
{

/**
 * The policy's priority order over the owned slots whose bits are in
 * @p eligible: pick, drop the winner's bit, repeat. The first entry
 * is what the core issues.
 */
std::vector<unsigned>
pickOrder(gpu::WarpScheduler &sched, const std::vector<gpu::Warp> &warps,
          std::uint64_t eligible)
{
    const std::vector<unsigned> &owned = sched.ownedSlots();
    std::vector<unsigned> order;
    while (eligible) {
        unsigned slot = sched.pick(warps, eligible);
        auto k = std::find(owned.begin(), owned.end(), slot) -
                 owned.begin();
        EXPECT_LT(static_cast<std::size_t>(k), owned.size());
        EXPECT_TRUE((eligible >> k) & 1) << "picked ineligible " << slot;
        eligible &= ~(std::uint64_t{1} << k);
        order.push_back(slot);
    }
    return order;
}

} // namespace

TEST(WarpSchedPolicies, LrrMatchesOriginalRoundRobinScan)
{
    // Lane 1 of a 2-scheduler core owning {1, 3, 5, 7}: the original
    // code scanned all slots from a per-lane _issuePtr starting at 0,
    // skipping non-owned via modulo, so the first owned slot visited
    // was 1 and after issuing slot 3 the next scan started at 5.
    auto sched = gpu::createWarpScheduler("lrr", {1, 3, 5, 7}, 1);
    std::vector<gpu::Warp> warps(8);
    EXPECT_EQ(pickOrder(*sched, warps, 0b1111),
              (std::vector<unsigned>{1, 3, 5, 7}));
    sched->issued(3);
    EXPECT_EQ(pickOrder(*sched, warps, 0b1111),
              (std::vector<unsigned>{5, 7, 1, 3}));
    // Past the cursor, the rotation wraps to the lowest eligible slot.
    EXPECT_EQ(sched->pick(warps, 0b0011), 1u);
    sched->issued(7);
    EXPECT_EQ(pickOrder(*sched, warps, 0b1111),
              (std::vector<unsigned>{1, 3, 5, 7}));
}

TEST(WarpSchedPolicies, LrrCursorRoundTrips)
{
    auto sched = gpu::createWarpScheduler("lrr", {0, 2}, 0);
    sched->issued(2);
    std::uint64_t state = sched->cursorState();
    auto fresh = gpu::createWarpScheduler("lrr", {0, 2}, 0);
    fresh->setCursorState(state);
    std::vector<gpu::Warp> warps(4);
    EXPECT_EQ(pickOrder(*sched, warps, 0b11),
              pickOrder(*fresh, warps, 0b11));
}

TEST(WarpSchedPolicies, LrrRotatesAcrossAFullLane)
{
    // 64 owned slots: the cursor on the last bit wraps to bit 0.
    std::vector<unsigned> owned;
    for (unsigned k = 0; k < 64; ++k)
        owned.push_back(2 * k);
    auto sched = gpu::createWarpScheduler("lrr", owned, 0);
    std::vector<gpu::Warp> warps(128);
    sched->issued(126);
    EXPECT_EQ(sched->pick(warps, ~std::uint64_t{0}), 0u);
    sched->issued(124);
    EXPECT_EQ(sched->pick(warps, ~std::uint64_t{0}), 126u);
}

TEST(WarpSchedPolicies, GtoStaysGreedyThenFallsBackToOldest)
{
    auto sched = gpu::createWarpScheduler("gto", {0, 1, 2, 3}, 0);
    std::vector<gpu::Warp> warps(4);
    for (unsigned i = 0; i < 4; ++i) {
        warps[i].valid = true;
        // Launch order: slot 2 oldest, then 0, 3, 1.
        warps[i].launchSeq = std::vector<std::uint64_t>{1, 3, 0, 2}[i];
    }
    // No last-issued warp yet: pure oldest-first.
    EXPECT_EQ(pickOrder(*sched, warps, 0b1111),
              (std::vector<unsigned>{2, 0, 3, 1}));
    sched->issued(3);
    // Greedy: stay on 3; the rest by age.
    EXPECT_EQ(pickOrder(*sched, warps, 0b1111),
              (std::vector<unsigned>{3, 2, 0, 1}));
    // The greedy warp stops being eligible: oldest of the rest.
    warps[3].valid = false;
    EXPECT_EQ(pickOrder(*sched, warps, 0b0111),
              (std::vector<unsigned>{2, 0, 1}));
}

TEST(WarpSchedPolicies, WaspBreaksTiesBySlotForEmptyWarps)
{
    // Empty warps all have "no memory instruction in window": the
    // lookahead distance ties and the slot index breaks it.
    auto sched = gpu::createWarpScheduler("wasp", {0, 2, 4}, 0);
    std::vector<gpu::Warp> warps(6);
    EXPECT_EQ(pickOrder(*sched, warps, 0b111),
              (std::vector<unsigned>{0, 2, 4}));
}

// End-to-end smoke -------------------------------------------------------

TEST(WarpSchedPolicies, EveryPolicyRunsKernelsCorrectly)
{
    for (const std::string &policy : gpu::warpSchedulerPolicies()) {
        SCOPED_TRACE(policy);
        runVecAdd(SimulationBuilder().warpScheduler(policy));
    }
}

TEST(WarpSchedPolicies, DefaultPathIsBitIdenticalToExplicitLrr)
{
    std::uint64_t dflt =
        runVecAdd(SimulationBuilder().checkDeterminism());
    std::uint64_t lrr = runVecAdd(
        SimulationBuilder().checkDeterminism().warpScheduler("lrr"));
    EXPECT_EQ(dflt, lrr);
}

TEST(WarpSchedPolicies, IssueTimingMatchesGolden)
{
    // Recorded before warp eligibility became incremental per-slot
    // state: any change to which warp issues on which cycle moves the
    // event hash or the counters. Integer-only control flow, so the
    // values do not depend on the compiler's float code generation.
    struct Golden
    {
        const char *kernel;
        const char *policy;
        IssueTiming expect;
    };
    const Golden golden[] = {
        {"vecadd", "lrr", {0xc98cfdb22989b975ULL, 1280, 1028, 776}},
        {"vecadd", "gto", {0x2fd5d26e1a71551bULL, 1280, 1138, 996}},
        {"vecadd", "wasp", {0x64fed016886fcbb5ULL, 1280, 1092, 904}},
        {"reduce", "lrr", {0xf73a92f2bd8f1c17ULL, 5184, 4992, 4800}},
        {"reduce", "gto", {0xd34c3a08d8888caeULL, 5184, 5622, 6060}},
        {"reduce", "wasp", {0x740068f319fd3316ULL, 5184, 5390, 5596}},
        {"saxpy", "lrr", {0xd8a71aaf708d431bULL, 1600, 1356, 1112}},
        {"saxpy", "gto", {0xe1d385ba5af87255ULL, 1600, 1702, 1804}},
        {"saxpy", "wasp", {0xfe3802b838da3f07ULL, 1600, 1512, 1424}},
    };
    for (const Golden &g : golden) {
        SCOPED_TRACE(std::string(g.kernel) + "/" + g.policy);
        EXPECT_EQ(runIssueTiming(g.kernel, g.policy), g.expect);
    }
}
