#include <gtest/gtest.h>

#include <cmath>

#include "core/shader_builder.hh"
#include "scenes/shaders.hh"
#include "scenes/workloads.hh"
#include "soc/configs.hh"

using namespace emerald;

namespace
{

struct KernelRig
{
    soc::StandaloneGpu rig{64, 64};
    core::ShaderBuilder builder;

    std::uint64_t
    run(gpu::KernelLaunch launch)
    {
        bool done = false;
        launch.onDone = [&] { done = true; };
        Tick start = rig.sim().curTick();
        rig.kernels().launch(std::move(launch));
        EXPECT_TRUE(rig.runUntil([&] { return done; }));
        return rig.sim().curTick() - start;
    }
};

} // namespace

TEST(Gpgpu, VecAddCorrectThroughFullTiming)
{
    KernelRig kr;
    auto &fmem = kr.rig.functionalMemory();
    unsigned n = 4096;
    Addr a = fmem.allocate(n * 4), b = fmem.allocate(n * 4),
         c = fmem.allocate(n * 4);
    for (unsigned i = 0; i < n; ++i) {
        fmem.writeF32(a + i * 4, static_cast<float>(i) * 0.5f);
        fmem.writeF32(b + i * 4, 1.0f);
    }
    gpu::KernelLaunch launch;
    launch.program =
        kr.builder.buildKernel("vecadd", scenes::kernelVecAddSource());
    launch.blockX = 128;
    launch.gridX = n / 128;
    launch.memory = &fmem;
    launch.constants = {static_cast<float>(a), static_cast<float>(b),
                        static_cast<float>(c), static_cast<float>(n)};
    kr.run(std::move(launch));

    for (unsigned i = 0; i < n; ++i) {
        ASSERT_FLOAT_EQ(fmem.readF32(c + i * 4),
                        static_cast<float>(i) * 0.5f + 1.0f)
            << i;
    }
    // Every element loaded twice and stored once via L1D.
    EXPECT_GT(kr.rig.gpu().core(0).l1d().accesses(), 0u);
}

TEST(Gpgpu, TailBlockPartialWarp)
{
    KernelRig kr;
    auto &fmem = kr.rig.functionalMemory();
    unsigned n = 100; // Not a multiple of the CTA size.
    Addr a = fmem.allocate(n * 4), b = fmem.allocate(n * 4),
         c = fmem.allocate((n + 64) * 4);
    for (unsigned i = 0; i < n; ++i) {
        fmem.writeF32(a + i * 4, 1.0f);
        fmem.writeF32(b + i * 4, 2.0f);
    }
    gpu::KernelLaunch launch;
    launch.program =
        kr.builder.buildKernel("vecadd", scenes::kernelVecAddSource());
    launch.blockX = 64;
    launch.gridX = 2; // 128 threads for 100 elements.
    launch.memory = &fmem;
    launch.constants = {static_cast<float>(a), static_cast<float>(b),
                        static_cast<float>(c), static_cast<float>(n)};
    kr.run(std::move(launch));
    for (unsigned i = 0; i < n; ++i)
        ASSERT_FLOAT_EQ(fmem.readF32(c + i * 4), 3.0f);
    // Out-of-range elements untouched.
    EXPECT_FLOAT_EQ(fmem.readF32(c + n * 4), 0.0f);
}

TEST(Gpgpu, ReductionWithBarriersAcrossManyCtAs)
{
    KernelRig kr;
    auto &fmem = kr.rig.functionalMemory();
    unsigned n = 2048;
    unsigned block = 64;
    unsigned ctas = n / block;
    Addr in = fmem.allocate(n * 4);
    Addr out = fmem.allocate(ctas * 4);
    for (unsigned i = 0; i < n; ++i)
        fmem.writeF32(in + i * 4, 1.0f);

    gpu::KernelLaunch launch;
    launch.program =
        kr.builder.buildKernel("reduce", scenes::kernelReduceSource());
    launch.blockX = block;
    launch.gridX = ctas;
    launch.memory = &fmem;
    launch.sharedBytesPerCta = block * 4;
    launch.constants = {static_cast<float>(in),
                        static_cast<float>(out)};
    kr.run(std::move(launch));

    for (unsigned i = 0; i < ctas; ++i) {
        ASSERT_FLOAT_EQ(fmem.readF32(out + i * 4),
                        static_cast<float>(block))
            << "cta " << i;
    }
}

TEST(Gpgpu, ReleasedBarrierGroupsLeaveNoState)
{
    // Every CTA gets a fresh barrier key; a core must forget a group
    // once its barrier releases, or each barrier-using CTA would leave
    // an entry behind for the life of the run.
    KernelRig kr;
    auto &fmem = kr.rig.functionalMemory();
    unsigned n = 1024;
    unsigned block = 64;
    Addr in = fmem.allocate(n * 4);
    Addr out = fmem.allocate(n / block * 4);
    for (unsigned i = 0; i < n; ++i)
        fmem.writeF32(in + i * 4, 1.0f);
    const auto *prog =
        kr.builder.buildKernel("reduce", scenes::kernelReduceSource());
    for (int run = 0; run < 2; ++run) {
        gpu::KernelLaunch launch;
        launch.program = prog;
        launch.blockX = block;
        launch.gridX = n / block;
        launch.memory = &fmem;
        launch.sharedBytesPerCta = block * 4;
        launch.constants = {static_cast<float>(in),
                            static_cast<float>(out)};
        kr.run(std::move(launch));
        for (unsigned c = 0; c < kr.rig.gpu().numCores(); ++c) {
            const gpu::SimtCore &core = kr.rig.gpu().core(c);
            EXPECT_EQ(core.openBarrierGroups(), 0u)
                << "run " << run << " core " << c;
        }
    }
    EXPECT_FLOAT_EQ(fmem.readF32(out), static_cast<float>(block));
}

TEST(Gpgpu, DivergentKernelCorrectAndCostsMore)
{
    KernelRig kr;
    auto &fmem = kr.rig.functionalMemory();
    unsigned n = 4096;
    Addr x = fmem.allocate(n * 4), y = fmem.allocate(n * 4);
    for (unsigned i = 0; i < n; ++i) {
        fmem.writeF32(x + i * 4, 2.0f);
        fmem.writeF32(y + i * 4, 1.0f);
    }
    gpu::KernelLaunch launch;
    launch.program = kr.builder.buildKernel(
        "saxpy", scenes::kernelSaxpyBranchySource());
    launch.blockX = 128;
    launch.gridX = n / 128;
    launch.memory = &fmem;
    launch.constants = {static_cast<float>(x), static_cast<float>(y),
                        3.0f, static_cast<float>(n)};
    kr.run(std::move(launch));

    for (unsigned i = 0; i < n; ++i) {
        float expect = (i % 2 == 0) ? 1.0f + 2.0f * 3.0f * 2.0f
                                    : 1.0f + 2.0f * 3.0f;
        ASSERT_FLOAT_EQ(fmem.readF32(y + i * 4), expect) << i;
    }
}

TEST(Gpgpu, BackToBackKernelsQueue)
{
    KernelRig kr;
    auto &fmem = kr.rig.functionalMemory();
    unsigned n = 512;
    Addr a = fmem.allocate(n * 4), b = fmem.allocate(n * 4),
         c = fmem.allocate(n * 4);
    for (unsigned i = 0; i < n; ++i) {
        fmem.writeF32(a + i * 4, 1.0f);
        fmem.writeF32(b + i * 4, 1.0f);
    }
    const auto *prog =
        kr.builder.buildKernel("vecadd", scenes::kernelVecAddSource());

    int completed = 0;
    for (int k = 0; k < 3; ++k) {
        gpu::KernelLaunch launch;
        launch.program = prog;
        launch.blockX = 128;
        launch.gridX = n / 128;
        launch.memory = &fmem;
        // Chain: c = a+b, then a = c+b, then c = a+b again.
        if (k == 1)
            launch.constants = {static_cast<float>(c),
                                static_cast<float>(b),
                                static_cast<float>(a),
                                static_cast<float>(n)};
        else
            launch.constants = {static_cast<float>(a),
                                static_cast<float>(b),
                                static_cast<float>(c),
                                static_cast<float>(n)};
        launch.onDone = [&completed] { ++completed; };
        kr.rig.kernels().launch(std::move(launch));
    }
    ASSERT_TRUE(kr.rig.runUntil([&] { return completed == 3; }));
    // a = (1+1)+1 = 3, final c = 3+1 = 4.
    EXPECT_FLOAT_EQ(fmem.readF32(a + 4), 3.0f);
    EXPECT_FLOAT_EQ(fmem.readF32(c + 4), 4.0f);
}

TEST(Gpgpu, GraphicsAndComputeShareTheCores)
{
    // The unified-model headline: a frame and a kernel interleave on
    // the same SIMT cores within one simulation.
    KernelRig kr;
    auto &fmem = kr.rig.functionalMemory();
    scenes::SceneRenderer scene(
        kr.rig.pipeline(),
        scenes::makeWorkload(scenes::WorkloadId::W3_Cube), fmem);

    unsigned n = 1024;
    Addr a = fmem.allocate(n * 4), b = fmem.allocate(n * 4),
         c = fmem.allocate(n * 4);
    for (unsigned i = 0; i < n; ++i) {
        fmem.writeF32(a + i * 4, 2.0f);
        fmem.writeF32(b + i * 4, 3.0f);
    }

    bool frame_done = false;
    bool kernel_done = false;
    scene.renderFrame(0, [&](const core::FrameStats &) {
        frame_done = true;
    });
    gpu::KernelLaunch launch;
    launch.program =
        kr.builder.buildKernel("vecadd", scenes::kernelVecAddSource());
    launch.blockX = 128;
    launch.gridX = n / 128;
    launch.memory = &fmem;
    launch.constants = {static_cast<float>(a), static_cast<float>(b),
                        static_cast<float>(c), static_cast<float>(n)};
    launch.onDone = [&] { kernel_done = true; };
    kr.rig.kernels().launch(std::move(launch));

    ASSERT_TRUE(kr.rig.runUntil(
        [&] { return frame_done && kernel_done; }));
    EXPECT_FLOAT_EQ(fmem.readF32(c + 4), 5.0f);
    EXPECT_GT(kr.rig.gpu().core(0).statTasksCompute.value() +
                  kr.rig.gpu().core(1).statTasksCompute.value() +
                  kr.rig.gpu().core(2).statTasksCompute.value(),
              0.0);
    EXPECT_GT(kr.rig.pipeline().lastFrame().fragments, 100u);
}
