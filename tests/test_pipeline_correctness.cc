#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/shader_builder.hh"
#include "scenes/procedural.hh"
#include "scenes/shaders.hh"
#include "scenes/workloads.hh"
#include "sim/event_queue.hh"
#include "soc/configs.hh"

using namespace emerald;

namespace
{

core::FrameStats
render(soc::StandaloneGpu &rig, scenes::SceneRenderer &scene,
       unsigned frame)
{
    bool done = false;
    core::FrameStats stats;
    scene.renderFrame(frame, [&](const core::FrameStats &s) {
        stats = s;
        done = true;
    });
    EXPECT_TRUE(rig.runUntil([&] { return done; }));
    return stats;
}

/** Count pixels that differ from the clear color. */
unsigned
drawnPixels(core::Framebuffer &fb)
{
    unsigned count = 0;
    for (unsigned y = 0; y < fb.height(); ++y)
        for (unsigned x = 0; x < fb.width(); ++x)
            if (fb.pixel(static_cast<int>(x), static_cast<int>(y)) !=
                0xff000000u)
                ++count;
    return count;
}

/** One fine-queue slot and one TC engine per cluster: raster stalls. */
core::GfxParams
tightGfx()
{
    core::GfxParams gfx;
    gfx.fineQueueDepth = 1;
    gfx.tcEnginesPerCluster = 1;
    return gfx;
}

/**
 * Four warp slots and a two-deep task queue per core: vertex launch and
 * TC issue wait on SIMT task-queue space. Depth 2, not 1: a fully
 * covered TC tile is two fragment warps, which a one-deep queue can
 * never take (RejectsTaskQueueBelowTcTileWarps).
 */
gpu::GpuTopParams
tightGpu()
{
    gpu::GpuTopParams gpu_params = soc::caseStudy2GpuParams();
    gpu_params.core.taskQueueDepth = 2;
    gpu_params.core.maxWarps = 4;
    return gpu_params;
}

/**
 * Render a near full-screen quad and then an identical one behind it
 * into @p fb through @p pipe; returns the frame's stats.
 */
core::FrameStats
renderOccluderFrame(soc::StandaloneGpu &rig, core::GraphicsPipeline &pipe,
                    core::Framebuffer &fb)
{
    mem::FunctionalMemory &fmem = rig.functionalMemory();
    core::ShaderBuilder builder;
    const auto *vs = builder.buildVertex(
        "vs", scenes::vertexShaderSource());
    core::RenderState state;
    state.cullBackface = false;
    const auto *fs = builder.buildFragment(
        "fs", scenes::fragmentFlatSource(), state);

    auto fullscreen = [&](float z) {
        float verts[6][8] = {
            {-1, -1, z, 0, 0, 1, 0, 0}, {1, -1, z, 0, 0, 1, 1, 0},
            {1, 1, z, 0, 0, 1, 1, 1},   {-1, -1, z, 0, 0, 1, 0, 0},
            {1, 1, z, 0, 0, 1, 1, 1},   {-1, 1, z, 0, 0, 1, 0, 1},
        };
        Addr vb = fmem.allocate(sizeof(verts), 128);
        fmem.write(vb, verts, sizeof(verts));
        core::DrawCall draw;
        draw.vertexProgram = vs;
        draw.fragmentProgram = fs;
        draw.vertexCount = 6;
        draw.vertexBufferAddr = vb;
        draw.floatsPerVertex = 8;
        draw.numVaryings = scenes::standardVaryings;
        draw.memory = &fmem;
        draw.state = state;
        draw.constants.resize(24, 0.0f);
        for (int i = 0; i < 4; ++i)
            draw.constants[static_cast<std::size_t>(i) * 4 +
                           static_cast<std::size_t>(i)] = 1.0f;
        draw.constants[19] = 0.5f;
        return draw;
    };

    pipe.beginFrame(&fb);
    pipe.submitDraw(fullscreen(0.1f)); // Near occluder.
    pipe.submitDraw(fullscreen(0.9f)); // Fully occluded.
    bool done = false;
    core::FrameStats stats;
    pipe.endFrame([&](const core::FrameStats &s) {
        stats = s;
        done = true;
    });
    EXPECT_TRUE(rig.runUntil([&] { return done; }));
    return stats;
}

} // namespace

TEST(PipelineCorrectness, ImageIdenticalAcrossWtSizes)
{
    // WT granularity is a performance knob; the image must be
    // bit-identical regardless (depth test makes opaque rendering
    // order-independent).
    std::uint64_t reference = 0;
    for (unsigned wt : {1u, 3u, 10u}) {
        soc::StandaloneGpu rig(128, 96);
        scenes::SceneRenderer scene(
            rig.pipeline(),
            scenes::makeWorkload(scenes::WorkloadId::W4_Suzanne),
            rig.functionalMemory());
        rig.pipeline().setWtSize(wt);
        render(rig, scene, 0);
        std::uint64_t hash = scene.framebuffer().colorHash();
        if (wt == 1)
            reference = hash;
        else
            EXPECT_EQ(hash, reference) << "wt=" << wt;
    }
}

TEST(PipelineCorrectness, ImageIdenticalWithHiZDisabled)
{
    std::uint64_t hashes[2];
    for (int enabled = 0; enabled < 2; ++enabled) {
        core::GfxParams gfx;
        gfx.hizEnabled = enabled != 0;
        soc::StandaloneGpu rig(128, 96);
        // Rebuild the pipeline with the chosen Hi-Z setting.
        core::GraphicsPipeline pipe(rig.sim(), "gfx2", rig.gpu(), 128,
                                    96, gfx);
        scenes::SceneRenderer scene(
            pipe, scenes::makeWorkload(scenes::WorkloadId::W6_Teapot),
            rig.functionalMemory());
        bool done = false;
        scene.renderFrame(0,
                          [&](const core::FrameStats &) { done = true; });
        ASSERT_TRUE(rig.runUntil([&] { return done; }));
        hashes[enabled] = scene.framebuffer().colorHash();
    }
    EXPECT_EQ(hashes[0], hashes[1]);
}

TEST(PipelineCorrectness, NearTriangleOccludesFar)
{
    // Two overlapping full-screen-ish triangles: the nearer one must
    // win everywhere they overlap, regardless of submission order.
    soc::StandaloneGpu rig(64, 64);
    mem::FunctionalMemory &fmem = rig.functionalMemory();
    core::ShaderBuilder builder;

    const auto *vs = builder.buildVertex(
        "vs", scenes::vertexShaderSource());
    core::RenderState state;
    state.cullBackface = false;
    const auto *fs = builder.buildFragment(
        "fs", scenes::fragmentFlatSource(), state);

    // Far triangle (z=0.8): lit color channel a[0..2] encodes id via
    // normals -> just use two draws and distinct light constants.
    auto make_draw = [&](float z, float brightness) {
        // Triangle covering the lower-left half of clip space.
        float verts[3][8] = {
            {-1, -1, z, 0, 0, 1, 0, 0},
            {3, -1, z, 0, 0, 1, 1, 0},
            {-1, 3, z, 0, 0, 1, 0, 1},
        };
        Addr vb = fmem.allocate(sizeof(verts), 128);
        fmem.write(vb, verts, sizeof(verts));
        core::DrawCall draw;
        draw.vertexProgram = vs;
        draw.fragmentProgram = fs;
        draw.vertexCount = 3;
        draw.vertexBufferAddr = vb;
        draw.floatsPerVertex = 8;
        draw.numVaryings = scenes::standardVaryings;
        draw.memory = &fmem;
        draw.state = state;
        draw.constants.resize(24, 0.0f);
        // Identity view-projection.
        for (int i = 0; i < 4; ++i)
            draw.constants[static_cast<std::size_t>(i) * 4 +
                           static_cast<std::size_t>(i)] = 1.0f;
        // Light along +z so n.l = brightness knob via ambient.
        draw.constants[19] = brightness; // ambient only.
        return draw;
    };

    core::Framebuffer fb(64, 64);
    rig.pipeline().beginFrame(&fb);
    rig.pipeline().submitDraw(make_draw(0.5f, 0.9f));  // Near, bright.
    rig.pipeline().submitDraw(make_draw(0.9f, 0.2f));  // Far, dark.
    bool done = false;
    rig.pipeline().endFrame(
        [&](const core::FrameStats &) { done = true; });
    ASSERT_TRUE(rig.runUntil([&] { return done; }));

    // Center pixel: near triangle's bright color must survive even
    // though the far one was drawn second.
    std::uint32_t px = fb.pixel(10, 10);
    unsigned red = px & 0xff;
    EXPECT_NEAR(red, 230, 5); // 0.9 ~ 230.
    EXPECT_LT(fb.depthAt(10, 10), 0.8f);
}

TEST(PipelineCorrectness, TranslucencyBlendsOverOpaque)
{
    soc::StandaloneGpu rig(128, 96);
    scenes::SceneRenderer scene(
        rig.pipeline(),
        scenes::makeWorkload(scenes::WorkloadId::W5_SuzanneAlpha),
        rig.functionalMemory());
    core::FrameStats stats = render(rig, scene, 0);
    EXPECT_GT(stats.fragments, 1000u);
    EXPECT_GT(drawnPixels(scene.framebuffer()), 500u);
}

TEST(PipelineCorrectness, GoldenHashesStable)
{
    // Golden image hashes: any change to shading, rasterization,
    // clipping or ROP ordering shows up here. Regenerate consciously
    // when behaviour is *intentionally* changed.
    struct Golden
    {
        scenes::WorkloadId id;
        const char *name;
    };
    const Golden goldens[] = {
        {scenes::WorkloadId::W3_Cube, "cube"},
        {scenes::WorkloadId::W6_Teapot, "teapot"},
    };
    for (const Golden &golden : goldens) {
        soc::StandaloneGpu rig(128, 96);
        scenes::SceneRenderer scene(rig.pipeline(),
                                    scenes::makeWorkload(golden.id),
                                    rig.functionalMemory());
        render(rig, scene, 0);
        std::uint64_t h1 = scene.framebuffer().colorHash();
        // Deterministic: a second rig renders the same image.
        soc::StandaloneGpu rig2(128, 96);
        scenes::SceneRenderer scene2(rig2.pipeline(),
                                     scenes::makeWorkload(golden.id),
                                     rig2.functionalMemory());
        render(rig2, scene2, 0);
        EXPECT_EQ(scene2.framebuffer().colorHash(), h1) << golden.name;
        EXPECT_GT(drawnPixels(scene.framebuffer()), 300u)
            << golden.name;
    }
}

TEST(PipelineCorrectness, TemporalCoherenceSmallDeltas)
{
    // Consecutive frames differ only slightly (the property DFSL
    // exploits): fragment counts move by far less than the total.
    soc::StandaloneGpu rig(128, 96);
    scenes::SceneRenderer scene(
        rig.pipeline(),
        scenes::makeWorkload(scenes::WorkloadId::W2_Spot),
        rig.functionalMemory());
    core::FrameStats f0 = render(rig, scene, 0);
    core::FrameStats f1 = render(rig, scene, 1);
    double delta = std::abs(static_cast<double>(f1.fragments) -
                            static_cast<double>(f0.fragments));
    EXPECT_LT(delta, 0.1 * static_cast<double>(f0.fragments));
}

TEST(PipelineCorrectness, MultiDrawFramesDrain)
{
    // Several draws in one frame, sequential draining.
    soc::StandaloneGpu rig(96, 96);
    mem::FunctionalMemory &fmem = rig.functionalMemory();
    scenes::Workload w = scenes::makeWorkload(
        scenes::WorkloadId::W3_Cube);
    scenes::SceneRenderer scene(rig.pipeline(), std::move(w), fmem);

    // Render three animated frames back to back.
    for (unsigned f = 0; f < 3; ++f) {
        core::FrameStats stats = render(rig, scene, f);
        EXPECT_GT(stats.fragments, 100u) << "frame " << f;
    }
}

TEST(PipelineCorrectness, EmptyFrameCompletes)
{
    soc::StandaloneGpu rig(64, 64);
    core::Framebuffer fb(64, 64);
    rig.pipeline().beginFrame(&fb);
    bool done = false;
    rig.pipeline().endFrame(
        [&](const core::FrameStats &s) {
            done = true;
            EXPECT_EQ(s.fragments, 0u);
        });
    EXPECT_TRUE(rig.runUntil([&] { return done; }));
}

TEST(PipelineCorrectness, HiZCullsOccludedWork)
{
    // Draw a big near quad first, then geometry behind it: Hi-Z must
    // reject a meaningful share of the occluded tiles.
    soc::StandaloneGpu rig(128, 96);
    core::Framebuffer fb(128, 96);
    core::FrameStats stats = renderOccluderFrame(rig, rig.pipeline(), fb);
    // The second draw's tiles are all occluded; Hi-Z kills them
    // before fragment shading.
    EXPECT_GT(stats.hizRejects, 300u);
    // Fragments shaded ~ one full screen, not two.
    EXPECT_LT(stats.fragments, 128u * 96u * 3 / 2);
}

TEST(PipelineCorrectness, OutOfOrderPrimitivesImageMatches)
{
    // Extension (paper Section 3.3.6): OOO primitive release is safe
    // for depth-tested, non-blended draws - the image must match the
    // in-order pipeline exactly.
    std::uint64_t hashes[2];
    for (int ooo = 0; ooo < 2; ++ooo) {
        core::GfxParams gfx;
        gfx.oooPrimitives = ooo != 0;
        soc::StandaloneGpu rig(128, 96);
        core::GraphicsPipeline pipe(rig.sim(), "gfx_ooo", rig.gpu(),
                                    128, 96, gfx);
        scenes::SceneRenderer scene(
            pipe, scenes::makeWorkload(scenes::WorkloadId::W4_Suzanne),
            rig.functionalMemory());
        bool done = false;
        scene.renderFrame(0,
                          [&](const core::FrameStats &) { done = true; });
        ASSERT_TRUE(rig.runUntil([&] { return done; }));
        hashes[ooo] = scene.framebuffer().colorHash();
    }
    EXPECT_EQ(hashes[0], hashes[1]);
}

TEST(PipelineCorrectness, BackpressureLeavesResultsUnchanged)
{
    // A one-deep fine queue and one TC engine per cluster stall the
    // raster stage on most tiles. A stalled tile is held and pushed
    // later; the image and tile counts must match an unstalled run,
    // including when Hi-Z bounds move while tiles are held (the
    // occluder frame has Hi-Z rejects, see HiZCullsOccludedWork).
    // Only the cycle count may move, and it must, or the stall path
    // never ran.
    const core::GfxParams tight = tightGfx();

    struct Run
    {
        std::uint64_t hash;
        core::FrameStats stats;
    };
    auto suzanne = [](const core::GfxParams &gfx) {
        soc::StandaloneGpu rig(128, 96);
        core::GraphicsPipeline pipe(rig.sim(), "gfx_bp", rig.gpu(), 128,
                                    96, gfx);
        scenes::SceneRenderer scene(
            pipe, scenes::makeWorkload(scenes::WorkloadId::W4_Suzanne),
            rig.functionalMemory());
        bool done = false;
        core::FrameStats stats;
        scene.renderFrame(0, [&](const core::FrameStats &s) {
            stats = s;
            done = true;
        });
        EXPECT_TRUE(rig.runUntil([&] { return done; }));
        return Run{scene.framebuffer().colorHash(), stats};
    };
    auto occluder = [](const core::GfxParams &gfx) {
        soc::StandaloneGpu rig(128, 96);
        core::GraphicsPipeline pipe(rig.sim(), "gfx_bp", rig.gpu(), 128,
                                    96, gfx);
        core::Framebuffer fb(128, 96);
        core::FrameStats stats = renderOccluderFrame(rig, pipe, fb);
        return Run{fb.colorHash(), stats};
    };

    const std::pair<const char *, Run (*)(const core::GfxParams &)>
        frames[] = {{"suzanne", +suzanne}, {"occluder", +occluder}};
    for (const auto &[name, frame] : frames) {
        Run base = frame(core::GfxParams{});
        Run stalled = frame(tight);
        EXPECT_GT(base.stats.rasterTiles, 0u) << name;
        EXPECT_EQ(stalled.hash, base.hash) << name;
        EXPECT_EQ(stalled.stats.rasterTiles, base.stats.rasterTiles)
            << name;
        EXPECT_EQ(stalled.stats.hizRejects, base.stats.hizRejects)
            << name;
        EXPECT_EQ(stalled.stats.fragments, base.stats.fragments) << name;
        EXPECT_NE(stalled.stats.cycles, base.stats.cycles) << name;
    }
}

namespace
{

/** One frame's exact timing and content, as pinned by the golden. */
struct FrameGolden
{
    const char *name;
    std::uint64_t cycles;
    std::uint64_t colorHash;
    std::uint64_t vertices;
    std::uint64_t primsIn;
    std::uint64_t primsCulled;
    std::uint64_t rasterTiles;
    std::uint64_t hizRejects;
    std::uint64_t fragments;
    std::uint64_t fragWarps;
    unsigned wtSize;
};

FrameGolden
observed(const char *name, const core::FrameStats &s, std::uint64_t hash)
{
    return {name,           s.cycles,      hash,
            s.vertices,     s.primsIn,     s.primsCulled,
            s.rasterTiles,  s.hizRejects,  s.fragments,
            s.fragWarps,    s.wtSize};
}

void
expectGolden(const FrameGolden &got, const FrameGolden &want)
{
    SCOPED_TRACE(want.name);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.colorHash, want.colorHash);
    EXPECT_EQ(got.vertices, want.vertices);
    EXPECT_EQ(got.primsIn, want.primsIn);
    EXPECT_EQ(got.primsCulled, want.primsCulled);
    EXPECT_EQ(got.rasterTiles, want.rasterTiles);
    EXPECT_EQ(got.hizRejects, want.hizRejects);
    EXPECT_EQ(got.fragments, want.fragments);
    EXPECT_EQ(got.fragWarps, want.fragWarps);
    EXPECT_EQ(got.wtSize, want.wtSize);
}

/**
 * Render frames 0 and 1 of @p id through a fresh rig's pipeline. With
 * @p polled, an event after every edge activates the pipeline while a
 * frame is open, so it ticks every cycle instead of sleeping.
 */
std::vector<FrameGolden>
renderScene(const char *name, scenes::WorkloadId id, unsigned wt,
            const gpu::GpuTopParams &gpu_params,
            const core::GfxParams &gfx, bool polled = false)
{
    soc::StandaloneGpu rig(128, 96, gpu_params);
    core::GraphicsPipeline pipe(rig.sim(), "gfx_golden", rig.gpu(), 128,
                                96, gfx);
    scenes::SceneRenderer scene(pipe, scenes::makeWorkload(id),
                                rig.functionalMemory());
    pipe.setWtSize(wt);
    EventQueue &eq = rig.sim().eventQueue();
    ClockDomain &clock = pipe.clockDomain();
    EventFunction poke(
        [&] {
            if (pipe.frameOpen())
                pipe.activate();
            eq.schedule(poke, clock.clockEdge(1));
        },
        "poke", Event::defaultPriority);
    if (polled)
        eq.schedule(poke, clock.clockEdge(0));
    std::vector<FrameGolden> frames;
    for (unsigned f = 0; f < 2; ++f) {
        bool done = false;
        core::FrameStats stats;
        scene.renderFrame(f, [&](const core::FrameStats &s) {
            stats = s;
            done = true;
        });
        if (!rig.runUntil([&] { return done; })) {
            // The next frame could not open; the callers see fewer
            // frames than they expect.
            ADD_FAILURE() << name << " frame " << f << " never finished";
            break;
        }
        frames.push_back(
            observed(name, stats, scene.framebuffer().colorHash()));
    }
    if (poke.scheduled())
        eq.deschedule(poke);
    return frames;
}

/** The scenes whose pipeline tick events are checked. */
struct TickCase
{
    const char *name;
    scenes::WorkloadId id;
    gpu::GpuTopParams gpu;
    core::GfxParams gfx;
};

std::vector<TickCase>
tickCases()
{
    return {
        {"cube", scenes::WorkloadId::W3_Cube, soc::caseStudy2GpuParams(),
         core::GfxParams{}},
        {"suzanne_alpha", scenes::WorkloadId::W5_SuzanneAlpha,
         soc::caseStudy2GpuParams(), core::GfxParams{}},
        {"teapot/tight", scenes::WorkloadId::W6_Teapot, tightGpu(),
         tightGfx()},
    };
}

/** Counts the events named @p name that fire at the tick of the last. */
class SameTickRepeats : public EventInstrument
{
  public:
    explicit SameTickRepeats(std::string name) : _name(std::move(name)) {}

    void
    onEvent(const std::string &name, Tick when, int,
            std::uint64_t) override
    {
        if (name != _name)
            return;
        if (_seen && when == _last)
            ++repeats;
        _seen = true;
        _last = when;
    }

    /** Forget the last tick: the next event is never a repeat. */
    void restart() { _seen = false; }

    unsigned repeats = 0;

  private:
    std::string _name;
    bool _seen = false;
    Tick _last = 0;
};

} // namespace

TEST(PipelineCorrectness, FrameTimingMatchesGolden)
{
    // Exact per-frame cycles, image and counters. Fixed-function
    // scheduling changes that must not move simulated results (for
    // example how the pipeline sleeps while blocked) are held to this;
    // a change that moves it on purpose re-records it and says why.
    gpu::GpuTopParams table7 = soc::caseStudy2GpuParams();

    std::vector<FrameGolden> got;
    auto add = [&](std::vector<FrameGolden> frames) {
        got.insert(got.end(), frames.begin(), frames.end());
    };
    add(renderScene("cube/wt1", scenes::WorkloadId::W3_Cube, 1, table7,
                    core::GfxParams{}));
    add(renderScene("cube/wt6", scenes::WorkloadId::W3_Cube, 6, table7,
                    core::GfxParams{}));
    add(renderScene("suzanne_alpha", scenes::WorkloadId::W5_SuzanneAlpha,
                    1, table7, core::GfxParams{}));
    add(renderScene("cube/tight", scenes::WorkloadId::W3_Cube, 1,
                    tightGpu(), tightGfx()));
    {
        soc::StandaloneGpu rig(128, 96, table7);
        core::Framebuffer fb(128, 96);
        core::FrameStats stats =
            renderOccluderFrame(rig, rig.pipeline(), fb);
        got.push_back(observed("occluder", stats, fb.colorHash()));
    }

    const FrameGolden want[] = {
        // name, cycles, colorHash, vertices, primsIn, primsCulled,
        // rasterTiles, hizRejects, fragments, fragWarps, wtSize
        {"cube/wt1", 22910, 0x596537f04f12d169ULL, 36, 12, 0, 290, 46,
         2958, 153, 1},
        {"cube/wt1", 2640, 0x57aa560fd6f897b1ULL, 36, 12, 0, 289, 46,
         2952, 151, 1},
        {"cube/wt6", 23893, 0x596537f04f12d169ULL, 36, 12, 0, 290, 46,
         2958, 166, 6},
        {"cube/wt6", 6265, 0x57aa560fd6f897b1ULL, 36, 12, 0, 289, 46,
         2952, 165, 6},
        {"suzanne_alpha", 55845, 0xbf8bbe45302f2918ULL, 9216, 3072, 92,
         2567, 0, 3846, 479, 1},
        {"suzanne_alpha", 6525, 0x68f054bc5a727b27ULL, 9216, 3072, 94,
         2540, 0, 3854, 430, 1},
        {"cube/tight", 23266, 0x596537f04f12d169ULL, 36, 12, 0, 290, 46,
         2958, 160, 1},
        {"cube/tight", 2691, 0x57aa560fd6f897b1ULL, 36, 12, 0, 289, 46,
         2952, 158, 1},
        {"occluder", 9930, 0x8300d809bc19a325ULL, 12, 4, 0, 912, 720,
         13056, 458, 1},
    };
    ASSERT_EQ(got.size(), std::size(want));
    for (std::size_t i = 0; i < got.size(); ++i)
        expectGolden(got[i], want[i]);
}

TEST(PipelineCorrectness, SleepMatchesPolledReference)
{
    // The pipeline sleeps whenever no stage moved and relies on its
    // wake sources (warp completions, L2 retries, TC timeouts, new
    // draws) to tick again. A pipeline ticked every cycle is the
    // reference: every frame must match it exactly.
    gpu::GpuTopParams table7 = soc::caseStudy2GpuParams();
    struct Case
    {
        const char *name;
        scenes::WorkloadId id;
        unsigned wt;
        gpu::GpuTopParams gpu;
        core::GfxParams gfx;
    };
    const Case cases[] = {
        {"cube/wt1", scenes::WorkloadId::W3_Cube, 1, table7,
         core::GfxParams{}},
        {"cube/wt6", scenes::WorkloadId::W3_Cube, 6, table7,
         core::GfxParams{}},
        {"suzanne_alpha", scenes::WorkloadId::W5_SuzanneAlpha, 1, table7,
         core::GfxParams{}},
        {"teapot/tight", scenes::WorkloadId::W6_Teapot, 1, tightGpu(),
         tightGfx()},
    };
    for (const Case &c : cases) {
        std::vector<FrameGolden> slept =
            renderScene(c.name, c.id, c.wt, c.gpu, c.gfx);
        std::vector<FrameGolden> polled =
            renderScene(c.name, c.id, c.wt, c.gpu, c.gfx, true);
        ASSERT_EQ(slept.size(), polled.size());
        for (std::size_t f = 0; f < slept.size(); ++f) {
            SCOPED_TRACE(testing::Message() << "frame " << f);
            expectGolden(slept[f], polled[f]);
        }
    }
}

TEST(PipelineCorrectness, NeverTicksTwiceAtOneTick)
{
    // While a frame is open, a wake that comes after the pipeline's
    // tick at an edge lands on the next edge, where a pipeline polling
    // every cycle would first see it: the pipeline never ticks twice
    // at one tick.
    for (const TickCase &c : tickCases()) {
        soc::StandaloneGpu rig(128, 96, c.gpu);
        core::GraphicsPipeline pipe(rig.sim(), "gfx_ticks", rig.gpu(),
                                    128, 96, c.gfx);
        scenes::SceneRenderer scene(pipe, scenes::makeWorkload(c.id),
                                    rig.functionalMemory());
        SameTickRepeats repeats("gfx_ticks.tick");
        ASSERT_EQ(rig.sim().eventQueue().instrument(), nullptr);
        rig.sim().eventQueue().setInstrument(&repeats);
        for (unsigned f = 0; f < 2; ++f) {
            // The tick that closed the last frame may share the tick
            // that opens this one.
            repeats.restart();
            bool done = false;
            scene.renderFrame(f,
                              [&](const core::FrameStats &) { done = true; });
            ASSERT_TRUE(rig.runUntil([&] { return done; })) << c.name;
        }
        rig.sim().eventQueue().setInstrument(nullptr);
        EXPECT_EQ(repeats.repeats, 0u) << c.name;
    }
}

TEST(PipelineCorrectness, TickEventsBoundedByWork)
{
    // A pipeline tick moves a raster tile, a TC flush, a vertex warp or
    // a scan step, or polls SIMT queue space; while every stage is
    // blocked the pipeline sleeps. Its tick events per frame therefore
    // stay within a small multiple of that work: at most 5.34x here
    // (teapot/tight's first frame polls the most; every other frame
    // stays under 3.4x). A pipeline that ticks whenever any stage holds
    // work, blocked or not, takes 16-55x on each first frame, while
    // cold caches keep warps long.
    for (const TickCase &c : tickCases()) {
        soc::StandaloneGpu rig(128, 96, c.gpu);
        core::GraphicsPipeline pipe(rig.sim(), "gfx_ticks", rig.gpu(),
                                    128, 96, c.gfx);
        // Link events get their own bucket: "gfx_ticks" counts ticks.
        rig.sim().enableProfiling();
        rig.sim().profiler().registerComponent("gfx_ticks.l2link");
        scenes::SceneRenderer scene(pipe, scenes::makeWorkload(c.id),
                                    rig.functionalMemory());
        for (unsigned f = 0; f < 2; ++f) {
            std::uint64_t ticks_before =
                rig.sim().profiler().eventsFor("gfx_ticks");
            double work_before = pipe.statRasterTiles.value() +
                                 pipe.statTcFlushes.value() +
                                 pipe.statVertexWarps.value();
            bool done = false;
            scene.renderFrame(f,
                              [&](const core::FrameStats &) { done = true; });
            ASSERT_TRUE(rig.runUntil([&] { return done; })) << c.name;
            double ticks = static_cast<double>(
                rig.sim().profiler().eventsFor("gfx_ticks") - ticks_before);
            double work = pipe.statRasterTiles.value() +
                          pipe.statTcFlushes.value() +
                          pipe.statVertexWarps.value() - work_before;
            ASSERT_GT(work, 0.0) << c.name;
            EXPECT_LE(ticks, 8.0 * work) << c.name << " frame " << f;
        }
    }
}

TEST(PipelineCorrectness, RejectsTaskQueueBelowTcTileWarps)
{
    // A fully covered 8x8 TC tile is two fragment warps, issued to one
    // core at once: a one-deep task queue could never take it.
    gpu::GpuTopParams gpu_params = tightGpu();
    gpu_params.core.taskQueueDepth = 1;
    EXPECT_DEATH(
        {
            soc::StandaloneGpu rig(128, 96, gpu_params);
            core::GraphicsPipeline pipe(rig.sim(), "gfx", rig.gpu(), 128,
                                        96, core::GfxParams{});
        },
        "task queue depth 1, below the 2 fragment warps of a fully "
        "covered 8x8 TC tile");
}
