/**
 * @file
 * Shared helpers for the experiment harnesses. Each bench binary
 * regenerates one of the paper's tables or figures (see DESIGN.md's
 * experiment index); absolute numbers differ from the paper's testbed
 * but the shapes are expected to hold (EXPERIMENTS.md).
 */

#ifndef EMERALD_BENCH_HARNESS_HH
#define EMERALD_BENCH_HARNESS_HH

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "scenes/workloads.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/simulation_builder.hh"
#include "sim/stats_sink.hh"
#include "soc/configs.hh"
#include "soc/soc_top.hh"

namespace emerald::bench
{

/**
 * Machine-readable bench output: collects named scalar results (the
 * numbers the bench prints) plus optional full simulation stat trees
 * and hands them to the StatsSink named by --stats-out=<uri> (a plain
 * path writes the legacy JSON document byte-for-byte, sqlite:<path>
 * the sweep database, nothing/null discards).
 */
class BenchResults
{
  public:
    BenchResults(const Config &cfg, std::string bench)
        : _bench(std::move(bench))
    {
        _sink = makeStatsSink(cfg.getString("stats-out", ""));
        RunInfo info;
        info.bench = _bench;
        info.gitSha = cfg.getString("git-sha", "");
        info.fingerprint = sweepPointFingerprint(cfg);
        info.params = sweepPointParams(cfg);
        _sink->beginRun(info);
    }

    BenchResults(const BenchResults &) = delete;
    BenchResults &operator=(const BenchResults &) = delete;

    ~BenchResults() { _sink->finishRun(); }

    /** True when results are being kept (not the null sink). */
    bool enabled() const { return _sink->live(); }

    /** Record one named scalar result. */
    void
    record(const std::string &key, double value)
    {
        _sink->recordScalar(key, value);
    }

    /** Embed @p sim's full stats tree (captured now) under @p label. */
    void
    addSimStats(Simulation &sim, const std::string &label = "sim")
    {
        if (enabled())
            _sink->addStatsTree(label, sim.statsRoot());
    }

  private:
    std::string _bench;
    std::unique_ptr<StatsSink> _sink;
};

/**
 * The common bench prologue, deduplicated: parses --key=value
 * arguments, interprets --quick, opens the --stats-out results sink
 * and exposes a SimulationBuilder carrying the observability keys
 * (--trace-file / --profile / --sim-stats-out) so every simulation a
 * bench constructs gets them wired in.
 */
class BenchHarness
{
  public:
    BenchHarness(int argc, char **argv, const std::string &bench)
    {
        cfg.parseArgs(argc, argv);
        quick = cfg.getBool("quick", false);
        results = std::make_unique<BenchResults>(cfg, bench);
    }

    /** Recipe to pass into SocTop / StandaloneGpu / build(). */
    SimulationBuilder
    builder() const
    {
        return SimulationBuilder().observability(cfg);
    }

    /**
     * Like builder(), but scoped for one of several simulations the
     * bench runs in a single process: checkpoint/restore directories
     * get a per-run subdirectory, so --checkpoint-at with a
     * multi-config bench produces one checkpoint per configuration.
     *
     * The subdirectory is @p label plus the checkpoint-scope
     * fingerprint (ckptScopeFingerprintHex) when one exists: two
     * sweep points that share a label but differ in grid params
     * (say, the same MemConfig at two FPS values) must not collide
     * on one checkpoint directory — unless the sweep declared the
     * differing axes in --ckpt-share-keys, in which case the shared
     * subdirectory is exactly the point (docs/sweeps.md).
     */
    SimulationBuilder
    builderFor(const std::string &label) const
    {
        std::string fp = ckptScopeFingerprintHex(cfg);
        return builder().subdir(fp.empty() ? label
                                           : label + "-" + fp);
    }

    Config cfg;
    bool quick = false;
    std::unique_ptr<BenchResults> results;
};

/** Render one frame on a standalone rig; returns its cycle count. */
inline core::FrameStats
renderFrame(soc::StandaloneGpu &rig, scenes::SceneRenderer &scene,
            unsigned frame_idx)
{
    bool done = false;
    core::FrameStats stats;
    scene.renderFrame(frame_idx, [&](const core::FrameStats &s) {
        stats = s;
        done = true;
    });
    if (!rig.runUntil([&] { return done; }, ticksFromMs(4000.0)))
        fatal("frame %u did not drain", frame_idx);
    return stats;
}

/**
 * Mean frame cycles for @p workload at WT size @p wt: one warm-up
 * frame plus @p frames measured frames on a fresh rig.
 */
inline double
meanCyclesAtWt(scenes::WorkloadId workload, unsigned wt,
               unsigned fb_w, unsigned fb_h, unsigned frames = 3)
{
    soc::StandaloneGpu rig(fb_w, fb_h);
    scenes::SceneRenderer scene(rig.pipeline(),
                                scenes::makeWorkload(workload),
                                rig.functionalMemory());
    rig.pipeline().setWtSize(wt);
    renderFrame(rig, scene, 0); // Warm-up.
    double sum = 0.0;
    for (unsigned f = 1; f <= frames; ++f)
        sum += static_cast<double>(
            renderFrame(rig, scene, f).cycles);
    return sum / frames;
}

/** Pearson correlation coefficient. */
inline double
correlation(const std::vector<double> &x, const std::vector<double> &y)
{
    std::size_t n = x.size();
    double mx =
        std::accumulate(x.begin(), x.end(), 0.0) / static_cast<double>(n);
    double my =
        std::accumulate(y.begin(), y.end(), 0.0) / static_cast<double>(n);
    double sxy = 0, sxx = 0, syy = 0;
    for (std::size_t i = 0; i < n; ++i) {
        sxy += (x[i] - mx) * (y[i] - my);
        sxx += (x[i] - mx) * (x[i] - mx);
        syy += (y[i] - my) * (y[i] - my);
    }
    double denom = std::sqrt(sxx * syy);
    return denom > 0 ? sxy / denom : 0.0;
}

/** The six case-study-II workloads. */
inline std::vector<scenes::WorkloadId>
caseStudy2Workloads()
{
    return {scenes::WorkloadId::W1_Sibenik,
            scenes::WorkloadId::W2_Spot,
            scenes::WorkloadId::W3_Cube,
            scenes::WorkloadId::W4_Suzanne,
            scenes::WorkloadId::W5_SuzanneAlpha,
            scenes::WorkloadId::W6_Teapot};
}

/** The four case-study-I models. */
inline std::vector<scenes::WorkloadId>
caseStudy1Models()
{
    return {scenes::WorkloadId::M1_Chair, scenes::WorkloadId::M2_Cube,
            scenes::WorkloadId::M3_Mask,
            scenes::WorkloadId::M4_Triangles};
}

inline std::vector<soc::MemConfig>
allMemConfigs()
{
    return {soc::MemConfig::BAS, soc::MemConfig::DCB,
            soc::MemConfig::DTB, soc::MemConfig::HMC};
}

/** Default SoC parameters for the case-study-I experiments. */
inline soc::SocParams
caseStudy1Params(scenes::WorkloadId model, soc::MemConfig config,
                 bool high_load)
{
    soc::SocParams p;
    p.model = model;
    p.memConfig = config;
    p.highLoad = high_load;
    p.frames = 5; // 1 warm-up + 4 profiled (paper Table 6).
    p.fbWidth = 256;
    p.fbHeight = 192;
    p.cpuPrepRequests = 1500;
    return p;
}

} // namespace emerald::bench

#endif // EMERALD_BENCH_HARNESS_HH
