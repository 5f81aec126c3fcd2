/**
 * @file
 * Paper Fig. 14: M1 rendering bandwidth timelines under BAS (a) and
 * DASH-DTB (b), high load.
 * Expected shape: under DTB the CPU gets more bandwidth early in the
 * frame ( 4 vs 1 ), the GPU's share shrinks ( 5 vs 2 ), GPU read
 * latency rises, and the display is starved/aborts ( 6 ).
 */

#include <chrono>

#include "harness.hh"
#include "registry.hh"

using namespace emerald;
using namespace emerald::bench;

namespace
{

void
runAndPrint(soc::MemConfig config, BenchResults &results,
            const SimulationBuilder &builder)
{
    soc::SocParams p = caseStudy1Params(scenes::WorkloadId::M1_Chair,
                                        config, true);
    soc::SocTop soc(p, builder);
    auto wall_start = std::chrono::steady_clock::now();
    soc.run();
    double wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();

    std::string prefix = soc::memConfigName(config);
    // Perf probe keys, as fig12 records them (CI's BENCH_fig14.json).
    results.record(prefix + ".events",
                   static_cast<double>(soc.sim().eventQueue().numProcessed()));
    results.record(prefix + ".wall_ms", wall_ms);
    results.record(prefix + ".event_hash", eventHashFold(soc.sim()));
    results.record(prefix + ".display_serviced",
                   soc.display().statRequests.value());
    results.record(prefix + ".display_aborted",
                   soc.display().statFramesAborted.value());
    results.addSimStats(soc.sim(), prefix);

    std::printf("--- %s ---\n", soc::memConfigName(config));
    std::printf("GPU mean read latency: %.0f ns; display serviced "
                "%.0f reqs, %.0f aborted frames\n",
                (soc.memory().channel(0).statReadLatencyGpu.mean() +
                 soc.memory().channel(1).statReadLatencyGpu.mean()) /
                    2.0 / 1000.0,
                soc.display().statRequests.value(),
                soc.display().statFramesAborted.value());

    Tick bucket = p.statsBucket;
    std::size_t buckets = 0;
    for (unsigned ch = 0; ch < soc.memory().numChannels(); ++ch)
        buckets = std::max(
            buckets,
            soc.memory().channel(ch).statBwGpu.buckets().size());
    buckets = std::min<std::size_t>(buckets, 600);

    double scale = 1e9 * secondsFromTicks(bucket);
    std::printf("%10s %10s %10s %10s\n", "t(ms)", "cpu", "gpu",
                "display");
    for (std::size_t i = 0; i < buckets; ++i) {
        double cpu = 0, gpu = 0, disp = 0;
        for (unsigned ch = 0; ch < soc.memory().numChannels(); ++ch) {
            const auto &mc = soc.memory().channel(ch);
            if (i < mc.statBwCpu.buckets().size())
                cpu += mc.statBwCpu.buckets()[i];
            if (i < mc.statBwGpu.buckets().size())
                gpu += mc.statBwGpu.buckets()[i];
            if (i < mc.statBwDisplay.buckets().size())
                disp += mc.statBwDisplay.buckets()[i];
        }
        std::printf("%10.2f %10.3f %10.3f %10.3f\n",
                    msFromTicks(Tick(i) * bucket), cpu / scale,
                    gpu / scale, disp / scale);
    }
}

} // namespace

namespace
{

int
runScenario(int argc, char **argv)
{
    BenchHarness harness(argc, argv, "fig14_m1_timeline");
    BenchResults &results = *harness.results;
    std::printf("=== Fig. 14: M1 bandwidth timeline, BAS vs DTB "
                "(high load, GB/s) ===\n");
    runAndPrint(soc::MemConfig::BAS, results, harness.builder());
    runAndPrint(soc::MemConfig::DTB, results, harness.builder());
    std::printf("\npaper shape: DTB boosts CPU share and squeezes "
                "GPU bandwidth during frames; display starved\n");
    return 0;
}

const RegisterScenario reg{{
    .name = "fig14_m1_timeline",
    .desc = "Fig. 14: M1 bandwidth timeline, BAS vs DTB, high load",
    .axes = {},
    .expectedShape = "DTB boosts CPU share, squeezes GPU bandwidth; display starved",
    .run = runScenario,
    .kind = ScenarioKind::Figure,
}};

} // namespace
