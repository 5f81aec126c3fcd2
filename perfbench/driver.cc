/**
 * @file
 * Benchmark driver. Builds, runs and checks one workload's rigs
 * through the simulator's public API, repeating the whole set of rigs
 * (one "unit") until the time budget is spent, and prints one JSON
 * record per line on stdout for run.py to aggregate:
 *
 *   {"kind":"trace_load", ...}  one replay-trace load timed on its own
 *   {"kind":"trace", ...}       content hash of the replay trace
 *   {"kind":"setup", ...}       one rig construction timed on its own
 *   {"kind":"rig", ...}         one rig built, run and checked
 *   {"kind":"peak_rss", ...}    peak resident set after the first unit
 *
 * Usage:
 *   perfbench_driver --rigs=<spec,...> [--seconds=S] [--traced=0|1]
 *                    [--frames=N] [--fb=WxH] [--setup-reps=N]
 *                    [--replay-trace=DIR] [--spans=FILE]
 *   perfbench_driver --capture=DIR --model=<name> [--frames=N]
 *                    [--fb=WxH]
 *
 * A rig spec is soc/<model>/<config> (execution-driven SocTop at the
 * case-study-I high load), replay/<model>/<config> (SocTop replaying
 * --replay-trace, captured from <model>, with the NPU camera client
 * on) or gpu/<scene>/<wt> (standalone case-study-II rig, one warm-up
 * frame then --frames measured frames at work-tile size wt). --fb sets
 * the SoC framebuffer. --capture records the GPU traffic of one
 * execution-driven BAS run of <model> into DIR.
 *
 * With --traced=1 units alternate between running without and with
 * the event profiler, starting without, so the profiling overhead is
 * measured in the same stretch of host time as the profile itself.
 * The driver keeps its own spans (workload > unit > rig > setup | run
 * > frames) in memory and writes them to --spans at exit.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mem/traffic_trace.hh"
#include "scenes/workloads.hh"
#include "sim/logging.hh"
#include "sim/simulation_builder.hh"
#include "soc/configs.hh"
#include "soc/soc_top.hh"

using namespace emerald;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** Spans kept in memory and written as one JSON array at exit. */
class SpanLog
{
  public:
    /** Open a span under @p parent (-1 for a root); returns its id. */
    int
    open(const std::string &name, int parent)
    {
        _spans.push_back({name, parent, secondsSince(_t0), -1.0});
        return static_cast<int>(_spans.size()) - 1;
    }

    /** Close span @p id; returns its duration in seconds. */
    double
    close(int id)
    {
        Span &s = _spans.at(static_cast<std::size_t>(id));
        s.end = secondsSince(_t0);
        return s.end - s.start;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        os << "[\n";
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            os << strprintf("{\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                            "\"start_s\":%.9f,\"end_s\":%.9f}%s\n",
                            i, s.parent, s.name.c_str(), s.start, s.end,
                            i + 1 < _spans.size() ? "," : "");
        }
        os << "]\n";
        fatal_if(!os, "cannot write spans to %s", path.c_str());
    }

  private:
    struct Span
    {
        std::string name;
        int parent;
        double start;
        double end;
    };

    Clock::time_point _t0 = Clock::now();
    std::vector<Span> _spans;
};

/** FNV-1a, folded over names and the bit patterns of values. */
class Fnv
{
  public:
    void
    add(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            _h ^= p[i];
            _h *= 0x100000001b3ULL;
        }
    }

    void add(const std::string &s) { add(s.data(), s.size() + 1); }

    void
    add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        add(&bits, sizeof bits);
    }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ULL;
};

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, sep))
        out.push_back(item);
    return out;
}

scenes::WorkloadId
workloadByName(const std::string &name)
{
    for (int i = 0; i <= static_cast<int>(scenes::WorkloadId::M4_Triangles);
         ++i) {
        auto id = static_cast<scenes::WorkloadId>(i);
        if (name == scenes::workloadName(id))
            return id;
    }
    fatal("unknown workload '%s'", name.c_str());
}

soc::MemConfig
memConfigByName(const std::string &name)
{
    for (soc::MemConfig c : {soc::MemConfig::BAS, soc::MemConfig::DCB,
                             soc::MemConfig::DTB, soc::MemConfig::HMC})
        if (name == soc::memConfigName(c))
            return c;
    fatal("unknown memory config '%s'", name.c_str());
}

struct Options
{
    unsigned frames = 5;
    /** SoC framebuffer (standalone rigs are always 256x192). */
    unsigned fbWidth = 256;
    unsigned fbHeight = 192;
    std::string replayTrace;
};

/** Case study I, high-load setting (bench/harness.hh caseStudy1Params). */
soc::SocParams
highLoadParams(scenes::WorkloadId model, soc::MemConfig config,
               const Options &opt)
{
    soc::SocParams p;
    p.model = model;
    p.memConfig = config;
    p.highLoad = true;
    p.frames = opt.frames;
    p.fbWidth = opt.fbWidth;
    p.fbHeight = opt.fbHeight;
    p.cpuPrepRequests = 1500;
    return p;
}

/** One rig of the workload, parsed from its spec string. */
struct RigSpec
{
    enum class Kind { Soc, Replay, Gpu };

    explicit RigSpec(const std::string &spec) : label(spec)
    {
        auto f = split(spec, '/');
        if (f.size() == 3 && (f[0] == "soc" || f[0] == "replay")) {
            kind = f[0] == "soc" ? Kind::Soc : Kind::Replay;
            model = workloadByName(f[1]);
            config = memConfigByName(f[2]);
        } else if (f.size() == 3 && f[0] == "gpu") {
            kind = Kind::Gpu;
            model = workloadByName(f[1]);
            wt = static_cast<unsigned>(std::stoul(f[2]));
            fatal_if(wt == 0, "rig '%s': WT must be positive",
                     spec.c_str());
        } else {
            fatal("bad rig spec '%s'", spec.c_str());
        }
    }

    std::string label;
    Kind kind = Kind::Soc;
    scenes::WorkloadId model = scenes::WorkloadId::M2_Cube;
    soc::MemConfig config = soc::MemConfig::BAS;
    unsigned wt = 1;
};

/** A constructed rig: a SocTop, or a standalone GPU with its scene. */
struct Rig
{
    std::unique_ptr<soc::SocTop> soc;
    std::unique_ptr<soc::StandaloneGpu> gpu;
    std::unique_ptr<scenes::SceneRenderer> scene;
    /** Host seconds spent building the scene (standalone rigs). */
    double sceneS = 0.0;

    Simulation &sim() { return soc ? soc->sim() : gpu->sim(); }
};

Rig
buildRig(const RigSpec &spec, const Options &opt, bool traced)
{
    SimulationBuilder builder;
    builder.profiling(traced);
    Rig rig;
    switch (spec.kind) {
      case RigSpec::Kind::Soc:
        rig.soc = std::make_unique<soc::SocTop>(
            highLoadParams(spec.model, spec.config, opt), builder);
        break;
      case RigSpec::Kind::Replay: {
        fatal_if(opt.replayTrace.empty(),
                 "replay rigs need --replay-trace");
        // The capture's SocParams, plus the NPU camera client.
        soc::SocParams p = highLoadParams(spec.model, spec.config, opt);
        p.npuEnabled = true;
        builder.replayTrace(opt.replayTrace);
        rig.soc = std::make_unique<soc::SocTop>(p, builder);
        break;
      }
      case RigSpec::Kind::Gpu: {
        rig.gpu = std::make_unique<soc::StandaloneGpu>(
            256, 192, soc::caseStudy2GpuParams(),
            soc::caseStudy2MemParams(), builder);
        auto t = Clock::now();
        rig.scene = std::make_unique<scenes::SceneRenderer>(
            rig.gpu->pipeline(), scenes::makeWorkload(spec.model),
            rig.gpu->functionalMemory());
        rig.sceneS = secondsSince(t);
        rig.gpu->pipeline().setWtSize(spec.wt);
        break;
      }
    }
    return rig;
}

/**
 * Run @p rig to completion, timing each frame of a standalone rig on
 * its own (a SocTop run is one slice). Appends the slice times to
 * @p slices and the simulated outputs that are not in the stats tree
 * (frame times, image hashes) to @p outputs; returns an error message,
 * empty when the run completed.
 */
std::string
runRig(Rig &rig, const Options &opt, SpanLog &spans, int parent,
       std::vector<double> &slices, std::vector<double> &outputs)
{
    if (rig.soc) {
        // SocTop::run() is fatal when its safety limit cuts a run short.
        int s = spans.open("frames", parent);
        rig.soc->run();
        slices.push_back(spans.close(s));
        outputs.push_back(rig.soc->meanGpuFrameMs());
        outputs.push_back(rig.soc->meanTotalFrameMs());
        return "";
    }
    for (unsigned f = 0; f <= opt.frames; ++f) {
        int s = spans.open(strprintf("frame%u", f), parent);
        bool done = false;
        core::FrameStats stats;
        rig.scene->renderFrame(f, [&](const core::FrameStats &st) {
            stats = st;
            done = true;
        });
        bool drained =
            rig.gpu->runUntil([&] { return done; }, ticksFromMs(4000.0));
        slices.push_back(spans.close(s));
        if (!drained)
            return strprintf("frame %u did not drain", f);
        outputs.push_back(static_cast<double>(stats.cycles));
        outputs.push_back(static_cast<double>(
            rig.scene->framebuffer().colorHash()));
    }
    return "";
}

std::string
jsonList(const std::vector<double> &values)
{
    std::string out = "[";
    for (double v : values)
        out += strprintf(out.size() > 1 ? ",%.9f" : "%.9f", v);
    return out + "]";
}

/** @p stats as a JSON object. */
std::string
jsonMap(const std::map<std::string, double> &stats)
{
    std::string out = "{";
    for (const auto &[k, v] : stats) {
        if (out.size() > 1)
            out += ",";
        out += strprintf("\"%s\":%.17g", k.c_str(), v);
    }
    return out + "}";
}

/**
 * Build, run and check one rig, printing its "rig" record. The full
 * stats tree (host-side sim.* subtree aside) goes into the record the
 * first time each rig runs in each mode; the results fingerprint and
 * the profiler buckets go in every time.
 */
void
measureRig(const RigSpec &spec, const Options &opt, bool traced,
           unsigned unit, bool with_stats, SpanLog &spans, int parent)
{
    int rig_span = spans.open(spec.label, parent);
    int setup_span = spans.open("setup", rig_span);
    Rig rig = buildRig(spec, opt, traced);
    double setup_s = spans.close(setup_span);

    std::vector<double> slices, outputs;
    int run_span = spans.open("run", rig_span);
    std::string error = runRig(rig, opt, spans, run_span, slices, outputs);
    double run_s = spans.close(run_span);
    spans.close(rig_span);

    std::map<std::string, double> stats, profile;
    rig.sim().statsRoot().flattenStats(
        [&](const std::string &name, double v) {
            static const std::string prof = "sim.profile.";
            if (name.compare(0, prof.size(), prof) == 0)
                profile[name.substr(prof.size())] = v;
            else
                stats[name] = v;
        });
    // The fingerprint covers simulated outputs only: the sim.* subtree
    // holds host-side counters (packet pool, profiler) and the event
    // hash, which a faster kernel may legitimately change.
    Fnv fp;
    for (const auto &[k, v] : stats) {
        if (k.compare(0, 4, "sim.") == 0)
            continue;
        fp.add(k);
        fp.add(v);
    }
    for (double v : outputs)
        fp.add(v);

    std::printf(
        "{\"kind\":\"rig\",\"label\":\"%s\",\"unit\":%u,\"traced\":%s,"
        "\"setup_s\":%.9f,\"scene_s\":%.9f,\"run_s\":%.9f,\"slices_s\":%s,"
        "\"sim_ns\":%.3f,\"events\":%" PRIu64 ",\"error\":\"%s\","
        "\"fp\":\"%016" PRIx64 "\",\"gpu_frame_ms\":%.17g,"
        "\"total_frame_ms\":%.17g,\"profile\":%s,\"stats\":%s}\n",
        spec.label.c_str(), unit, traced ? "true" : "false", setup_s,
        rig.sceneS, run_s, jsonList(slices).c_str(),
        static_cast<double>(rig.sim().curTick()) / 1e3,
        rig.sim().eventQueue().numProcessed(), error.c_str(), fp.value(),
        rig.soc ? rig.soc->meanGpuFrameMs() : 0.0,
        rig.soc ? rig.soc->meanTotalFrameMs() : 0.0,
        traced ? jsonMap(profile).c_str() : "{}",
        with_stats ? jsonMap(stats).c_str() : "{}");
    std::fflush(stdout);
}

/** FNV-1a of every file in @p dir, in name order. */
std::uint64_t
hashTraceDir(const std::string &dir)
{
    std::vector<std::filesystem::path> files;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        files.push_back(e.path());
    std::sort(files.begin(), files.end());
    Fnv h;
    for (const auto &f : files) {
        std::ifstream is(f, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
        h.add(f.filename().string());
        h.add(bytes.data(), bytes.size());
    }
    return h.value();
}

int
capture(const std::string &dir, const std::string &model,
        const Options &opt)
{
    std::filesystem::remove_all(dir);
    {
        soc::SocTop soc(highLoadParams(workloadByName(model),
                                       soc::MemConfig::BAS, opt),
                        SimulationBuilder().captureTrace(dir));
        soc.run();
    }
    return 0;
}

/**
 * Time construction on its own, @p reps times per rig (and the replay
 * trace load as well), so set-up time rests on many samples rather
 * than one cold one.
 */
void
timeSetups(const std::vector<RigSpec> &rigs, const Options &opt,
           unsigned reps, SpanLog &spans, int parent)
{
    if (!opt.replayTrace.empty()) {
        for (unsigned r = 0; r < reps; ++r) {
            int s = spans.open("trace_load", parent);
            mem::TrafficTraceReader reader(opt.replayTrace);
            std::printf("{\"kind\":\"trace_load\",\"seconds\":%.9f}\n",
                        spans.close(s));
        }
        std::printf("{\"kind\":\"trace\",\"trace_hash\":\"%016" PRIx64
                    "\"}\n",
                    hashTraceDir(opt.replayTrace));
    }
    for (unsigned r = 0; r < reps; ++r) {
        for (const RigSpec &spec : rigs) {
            int s = spans.open(spec.label + ":setup", parent);
            Rig rig = buildRig(spec, opt, false);
            std::printf("{\"kind\":\"setup\",\"label\":\"%s\","
                        "\"setup_s\":%.9f,\"scene_s\":%.9f}\n",
                        spec.label.c_str(), spans.close(s), rig.sceneS);
        }
    }
}

std::map<std::string, std::string>
parseArgs(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto eq = a.find('=');
        fatal_if(a.compare(0, 2, "--") != 0 || eq == std::string::npos,
                 "expected --key=value, got '%s'", a.c_str());
        args[a.substr(2, eq - 2)] = a.substr(eq + 1);
    }
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = parseArgs(argc, argv);
    auto arg = [&](const std::string &k, const std::string &dflt) {
        auto it = args.find(k);
        return it == args.end() ? dflt : it->second;
    };
    Options opt;
    opt.frames = static_cast<unsigned>(std::stoul(arg("frames", "5")));
    opt.replayTrace = arg("replay-trace", "");
    fatal_if(opt.frames == 0, "--frames must be positive");
    fatal_if(std::sscanf(arg("fb", "256x192").c_str(), "%ux%u",
                         &opt.fbWidth, &opt.fbHeight) != 2,
             "--fb must be <width>x<height>");

    if (args.count("capture"))
        return capture(args["capture"], arg("model", "M2-cube"), opt);

    std::vector<RigSpec> rigs;
    for (const std::string &s : split(arg("rigs", ""), ','))
        rigs.emplace_back(s);
    fatal_if(rigs.empty(), "--rigs names no rig");
    double seconds = std::stod(arg("seconds", "10"));
    bool traced = arg("traced", "0") == "1";
    unsigned setup_reps =
        static_cast<unsigned>(std::stoul(arg("setup-reps", "5")));

    SpanLog spans;
    int root = spans.open("workload", -1);
    auto start = Clock::now();

    // Whole units until the budget is spent: a unit starts only when
    // the previous one's length says it will end within the budget.
    // A traced run always gets one untraced and one traced unit.
    double last_unit_s = 0.0;
    for (unsigned unit = 0;; ++unit) {
        bool unit_traced = traced && unit % 2 == 1;
        if (unit > (traced ? 1u : 0u) &&
            secondsSince(start) + last_unit_s > seconds)
            break;
        auto t = Clock::now();
        int u = spans.open(strprintf("unit%u", unit), root);
        for (const RigSpec &spec : rigs)
            measureRig(spec, opt, unit_traced, unit,
                       unit < (traced ? 2u : 1u), spans, u);
        spans.close(u);
        last_unit_s = secondsSince(t);
        if (unit == 0) {
            // Peak memory of one pass over the rigs: repeating them
            // fragments the heap and would make the figure depend on
            // how many units fit in the budget.
            rusage ru{};
            getrusage(RUSAGE_SELF, &ru);
            std::printf("{\"kind\":\"peak_rss\",\"kb\":%ld}\n",
                        ru.ru_maxrss);
            timeSetups(rigs, opt, setup_reps, spans, root);
        }
    }
    spans.close(root);

    std::string spans_path = arg("spans", "");
    if (!spans_path.empty())
        spans.write(spans_path);
    return 0;
}
