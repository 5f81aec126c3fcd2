/**
 * @file
 * The shared bench front end: one emerald_bench binary hosting every
 * registered scenario.
 *
 *   emerald_bench --list               name<TAB>kind<TAB>description
 *   emerald_bench --run=<name> [...]   run one scenario; remaining
 *                                      flags go to the scenario
 *
 * With --supervise the scenario runs in a forked child under the
 * crash-and-hang-resilient run supervisor (docs/resilience.md):
 * failures are classified, retried with backoff, and — when the
 * scenario also rotates auto-checkpoints via --checkpoint-every —
 * resumed from the newest integrity-passing checkpoint.
 *
 *   --supervise                   enable supervision
 *   --supervise-dir=<dir>         logs/marker/triage (default: supervise)
 *   --supervise-retries=<n>       retries after the first attempt (3)
 *   --supervise-backoff-ms=<ms>   first retry backoff, doubles (200)
 *   --supervise-kill-after-ms=<ms> test hook: SIGKILL attempt 0 (off)
 */

#include <cstdio>
#include <string>
#include <vector>

#include "registry.hh"
#include "sim/config.hh"
#include "sim/supervise/supervisor.hh"

namespace
{

int
runSupervised(const emerald::bench::Scenario &scenario,
              const emerald::Config &cfg, int argc, char **argv)
{
    using namespace emerald::supervise;

    SupervisorOptions opts;
    opts.runDir = cfg.getString("supervise-dir", "supervise");
    opts.maxRetries =
        static_cast<unsigned>(cfg.getU64("supervise-retries", 3));
    opts.backoffBaseMs =
        static_cast<unsigned>(cfg.getU64("supervise-backoff-ms", 200));
    opts.killAfterMs =
        static_cast<unsigned>(cfg.getU64("supervise-kill-after-ms", 0));

    // Where the scenario rotates auto-checkpoints: the builder
    // defaults --checkpoint-dir to "ckpt" whenever --checkpoint-every
    // is given, so mirror that here.
    opts.ckptDir = cfg.getString(
        "checkpoint-dir", cfg.has("checkpoint-every") ? "ckpt" : "");

    SupervisorResult result = superviseRun(
        opts, [&](const ChildSpec &spec) {
            // Re-enter the scenario with the supervisor's extra
            // flags appended; Config's last-wins parse means they
            // override anything the caller passed.
            std::vector<std::string> args(argv, argv + argc);
            args.push_back("--hang-report-path=" +
                           spec.hangReportPath);
            if (spec.attempt > 0 && !spec.restoreDir.empty())
                args.push_back("--restore=" + opts.ckptDir);
            std::vector<char *> cargv;
            cargv.reserve(args.size());
            for (std::string &arg : args)
                cargv.push_back(arg.data());
            return scenario.run(static_cast<int>(cargv.size()),
                                cargv.data());
        });

    if (result.succeeded)
        return 0;
    return result.finalExitCode > 0 ? result.finalExitCode : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace emerald::bench;

    // The scenario re-parses the full argv (Config knows --list and
    // --run too), so nothing needs to be stripped.
    emerald::Config cfg;
    cfg.parseArgs(argc, argv);
    std::string run_name = cfg.getString("run", "");

    const ScenarioRegistry &registry = ScenarioRegistry::instance();
    if (cfg.getBool("list", false)) {
        for (const Scenario &s : registry.scenarios()) {
            std::printf("%s\t%s\t%s\n", s.name.c_str(),
                        s.kind == ScenarioKind::Figure ? "figure"
                                                       : "aux",
                        s.desc.c_str());
        }
        return 0;
    }

    if (run_name.empty()) {
        std::fprintf(stderr,
                     "usage: emerald_bench --run=<name> [--key=value "
                     "...] | --list\nscenarios:\n");
        for (const Scenario &s : registry.scenarios())
            std::fprintf(stderr, "  %s\n", s.name.c_str());
        return 2;
    }

    const Scenario *scenario = registry.find(run_name);
    if (!scenario) {
        std::fprintf(stderr,
                     "unknown scenario '%s' (emerald_bench --list)\n",
                     run_name.c_str());
        return 2;
    }

    if (cfg.getBool("supervise", false))
        return runSupervised(*scenario, cfg, argc, argv);
    return scenario->run(argc, argv);
}
