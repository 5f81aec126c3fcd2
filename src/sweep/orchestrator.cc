#include "sweep/orchestrator.hh"

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "sim/logging.hh"
#include "sim/supervise/supervisor.hh"
#include "sweep/db.hh"

namespace emerald
{
namespace sweep
{

void
makeDirs(const std::string &path)
{
    std::string::size_type pos = 0;
    while (pos != std::string::npos) {
        pos = path.find('/', pos + 1);
        std::string prefix = path.substr(0, pos);
        if (prefix.empty())
            continue;
        if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
            fatal("cannot create directory '%s': %s", prefix.c_str(),
                  std::strerror(errno));
    }
}

std::vector<std::string>
pointCommand(const SweepSpec &spec, const SweepPoint &point,
             const OrchestratorOptions &opts)
{
    std::vector<std::string> command;
    command.push_back(opts.benchBin);
    command.push_back("--run=" + spec.scenario);
    for (const auto &[key, value] : point.params)
        command.push_back("--" + key + "=" + value);
    command.push_back("--stats-out=sqlite:" + opts.dbPath);
    if (!opts.gitSha.empty())
        command.push_back("--git-sha=" + opts.gitSha);
    if (!spec.restoreDir.empty())
        command.push_back("--restore=" + spec.restoreDir);
    if (!spec.replayDir.empty())
        command.push_back("--replay-trace=" + spec.replayDir);
    return command;
}

namespace
{

using Clock = std::chrono::steady_clock;

/** One pending point's retry ledger. */
struct PointState
{
    const SweepPoint *point = nullptr;
    /** Failures charged so far (seeded from run_failures, so a
     *  kill -9'd orchestrator resumes a half-retried point with its
     *  budget partially spent). */
    unsigned failures = 0;
    /** Earliest relaunch time (backoff). */
    Clock::time_point eligibleAt = Clock::time_point::min();
    bool finished = false;
};

} // namespace

SweepReport
runSweep(const SweepSpec &spec,
         const std::vector<SweepPoint> &pending,
         const OrchestratorOptions &opts)
{
    SweepReport report;
    report.total = pending.size();

    if (opts.dryRun) {
        for (const SweepPoint &point : pending) {
            std::string line;
            for (const std::string &arg :
                 pointCommand(spec, point, opts))
                line += (line.empty() ? "" : " ") + arg;
            inform("dry-run: %s", line.c_str());
        }
        return report;
    }

    unsigned jobs = opts.jobs;
    if (jobs == 0) {
        jobs = std::thread::hardware_concurrency();
        if (jobs == 0)
            jobs = 1;
    }

    std::string logDir = opts.outDir + "/logs";
    makeDirs(logDir);

    auto hangReportPath = [&](const SweepPoint &point) {
        return logDir + "/" + point.fingerprintHex + ".hang.json";
    };

    std::vector<PointState> states(pending.size());
    std::size_t finished = 0;
    // Quarantine @p st once its failures exceed the budget; false
    // while it still has retries left.
    auto quarantineIfExhausted = [&](PointState &st) {
        if (st.failures <= opts.maxRetries)
            return false;
        const std::string &fp = st.point->fingerprintHex;
        if (opts.db) {
            opts.db->setRunStatus(spec.scenario, fp, opts.gitSha,
                                  "quarantined");
        }
        st.finished = true;
        ++finished;
        ++report.failed;
        ++report.quarantined;
        warn("sweep point %s: %u failure(s), retry budget exhausted "
             "— quarantined",
             fp.c_str(), st.failures);
        inform("sweep: [%zu/%zu] %s QUARANTINED", finished,
               states.size(), fp.c_str());
        return true;
    };
    for (std::size_t i = 0; i < pending.size(); ++i) {
        states[i].point = &pending[i];
        if (opts.db) {
            states[i].failures = opts.db->failureCount(
                spec.scenario, pending[i].fingerprintHex,
                opts.gitSha);
        }
        // A budget exhausted in a previous launch (the orchestrator
        // died before, or while, quarantining) finishes its
        // quarantine instead of retrying forever across relaunches.
        quarantineIfExhausted(states[i]);
    }

    // Dispatch loop: keep up to `jobs` children in flight; whenever
    // one exits, harvest it, classify any failure, and either
    // relaunch the point after its backoff or quarantine it.
    std::map<pid_t, std::size_t> running;
    while (finished < states.size()) {
        Clock::time_point now = Clock::now();
        bool deferred = false;
        for (std::size_t i = 0;
             i < states.size() && running.size() < jobs; ++i) {
            PointState &st = states[i];
            bool launched = false;
            for (const auto &[pid, idx] : running)
                launched |= idx == i;
            if (st.finished || launched)
                continue;
            if (st.eligibleAt > now) {
                deferred = true;
                continue;
            }
            const SweepPoint &point = *st.point;
            std::string logPath =
                logDir + "/" + point.fingerprintHex + ".log";
            // A stale hang report would misclassify the next
            // failure, so each launch starts with a clean slate.
            std::remove(hangReportPath(point).c_str());
            std::vector<std::string> command =
                pointCommand(spec, point, opts);
            command.push_back("--hang-report-path=" +
                              hangReportPath(point));
            std::vector<char *> argv;
            for (std::string &arg : command)
                argv.push_back(arg.data());
            argv.push_back(nullptr);
            pid_t pid = supervise::forkLogged(logPath, [&] {
                ::execv(argv[0], argv.data());
                // exec failed; the parent sees exit 127 like a shell
                // would.
                return 127;
            });
            running[pid] = i;
        }

        if (running.empty()) {
            // Everything unfinished is backing off; nap briefly
            // rather than tracking the exact next deadline.
            ::usleep(10000);
            continue;
        }

        // With deferred points waiting on a backoff deadline, poll so
        // an expiring deadline is not stuck behind a slow sibling.
        int status = 0;
        pid_t pid = ::waitpid(-1, &status, deferred ? WNOHANG : 0);
        if (pid == 0) {
            ::usleep(10000);
            continue;
        }
        if (pid < 0) {
            fatal_if(errno != EINTR, "waitpid failed: %s",
                     std::strerror(errno));
            continue;
        }
        auto it = running.find(pid);
        if (it == running.end())
            continue;
        PointState &st = states[it->second];
        const SweepPoint &point = *st.point;
        running.erase(it);

        bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (ok) {
            st.finished = true;
            ++finished;
            ++report.succeeded;
            inform("sweep: [%zu/%zu] %s done", finished,
                   states.size(), point.fingerprintHex.c_str());
            continue;
        }

        // A sweep child's completion journal is its DB commit, so
        // there is no marker to miss.
        supervise::FailureRecord rec =
            supervise::classifyExit(status, hangReportPath(point),
                                    /*marker=*/true);
        rec.attempt = st.failures++;
        warn("sweep point %s failed (%s: %s; log: %s/%s.log)",
             point.fingerprintHex.c_str(),
             supervise::failureClassName(rec.cls), rec.detail.c_str(),
             logDir.c_str(), point.fingerprintHex.c_str());
        if (opts.db) {
            opts.db->recordFailure(spec.scenario,
                                   point.fingerprintHex, opts.gitSha,
                                   rec);
        }
        if (quarantineIfExhausted(st))
            continue;

        if (opts.db) {
            opts.db->setRunStatus(spec.scenario, point.fingerprintHex,
                                  opts.gitSha, "retrying");
        }
        unsigned backoffMs = supervise::retryBackoffMs(
            opts.backoffBaseMs, st.failures - 1,
            supervise::backoffCapMs);
        st.eligibleAt =
            Clock::now() + std::chrono::milliseconds(backoffMs);
        ++report.retried;
        inform("sweep: %s retrying in %u ms (failure %u/%u)",
               point.fingerprintHex.c_str(), backoffMs, st.failures,
               opts.maxRetries + 1);
    }
    return report;
}

} // namespace sweep
} // namespace emerald
