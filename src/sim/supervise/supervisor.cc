#include "sim/supervise/supervisor.hh"

#include <sys/types.h>
#include <sys/wait.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"
#include "sim/serialize/serialize.hh"

namespace emerald::supervise
{

namespace fs = std::filesystem;

namespace
{

/** Bytes of child log replayed into the failure diagnostic and the
 *  triage bundle. */
constexpr std::size_t logTailBytes = 4096;

std::string
attemptLogPath(const SupervisorOptions &opts, unsigned attempt)
{
    return strprintf("%s/attempt-%u.log", opts.runDir.c_str(), attempt);
}

std::string
markerPath(const SupervisorOptions &opts)
{
    return opts.runDir + "/done.marker";
}

std::string
hangReportPath(const SupervisorOptions &opts)
{
    return opts.runDir + "/hang-report.json";
}

/** Last @p n bytes of @p path ("" when unreadable). */
std::string
fileTail(const std::string &path, std::size_t n)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
        return "";
    auto size = static_cast<std::size_t>(is.tellg());
    std::size_t want = std::min(size, n);
    is.seekg(static_cast<std::streamoff>(size - want));
    std::string out(want, '\0');
    is.read(out.data(), static_cast<std::streamsize>(want));
    return out;
}

/** Replay a completed attempt's log onto our stdout so a supervised
 *  run still prints what the scenario printed. */
void
replayLog(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return;
    char buf[4096];
    while (is.read(buf, sizeof(buf)) || is.gcount() > 0)
        std::fwrite(buf, 1, static_cast<std::size_t>(is.gcount()),
                    stdout);
    std::fflush(stdout);
}

/** Run one attempt: fork, redirect the child's output into the
 *  attempt log, run the callback, and return the raw wait status. */
int
runAttempt(const SupervisorOptions &opts, const ChildSpec &spec,
           const std::function<int(const ChildSpec &)> &child)
{
    std::error_code ec;
    fs::remove(markerPath(opts), ec);
    fs::remove(hangReportPath(opts), ec);

    // The per-attempt log keeps a crash's last words for the triage
    // bundle.
    pid_t pid = forkLogged(attemptLogPath(opts, spec.attempt), [&] {
        int rc = child(spec);
        if (rc == 0) {
            // The marker distinguishes a real completion from a child
            // that exited 0 without finishing (SpuriousExit).
            std::ofstream marker(markerPath(opts), std::ios::trunc);
            marker << "ok\n";
        }
        return rc;
    });

    // Parent. The kill-after deadline is a test hook: it injects a
    // mid-run SIGKILL into the first attempt only, so recovery can
    // be exercised deterministically from CI.
    int status = 0;
    if (opts.killAfterMs > 0 && spec.attempt == 0) {
        unsigned waitedMs = 0;
        while (waitedMs < opts.killAfterMs) {
            pid_t done = ::waitpid(pid, &status, WNOHANG);
            if (done == pid)
                return status;
            ::usleep(2000);
            waitedMs += 2;
        }
        ::kill(pid, SIGKILL);
    }
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return status;
}

void
writeSummary(const SupervisorOptions &opts,
             const SupervisorResult &result)
{
    std::ofstream os(opts.runDir + "/supervisor.json",
                     std::ios::trunc);
    if (!os) {
        warn("supervisor: cannot write %s/supervisor.json",
             opts.runDir.c_str());
        return;
    }
    os << "{\n";
    os << "  \"succeeded\": " << (result.succeeded ? "true" : "false")
       << ",\n";
    os << "  \"attempts\": " << result.attempts << ",\n";
    os << "  \"gave_up\": " << (result.gaveUp ? "true" : "false")
       << ",\n";
    os << "  \"final_exit_code\": " << result.finalExitCode << ",\n";
    os << "  \"failures\": [";
    for (std::size_t i = 0; i < result.failures.size(); ++i) {
        const FailureRecord &f = result.failures[i];
        os << (i ? ",\n    " : "\n    ");
        os << "{\"class\": \"" << failureClassName(f.cls)
           << "\", \"signal\": " << f.signal
           << ", \"exit_code\": " << f.exitCode
           << ", \"attempt\": " << f.attempt
           << ", \"recovered_from_tick\": " << f.recoveredFromTick
           << ", \"detail\": \"" << jsonEscape(f.detail) << "\"}";
    }
    os << (result.failures.empty() ? "]" : "\n  ]") << "\n}\n";
}

/** Freeze the evidence of an unrecoverable run under
 *  <runDir>/triage/. */
void
writeTriageBundle(const SupervisorOptions &opts, unsigned lastAttempt)
{
    std::error_code ec;
    std::string dir = opts.runDir + "/triage";
    fs::create_directories(dir, ec);

    if (fs::exists(hangReportPath(opts), ec))
        fs::copy_file(hangReportPath(opts), dir + "/hang-report.json",
                      fs::copy_options::overwrite_existing, ec);

    std::ofstream tail(dir + "/log-tail.txt", std::ios::trunc);
    if (tail) {
        tail << fileTail(attemptLogPath(opts, lastAttempt),
                         logTailBytes);
    }

    // Checkpoint lineage: every rotation we can see, with its probe
    // verdict, so "which checkpoint should I restore by hand" has an
    // answer.
    std::ofstream lineage(dir + "/ckpt-lineage.txt", std::ios::trunc);
    if (lineage && !opts.ckptDir.empty() &&
        fs::exists(opts.ckptDir, ec)) {
        for (auto it = fs::recursive_directory_iterator(
                 opts.ckptDir, fs::directory_options::skip_permission_denied,
                 ec);
             it != fs::recursive_directory_iterator();
             it.increment(ec)) {
            if (ec)
                break;
            if (!it->is_directory(ec))
                continue;
            std::string name = it->path().filename().string();
            if (name.rfind("auto-", 0) != 0)
                continue;
            CkptProbe probe =
                probeCheckpoint(it->path().string());
            lineage << it->path().string() << " "
                    << ckptIntegrityName(probe.status)
                    << " tick=" << probe.tick;
            if (!probe.detail.empty())
                lineage << " (" << probe.detail << ")";
            lineage << "\n";
        }
    }
}

} // namespace

FailureRecord
classifyExit(int status, const std::string &hangReport, bool marker)
{
    FailureRecord rec;
    if (WIFSIGNALED(status))
        rec.signal = WTERMSIG(status);
    else if (WIFEXITED(status))
        rec.exitCode = WEXITSTATUS(status);
    std::error_code ec;
    if (fs::exists(hangReport, ec)) {
        // The watchdog got its report out before the process died:
        // trust it over the raw wait status (abort mode ends in
        // panic(), which looks like a plain crash from out here).
        rec.cls = FailureClass::Hang;
        rec.detail = "watchdog hang report at " + hangReport;
    } else if (rec.signal == SIGKILL) {
        rec.cls = FailureClass::OomKilled;
        rec.detail = "SIGKILL (oom killer or external kill)";
    } else if (rec.signal) {
        rec.cls = FailureClass::Crash;
        rec.detail = strprintf("terminated by signal %d", rec.signal);
    } else if (rec.exitCode == 0 && !marker) {
        rec.cls = FailureClass::SpuriousExit;
        rec.detail = "exit 0 without completion marker";
    } else {
        rec.cls = FailureClass::Crash;
        rec.detail = strprintf("exit code %d", rec.exitCode);
    }
    return rec;
}

unsigned
retryBackoffMs(unsigned baseMs, unsigned retry, unsigned capMs)
{
    std::uint64_t ms = baseMs;
    for (unsigned i = 0; i < retry && ms != 0 && ms < capMs; ++i)
        ms *= 2;
    return static_cast<unsigned>(std::min<std::uint64_t>(ms, capMs));
}

pid_t
forkLogged(const std::string &logPath, const std::function<int()> &body)
{
    // Flush first, or the child inherits (and later writes out) the
    // parent's buffered output.
    std::fflush(nullptr);
    pid_t pid = ::fork();
    fatal_if(pid < 0, "fork failed: %s", std::strerror(errno));
    if (pid > 0)
        return pid;
    int fd = ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        if (fd > STDERR_FILENO)
            ::close(fd);
    }
    int rc = body();
    std::fflush(nullptr);
    _exit(rc);
}

const char *
failureClassName(FailureClass cls)
{
    switch (cls) {
      case FailureClass::Crash:
        return "crash";
      case FailureClass::Hang:
        return "hang";
      case FailureClass::CkptCorrupt:
        return "ckpt-corrupt";
      case FailureClass::OomKilled:
        return "oom-killed";
      case FailureClass::SpuriousExit:
        return "spurious-exit";
    }
    return "unknown";
}

std::string
newestUsableCheckpoint(const std::string &ckptDir,
                       std::vector<std::string> *corrupt, Tick *tick)
{
    if (tick)
        *tick = 0;
    std::error_code ec;
    if (ckptDir.empty() || !fs::exists(ckptDir, ec))
        return "";
    std::string best;
    Tick bestTick = 0;
    for (auto it = fs::recursive_directory_iterator(
             ckptDir, fs::directory_options::skip_permission_denied,
             ec);
         it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (ec)
            break;
        if (!it->is_directory(ec))
            continue;
        std::string name = it->path().filename().string();
        if (name.rfind("auto-", 0) != 0)
            continue;
        std::string path = it->path().string();
        CkptProbe probe = probeCheckpoint(path);
        if (!probe.ok()) {
            if (corrupt) {
                corrupt->push_back(strprintf(
                    "%s: %s (%s)", path.c_str(),
                    ckptIntegrityName(probe.status),
                    probe.detail.c_str()));
            }
            continue;
        }
        if (best.empty() || probe.tick > bestTick) {
            best = path;
            bestTick = probe.tick;
        }
    }
    if (tick)
        *tick = bestTick;
    return best;
}

SupervisorResult
superviseRun(const SupervisorOptions &opts,
             const std::function<int(const ChildSpec &)> &child)
{
    fatal_if(opts.runDir.empty(),
             "supervisor: a run directory is required");
    std::error_code ec;
    fs::create_directories(opts.runDir, ec);
    fatal_if(ec && !fs::exists(opts.runDir, ec),
             "supervisor: cannot create run directory '%s'",
             opts.runDir.c_str());

    SupervisorResult result;
    bool havePrev = false;
    FailureClass prevCls = FailureClass::Crash;
    Tick prevTick = 0;

    for (unsigned attempt = 0; attempt <= opts.maxRetries; ++attempt) {
        ChildSpec spec;
        spec.attempt = attempt;
        spec.hangReportPath = hangReportPath(opts);
        if (attempt > 0) {
            // Restore from whatever survived. An empty restoreDir
            // means a cold rerun — still better than giving up.
            std::vector<std::string> corrupt;
            Tick tick = 0;
            spec.restoreDir =
                newestUsableCheckpoint(opts.ckptDir, &corrupt, &tick);
            for (const std::string &c : corrupt) {
                FailureRecord rec;
                rec.cls = FailureClass::CkptCorrupt;
                rec.attempt = attempt;
                rec.detail = c;
                result.failures.push_back(rec);
                warn("supervisor: %s", c.c_str());
            }
        }

        result.attempts = attempt + 1;
        int status = runAttempt(opts, spec, child);

        bool marker = fs::exists(markerPath(opts), ec);
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0 && marker) {
            result.succeeded = true;
            result.finalExitCode = 0;
            replayLog(attemptLogPath(opts, attempt));
            if (attempt > 0) {
                inform("supervisor: run completed on attempt %u "
                       "after %zu classified failure(s)",
                       attempt, result.failures.size());
            }
            writeSummary(opts, result);
            return result;
        }

        FailureRecord rec =
            classifyExit(status, hangReportPath(opts), marker);
        rec.attempt = attempt;
        result.finalExitCode =
            WIFEXITED(status) ? WEXITSTATUS(status) : -1;

        // What would the *next* attempt recover from? That tick is
        // the deterministic-failure fingerprint: the same class dying
        // with the same resume point twice in a row means a retry
        // replays the identical path.
        Tick nextTick = 0;
        newestUsableCheckpoint(opts.ckptDir, nullptr, &nextTick);
        rec.recoveredFromTick = nextTick;
        result.failures.push_back(rec);
        warn("supervisor: attempt %u failed: %s (%s); tail:\n%s",
             attempt, failureClassName(rec.cls), rec.detail.c_str(),
             fileTail(attemptLogPath(opts, attempt), 512).c_str());

        if (havePrev && prevCls == rec.cls && prevTick == nextTick) {
            warn("supervisor: deterministic failure (%s from tick "
                 "%llu twice in a row) — giving up, triage bundle in "
                 "%s/triage",
                 failureClassName(rec.cls),
                 (unsigned long long)nextTick, opts.runDir.c_str());
            result.gaveUp = true;
            writeTriageBundle(opts, attempt);
            writeSummary(opts, result);
            return result;
        }
        havePrev = true;
        prevCls = rec.cls;
        prevTick = nextTick;

        if (attempt == opts.maxRetries)
            break;
        unsigned backoffMs =
            retryBackoffMs(opts.backoffBaseMs, attempt, backoffCapMs);
        if (backoffMs > 0) {
            inform("supervisor: retrying in %u ms (attempt %u/%u)",
                   backoffMs, attempt + 1, opts.maxRetries);
            ::usleep(backoffMs * 1000u);
        }
    }

    result.gaveUp = true;
    warn("supervisor: retry budget exhausted after %u attempt(s) — "
         "triage bundle in %s/triage",
         result.attempts, opts.runDir.c_str());
    writeTriageBundle(opts, result.attempts - 1);
    writeSummary(opts, result);
    return result;
}

} // namespace emerald::supervise
