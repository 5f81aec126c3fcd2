/**
 * @file
 * Crash-and-hang-resilient run supervisor.
 *
 * A long simulation can die in ways the simulator itself cannot
 * handle: a crash (assertion, segfault), the kernel's OOM killer, or
 * a hang the watchdog aborts on. The supervisor runs the simulation
 * in a forked child and turns those one-way exits into a recovery
 * loop:
 *
 *   1. run the child, capturing its log per attempt;
 *   2. on failure, classify it (crash / hang / oom-killed /
 *      spurious-exit / ckpt-corrupt) from the wait status plus the
 *      watchdog's --hang-report-path JSON file;
 *   3. locate the newest integrity-passing rotated checkpoint
 *      (serialize/probeCheckpoint) under the run's checkpoint
 *      directory so the next attempt warm-starts instead of redoing
 *      the whole run;
 *   4. retry with exponential backoff, up to a bounded budget;
 *   5. refuse to loop on a deterministic failure: the same failure
 *      class recovering from the same tick twice in a row means
 *      retrying cannot help, so give up and write a triage bundle
 *      (hang report, log tail, checkpoint lineage) instead.
 *
 * The child runs a caller-provided callback (bench_main re-enters the
 * scenario with a rewritten argv) rather than exec'ing a binary, so
 * the supervisor works identically under the bench front end and in
 * unit tests. Supervision off means none of this code runs — the
 * scenario executes in-process exactly as before.
 *
 * The classifier, backoff schedule and child launcher declared here
 * are the whole run-failure policy: the sweep orchestrator
 * (src/sweep/) calls the same three per design point.
 */

#ifndef EMERALD_SIM_SUPERVISE_SUPERVISOR_HH
#define EMERALD_SIM_SUPERVISE_SUPERVISOR_HH

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace emerald::supervise
{

/** Why an attempt died. Stable names via failureClassName(). */
enum class FailureClass : std::uint8_t
{
    /** Signal or nonzero exit without a hang report. */
    Crash,
    /** The watchdog wrote its JSON report before aborting. */
    Hang,
    /** A rotated checkpoint failed its integrity probe. */
    CkptCorrupt,
    /** SIGKILL: on a loaded host, almost always the OOM killer. */
    OomKilled,
    /** Exit 0 without the completion marker: the run lied. */
    SpuriousExit,
};

const char *failureClassName(FailureClass cls);

/** One classified failure, as recorded in supervisor.json. */
struct FailureRecord
{
    FailureClass cls = FailureClass::Crash;
    /** Terminating signal, 0 if none. */
    int signal = 0;
    /** Exit code when the child exited normally, -1 otherwise. */
    int exitCode = -1;
    /** Attempt number (0-based) this failure ended. */
    unsigned attempt = 0;
    /** Tick of the checkpoint the *next* attempt resumes from
     *  (0 = cold start: no usable rotation existed). */
    Tick recoveredFromTick = 0;
    /** Human-readable detail (signal name, probe status, ...). */
    std::string detail;
};

/**
 * Classify a child that did not succeed: the one mapping from a wait
 * status onto the taxonomy above, shared by the supervisor and the
 * sweep orchestrator. An existing @p hangReport file (the path passed
 * to the child as --hang-report-path) means Hang, whatever the wait
 * status says. @p marker says whether the child's completion journal
 * exists (the supervisor's done.marker; a sweep child's journal is
 * its DB commit, so the orchestrator passes true): exit 0 without it
 * is SpuriousExit. The caller fills in attempt and recoveredFromTick.
 */
FailureRecord classifyExit(int waitStatus, const std::string &hangReport,
                           bool marker);

/** Upper bound on one retry backoff: a supervisor that naps for
 *  minutes between retries is worse than one that gives up. */
constexpr unsigned backoffCapMs = 30000;

/**
 * Backoff before retry @p retry (0 = the first retry): @p baseMs
 * doubled @p retry times, saturating at @p capMs. The one backoff
 * schedule for run retries, sweep-point retries and SQLite busy
 * retries; it never shifts, so no retry count can wrap it.
 */
unsigned retryBackoffMs(unsigned baseMs, unsigned retry, unsigned capMs);

/**
 * Fork a child that sends its stdout and stderr to @p logPath
 * (truncated) and exits with body()'s return value. Returns the
 * child's pid; fatal when fork fails.
 */
pid_t forkLogged(const std::string &logPath,
                 const std::function<int()> &body);

struct SupervisorOptions
{
    /** Attempt logs, hang reports, marker and triage bundle land
     *  here; created if missing. */
    std::string runDir;
    /** Base the scenario rotates auto-checkpoints under; scanned
     *  recursively for auto-* rotations (benches that build several
     *  simulations nest per-config subdirectories). Empty = no
     *  checkpoint recovery, every retry is a cold start. */
    std::string ckptDir;
    /** Retries after the first attempt (so maxRetries+1 attempts). */
    unsigned maxRetries = 3;
    /** First retry waits this long; doubles per retry up to
     *  backoffCapMs. */
    unsigned backoffBaseMs = 200;
    /** SIGKILL the child after this much wall time, 0 = never.
     *  (Primarily a test hook for injecting mid-run kills.) */
    unsigned killAfterMs = 0;
};

/** What the child callback needs to know about this attempt. */
struct ChildSpec
{
    /** 0 on the first attempt. */
    unsigned attempt = 0;
    /** Where the watchdog must write its JSON report
     *  (pass through to --hang-report-path). */
    std::string hangReportPath;
    /** Newest integrity-passing checkpoint directory to restore
     *  from; empty on attempt 0 or when none survived. */
    std::string restoreDir;
};

struct SupervisorResult
{
    /** A child completed and wrote its marker. */
    bool succeeded = false;
    /** Attempts consumed (>= 1). */
    unsigned attempts = 0;
    /** Retry budget exhausted or deterministic failure detected. */
    bool gaveUp = false;
    /** Every classified failure, in order. */
    std::vector<FailureRecord> failures;
    /** Exit code of the final child. */
    int finalExitCode = -1;
};

/**
 * Supervise @p child until it succeeds or the retry budget runs out.
 * The callback runs in a forked process: its return value is the
 * child's exit code, and it must not assume any parent-side state
 * changes survive. A summary is written to <runDir>/supervisor.json.
 */
SupervisorResult superviseRun(
    const SupervisorOptions &opts,
    const std::function<int(const ChildSpec &)> &child);

/**
 * Newest rotation under @p ckptDir (searched recursively) that passes
 * its integrity probe, or "" when none does. Corrupt rotations are
 * reported through @p corrupt (probe status + path) so the supervisor
 * can record them as CkptCorrupt failures.
 */
std::string newestUsableCheckpoint(const std::string &ckptDir,
                                   std::vector<std::string> *corrupt,
                                   Tick *tick);

} // namespace emerald::supervise

#endif // EMERALD_SIM_SUPERVISE_SUPERVISOR_HH
