/**
 * @file
 * Run-supervisor tests (src/sim/supervise/): failure classification
 * from real forked children (SIGKILL, spurious exit, hang report),
 * checkpoint-directory scanning with corrupt rotations skipped, the
 * retry/backoff loop and its saturating schedule, the
 * deterministic-failure give-up with its triage bundle, and the
 * supervisor.json summary.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/serialize/serialize.hh"
#include "sim/supervise/supervisor.hh"

namespace emerald
{
namespace
{

namespace fs = std::filesystem;
using supervise::ChildSpec;
using supervise::FailureClass;
using supervise::SupervisorOptions;
using supervise::SupervisorResult;

std::string
tempDir(const std::string &leaf)
{
    std::string dir = ::testing::TempDir() + "emerald_sup_" + leaf;
    fs::remove_all(dir);
    return dir;
}

SupervisorOptions
quickOpts(const std::string &leaf)
{
    SupervisorOptions opts;
    opts.runDir = tempDir(leaf);
    opts.maxRetries = 3;
    opts.backoffBaseMs = 1;
    return opts;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Write a real rotated checkpoint at @p tick under @p base. */
std::string
writeRotation(const std::string &base, Tick tick)
{
    char leaf[32];
    std::snprintf(leaf, sizeof(leaf), "auto-%020llu",
                  static_cast<unsigned long long>(tick));
    std::string dir = base + "/" + leaf;
    CheckpointWriter w(dir, 0xfeedULL, tick, tick / 10);
    w.section("s").putU64("x", tick);
    w.finalize();
    return dir;
}

TEST(SuperviseClassify, StableFailureClassNames)
{
    EXPECT_STREQ(failureClassName(FailureClass::Crash), "crash");
    EXPECT_STREQ(failureClassName(FailureClass::Hang), "hang");
    EXPECT_STREQ(failureClassName(FailureClass::CkptCorrupt),
                 "ckpt-corrupt");
    EXPECT_STREQ(failureClassName(FailureClass::OomKilled),
                 "oom-killed");
    EXPECT_STREQ(failureClassName(FailureClass::SpuriousExit),
                 "spurious-exit");
}

TEST(SuperviseBackoff, DoublesAndSaturatesAtTheCap)
{
    using supervise::backoffCapMs;
    using supervise::retryBackoffMs;
    unsigned prev = 0;
    for (unsigned retry = 0; retry <= 64; ++retry) {
        unsigned ms = retryBackoffMs(200, retry, backoffCapMs);
        EXPECT_GE(ms, prev) << "retry " << retry;
        EXPECT_LE(ms, backoffCapMs) << "retry " << retry;
        prev = ms;
    }
    EXPECT_EQ(retryBackoffMs(200, 0, backoffCapMs), 200u);
    EXPECT_EQ(retryBackoffMs(200, 2, backoffCapMs), 800u);
    // `200 << 29` wraps to 0 in 32 bits.
    EXPECT_NE(retryBackoffMs(200, 29, backoffCapMs), 0u);
    EXPECT_EQ(retryBackoffMs(2, 100, 250), 250u);
    EXPECT_EQ(retryBackoffMs(0, 40, 250), 0u);
}

TEST(Supervise, CleanFirstAttemptIsOneAttemptNoFailures)
{
    SupervisorOptions opts = quickOpts("clean");
    SupervisorResult res = superviseRun(
        opts, [](const ChildSpec &) { return 0; });
    EXPECT_TRUE(res.succeeded);
    EXPECT_EQ(res.attempts, 1u);
    EXPECT_FALSE(res.gaveUp);
    EXPECT_TRUE(res.failures.empty());
    EXPECT_EQ(res.finalExitCode, 0);
    EXPECT_TRUE(fs::exists(opts.runDir + "/supervisor.json"));
}

TEST(Supervise, SigkillClassifiedOomKilledThenRecovers)
{
    SupervisorOptions opts = quickOpts("sigkill");
    SupervisorResult res = superviseRun(
        opts, [](const ChildSpec &spec) {
            if (spec.attempt == 0)
                ::raise(SIGKILL);
            return 0;
        });
    EXPECT_TRUE(res.succeeded);
    EXPECT_EQ(res.attempts, 2u);
    ASSERT_EQ(res.failures.size(), 1u);
    EXPECT_EQ(res.failures[0].cls, FailureClass::OomKilled);
    EXPECT_EQ(res.failures[0].signal, SIGKILL);
    // No checkpoint dir configured: the retry was a cold start.
    EXPECT_EQ(res.failures[0].recoveredFromTick, 0u);

    std::string summary = readFile(opts.runDir + "/supervisor.json");
    EXPECT_NE(summary.find("\"oom-killed\""), std::string::npos);
    EXPECT_NE(summary.find("\"succeeded\": true"), std::string::npos);
}

TEST(Supervise, ExitZeroWithoutMarkerIsSpuriousExit)
{
    SupervisorOptions opts = quickOpts("spurious");
    SupervisorResult res = superviseRun(
        opts, [](const ChildSpec &spec) {
            if (spec.attempt == 0)
                ::_exit(0); // bypass the marker the wrapper writes
            return 0;
        });
    EXPECT_TRUE(res.succeeded);
    EXPECT_EQ(res.attempts, 2u);
    ASSERT_EQ(res.failures.size(), 1u);
    EXPECT_EQ(res.failures[0].cls, FailureClass::SpuriousExit);
}

TEST(Supervise, HangReportTrumpsExitStatus)
{
    SupervisorOptions opts = quickOpts("hang");
    SupervisorResult res = superviseRun(
        opts, [](const ChildSpec &spec) {
            if (spec.attempt == 0) {
                // What the watchdog's abortWithReport does, minus
                // the simulator: write the report, then die.
                std::ofstream report(spec.hangReportPath);
                report << "{\"kind\": \"hang\"}\n";
                report.close();
                return 134;
            }
            return 0;
        });
    EXPECT_TRUE(res.succeeded);
    ASSERT_EQ(res.failures.size(), 1u);
    EXPECT_EQ(res.failures[0].cls, FailureClass::Hang);
}

TEST(Supervise, DeterministicFailureGivesUpWithTriageBundle)
{
    SupervisorOptions opts = quickOpts("det");
    SupervisorResult res = superviseRun(
        opts, [](const ChildSpec &) { return 3; });
    EXPECT_FALSE(res.succeeded);
    EXPECT_TRUE(res.gaveUp);
    // Same class, same recovery tick, twice in a row: stop at two
    // attempts even though the budget would allow four.
    EXPECT_EQ(res.attempts, 2u);
    ASSERT_EQ(res.failures.size(), 2u);
    EXPECT_EQ(res.failures[0].cls, FailureClass::Crash);
    EXPECT_EQ(res.failures[1].cls, FailureClass::Crash);
    EXPECT_EQ(res.finalExitCode, 3);

    EXPECT_TRUE(fs::exists(opts.runDir + "/triage/log-tail.txt"));
    EXPECT_TRUE(fs::exists(opts.runDir + "/triage/ckpt-lineage.txt"));
    std::string summary = readFile(opts.runDir + "/supervisor.json");
    EXPECT_NE(summary.find("\"gave_up\": true"), std::string::npos);
}

TEST(Supervise, BudgetExhaustionGivesUp)
{
    SupervisorOptions opts = quickOpts("budget");
    opts.maxRetries = 2;
    SupervisorResult res = superviseRun(
        opts, [](const ChildSpec &spec) {
            // Alternate failure modes so the deterministic-failure
            // detector never sees the same class twice in a row.
            if (spec.attempt % 2 == 0)
                ::raise(SIGKILL);
            return 7;
        });
    EXPECT_FALSE(res.succeeded);
    EXPECT_TRUE(res.gaveUp);
    EXPECT_EQ(res.attempts, 3u); // first try + maxRetries
    ASSERT_EQ(res.failures.size(), 3u);
    EXPECT_EQ(res.failures[0].cls, FailureClass::OomKilled);
    EXPECT_EQ(res.failures[1].cls, FailureClass::Crash);
    EXPECT_EQ(res.failures[2].cls, FailureClass::OomKilled);
}

TEST(SuperviseScan, NewestUsableCheckpointSkipsCorruptRotations)
{
    std::string base = tempDir("scan");
    writeRotation(base, 100);
    std::string mid = writeRotation(base, 500);
    std::string newest = writeRotation(base, 900);
    // Truncate the newest rotation: the scan must fall back to the
    // mid one and report the damage.
    fs::resize_file(newest + "/data.bin", 2);

    std::vector<std::string> corrupt;
    Tick tick = 0;
    std::string pick =
        supervise::newestUsableCheckpoint(base, &corrupt, &tick);
    EXPECT_EQ(pick, mid);
    EXPECT_EQ(tick, 500u);
    ASSERT_EQ(corrupt.size(), 1u);
    EXPECT_NE(corrupt[0].find("auto-00000000000000000900"),
              std::string::npos);
    EXPECT_NE(corrupt[0].find("truncated-section"),
              std::string::npos);

    // An empty / absent base scans to nothing, quietly.
    EXPECT_EQ(supervise::newestUsableCheckpoint(
                  tempDir("scan_absent"), nullptr, nullptr),
              "");
}

TEST(SuperviseScan, NestedPerConfigRotationsAreFound)
{
    // Benches that build one simulation per config rotate under
    // <base>/<config>-<fingerprint>/auto-*; the scan is recursive.
    std::string base = tempDir("scan_nested");
    writeRotation(base + "/BAS-abc", 300);
    std::string newest = writeRotation(base + "/HMC-def", 800);
    Tick tick = 0;
    EXPECT_EQ(supervise::newestUsableCheckpoint(base, nullptr, &tick),
              newest);
    EXPECT_EQ(tick, 800u);
}

TEST(Supervise, RetryRestoresFromNewestCheckpointAndRecordsTick)
{
    SupervisorOptions opts = quickOpts("restore");
    opts.ckptDir = tempDir("restore_ckpt");
    writeRotation(opts.ckptDir, 200);
    std::string newest = writeRotation(opts.ckptDir, 600);

    SupervisorResult res = superviseRun(
        opts, [&](const ChildSpec &spec) {
            if (spec.attempt == 0)
                ::raise(SIGKILL);
            // The retry must be pointed at the newest rotation; a
            // nonzero exit here fails the test via the result.
            return spec.restoreDir == newest ? 0 : 9;
        });
    EXPECT_TRUE(res.succeeded) << "retry saw the wrong restoreDir";
    ASSERT_EQ(res.failures.size(), 1u);
    EXPECT_EQ(res.failures[0].recoveredFromTick, 600u);
}

TEST(Supervise, CorruptRotationRecordedAndOlderOneUsed)
{
    SupervisorOptions opts = quickOpts("corrupt");
    opts.ckptDir = tempDir("corrupt_ckpt");
    std::string older = writeRotation(opts.ckptDir, 250);
    std::string newest = writeRotation(opts.ckptDir, 750);
    fs::remove(newest + "/data.bin");

    SupervisorResult res = superviseRun(
        opts, [&](const ChildSpec &spec) {
            if (spec.attempt == 0)
                return 11;
            return spec.restoreDir == older ? 0 : 9;
        });
    EXPECT_TRUE(res.succeeded);
    // The damaged rotation shows up as an informational
    // ckpt-corrupt record alongside the crash itself.
    ASSERT_EQ(res.failures.size(), 2u);
    EXPECT_EQ(res.failures[0].cls, FailureClass::Crash);
    EXPECT_EQ(res.failures[1].cls, FailureClass::CkptCorrupt);
    EXPECT_NE(res.failures[1].detail.find("missing-data"),
              std::string::npos)
        << res.failures[1].detail;
}

TEST(Supervise, KillAfterMsInjectsMidRunKill)
{
    SupervisorOptions opts = quickOpts("killafter");
    opts.killAfterMs = 20;
    SupervisorResult res = superviseRun(
        opts, [](const ChildSpec &spec) {
            if (spec.attempt == 0) {
                // Attempt 0 dawdles so the supervisor's timer lands.
                ::usleep(2000 * 1000);
            }
            return 0;
        });
    EXPECT_TRUE(res.succeeded);
    EXPECT_EQ(res.attempts, 2u);
    ASSERT_EQ(res.failures.size(), 1u);
    EXPECT_EQ(res.failures[0].cls, FailureClass::OomKilled);
}

} // namespace
} // namespace emerald
