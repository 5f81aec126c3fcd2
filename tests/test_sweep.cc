/**
 * @file
 * Sweep driver tests: grid expansion, point fingerprints, the resume
 * computation, the manifest, the stats sinks (URI dispatch, legacy
 * JSON byte-compatibility) and — when SQLite is compiled in — the
 * results-store round trip the orchestrator's journal rests on and
 * the orchestrator's classify/retry/quarantine path.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/stats_sink.hh"
#include "sweep/db.hh"
#include "sweep/grid.hh"
#include "sweep/manifest.hh"
#include "sweep/orchestrator.hh"

#ifdef EMERALD_HAS_SQLITE
#include <sqlite3.h>
#endif

using namespace emerald;
using namespace emerald::sweep;

namespace
{

std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + "emerald_sweep_" + leaf;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

// ------------------------------------------------------------------
// Grid expansion.
// ------------------------------------------------------------------

TEST(SweepGrid, ExpandsCartesianProductInAxisOrder)
{
    SweepSpec spec = parseSweepSpec(
        "scenario = soc_point\n"
        "fixed.quick = 1\n"
        "axis.config = BAS,DCB\n"
        "axis.fps = 30,60,120\n");
    EXPECT_EQ(spec.scenario, "soc_point");

    auto points = expandGrid(spec);
    ASSERT_EQ(points.size(), 6u);
    // Last axis varies fastest; params come back sorted by key.
    EXPECT_EQ(points[0].params,
              (std::vector<std::pair<std::string, std::string>>{
                  {"config", "BAS"}, {"fps", "30"}, {"quick", "1"}}));
    EXPECT_EQ(points[1].params[1].second, "60");
    EXPECT_EQ(points[3].params[0].second, "DCB");

    // Every point gets a distinct fingerprint.
    for (std::size_t i = 0; i < points.size(); ++i)
        for (std::size_t j = i + 1; j < points.size(); ++j)
            EXPECT_NE(points[i].fingerprintHex,
                      points[j].fingerprintHex);
}

TEST(SweepGrid, SkipDirectiveFiltersMatchingPoints)
{
    SweepSpec spec = parseSweepSpec(
        "axis.config = BAS,DCB,HMC\n"
        "axis.channels = 1,2\n"
        "skip = config=HMC,channels=1\n");
    auto points = expandGrid(spec);
    EXPECT_EQ(points.size(), 5u);
    for (const SweepPoint &point : points) {
        bool hmc1 = point.params[1].second == "HMC" &&
                    point.params[0].second == "1";
        EXPECT_FALSE(hmc1);
    }
}

TEST(SweepGrid, ParsesCommentsRestoreReplayAndWhitespace)
{
    SweepSpec spec = parseSweepSpec(
        "# a comment\n"
        "  scenario = fig12_memsched_highload  # trailing\n"
        "\n"
        "restore = ckpt/warm\n"
        "replay = traces/fig12\n"
        "axis.fps =  30 , 60 \n");
    EXPECT_EQ(spec.scenario, "fig12_memsched_highload");
    EXPECT_EQ(spec.restoreDir, "ckpt/warm");
    EXPECT_EQ(spec.replayDir, "traces/fig12");
    ASSERT_EQ(spec.axes.size(), 1u);
    EXPECT_EQ(spec.axes[0].second,
              (std::vector<std::string>{"30", "60"}));
}

TEST(SweepGrid, BracketsShieldAxisValueCommas)
{
    // A fault plan's own commas sit inside (), so the two plans
    // below are two axis values, not five.
    SweepSpec spec = parseSweepSpec(
        "axis.fault-plan = offer-reject(match=l2,start=1us,prob=0.5),"
        "dram-stall(len=2us,period=8us)\n");
    ASSERT_EQ(spec.axes.size(), 1u);
    EXPECT_EQ(spec.axes[0].second,
              (std::vector<std::string>{
                  "offer-reject(match=l2,start=1us,prob=0.5)",
                  "dram-stall(len=2us,period=8us)"}));
}

TEST(SweepGrid, BackslashEscapesAxisValueCommas)
{
    SweepSpec spec = parseSweepSpec(
        "axis.tag = a\\,b,c\n");
    ASSERT_EQ(spec.axes.size(), 1u);
    EXPECT_EQ(spec.axes[0].second,
              (std::vector<std::string>{"a,b", "c"}));
}

TEST(SweepGridDeathTest, RejectsMalformedSpecs)
{
    EXPECT_EXIT(parseSweepSpec("bogus = 1\n"),
                ::testing::ExitedWithCode(1), "unknown directive");
    EXPECT_EXIT(parseSweepSpec("axis.fps = 30,,60\n"),
                ::testing::ExitedWithCode(1), "empty axis value");
    EXPECT_EXIT(parseSweepSpec("axis.plan = stall(len=1us\n"),
                ::testing::ExitedWithCode(1), "unbalanced brackets");
    EXPECT_EXIT(parseSweepSpec("axis.plan = stall)\n"),
                ::testing::ExitedWithCode(1), "unbalanced brackets");
    EXPECT_EXIT(parseSweepSpec("axis.tag = a\\\n"),
                ::testing::ExitedWithCode(1), "dangling backslash");
    EXPECT_EXIT(
        expandGrid(parseSweepSpec(
            "fixed.fps = 30\naxis.fps = 30,60\n")),
        ::testing::ExitedWithCode(1), "more than once");
}

TEST(SweepGrid, SpecHashTracksGridNotDriveMode)
{
    SweepSpec a = parseSweepSpec("axis.fps = 30,60\n");
    SweepSpec b = parseSweepSpec(
        "axis.fps = 30,60\nreplay = traces\n");
    SweepSpec c = parseSweepSpec("axis.fps = 30,61\n");
    EXPECT_EQ(specHash(a), specHash(b));
    EXPECT_NE(specHash(a), specHash(c));
}

// ------------------------------------------------------------------
// Point fingerprints.
// ------------------------------------------------------------------

TEST(SweepFingerprint, IgnoresIoObservabilityAndDriveModeKeys)
{
    Config design;
    design.set("config", "DCB");
    design.set("fps", "60");

    Config driven = design;
    driven.set("stats-out", "sqlite:runs.db");
    driven.set("run", "soc_point");
    driven.set("git-sha", "abc");
    driven.set("restore", "ckpt/warm");
    driven.set("replay-trace", "traces");
    driven.set("capture-trace", "traces2");
    driven.set("jobs", "8");

    EXPECT_EQ(sweepPointFingerprint(design),
              sweepPointFingerprint(driven));
    EXPECT_EQ(sweepPointParams(driven).size(), 2u);

    driven.set("fps", "30");
    EXPECT_NE(sweepPointFingerprint(design),
              sweepPointFingerprint(driven));
}

TEST(SweepFingerprint, CkptShareKeysNarrowsScopeNotIdentity)
{
    Config a;
    a.set("config", "BAS");
    a.set("fps", "30");
    Config b;
    b.set("config", "BAS");
    b.set("fps", "60");
    EXPECT_NE(sweepPointFingerprint(a), sweepPointFingerprint(b));
    EXPECT_NE(ckptScopeFingerprintHex(a), ckptScopeFingerprintHex(b));

    // Declaring fps shared merges the two points' checkpoint scope
    // (they fork from one warm snapshot) but must NOT merge their
    // run identity — both land separately in the results store.
    a.set("ckpt-share-keys", "fps");
    b.set("ckpt-share-keys", "fps");
    EXPECT_EQ(ckptScopeFingerprintHex(a), ckptScopeFingerprintHex(b));
    EXPECT_NE(sweepPointFingerprint(a), sweepPointFingerprint(b));
}

TEST(SweepFingerprint, EmptyConfigYieldsZeroAndEmptyHex)
{
    Config cfg;
    EXPECT_EQ(sweepPointFingerprint(cfg), 0u);
    EXPECT_EQ(sweepPointFingerprintHex(cfg), "");
    cfg.set("fps", "60");
    EXPECT_EQ(sweepPointFingerprintHex(cfg).size(), 16u);
}

// ------------------------------------------------------------------
// Resume computation and manifest.
// ------------------------------------------------------------------

TEST(SweepManifest, PendingPointsSkipsCommittedFingerprints)
{
    auto points = expandGrid(parseSweepSpec(
        "axis.config = BAS,DCB,DTB,HMC\n"));
    ASSERT_EQ(points.size(), 4u);

    // Simulate a sweep killed after two commits: only the committed
    // fingerprints are skipped on relaunch, order preserved.
    std::vector<std::string> done = {points[1].fingerprintHex,
                                     points[3].fingerprintHex};
    auto pending = pendingPoints(points, done);
    ASSERT_EQ(pending.size(), 2u);
    EXPECT_EQ(pending[0].fingerprintHex, points[0].fingerprintHex);
    EXPECT_EQ(pending[1].fingerprintHex, points[2].fingerprintHex);

    EXPECT_EQ(pendingPoints(points, {}).size(), 4u);
    done = {points[0].fingerprintHex, points[1].fingerprintHex,
            points[2].fingerprintHex, points[3].fingerprintHex};
    EXPECT_TRUE(pendingPoints(points, done).empty());
}

TEST(SweepManifest, WritesPointsAndIdentity)
{
    ManifestInfo info;
    info.scenario = "soc_point";
    info.specHash = "00ff";
    info.gitSha = "abc";
    info.replayDir = "traces";
    info.points = expandGrid(parseSweepSpec("axis.fps = 30,60\n"));

    std::string path = tempPath("manifest.json");
    writeManifest(path, info);
    std::string text = readFile(path);
    EXPECT_NE(text.find("\"scenario\": \"soc_point\""),
              std::string::npos);
    EXPECT_NE(text.find("\"spec_hash\": \"00ff\""),
              std::string::npos);
    EXPECT_NE(text.find(info.points[0].fingerprintHex),
              std::string::npos);
    EXPECT_NE(text.find("\"fps\": \"60\""), std::string::npos);
}

TEST(SweepOrchestrator, PointCommandCarriesDriveModeFlags)
{
    SweepSpec spec = parseSweepSpec(
        "scenario = soc_point\n"
        "restore = ckpt/warm\n"
        "replay = traces\n"
        "axis.fps = 30\n");
    auto points = expandGrid(spec);
    OrchestratorOptions opts;
    opts.benchBin = "bench/emerald_bench";
    opts.dbPath = "out/sweep.db";
    opts.gitSha = "abc";

    auto command = pointCommand(spec, points[0], opts);
    EXPECT_EQ(command,
              (std::vector<std::string>{
                  "bench/emerald_bench", "--run=soc_point",
                  "--fps=30", "--stats-out=sqlite:out/sweep.db",
                  "--git-sha=abc", "--restore=ckpt/warm",
                  "--replay-trace=traces"}));
}

// ------------------------------------------------------------------
// Stats sinks.
// ------------------------------------------------------------------

TEST(StatsSinkUri, DispatchesNullJsonAndSqlite)
{
    EXPECT_FALSE(makeStatsSink("")->live());
    EXPECT_FALSE(makeStatsSink("null")->live());
    EXPECT_TRUE(isSqliteUri("sqlite:runs.db"));
    EXPECT_FALSE(isSqliteUri("runs.db"));
    EXPECT_EQ(sqliteUriPath("sqlite:a/b.db"), "a/b.db");
}

/** A small stats tree exercising every Stat kind. */
struct TreeFixture
{
    // Unnamed root, like Simulation::_statsRoot: flattened paths are
    // then relative ("gpu.cycles"), prefixed by the sink's label.
    StatGroup root{""};
    StatGroup gpu{root, "gpu"};
    Scalar cycles{gpu, "cycles", "cycle count"};
    Distribution lat{gpu, "lat", "request latency"};

    TreeFixture()
    {
        cycles += 1234;
        lat.sample(4);
        lat.sample(8);
    }
};

TEST(StatsSinkJson, LegacyDocumentShapeIsPreserved)
{
    // The exact legacy BenchResults layout: two-space indent, one
    // result per line, 17-digit numbers, non-finite -> null, the sim
    // tree inlined under its label. check_replay.py/check_restore.py
    // parse these files; the framing below is load-bearing.
    TreeFixture fix;
    std::string path = tempPath("doc.json");
    {
        auto sink = makeStatsSink(path);
        ASSERT_TRUE(sink->live());
        RunInfo info;
        info.bench = "t";
        sink->beginRun(info);
        sink->recordScalar("gpu_ms", 0.1);
        sink->recordScalar("events", 7);
        sink->recordScalar("nan_ms",
                           std::numeric_limits<double>::quiet_NaN());
        sink->addStatsTree("cold", fix.root);
        sink->finishRun();
    }
    std::string text = readFile(path);

    std::ostringstream sim;
    fix.root.dumpJson(sim);
    std::string tree = sim.str();
    while (!tree.empty() && tree.back() == '\n')
        tree.pop_back();

    std::string expected =
        "{\n  \"bench\": \"t\",\n"
        "  \"results\": {\n"
        "    \"gpu_ms\": 0.10000000000000001,\n"
        "    \"events\": 7,\n"
        "    \"nan_ms\": null\n  },\n"
        "  \"sim\": {\n    \"cold\": " + tree + "\n  }\n}\n";
    EXPECT_EQ(text, expected);
}

TEST(StatsSinkJson, TreeModeMatchesDumpJsonByteForByte)
{
    TreeFixture fix;
    std::string path = tempPath("tree.json");
    {
        auto sink = makeTreeStatsSink(path);
        sink->beginRun(RunInfo{});
        sink->addStatsTree("sim", fix.root);
        sink->finishRun();
    }
    std::ostringstream expected;
    fix.root.dumpJson(expected);
    expected << "\n";
    EXPECT_EQ(readFile(path), expected.str());
}

// ------------------------------------------------------------------
// SQLite round trip (the orchestrator's journal).
// ------------------------------------------------------------------

#ifdef EMERALD_HAS_SQLITE

double
queryStat(const std::string &path, const std::string &name)
{
    sqlite3 *db = nullptr;
    EXPECT_EQ(sqlite3_open(path.c_str(), &db), SQLITE_OK);
    sqlite3_stmt *stmt = nullptr;
    EXPECT_EQ(sqlite3_prepare_v2(
                  db,
                  "SELECT value FROM stats JOIN runs USING(run_id) "
                  "WHERE name = ?",
                  -1, &stmt, nullptr),
              SQLITE_OK);
    sqlite3_bind_text(stmt, 1, name.c_str(), -1, SQLITE_TRANSIENT);
    double value = -1;
    if (sqlite3_step(stmt) == SQLITE_ROW)
        value = sqlite3_column_double(stmt, 0);
    sqlite3_finalize(stmt);
    sqlite3_close(db);
    return value;
}

TEST(StatsSinkSqlite, RoundTripsRunParamsAndStats)
{
    ASSERT_TRUE(sqliteSinkAvailable());
    ASSERT_TRUE(sweepDbAvailable());
    std::string path = tempPath("roundtrip.db");
    std::remove(path.c_str());

    Config cfg;
    cfg.set("config", "DCB");
    cfg.set("fps", "60");

    TreeFixture fix;
    {
        auto sink = makeStatsSink("sqlite:" + path);
        ASSERT_TRUE(sink->live());
        RunInfo info;
        info.bench = "soc_point";
        info.gitSha = "abc";
        info.fingerprint = sweepPointFingerprint(cfg);
        info.params = sweepPointParams(cfg);
        sink->beginRun(info);
        sink->recordScalar("gpu_ms", 2.5);
        sink->addStatsTree("cold", fix.root);
        sink->finishRun();
    }

    // The committed run is the resume journal entry.
    SweepDb db(path);
    auto done = db.doneFingerprints("soc_point", "abc");
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0], sweepPointFingerprintHex(cfg));
    EXPECT_TRUE(db.doneFingerprints("soc_point", "other").empty());
    EXPECT_TRUE(db.doneFingerprints("fig12", "abc").empty());

    EXPECT_DOUBLE_EQ(queryStat(path, "results.gpu_ms"), 2.5);
    EXPECT_DOUBLE_EQ(queryStat(path, "cold.gpu.cycles"), 1234.0);
    EXPECT_DOUBLE_EQ(queryStat(path, "cold.gpu.lat.count"), 2.0);

    // Re-running the same design point upserts: still one run.
    {
        auto sink = makeStatsSink("sqlite:" + path);
        RunInfo info;
        info.bench = "soc_point";
        info.gitSha = "abc";
        info.fingerprint = sweepPointFingerprint(cfg);
        info.params = sweepPointParams(cfg);
        sink->beginRun(info);
        sink->recordScalar("gpu_ms", 3.5);
        sink->finishRun();
    }
    EXPECT_EQ(db.doneFingerprints("soc_point", "abc").size(), 1u);
    EXPECT_DOUBLE_EQ(queryStat(path, "results.gpu_ms"), 3.5);

    EXPECT_EQ(db.getMeta("schema_version"), "1");
    db.setMeta("spec_hash", "feed");
    EXPECT_EQ(db.getMeta("spec_hash"), "feed");
    db.setMeta("spec_hash", "f00d");
    EXPECT_EQ(db.getMeta("spec_hash"), "f00d");
    EXPECT_EQ(db.getMeta("absent"), "");
}

// ------------------------------------------------------------------
// Failure journal + run status (the retry/quarantine ledger).
// ------------------------------------------------------------------

supervise::FailureRecord
failure(supervise::FailureClass cls, unsigned attempt)
{
    supervise::FailureRecord rec;
    rec.cls = cls;
    rec.attempt = attempt;
    return rec;
}

TEST(SweepDbFailures, RecordsCountsAndStatusRoundTrip)
{
    ASSERT_TRUE(sweepDbAvailable());
    std::string path = tempPath("failures.db");
    std::remove(path.c_str());
    SweepDb db(path);

    EXPECT_EQ(db.failureCount("soc_point", "fp1", "sha"), 0u);
    EXPECT_EQ(db.runStatus("soc_point", "fp1", "sha"), "");

    using supervise::FailureClass;
    db.recordFailure("soc_point", "fp1", "sha",
                     failure(FailureClass::Crash, 0));
    db.recordFailure("soc_point", "fp1", "sha",
                     failure(FailureClass::OomKilled, 1));
    // Corrupt-checkpoint records are informational: they must not
    // consume the point's retry budget.
    db.recordFailure("soc_point", "fp1", "sha",
                     failure(FailureClass::CkptCorrupt, 1));

    EXPECT_EQ(db.failureCount("soc_point", "fp1", "sha"), 2u);
    EXPECT_EQ(db.failureCount("soc_point", "fp2", "sha"), 0u);
    EXPECT_EQ(db.failureCount("soc_point", "fp1", "other"), 0u);
    EXPECT_EQ(db.failureCount("fig12", "fp1", "sha"), 0u);

    // Status upserts work for points that never committed a run row
    // (that is how a quarantined point becomes visible at all).
    db.setRunStatus("soc_point", "fp1", "sha", "retrying");
    EXPECT_EQ(db.runStatus("soc_point", "fp1", "sha"), "retrying");
    db.setRunStatus("soc_point", "fp1", "sha", "quarantined");
    EXPECT_EQ(db.runStatus("soc_point", "fp1", "sha"), "quarantined");
    // A quarantined-but-never-committed point must not count as done.
    EXPECT_TRUE(db.doneFingerprints("soc_point", "sha").empty());
}

TEST(SweepDbFailures, ConcurrentWritersRetryThroughContention)
{
    ASSERT_TRUE(sweepDbAvailable());
    std::string path = tempPath("contention.db");
    std::remove(path.c_str());
    {
        SweepDb schema(path); // create the schema before forking
    }

    // A near-zero busy timeout forces every writer through the
    // jittered retry loop instead of SQLite's internal wait.
    ::setenv("EMERALD_SQLITE_BUSY_MS", "1", 1);
    constexpr int kWriters = 4;
    constexpr int kEach = 25;
    std::vector<pid_t> kids;
    for (int w = 0; w < kWriters; ++w) {
        pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            SweepDb db(path);
            std::string fp = "fp" + std::to_string(w);
            for (int i = 0; i < kEach; ++i) {
                db.recordFailure(
                    "bench", fp, "sha",
                    failure(supervise::FailureClass::Crash, i));
            }
            db.setRunStatus("bench", fp, "sha", "retrying");
            ::_exit(0);
        }
        kids.push_back(pid);
    }
    for (pid_t pid : kids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "writer died under contention (status " << status
            << ")";
    }
    ::unsetenv("EMERALD_SQLITE_BUSY_MS");

    SweepDb db(path);
    for (int w = 0; w < kWriters; ++w) {
        std::string fp = "fp" + std::to_string(w);
        EXPECT_EQ(db.failureCount("bench", fp, "sha"),
                  static_cast<unsigned>(kEach));
        EXPECT_EQ(db.runStatus("bench", fp, "sha"), "retrying");
    }
}

// ------------------------------------------------------------------
// The orchestrator's retry path, driven by a fake bench.
// ------------------------------------------------------------------

/** Classes in run_failures for one point, oldest first. */
std::vector<std::string>
failureClasses(const std::string &path, const std::string &fp)
{
    sqlite3 *db = nullptr;
    EXPECT_EQ(sqlite3_open(path.c_str(), &db), SQLITE_OK);
    sqlite3_stmt *stmt = nullptr;
    EXPECT_EQ(sqlite3_prepare_v2(
                  db,
                  "SELECT class FROM run_failures WHERE fingerprint = ? "
                  "ORDER BY failure_id",
                  -1, &stmt, nullptr),
              SQLITE_OK);
    sqlite3_bind_text(stmt, 1, fp.c_str(), -1, SQLITE_TRANSIENT);
    std::vector<std::string> classes;
    while (sqlite3_step(stmt) == SQLITE_ROW) {
        classes.emplace_back(reinterpret_cast<const char *>(
            sqlite3_column_text(stmt, 0)));
    }
    sqlite3_finalize(stmt);
    sqlite3_close(db);
    return classes;
}

TEST(SweepOrchestrator, ClassifiesRetriesAndQuarantinesFailingPoints)
{
    std::string dir = tempPath("orchestrator");
    std::filesystem::remove_all(dir);
    makeDirs(dir);

    // A stand-in for emerald_bench: --mode picks how it dies, and
    // every launch bumps a per-mode counter.
    std::string bench = dir + "/fake_bench.sh";
    {
        std::ofstream os(bench);
        os << "#!/bin/sh\n"
           << "dir='" << dir << "'\n"
           << R"(for arg in "$@"; do
  case "$arg" in
    --mode=*) mode="${arg#--mode=}" ;;
    --hang-report-path=*) report="${arg#--hang-report-path=}" ;;
  esac
done
n=$(( $(cat "$dir/$mode.launches" 2>/dev/null || echo 0) + 1 ))
echo "$n" > "$dir/$mode.launches"
case "$mode" in
  killonce) [ "$n" -gt 1 ] || kill -9 $$ ;;
  crash) exit 3 ;;
  hang) echo '{"kind": "hang"}' > "$report"; exit 1 ;;
esac
exit 0
)";
    }
    ASSERT_EQ(::chmod(bench.c_str(), 0755), 0);
    auto launches = [&](const std::string &mode) {
        return std::atoi(readFile(dir + "/" + mode + ".launches").c_str());
    };

    SweepSpec spec = parseSweepSpec("scenario = fake\n"
                                    "axis.mode = killonce,crash,hang\n");
    std::vector<SweepPoint> points = expandGrid(spec);
    ASSERT_EQ(points.size(), 3u);
    std::map<std::string, std::string> fp;
    for (const SweepPoint &point : points)
        fp[point.params.at(0).second] = point.fingerprintHex;

    std::string dbPath = dir + "/sweep.db";
    SweepDb db(dbPath);
    OrchestratorOptions opts;
    opts.benchBin = bench;
    opts.dbPath = dbPath;
    opts.outDir = dir;
    opts.gitSha = "sha";
    opts.jobs = 2;
    opts.maxRetries = 1;
    opts.backoffBaseMs = 1;
    opts.db = &db;

    SweepReport report = runSweep(spec, points, opts);
    EXPECT_EQ(report.succeeded, 1u);
    EXPECT_EQ(report.failed, 2u);
    EXPECT_EQ(report.quarantined, 2u);
    EXPECT_EQ(report.retried, 3u);

    // SIGKILL once: one oom-killed row, then a successful retry.
    EXPECT_EQ(failureClasses(dbPath, fp["killonce"]),
              std::vector<std::string>{"oom-killed"});
    EXPECT_EQ(launches("killonce"), 2);
    // Nonzero exit every time: the budget runs out.
    EXPECT_EQ(failureClasses(dbPath, fp["crash"]),
              (std::vector<std::string>{"crash", "crash"}));
    EXPECT_EQ(db.runStatus("fake", fp["crash"], "sha"), "quarantined");
    // A written hang report trumps the exit code.
    EXPECT_EQ(failureClasses(dbPath, fp["hang"]),
              (std::vector<std::string>{"hang", "hang"}));
    EXPECT_EQ(db.runStatus("fake", fp["hang"], "sha"), "quarantined");

    // Relaunch with the points that never succeeded (the fake commits
    // nothing, so this is the resume set by hand): the spent budgets
    // are read back from the DB and nothing is launched again.
    std::vector<SweepPoint> unfinished;
    for (const SweepPoint &point : points)
        if (point.fingerprintHex != fp["killonce"])
            unfinished.push_back(point);
    SweepReport again = runSweep(spec, unfinished, opts);
    EXPECT_EQ(again.quarantined, 2u);
    EXPECT_EQ(again.succeeded, 0u);
    EXPECT_EQ(launches("crash"), 2);
    EXPECT_EQ(launches("hang"), 2);
    EXPECT_EQ(failureClasses(dbPath, fp["crash"]).size(), 2u);
}

#endif // EMERALD_HAS_SQLITE

} // namespace
