/**
 * @file
 * Stats sinks: where a run's results go.
 *
 * Historically every figure bench hand-wrote one JSON document per
 * run (--stats-json) and the sweep story was "glob the loose files".
 * StatsSink turns the destination into an interface selected by a
 * --stats-out URI:
 *
 *   --stats-out=results.json    JsonFileSink   (the legacy document,
 *                                               byte-identical)
 *   --stats-out=sqlite:runs.db  SqliteSink     (one queryable DB for
 *                                               a whole sweep)
 *   --stats-out=null            NullSink       (discard)
 *
 * A sink receives one run: beginRun() with the run's identity
 * (scenario name, config fingerprint, git sha, the sweep-relevant
 * parameters), then recordScalar()/addStatsTree() calls, then
 * finishRun() commits. SqliteSink commits the whole run in a single
 * transaction, so a run either lands complete or not at all — the
 * sweep orchestrator's resume journal is exactly the set of committed
 * runs (docs/sweeps.md).
 */

#ifndef EMERALD_SIM_STATS_SINK_HH
#define EMERALD_SIM_STATS_SINK_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

struct sqlite3;
struct sqlite3_stmt;

namespace emerald
{

class StatGroup;

/** Identity of one run, recorded alongside its stats. */
struct RunInfo
{
    /** Scenario / bench name (bench::ScenarioRegistry key). */
    std::string bench;
    /** Commit the binary was built from ("" when unknown). */
    std::string gitSha;
    /** sweepPointFingerprint() of the run's configuration. */
    std::uint64_t fingerprint = 0;
    /** The sweep-relevant key=value pairs (sweepPointParams()). */
    std::vector<std::pair<std::string, std::string>> params;
};

/** Destination for one run's results. */
class StatsSink
{
  public:
    virtual ~StatsSink() = default;

    /** Declare the run; must precede any record call. */
    virtual void beginRun(const RunInfo &info) = 0;

    /** Record one named scalar result. */
    virtual void recordScalar(const std::string &key, double value) = 0;

    /**
     * Capture @p root's stats subtree (now — the simulation may be
     * torn down before the sink commits) under @p label.
     */
    virtual void addStatsTree(const std::string &label,
                              const StatGroup &root) = 0;

    /** Commit the run. Idempotent; also called from the destructor. */
    virtual void finishRun() = 0;

    /** False for NullSink: callers may skip expensive captures. */
    virtual bool live() const { return true; }
};

/**
 * Create the sink a --stats-out URI names, in bench-document mode:
 * "" or "null" discard, "sqlite:<path>" writes the sweep database,
 * anything else writes the legacy BenchResults JSON document to that
 * path (byte-identical to the retired --stats-json output).
 */
std::unique_ptr<StatsSink> makeStatsSink(const std::string &uri);

/**
 * Like makeStatsSink() but plain paths write one raw stats tree
 * (byte-identical to Simulation::dumpStatsJson) instead of the bench
 * document — the --sim-stats-out exit dump.
 */
std::unique_ptr<StatsSink> makeTreeStatsSink(const std::string &uri);

/** True when @p uri names a SQLite sink ("sqlite:<path>"). */
bool isSqliteUri(const std::string &uri);

/** The path inside a "sqlite:<path>" URI (fatal on other URIs). */
std::string sqliteUriPath(const std::string &uri);

/** True when SqliteSink support was compiled in. */
bool sqliteSinkAvailable();

/** Current wall-clock time as "YYYY-MM-DDTHH:MM:SSZ" (UTC), the
 *  timestamp format of every results-store row. */
std::string isoNow();

/**
 * Open (creating if absent) the sweep results store at @p path: busy
 * timeout, WAL and synchronous=NORMAL pragmas (best effort), and the
 * schema created in one transaction. The one opener behind SqliteSink
 * and sweep::SweepDb; fatal on failure. The busy timeout is the
 * EMERALD_SQLITE_BUSY_MS environment variable when set (stress tests
 * shrink it to force the retry path below), else 120 s. This and the
 * two retry helpers exist in SQLite-enabled builds only.
 */
sqlite3 *openResultsDb(const std::string &path);

/**
 * sqlite3_exec hardened against writer contention: SQLITE_BUSY /
 * SQLITE_LOCKED results are retried with jittered exponential
 * backoff (supervise::retryBackoffMs, 2 ms doubling to 250 ms; the
 * jitter is derived from the connection pointer, not rand(), so
 * simulation determinism is untouched). Returns the final sqlite
 * result code; on error *errOut (when non-null) receives the message.
 */
int sqliteExecRetry(sqlite3 *db, const char *sql,
                    std::string *errOut);

/** sqlite3_step through the same busy retry as sqliteExecRetry()
 *  (the statement is reset before each retry). */
int sqliteStepRetry(sqlite3_stmt *stmt);

} // namespace emerald

#endif // EMERALD_SIM_STATS_SINK_HH
