/**
 * @file
 * Orchestrator-side view of the sweep results store. The children
 * (emerald_bench --stats-out=sqlite:...) write runs; the orchestrator
 * only reads completion state and records sweep-level metadata. Both
 * sides open the store through openResultsDb() (sim/stats_sink.hh),
 * so whichever process touches the DB first creates the schema and
 * the other finds the tables already in place.
 */

#ifndef EMERALD_SWEEP_DB_HH
#define EMERALD_SWEEP_DB_HH

#include <string>
#include <vector>

#include "sim/supervise/supervisor.hh"

struct sqlite3;

namespace emerald
{
namespace sweep
{

/** True when SQLite support was compiled in. */
bool sweepDbAvailable();

class SweepDb
{
  public:
    /** Open (creating if absent) @p path; fatal without SQLite. */
    explicit SweepDb(const std::string &path);
    ~SweepDb();

    SweepDb(const SweepDb &) = delete;
    SweepDb &operator=(const SweepDb &) = delete;

    /**
     * Fingerprints of runs already committed for @p bench at
     * @p gitSha — the resume journal: points whose fingerprint is
     * listed here are skipped on relaunch.
     */
    std::vector<std::string> doneFingerprints(
        const std::string &bench, const std::string &gitSha) const;

    /** Read a sweep_meta value ("" when unset). */
    std::string getMeta(const std::string &key) const;

    /** Insert or overwrite a sweep_meta value. */
    void setMeta(const std::string &key, const std::string &value);

    /** Record one classified point failure (docs/resilience.md) in
     *  run_failures. */
    void recordFailure(const std::string &bench,
                       const std::string &fingerprint,
                       const std::string &gitSha,
                       const supervise::FailureRecord &failure);

    /**
     * Failures already recorded for one point — a relaunched
     * orchestrator resumes a half-retried point with its attempt
     * budget partially spent instead of reset.
     */
    unsigned failureCount(const std::string &bench,
                          const std::string &fingerprint,
                          const std::string &gitSha) const;

    /**
     * Set a point's runs.status without touching its stats (creates
     * the row if the point never committed — how 'quarantined' rows
     * for never-successful points come to exist).
     */
    void setRunStatus(const std::string &bench,
                      const std::string &fingerprint,
                      const std::string &gitSha,
                      const std::string &status);

    /** A point's runs.status ("" when no row exists). */
    std::string runStatus(const std::string &bench,
                          const std::string &fingerprint,
                          const std::string &gitSha) const;

  private:
    sqlite3 *_db = nullptr;
};

} // namespace sweep
} // namespace emerald

#endif // EMERALD_SWEEP_DB_HH
