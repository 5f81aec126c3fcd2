#include "sweep/db.hh"

#include "sim/logging.hh"
#include "sim/stats_sink.hh"

#ifdef EMERALD_HAS_SQLITE
#include <sqlite3.h>
#endif

namespace emerald
{
namespace sweep
{

bool
sweepDbAvailable()
{
#ifdef EMERALD_HAS_SQLITE
    return true;
#else
    return false;
#endif
}

#ifdef EMERALD_HAS_SQLITE

SweepDb::SweepDb(const std::string &path) : _db(openResultsDb(path)) {}

SweepDb::~SweepDb()
{
    if (_db)
        sqlite3_close(_db);
}

std::vector<std::string>
SweepDb::doneFingerprints(const std::string &bench,
                          const std::string &gitSha) const
{
    sqlite3_stmt *stmt = nullptr;
    int rc = sqlite3_prepare_v2(
        _db,
        "SELECT fingerprint FROM runs "
        "WHERE bench = ? AND git_sha = ? AND status = 'done'",
        -1, &stmt, nullptr);
    fatal_if(rc != SQLITE_OK, "sweep db query failed: %s",
             sqlite3_errmsg(_db));
    sqlite3_bind_text(stmt, 1, bench.c_str(), -1, SQLITE_TRANSIENT);
    sqlite3_bind_text(stmt, 2, gitSha.c_str(), -1, SQLITE_TRANSIENT);
    std::vector<std::string> done;
    while (sqlite3_step(stmt) == SQLITE_ROW) {
        const unsigned char *text = sqlite3_column_text(stmt, 0);
        if (text)
            done.emplace_back(reinterpret_cast<const char *>(text));
    }
    sqlite3_finalize(stmt);
    return done;
}

std::string
SweepDb::getMeta(const std::string &key) const
{
    sqlite3_stmt *stmt = nullptr;
    int rc = sqlite3_prepare_v2(
        _db, "SELECT value FROM sweep_meta WHERE key = ?", -1, &stmt,
        nullptr);
    fatal_if(rc != SQLITE_OK, "sweep db query failed: %s",
             sqlite3_errmsg(_db));
    sqlite3_bind_text(stmt, 1, key.c_str(), -1, SQLITE_TRANSIENT);
    std::string value;
    if (sqlite3_step(stmt) == SQLITE_ROW) {
        const unsigned char *text = sqlite3_column_text(stmt, 0);
        if (text)
            value = reinterpret_cast<const char *>(text);
    }
    sqlite3_finalize(stmt);
    return value;
}

void
SweepDb::setMeta(const std::string &key, const std::string &value)
{
    sqlite3_stmt *stmt = nullptr;
    int rc = sqlite3_prepare_v2(
        _db,
        "INSERT INTO sweep_meta(key, value) VALUES(?, ?) "
        "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
        -1, &stmt, nullptr);
    fatal_if(rc != SQLITE_OK, "sweep db write failed: %s",
             sqlite3_errmsg(_db));
    sqlite3_bind_text(stmt, 1, key.c_str(), -1, SQLITE_TRANSIENT);
    sqlite3_bind_text(stmt, 2, value.c_str(), -1, SQLITE_TRANSIENT);
    rc = sqliteStepRetry(stmt);
    sqlite3_finalize(stmt);
    fatal_if(rc != SQLITE_DONE, "sweep db write failed: %s",
             sqlite3_errmsg(_db));
}

void
SweepDb::recordFailure(const std::string &bench,
                       const std::string &fingerprint,
                       const std::string &gitSha,
                       const supervise::FailureRecord &failure)
{
    sqlite3_stmt *stmt = nullptr;
    int rc = sqlite3_prepare_v2(
        _db,
        "INSERT INTO run_failures(bench, fingerprint, git_sha, "
        "attempt, class, signal, exit_code, recovered_tick, detail, "
        "occurred_at) VALUES(?1, ?2, ?3, ?4, ?5, ?6, ?7, ?8, ?9, ?10)",
        -1, &stmt, nullptr);
    fatal_if(rc != SQLITE_OK, "sweep db write failed: %s",
             sqlite3_errmsg(_db));
    std::string now = isoNow();
    sqlite3_bind_text(stmt, 1, bench.c_str(), -1, SQLITE_TRANSIENT);
    sqlite3_bind_text(stmt, 2, fingerprint.c_str(), -1,
                      SQLITE_TRANSIENT);
    sqlite3_bind_text(stmt, 3, gitSha.c_str(), -1, SQLITE_TRANSIENT);
    sqlite3_bind_int64(stmt, 4, failure.attempt);
    sqlite3_bind_text(stmt, 5, supervise::failureClassName(failure.cls),
                      -1, SQLITE_STATIC);
    sqlite3_bind_int(stmt, 6, failure.signal);
    sqlite3_bind_int(stmt, 7, failure.exitCode);
    sqlite3_bind_int64(
        stmt, 8, static_cast<sqlite3_int64>(failure.recoveredFromTick));
    sqlite3_bind_text(stmt, 9, failure.detail.c_str(), -1,
                      SQLITE_TRANSIENT);
    sqlite3_bind_text(stmt, 10, now.c_str(), -1, SQLITE_TRANSIENT);
    rc = sqliteStepRetry(stmt);
    sqlite3_finalize(stmt);
    fatal_if(rc != SQLITE_DONE, "sweep db write failed: %s",
             sqlite3_errmsg(_db));
}

unsigned
SweepDb::failureCount(const std::string &bench,
                      const std::string &fingerprint,
                      const std::string &gitSha) const
{
    sqlite3_stmt *stmt = nullptr;
    int rc = sqlite3_prepare_v2(
        _db,
        "SELECT COUNT(*) FROM run_failures WHERE bench=?1 AND "
        "fingerprint=?2 AND git_sha=?3 AND class != 'ckpt-corrupt'",
        -1, &stmt, nullptr);
    fatal_if(rc != SQLITE_OK, "sweep db query failed: %s",
             sqlite3_errmsg(_db));
    sqlite3_bind_text(stmt, 1, bench.c_str(), -1, SQLITE_TRANSIENT);
    sqlite3_bind_text(stmt, 2, fingerprint.c_str(), -1,
                      SQLITE_TRANSIENT);
    sqlite3_bind_text(stmt, 3, gitSha.c_str(), -1, SQLITE_TRANSIENT);
    unsigned count = 0;
    if (sqlite3_step(stmt) == SQLITE_ROW)
        count = static_cast<unsigned>(sqlite3_column_int64(stmt, 0));
    sqlite3_finalize(stmt);
    return count;
}

void
SweepDb::setRunStatus(const std::string &bench,
                      const std::string &fingerprint,
                      const std::string &gitSha,
                      const std::string &status)
{
    sqlite3_stmt *stmt = nullptr;
    int rc = sqlite3_prepare_v2(
        _db,
        "INSERT INTO runs(bench, fingerprint, git_sha, status) "
        "VALUES(?1, ?2, ?3, ?4) "
        "ON CONFLICT(bench, fingerprint, git_sha) DO UPDATE SET "
        "status = excluded.status",
        -1, &stmt, nullptr);
    fatal_if(rc != SQLITE_OK, "sweep db write failed: %s",
             sqlite3_errmsg(_db));
    sqlite3_bind_text(stmt, 1, bench.c_str(), -1, SQLITE_TRANSIENT);
    sqlite3_bind_text(stmt, 2, fingerprint.c_str(), -1,
                      SQLITE_TRANSIENT);
    sqlite3_bind_text(stmt, 3, gitSha.c_str(), -1, SQLITE_TRANSIENT);
    sqlite3_bind_text(stmt, 4, status.c_str(), -1, SQLITE_TRANSIENT);
    rc = sqliteStepRetry(stmt);
    sqlite3_finalize(stmt);
    fatal_if(rc != SQLITE_DONE, "sweep db write failed: %s",
             sqlite3_errmsg(_db));
}

std::string
SweepDb::runStatus(const std::string &bench,
                   const std::string &fingerprint,
                   const std::string &gitSha) const
{
    sqlite3_stmt *stmt = nullptr;
    int rc = sqlite3_prepare_v2(
        _db,
        "SELECT status FROM runs WHERE bench=?1 AND fingerprint=?2 "
        "AND git_sha=?3",
        -1, &stmt, nullptr);
    fatal_if(rc != SQLITE_OK, "sweep db query failed: %s",
             sqlite3_errmsg(_db));
    sqlite3_bind_text(stmt, 1, bench.c_str(), -1, SQLITE_TRANSIENT);
    sqlite3_bind_text(stmt, 2, fingerprint.c_str(), -1,
                      SQLITE_TRANSIENT);
    sqlite3_bind_text(stmt, 3, gitSha.c_str(), -1, SQLITE_TRANSIENT);
    std::string status;
    if (sqlite3_step(stmt) == SQLITE_ROW) {
        const unsigned char *text = sqlite3_column_text(stmt, 0);
        if (text)
            status = reinterpret_cast<const char *>(text);
    }
    sqlite3_finalize(stmt);
    return status;
}

#else // !EMERALD_HAS_SQLITE

SweepDb::SweepDb(const std::string &path)
{
    fatal("sweep db '%s': this build has no SQLite support "
          "(install sqlite3 headers and reconfigure)", path.c_str());
}

SweepDb::~SweepDb() = default;

std::vector<std::string>
SweepDb::doneFingerprints(const std::string &, const std::string &)
    const
{
    return {};
}

std::string
SweepDb::getMeta(const std::string &) const
{
    return "";
}

void
SweepDb::setMeta(const std::string &, const std::string &)
{
}

void
SweepDb::recordFailure(const std::string &, const std::string &,
                       const std::string &,
                       const supervise::FailureRecord &)
{
}

unsigned
SweepDb::failureCount(const std::string &, const std::string &,
                      const std::string &) const
{
    return 0;
}

void
SweepDb::setRunStatus(const std::string &, const std::string &,
                      const std::string &, const std::string &)
{
}

std::string
SweepDb::runStatus(const std::string &, const std::string &,
                   const std::string &) const
{
    return "";
}

#endif // EMERALD_HAS_SQLITE

} // namespace sweep
} // namespace emerald
