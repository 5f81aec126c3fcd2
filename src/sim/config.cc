#include "sim/config.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "sim/logging.hh"
#include "sim/nearest.hh"

namespace emerald
{

namespace
{

/**
 * Every --key some bench, example or the simulation kernel reads.
 * parseArgs rejects anything else (with a near-miss suggestion)
 * unless --allow-unknown-args is given; keeping the table here, next
 * to the parser, makes "add a flag" a one-line change.
 */
const char *const knownKeys[] = {
    // Simulation kernel (SimulationBuilder::observability).
    "capture-trace", "check-determinism", "checkpoint-at",
    "checkpoint-dir", "checkpoint-every", "checkpoint-keep",
    "fault-plan", "fault-seed", "hang-report-path", "mem-sched",
    "profile", "replay-trace", "restore", "restore-force",
    "sim-stats-out", "trace-file", "warp-sched", "watchdog-mode",
    "watchdog-ticks",
    // Run supervisor (bench_main --supervise).
    "supervise", "supervise-backoff-ms", "supervise-dir",
    "supervise-kill-after-ms", "supervise-retries",
    // Parser control.
    "allow-unknown-args",
    // Benches and examples.
    "alpha", "beta", "channels", "config", "fps", "frames", "gamma",
    "height", "highload", "maxwt", "model", "n", "name", "npu",
    "npu-dma-outstanding", "npu-fps", "npu-frames", "npu-model",
    "npu-queue-depth", "npu-scratch-kb", "npu-tile", "out", "outdir",
    "prep", "quick", "run_frames", "stats", "stats-out", "width",
    "workload", "wt",
    // Bench registry front end (bench_main) and sweep driver.
    "bench-bin", "ckpt-share-keys", "db", "dry-run", "git-sha",
    "jobs", "list", "retries", "retry-backoff-ms", "run", "spec",
};

/**
 * Keys that never contribute to a sweep point's fingerprint: they
 * steer where results/logs go or how the host-side tooling behaves,
 * not what machine or workload is simulated. Two runs differing only
 * in these keys are the same design point.
 */
const char *const fingerprintExcludedKeys[] = {
    "allow-unknown-args", "bench-bin", "capture-trace",
    "check-determinism", "checkpoint-at", "checkpoint-dir",
    "checkpoint-every", "checkpoint-keep", "ckpt-share-keys", "db",
    "dry-run", "git-sha", "hang-report-path", "jobs", "list", "name",
    "out", "outdir", "profile", "replay-trace", "restore",
    "restore-force", "retries", "retry-backoff-ms", "run",
    "sim-stats-out", "spec", "stats", "stats-out", "supervise",
    "supervise-backoff-ms", "supervise-dir", "supervise-kill-after-ms",
    "supervise-retries", "trace-file", "watchdog-mode",
    "watchdog-ticks",
};

bool
isKnownKey(const std::string &key)
{
    for (const char *known : knownKeys)
        if (key == known)
            return true;
    return false;
}

void
rejectUnknownKey(const std::string &key)
{
    std::vector<std::string> known(std::begin(knownKeys),
                                   std::end(knownKeys));
    std::string suggestion = nearestMatch(key, known);
    if (!suggestion.empty()) {
        fatal("unknown option '--%s' — did you mean '--%s'? (pass "
              "--allow-unknown-args to skip this check)",
              key.c_str(), suggestion.c_str());
    }
    fatal("unknown option '--%s' (pass --allow-unknown-args to skip "
          "this check)", key.c_str());
}

} // namespace

void
Config::parseArgs(int argc, char **argv)
{
    // First pass: the opt-out may appear anywhere on the line.
    bool allow_unknown = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--allow-unknown-args" ||
            arg.rfind("--allow-unknown-args=", 0) == 0)
            allow_unknown = true;
    }

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            fatal("bad argument '%s': expected --key=value", arg.c_str());
        auto eq = arg.find('=');
        std::string key = eq != std::string::npos
                              ? arg.substr(2, eq - 2)
                              : arg.substr(2);
        if (!allow_unknown && !isKnownKey(key))
            rejectUnknownKey(key);
        if (eq != std::string::npos) {
            set(key, arg.substr(eq + 1));
        } else if (i + 1 < argc && argv[i + 1][0] != '-') {
            // "--key value" form, e.g. "--stats-out out.json".
            set(key, argv[++i]);
        } else {
            // Bare "--flag" is a boolean switch.
            set(key, "1");
        }
    }
}

void
Config::set(const std::string &key, const std::string &value)
{
    _values[key] = value;
}

bool
Config::has(const std::string &key) const
{
    return _values.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &dflt) const
{
    auto it = _values.find(key);
    return it == _values.end() ? dflt : it->second;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t dflt) const
{
    auto it = _values.find(key);
    if (it == _values.end())
        return dflt;
    const char *text = it->second.c_str();
    char *end = nullptr;
    errno = 0;
    std::int64_t value = std::strtoll(text, &end, 0);
    fatal_if(it->second.empty() || end == text || *end != '\0',
             "config key '%s': '%s' is not an integer",
             key.c_str(), text);
    fatal_if(errno == ERANGE,
             "config key '%s': '%s' overflows a 64-bit integer",
             key.c_str(), text);
    return value;
}

std::uint64_t
Config::getU64(const std::string &key, std::uint64_t dflt) const
{
    auto it = _values.find(key);
    if (it == _values.end())
        return dflt;
    const char *text = it->second.c_str();
    char *end = nullptr;
    fatal_if(it->second.empty() || text[0] == '-',
             "config key '%s': '%s' is not a non-negative integer",
             key.c_str(), text);
    errno = 0;
    std::uint64_t value = std::strtoull(text, &end, 0);
    fatal_if(end == text || *end != '\0',
             "config key '%s': '%s' is not a non-negative integer",
             key.c_str(), text);
    fatal_if(errno == ERANGE,
             "config key '%s': '%s' overflows a 64-bit integer",
             key.c_str(), text);
    return value;
}

double
Config::getDouble(const std::string &key, double dflt) const
{
    auto it = _values.find(key);
    if (it == _values.end())
        return dflt;
    const char *text = it->second.c_str();
    char *end = nullptr;
    errno = 0;
    double value = std::strtod(text, &end);
    fatal_if(it->second.empty() || end == text || *end != '\0',
             "config key '%s': '%s' is not a number",
             key.c_str(), text);
    // Overflow to +/-HUGE_VAL is a malformed input; denormal
    // underflow (errno set, tiny value returned) is accepted.
    fatal_if(errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL),
             "config key '%s': '%s' overflows a double",
             key.c_str(), text);
    return value;
}

bool
Config::getBool(const std::string &key, bool dflt) const
{
    auto it = _values.find(key);
    if (it == _values.end())
        return dflt;
    const std::string &v = it->second;
    return v == "1" || v == "true" || v == "yes" || v == "on";
}

namespace
{

bool
fingerprintExcluded(const std::string &key,
                    const std::vector<std::string> &shared)
{
    for (const char *excluded : fingerprintExcludedKeys)
        if (key == excluded)
            return true;
    for (const std::string &s : shared)
        if (key == s)
            return true;
    return false;
}

/** Split a comma-separated list, dropping empty fields. */
std::vector<std::string>
splitCommaList(const std::string &text)
{
    std::vector<std::string> out;
    std::string::size_type start = 0;
    while (start <= text.size()) {
        auto comma = text.find(',', start);
        if (comma == std::string::npos)
            comma = text.size();
        if (comma > start)
            out.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

} // namespace

namespace
{

std::vector<std::pair<std::string, std::string>>
paramsExcluding(const Config &cfg, const std::vector<std::string> &shared)
{
    std::vector<std::pair<std::string, std::string>> params;
    for (const auto &[key, value] : cfg.items()) {
        if (!fingerprintExcluded(key, shared))
            params.emplace_back(key, value);
    }
    return params;
}

std::uint64_t
fingerprintParams(
    const std::vector<std::pair<std::string, std::string>> &params)
{
    if (params.empty())
        return 0;
    // FNV-1a over "key=value\n" in sorted-key order.
    std::uint64_t hash = 1469598103934665603ull;
    auto mix = [&hash](const std::string &text) {
        for (unsigned char c : text) {
            hash ^= c;
            hash *= 1099511628211ull;
        }
    };
    for (const auto &[key, value] : params) {
        mix(key);
        mix("=");
        mix(value);
        mix("\n");
    }
    // Reserve 0 for "no sweep-relevant keys".
    return hash ? hash : 1;
}

std::string
fingerprintHex(std::uint64_t fp)
{
    if (!fp)
        return "";
    return strprintf("%016llx", (unsigned long long)fp);
}

} // namespace

std::vector<std::pair<std::string, std::string>>
sweepPointParams(const Config &cfg)
{
    return paramsExcluding(cfg, {});
}

std::uint64_t
sweepPointFingerprint(const Config &cfg)
{
    return fingerprintParams(sweepPointParams(cfg));
}

std::string
sweepPointFingerprintHex(const Config &cfg)
{
    return fingerprintHex(sweepPointFingerprint(cfg));
}

std::string
ckptScopeFingerprintHex(const Config &cfg)
{
    std::vector<std::string> shared =
        splitCommaList(cfg.getString("ckpt-share-keys", ""));
    return fingerprintHex(
        fingerprintParams(paramsExcluding(cfg, shared)));
}

} // namespace emerald
