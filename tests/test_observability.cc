/**
 * @file
 * Tests for the machine-readable observability layer (JSON stat
 * dumps, the Chrome-trace EventTracer, the sim.profile.* profiler)
 * and regression tests for the kernel bugfixes that shipped with it
 * (Random modulo bias, TimeSeries hazards, EventQueue stale-entry
 * compaction, Config space-form parsing).
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/event_tracer.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

using namespace emerald;

namespace
{

// ------------------------------------------------------------------
// A deliberately small JSON parser: just enough to validate that the
// dumps are well-formed and round-trip the stat values. Throws
// std::runtime_error on malformed input so tests fail loudly.
// ------------------------------------------------------------------

struct JsonValue
{
    enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    const JsonValue &
    at(const std::string &key) const
    {
        auto it = object.find(key);
        if (it == object.end())
            throw std::runtime_error("missing key: " + key);
        return it->second;
    }

    bool has(const std::string &key) const
    {
        return object.count(key) != 0;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : _s(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipWs();
        if (_pos != _s.size())
            throw std::runtime_error("trailing garbage");
        return v;
    }

  private:
    void
    skipWs()
    {
        while (_pos < _s.size() &&
               (_s[_pos] == ' ' || _s[_pos] == '\t' ||
                _s[_pos] == '\n' || _s[_pos] == '\r'))
            ++_pos;
    }

    char
    peek()
    {
        skipWs();
        if (_pos >= _s.size())
            throw std::runtime_error("unexpected end");
        return _s[_pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            throw std::runtime_error(std::string("expected ") + c);
        ++_pos;
    }

    JsonValue
    parseValue()
    {
        char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"') {
            JsonValue v;
            v.kind = JsonValue::String;
            v.str = parseString();
            return v;
        }
        if (c == 't' || c == 'f')
            return parseBool();
        if (c == 'n') {
            literal("null");
            return JsonValue{};
        }
        return parseNumber();
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (_pos >= _s.size() || _s[_pos] != *p)
                throw std::runtime_error("bad literal");
            ++_pos;
        }
    }

    JsonValue
    parseBool()
    {
        JsonValue v;
        v.kind = JsonValue::Bool;
        if (_s[_pos] == 't') {
            literal("true");
            v.boolean = true;
        } else {
            literal("false");
        }
        return v;
    }

    JsonValue
    parseNumber()
    {
        std::size_t start = _pos;
        while (_pos < _s.size() &&
               (std::isdigit(static_cast<unsigned char>(_s[_pos])) ||
                _s[_pos] == '-' || _s[_pos] == '+' ||
                _s[_pos] == '.' || _s[_pos] == 'e' ||
                _s[_pos] == 'E'))
            ++_pos;
        if (start == _pos)
            throw std::runtime_error("bad number");
        JsonValue v;
        v.kind = JsonValue::Number;
        v.number = std::stod(_s.substr(start, _pos - start));
        return v;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (_pos >= _s.size())
                throw std::runtime_error("unterminated string");
            char c = _s[_pos++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (_pos >= _s.size())
                    throw std::runtime_error("bad escape");
                char e = _s[_pos++];
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (_pos + 4 > _s.size())
                        throw std::runtime_error("bad \\u");
                    unsigned code = static_cast<unsigned>(std::stoul(
                        _s.substr(_pos, 4), nullptr, 16));
                    _pos += 4;
                    // Tests only emit ASCII control codes.
                    out += static_cast<char>(code);
                    break;
                }
                default:
                    throw std::runtime_error("bad escape char");
                }
            } else {
                out += c;
            }
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Array;
        if (peek() == ']') {
            ++_pos;
            return v;
        }
        while (true) {
            v.array.push_back(parseValue());
            char c = peek();
            if (c == ']') {
                ++_pos;
                return v;
            }
            expect(',');
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Object;
        if (peek() == '}') {
            ++_pos;
            return v;
        }
        while (true) {
            std::string key = parseString();
            expect(':');
            v.object[key] = parseValue();
            char c = peek();
            if (c == '}') {
                ++_pos;
                return v;
            }
            expect(',');
        }
    }

    const std::string &_s;
    std::size_t _pos = 0;
};

JsonValue
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/** A named event counting its own firings. */
class NamedEvent : public Event
{
  public:
    explicit NamedEvent(std::string name) : _name(std::move(name)) {}

    void process() override { ++fired; }
    std::string name() const override { return _name; }

    int fired = 0;

  private:
    std::string _name;
};

} // namespace

// ------------------------------------------------------------------
// JSON stat dumps
// ------------------------------------------------------------------

TEST(JsonStats, RoundTripsScalarDistributionAndTimeSeries)
{
    StatGroup root("");
    StatGroup mem(root, "mem");
    Scalar reads(mem, "reads", "read requests");
    Distribution lat(mem, "latency", "request latency");
    TimeSeries bw(mem, "bw", "bytes per bucket", 100);

    reads += 41;
    ++reads;
    lat.sample(10.0);
    lat.sample(30.0, 2);
    bw.add(0, 64.0);
    bw.add(250, 128.0);

    std::ostringstream os;
    root.dumpJson(os);
    JsonValue doc = parseJson(os.str());

    const JsonValue &memNode = doc.at("groups").at("mem");
    const JsonValue &stats = memNode.at("stats");

    const JsonValue &r = stats.at("reads");
    EXPECT_EQ(r.at("type").str, "scalar");
    EXPECT_DOUBLE_EQ(r.at("value").number, reads.value());
    EXPECT_EQ(r.at("desc").str, "read requests");

    const JsonValue &l = stats.at("latency");
    EXPECT_EQ(l.at("type").str, "distribution");
    EXPECT_DOUBLE_EQ(l.at("count").number, 3.0);
    EXPECT_DOUBLE_EQ(l.at("total").number, lat.total());
    EXPECT_DOUBLE_EQ(l.at("mean").number, lat.mean());
    EXPECT_DOUBLE_EQ(l.at("min").number, 10.0);
    EXPECT_DOUBLE_EQ(l.at("max").number, 30.0);

    const JsonValue &b = stats.at("bw");
    EXPECT_EQ(b.at("type").str, "timeseries");
    EXPECT_DOUBLE_EQ(b.at("bucket_width").number, 100.0);
    ASSERT_EQ(b.at("buckets").array.size(), 3u);
    EXPECT_DOUBLE_EQ(b.at("buckets").array[0].number, 64.0);
    EXPECT_DOUBLE_EQ(b.at("buckets").array[1].number, 0.0);
    EXPECT_DOUBLE_EQ(b.at("buckets").array[2].number, 128.0);
}

TEST(JsonStats, EscapesSpecialCharactersInDescriptions)
{
    StatGroup root("");
    Scalar s(root, "odd",
             "a \"quoted\" desc with \\ backslash and \n newline");
    s = 7;

    std::ostringstream os;
    root.dumpJson(os);
    JsonValue doc = parseJson(os.str());
    EXPECT_EQ(doc.at("stats").at("odd").at("desc").str,
              "a \"quoted\" desc with \\ backslash and \n newline");
}

TEST(JsonStats, SimulationDumpIncludesProfileGroup)
{
    Simulation sim;
    sim.profiler().registerComponent("gpu");

    std::ostringstream os;
    sim.dumpStatsJson(os);
    JsonValue doc = parseJson(os.str());
    const JsonValue &profile =
        doc.at("groups").at("sim").at("groups").at("profile");
    EXPECT_TRUE(profile.at("groups").object.count("gpu"));
    EXPECT_TRUE(profile.at("groups").object.count("other"));
}

// ------------------------------------------------------------------
// Event tracing
// ------------------------------------------------------------------

TEST(EventTracer, WritesWellFormedChromeTrace)
{
    std::string path = ::testing::TempDir() + "emerald_trace.json";

    Simulation sim;
    sim.enableTracing(path);

    NamedEvent a("gpu.sc0.fetch");
    NamedEvent b("display.vsync");
    NamedEvent c("gpu.sc0.fetch2");
    sim.eventQueue().schedule(a, 1000);
    sim.eventQueue().schedule(b, 2000);
    sim.eventQueue().schedule(c, 2000);
    sim.run();
    sim.tracer()->close();

    JsonValue doc = parseJson(readFile(path));
    ASSERT_EQ(doc.kind, JsonValue::Array);

    unsigned complete = 0, metadata = 0;
    std::map<std::string, double> tidByName;
    for (const JsonValue &rec : doc.array) {
        const std::string &ph = rec.at("ph").str;
        if (ph == "X") {
            ++complete;
            EXPECT_TRUE(rec.has("name"));
            EXPECT_TRUE(rec.has("cat"));
            EXPECT_TRUE(rec.has("ts"));
            EXPECT_TRUE(rec.has("dur"));
            EXPECT_TRUE(rec.has("pid"));
            EXPECT_TRUE(rec.has("tid"));
            tidByName[rec.at("name").str] = rec.at("tid").number;
            if (rec.at("name").str == "display.vsync") {
                // ts is simulated microseconds: 2000 ticks = 2e-3 us.
                EXPECT_DOUBLE_EQ(rec.at("ts").number, 2000.0 / 1e6);
                EXPECT_EQ(rec.at("cat").str, "display");
            }
        } else if (ph == "M") {
            ++metadata;
            EXPECT_EQ(rec.at("name").str, "thread_name");
        }
    }
    EXPECT_EQ(complete, 3u);
    // Two categories: "gpu.sc0" and "display".
    EXPECT_EQ(metadata, 2u);
    // Same category -> same timeline row; different -> different.
    EXPECT_EQ(tidByName["gpu.sc0.fetch"], tidByName["gpu.sc0.fetch2"]);
    EXPECT_NE(tidByName["gpu.sc0.fetch"], tidByName["display.vsync"]);

    std::remove(path.c_str());
}

TEST(EventTracer, CloseIsIdempotentAndCountsRecords)
{
    std::string path = ::testing::TempDir() + "emerald_trace2.json";
    {
        EventTracer tracer(path);
        tracer.onEvent("a.b", 10, 0, 100);
        tracer.onEvent("a.c", 20, 0, 100);
        tracer.close();
        tracer.close();
        EXPECT_EQ(tracer.numRecords(), 2u);
    }
    JsonValue doc = parseJson(readFile(path));
    EXPECT_EQ(doc.kind, JsonValue::Array);
    std::remove(path.c_str());
}

// ------------------------------------------------------------------
// Event profiling
// ------------------------------------------------------------------

TEST(EventProfiler, AttributesEventsByLongestRegisteredPrefix)
{
    Simulation sim;
    sim.enableProfiling();
    EventProfiler &prof = sim.profiler();
    prof.registerComponent("gpu");
    prof.registerComponent("gpu.sc0");
    prof.registerComponent("display");

    NamedEvent deep("gpu.sc0.l1d.send");
    NamedEvent shallow("gpu.l2.recv");
    NamedEvent disp("display.vsync");
    NamedEvent stray("dma.copy");
    sim.eventQueue().schedule(deep, 10);
    sim.eventQueue().schedule(shallow, 20);
    sim.eventQueue().schedule(disp, 30);
    sim.eventQueue().schedule(stray, 40);
    sim.run();

    EXPECT_EQ(prof.eventsFor("gpu.sc0"), 1u);
    EXPECT_EQ(prof.eventsFor("gpu"), 1u);
    EXPECT_EQ(prof.eventsFor("display"), 1u);
    EXPECT_EQ(prof.eventsFor("other"), 1u);
}

TEST(EventProfiler, LateRegistrationReroutesFutureEvents)
{
    Simulation sim;
    sim.enableProfiling();
    EventProfiler &prof = sim.profiler();

    NamedEvent first("dma.copy");
    sim.eventQueue().schedule(first, 10);
    sim.run();
    EXPECT_EQ(prof.eventsFor("other"), 1u);

    prof.registerComponent("dma");
    NamedEvent second("dma.copy");
    sim.eventQueue().schedule(second, 20);
    sim.run();
    EXPECT_EQ(prof.eventsFor("dma"), 1u);
    EXPECT_EQ(prof.eventsFor("other"), 1u);
}

// ------------------------------------------------------------------
// Random::below() rejection sampling
// ------------------------------------------------------------------

TEST(RandomBelow, StaysInBoundsAndIsDeterministic)
{
    Random a(1234), b(1234);
    for (int i = 0; i < 10000; ++i) {
        std::uint64_t v = a.below(77);
        EXPECT_LT(v, 77u);
        EXPECT_EQ(v, b.below(77));
    }
    EXPECT_EQ(a.below(1), 0u);
}

TEST(RandomBelow, HugeBoundsAreNotSystematicallySmall)
{
    // With the old (next() % bound) implementation a bound just above
    // 2^63 maps the top half of the 64-bit range onto [0, 2^63), so
    // ~2/3 of draws land in the lower half. Rejection sampling keeps
    // the halves balanced.
    const std::uint64_t bound = (1ULL << 63) + 3;
    Random r(99);
    int low = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        if (r.below(bound) < bound / 2)
            ++low;
    EXPECT_GT(low, n * 2 / 5);
    EXPECT_LT(low, n * 3 / 5);
}

TEST(RandomBelow, SmallBoundIsRoughlyUniform)
{
    Random r(7);
    int counts[5] = {0, 0, 0, 0, 0};
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        ++counts[r.below(5)];
    for (int c : counts) {
        EXPECT_GT(c, n / 5 * 0.9);
        EXPECT_LT(c, n / 5 * 1.1);
    }
}

// ------------------------------------------------------------------
// TimeSeries hazards
// ------------------------------------------------------------------

TEST(TimeSeriesHazards, ZeroBucketWidthPanics)
{
    StatGroup root("");
    EXPECT_DEATH(
        { TimeSeries ts(root, "bad", "zero width", 0); },
        "zero bucket width");
}

TEST(TimeSeriesHazards, FarFutureSampleIsClampedNotAllocated)
{
    StatGroup root("");
    TimeSeries ts(root, "bw", "clamped", 1);
    // One sample ~2^40 buckets out would previously try to allocate
    // terabytes; it now lands in the last allowed bucket.
    ts.add(Tick(1) << 40, 5.0);
    EXPECT_EQ(ts.buckets().size(), TimeSeries::maxBuckets);
    EXPECT_DOUBLE_EQ(ts.buckets().back(), 5.0);
    EXPECT_EQ(ts.clampedSamples(), 1u);

    ts.reset();
    EXPECT_TRUE(ts.buckets().empty());
    EXPECT_EQ(ts.clampedSamples(), 0u);
}

// ------------------------------------------------------------------
// EventQueue stale-entry compaction
// ------------------------------------------------------------------

TEST(EventQueueCompaction, HeapStaysBoundedUnderRescheduleChurn)
{
    EventQueue eq;
    NamedEvent anchor("anchor");
    eq.schedule(anchor, 1000000);

    NamedEvent churn("churn");
    for (int i = 0; i < 100000; ++i) {
        eq.schedule(churn, 500 + i);
        eq.deschedule(churn);
    }
    // Lazy descheduling leaves stale entries, but compaction keeps
    // the heap O(live): two live-ish events must not hold 100k slots.
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_LT(eq.heapSize(), 1000u);
    EXPECT_EQ(eq.nextTick(), 1000000u);

    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(anchor.fired, 1);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueCompaction, RunUntilSurvivesCompactionMidRun)
{
    EventQueue eq;
    std::vector<std::unique_ptr<NamedEvent>> events;
    for (int i = 0; i < 200; ++i) {
        // Built with += rather than operator+ to dodge a GCC 12
        // -Wrestrict false positive (PR105651) under -Werror.
        std::string name = "e";
        name += std::to_string(i);
        events.push_back(std::make_unique<NamedEvent>(name));
        eq.schedule(*events.back(), 10 + i);
    }
    // Deschedule every other event to force staleness, then run.
    for (int i = 0; i < 200; i += 2)
        eq.deschedule(*events[i]);
    std::uint64_t processed = eq.runUntil();
    EXPECT_EQ(processed, 100u);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(events[i]->fired, i % 2 == 1 ? 1 : 0);
}

// ------------------------------------------------------------------
// Config argument forms
// ------------------------------------------------------------------

TEST(ConfigParse, SupportsEqualsSpaceAndBareFlagForms)
{
    const char *argv[] = {"prog",       "--width=640", "--stats-out",
                          "out.json",   "--profile",   "--frames",
                          "3"};
    Config cfg;
    cfg.parseArgs(7, const_cast<char **>(argv));
    EXPECT_EQ(cfg.getInt("width", 0), 640);
    EXPECT_EQ(cfg.getString("stats-out", ""), "out.json");
    EXPECT_TRUE(cfg.getBool("profile", false));
    EXPECT_EQ(cfg.getInt("frames", 0), 3);
}

TEST(ConfigParse, AcceptsFullNumericRange)
{
    Config cfg;
    cfg.set("n", "-42");
    EXPECT_EQ(cfg.getInt("n", 0), -42);
    cfg.set("n", "0x20");
    EXPECT_EQ(cfg.getInt("n", 0), 0x20);
    cfg.set("n", "9223372036854775807");
    EXPECT_EQ(cfg.getInt("n", 0), INT64_MAX);
    cfg.set("n", "18446744073709551615");
    EXPECT_EQ(cfg.getU64("n", 0), UINT64_MAX);
    cfg.set("alpha", "2.5e-3");
    EXPECT_DOUBLE_EQ(cfg.getDouble("alpha", 0.0), 2.5e-3);
    // Denormal underflow is tiny-but-valid, not an error.
    cfg.set("alpha", "1e-320");
    EXPECT_GT(cfg.getDouble("alpha", 0.0), 0.0);
}

TEST(ConfigParse, TrailingGarbageOnIntIsFatal)
{
    Config cfg;
    cfg.set("n", "12x");
    EXPECT_DEATH(cfg.getInt("n", 0), "is not an integer");
    cfg.set("n", "3 4");
    EXPECT_DEATH(cfg.getInt("n", 0), "is not an integer");
    cfg.set("n", "");
    EXPECT_DEATH(cfg.getInt("n", 0), "is not an integer");
}

TEST(ConfigParse, IntOverflowIsFatal)
{
    Config cfg;
    cfg.set("n", "9223372036854775808"); // INT64_MAX + 1.
    EXPECT_DEATH(cfg.getInt("n", 0), "overflows a 64-bit integer");
    cfg.set("n", "18446744073709551616"); // UINT64_MAX + 1.
    EXPECT_DEATH(cfg.getU64("n", 0), "overflows a 64-bit integer");
}

TEST(ConfigParse, NegativeOrMalformedU64IsFatal)
{
    Config cfg;
    cfg.set("n", "-3");
    EXPECT_DEATH(cfg.getU64("n", 0), "not a non-negative integer");
    cfg.set("n", "7q");
    EXPECT_DEATH(cfg.getU64("n", 0), "not a non-negative integer");
}

TEST(ConfigParse, MalformedOrOverflowingDoubleIsFatal)
{
    Config cfg;
    cfg.set("alpha", "1.5pt");
    EXPECT_DEATH(cfg.getDouble("alpha", 0.0), "is not a number");
    cfg.set("alpha", "");
    EXPECT_DEATH(cfg.getDouble("alpha", 0.0), "is not a number");
    cfg.set("alpha", "1e999");
    EXPECT_DEATH(cfg.getDouble("alpha", 0.0), "overflows a double");
}
