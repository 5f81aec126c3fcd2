/**
 * @file
 * Tests for the checkpoint/restore subsystem (src/sim/serialize/):
 * the typed record codec and its strict schema checking, the
 * writer/reader directory format, Random state round-trips, stats
 * round-trips, in-flight packet and RetryList serialization, event
 * queue re-scheduling, the config-fingerprint refusal, and the
 * end-to-end warm-start oracle — a restored SoC run must finish with
 * exactly the cold run's event-stream hash.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/packet.hh"
#include "sim/random.hh"
#include "sim/serialize/packet_serialize.hh"
#include "sim/serialize/registry.hh"
#include "sim/serialize/serialize.hh"
#include "sim/simulation.hh"
#include "sim/simulation_builder.hh"
#include "sim/stats.hh"
#include "soc/soc_top.hh"

namespace emerald
{
namespace
{

std::string
tempDir(const std::string &leaf)
{
    return ::testing::TempDir() + "emerald_" + leaf;
}

/** Encode @p out and decode it back as a CheckpointIn. */
CheckpointIn
roundTrip(const CheckpointOut &out)
{
    const std::string &bytes = out.bytes();
    return CheckpointIn(out.sectionName(), bytes.data(), bytes.size());
}

// Record codec ---------------------------------------------------------

TEST(CheckpointCodec, RoundTripsEveryRecordType)
{
    CheckpointOut out("test");
    out.putU64("u", 0xdeadbeefcafef00dULL);
    out.putI64("i", -42);
    out.putF64("f", 3.25);
    out.putBool("b0", false);
    out.putBool("b1", true);
    out.putStr("s", "hello checkpoint");
    const char blob[] = {0x00, 0x01, 0x7f, (char)0xff};
    out.putBlob("blob", blob, sizeof(blob));
    out.putU64Vec("uv", {1, 2, 3});
    out.putF64Vec("fv", {0.5, -1.5});
    out.putTick("t", 12345);

    CheckpointIn in = roundTrip(out);
    EXPECT_EQ(in.getU64("u"), 0xdeadbeefcafef00dULL);
    EXPECT_EQ(in.getI64("i"), -42);
    EXPECT_DOUBLE_EQ(in.getF64("f"), 3.25);
    EXPECT_FALSE(in.getBool("b0"));
    EXPECT_TRUE(in.getBool("b1"));
    EXPECT_EQ(in.getStr("s"), "hello checkpoint");
    EXPECT_EQ(in.getBlob("blob"), std::string(blob, sizeof(blob)));
    EXPECT_EQ(in.getU64Vec("uv"), (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(in.getF64Vec("fv"), (std::vector<double>{0.5, -1.5}));
    EXPECT_EQ(in.getTick("t"), 12345u);
    EXPECT_TRUE(in.has("u"));
    EXPECT_FALSE(in.has("nope"));
}

TEST(CheckpointCodec, MissingKeyIsFatal)
{
    CheckpointOut out("test");
    out.putU64("present", 1);
    CheckpointIn in = roundTrip(out);
    EXPECT_DEATH(in.getU64("absent"), "missing key");
}

TEST(CheckpointCodec, TypeMismatchIsFatal)
{
    CheckpointOut out("test");
    out.putF64("f", 1.0);
    CheckpointIn in = roundTrip(out);
    EXPECT_DEATH(in.getU64("f"), "expected");
}

TEST(CheckpointCodec, DuplicateKeyIsFatal)
{
    CheckpointOut out("test");
    out.putU64("k", 1);
    EXPECT_DEATH(out.putU64("k", 2), "duplicate key");
}

// Writer / reader directory format -------------------------------------

TEST(CheckpointDir, WriterReaderRoundTrip)
{
    std::string dir = tempDir("ckpt_dir");
    {
        CheckpointWriter w(dir, 0xabcdULL, 777, 99);
        w.section("alpha").putU64("x", 11);
        w.section("beta").putStr("y", "z");
        w.finalize();
    }
    CheckpointReader r(dir);
    EXPECT_EQ(r.configFingerprint(), 0xabcdULL);
    EXPECT_EQ(r.tick(), 777u);
    EXPECT_EQ(r.numProcessed(), 99u);
    EXPECT_TRUE(r.hasSection("alpha"));
    EXPECT_TRUE(r.hasSection("beta"));
    EXPECT_FALSE(r.hasSection("gamma"));
    EXPECT_EQ(r.section("alpha").getU64("x"), 11u);
    EXPECT_EQ(r.section("beta").getStr("y"), "z");
}

TEST(CheckpointDir, MissingSectionIsFatal)
{
    std::string dir = tempDir("ckpt_missing_section");
    {
        CheckpointWriter w(dir, 1, 0, 0);
        w.section("only").putU64("x", 1);
        w.finalize();
    }
    CheckpointReader r(dir);
    EXPECT_DEATH(r.section("other"), "no section");
}

TEST(CheckpointDir, NotACheckpointDirIsFatal)
{
    EXPECT_DEATH(CheckpointReader r(tempDir("ckpt_nonexistent")),
                 "checkpoint directory");
}

// Random ---------------------------------------------------------------

TEST(CheckpointRandom, StateRoundTripContinuesTheStream)
{
    Random rng(12345);
    for (int i = 0; i < 100; ++i)
        rng.next();
    auto state = rng.state();
    std::vector<std::uint64_t> expect;
    for (int i = 0; i < 32; ++i)
        expect.push_back(rng.next());

    Random other(999); // Different seed; state overrides it.
    other.setState(state);
    for (std::uint64_t v : expect)
        EXPECT_EQ(other.next(), v);
}

// Stats ----------------------------------------------------------------

TEST(CheckpointStats, TreeRoundTripsScalarDistributionTimeSeries)
{
    StatGroup root("");
    StatGroup node(root, "node");
    Scalar sc(node, "sc", "scalar");
    Distribution di(node, "di", "distribution");
    TimeSeries ts(node, "ts", "timeseries", 100);
    sc = 42.5;
    di.sample(1.0);
    di.sample(9.0, 3);
    ts.add(50, 2.0);
    ts.add(250, 5.0);

    CheckpointOut out("stats");
    root.serializeStats(out);
    CheckpointIn in = roundTrip(out);

    StatGroup root2("");
    StatGroup node2(root2, "node");
    Scalar sc2(node2, "sc", "scalar");
    Distribution di2(node2, "di", "distribution");
    TimeSeries ts2(node2, "ts", "timeseries", 100);
    root2.unserializeStats(in);

    EXPECT_DOUBLE_EQ(sc2.value(), 42.5);
    EXPECT_EQ(di2.count(), 4u);
    EXPECT_DOUBLE_EQ(di2.total(), 28.0);
    EXPECT_DOUBLE_EQ(di2.min(), 1.0);
    EXPECT_DOUBLE_EQ(di2.max(), 9.0);
    ASSERT_EQ(ts2.buckets().size(), 3u);
    EXPECT_DOUBLE_EQ(ts2.buckets()[0], 2.0);
    EXPECT_DOUBLE_EQ(ts2.buckets()[2], 5.0);
}

TEST(CheckpointStats, StatAbsentFromCheckpointIsFatal)
{
    StatGroup root("");
    Scalar sc(root, "present", "x");
    CheckpointOut out("stats");
    root.serializeStats(out);
    CheckpointIn in = roundTrip(out);

    // The reader binary grew a stat the checkpoint does not carry:
    // strict restore must refuse, not zero-fill.
    StatGroup root2("");
    Scalar sc2(root2, "present", "x");
    Scalar added(root2, "added_later", "x");
    EXPECT_DEATH(root2.unserializeStats(in), "missing key");
}

TEST(CheckpointStats, TimeSeriesBucketWidthMismatchIsFatal)
{
    StatGroup root("");
    TimeSeries ts(root, "ts", "x", 100);
    CheckpointOut out("stats");
    root.serializeStats(out);
    CheckpointIn in = roundTrip(out);

    StatGroup root2("");
    TimeSeries ts2(root2, "ts", "x", 200);
    EXPECT_DEATH(root2.unserializeStats(in), "bucket width");
}

// Packets and retry lists ----------------------------------------------

class RecordingClient : public MemClient
{
  public:
    void memResponse(MemPacket *pkt) override { freePacket(pkt); }
};

class NamedRequestor : public MemRequestor
{
  public:
    explicit NamedRequestor(std::string name) : _name(std::move(name)) {}
    void retryRequest() override {}
    std::string requestorName() const override { return _name; }

  private:
    std::string _name;
};

TEST(CheckpointPacket, LivePacketRoundTripsThroughThePool)
{
    Simulation sim;
    RecordingClient client;
    sim.checkpointRegistry().registerClient("cl", client);

    MemPacket *pkt = sim.packetPool().alloc(
        0x1234u, 64u, true, TrafficClass::Gpu, AccessKind::Texture, 7,
        &client, 55u);
    pkt->issued = 900;

    CheckpointOut out("pkt");
    putPacket(out, "p", *pkt, sim.checkpointRegistry());
    freePacket(pkt);
    EXPECT_EQ(sim.packetPool().live(), 0u);

    CheckpointIn in = roundTrip(out);
    MemPacket *back = getPacket(in, "p", sim.packetPool(),
                                sim.checkpointRegistry());
    EXPECT_EQ(sim.packetPool().live(), 1u);
    EXPECT_EQ(back->addr, 0x1234u);
    EXPECT_EQ(back->size, 64u);
    EXPECT_TRUE(back->write);
    EXPECT_EQ(back->tclass, TrafficClass::Gpu);
    EXPECT_EQ(back->kind, AccessKind::Texture);
    EXPECT_EQ(back->requestorId, 7);
    EXPECT_EQ(back->client, &client);
    EXPECT_EQ(back->token, 55u);
    EXPECT_EQ(back->issued, 900u);
    freePacket(back);
}

TEST(CheckpointPacket, PostedWriteRestoresNullClient)
{
    Simulation sim;
    MemPacket *pkt = sim.packetPool().alloc(
        0x40u, 32u, true, TrafficClass::Display, AccessKind::Writeback,
        2, nullptr, 0u);
    CheckpointOut out("pkt");
    putPacket(out, "p", *pkt, sim.checkpointRegistry());
    freePacket(pkt);

    CheckpointIn in = roundTrip(out);
    MemPacket *back = getPacket(in, "p", sim.packetPool(),
                                sim.checkpointRegistry());
    EXPECT_EQ(back->client, nullptr);
    EXPECT_TRUE(back->posted());
    freePacket(back);
}

TEST(CheckpointPacket, PoolHighWaterRestores)
{
    Simulation sim;
    sim.packetPool().restoreLiveHighWater(17);
    EXPECT_EQ(sim.packetPool().liveHighWater(), 17u);
    EXPECT_DOUBLE_EQ(sim.packetPool().statLiveHighWater.value(), 17.0);
}

TEST(CheckpointRetryList, ParkedWaitersRestoreInFifoOrder)
{
    Simulation sim;
    NamedRequestor a("req.a"), b("req.b"), c("req.c");
    sim.checkpointRegistry().registerRequestor("req.a", a);
    sim.checkpointRegistry().registerRequestor("req.b", b);
    sim.checkpointRegistry().registerRequestor("req.c", c);

    RetryList list;
    list.add(b);
    list.add(a);
    list.add(c);

    CheckpointOut out("rl");
    list.serialize(out, "retry", sim.checkpointRegistry());
    CheckpointIn in = roundTrip(out);

    RetryList other;
    other.unserialize(in, "retry", sim.checkpointRegistry());
    ASSERT_EQ(other.size(), 3u);
    EXPECT_EQ(other.waiters()[0], &b);
    EXPECT_EQ(other.waiters()[1], &a);
    EXPECT_EQ(other.waiters()[2], &c);
}

// Event queue ----------------------------------------------------------

TEST(CheckpointEventQueue, RestoredScheduleReproducesFireOrder)
{
    std::vector<int> fired;
    EventQueue q;
    EventFunction e1([&] { fired.push_back(1); }, "e1");
    EventFunction e2([&] { fired.push_back(2); }, "e2",
                     Event::clockPriority);
    EventFunction e3([&] { fired.push_back(3); }, "e3");
    EventFunction e4([&] { fired.push_back(4); }, "e4");

    // Same tick: priority then scheduling order breaks the tie.
    q.schedule(e3, 100);
    q.schedule(e1, 100);
    q.schedule(e2, 100);
    q.schedule(e4, 50);

    auto live = q.liveEventsSorted();
    ASSERT_EQ(live.size(), 4u);
    EXPECT_EQ(live[0].event, &e4); // Earliest tick first.
    EXPECT_EQ(live[1].event, &e2); // clockPriority beats default.
    EXPECT_EQ(live[2].event, &e3); // Then scheduling order.
    EXPECT_EQ(live[3].event, &e1);

    // Simulate a restore: wipe the queue, jump time, re-schedule the
    // saved set in service order on the "fresh" queue.
    q.clearForRestore();
    EXPECT_TRUE(q.empty());
    q.restoreTime(40, 7);
    EXPECT_EQ(q.curTick(), 40u);
    EXPECT_EQ(q.numProcessed(), 7u);
    for (const auto &ref : live)
        q.schedule(*ref.event, ref.when);

    while (q.runOne()) {}
    EXPECT_EQ(fired, (std::vector<int>{4, 2, 3, 1}));
    EXPECT_EQ(q.numProcessed(), 11u);
}

// Integrity probe ------------------------------------------------------

/** A small two-section checkpoint to damage in controlled ways. */
std::string
probeFixture(const std::string &leaf)
{
    std::string dir = tempDir(leaf);
    std::filesystem::remove_all(dir);
    CheckpointWriter w(dir, 0xfeedULL, 777, 99);
    w.section("alpha").putU64("x", 11);
    w.section("beta").putStr("y", "payload bytes the crc covers");
    w.finalize();
    return dir;
}

void
patchFile(const std::string &path, long offset, char byte)
{
    std::fstream f(path, std::ios::in | std::ios::out |
                             std::ios::binary);
    ASSERT_TRUE(f.is_open()) << path;
    f.seekp(offset);
    f.put(byte);
}

TEST(CheckpointProbe, IntactCheckpointReportsHeader)
{
    CkptProbe probe = probeCheckpoint(probeFixture("probe_ok"));
    EXPECT_TRUE(probe.ok());
    EXPECT_EQ(probe.status, CkptIntegrity::Ok);
    EXPECT_EQ(probe.fingerprint, 0xfeedULL);
    EXPECT_EQ(probe.tick, 777u);
    EXPECT_EQ(probe.numProcessed, 99u);
    EXPECT_STREQ(ckptIntegrityName(probe.status), "ok");
}

TEST(CheckpointProbe, BitFlipIsCrcMismatchNotFatal)
{
    std::string dir = probeFixture("probe_flip");
    // Flip one byte inside the second section's payload.
    auto size = std::filesystem::file_size(dir + "/data.bin");
    patchFile(dir + "/data.bin", static_cast<long>(size) - 3, 'X');

    CkptProbe probe = probeCheckpoint(dir);
    EXPECT_EQ(probe.status, CkptIntegrity::CrcMismatch);
    EXPECT_NE(probe.detail.find("beta"), std::string::npos)
        << probe.detail;

    // The strict reader refuses the same damage loudly.
    EXPECT_DEATH(CheckpointReader r(dir), "fails CRC");
}

TEST(CheckpointProbe, TruncationIsTruncatedSection)
{
    std::string dir = probeFixture("probe_trunc");
    std::filesystem::resize_file(dir + "/data.bin", 4);
    CkptProbe probe = probeCheckpoint(dir);
    EXPECT_EQ(probe.status, CkptIntegrity::TruncatedSection);
    EXPECT_DEATH(CheckpointReader r(dir), "past the end");
}

TEST(CheckpointProbe, MissingAndMalformedPieces)
{
    std::string dir = probeFixture("probe_nodata");
    std::filesystem::remove(dir + "/data.bin");
    EXPECT_EQ(probeCheckpoint(dir).status, CkptIntegrity::MissingData);

    dir = probeFixture("probe_nomanifest");
    std::filesystem::remove(dir + "/manifest.json");
    EXPECT_EQ(probeCheckpoint(dir).status,
              CkptIntegrity::MissingManifest);
    EXPECT_EQ(probeCheckpoint(tempDir("probe_absent")).status,
              CkptIntegrity::MissingManifest);

    dir = probeFixture("probe_garbage");
    {
        std::ofstream mf(dir + "/manifest.json", std::ios::trunc);
        mf << "{ this is not json";
    }
    EXPECT_EQ(probeCheckpoint(dir).status,
              CkptIntegrity::MalformedManifest);
}

std::string
manifestText(const std::string &dir)
{
    std::ifstream in(dir + "/manifest.json");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Replace @p from with @p to, once, in @p dir's manifest.json. */
void
editManifest(const std::string &dir, const std::string &from,
             const std::string &to)
{
    std::string text = manifestText(dir);
    auto pos = text.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    text.replace(pos, from.size(), to);
    std::ofstream out(dir + "/manifest.json", std::ios::trunc);
    out << text;
}

TEST(CheckpointProbe, Version1ManifestIsUnsupported)
{
    // Version 1 had no section CRCs, so a corrupt v1 checkpoint would
    // restore unverified: neither the probe nor the reader takes it.
    std::string dir = probeFixture("probe_v1");
    editManifest(dir, "\"format_version\": \"2\"",
                 "\"format_version\": \"1\"");
    EXPECT_EQ(probeCheckpoint(dir).status,
              CkptIntegrity::UnsupportedVersion);
    EXPECT_DEATH(CheckpointReader r(dir), "format version 1");
}

TEST(CheckpointProbe, MissingCrcIsMalformedManifest)
{
    // A current-version section without its CRC would go unverified.
    std::string dir = probeFixture("probe_nocrc");
    std::string text = manifestText(dir);
    auto pos = text.find(", \"crc\": \"");
    ASSERT_NE(pos, std::string::npos);
    auto end = text.find('"', pos + std::strlen(", \"crc\": \""));
    ASSERT_NE(end, std::string::npos);
    editManifest(dir, text.substr(pos, end + 1 - pos), "");

    CkptProbe probe = probeCheckpoint(dir);
    EXPECT_EQ(probe.status, CkptIntegrity::MalformedManifest);
    EXPECT_NE(probe.detail.find("has no crc"), std::string::npos)
        << probe.detail;
    EXPECT_DEATH(CheckpointReader r(dir), "has no crc");
}

TEST(CheckpointProbe, FutureVersionIsUnsupported)
{
    std::string dir = probeFixture("probe_future");
    editManifest(dir, "\"format_version\": \"2\"",
                 "\"format_version\": \"99\"");
    EXPECT_EQ(probeCheckpoint(dir).status,
              CkptIntegrity::UnsupportedVersion);
    EXPECT_DEATH(CheckpointReader r(dir), "format version");
}

// Fingerprint policy ---------------------------------------------------

TEST(CheckpointFingerprint, MismatchRefusesRestore)
{
    std::string dir = tempDir("ckpt_fp_mismatch");
    {
        Simulation sim;
        sim.setConfigFingerprint(0x1111);
        sim.saveCheckpoint(dir);
    }
    Simulation sim;
    sim.setConfigFingerprint(0x2222);
    sim.setRestoreSpec(dir, false);
    EXPECT_DEATH(sim.restoreCheckpoint(), "config fingerprint");
}

TEST(CheckpointFingerprint, ForceDowngradesMismatchToWarning)
{
    std::string dir = tempDir("ckpt_fp_force");
    {
        Simulation sim;
        sim.setConfigFingerprint(0x1111);
        sim.saveCheckpoint(dir);
    }
    Simulation sim;
    sim.setConfigFingerprint(0x2222);
    sim.setRestoreSpec(dir, true);
    EXPECT_TRUE(sim.restorePending());
    sim.restoreCheckpoint();
    EXPECT_TRUE(sim.restored());
    EXPECT_FALSE(sim.restorePending());
}

// End-to-end warm start ------------------------------------------------

soc::SocParams
smallSocParams()
{
    soc::SocParams p;
    p.model = scenes::WorkloadId::M4_Triangles;
    p.frames = 2;
    p.fbWidth = 128;
    p.fbHeight = 96;
    p.cpuPrepRequests = 200;
    return p;
}

TEST(CheckpointSoc, WarmStartReproducesColdEventHash)
{
    std::string dir = tempDir("ckpt_soc");
    soc::SocParams p = smallSocParams();

    std::uint64_t cold_hash = 0, cold_events = 0;
    {
        soc::SocTop soc(p, SimulationBuilder().checkDeterminism());
        soc.run(ticksFromMs(500.0));
        cold_hash = soc.sim().determinismHash();
        cold_events = soc.sim().eventQueue().numProcessed();
        ASSERT_NE(cold_hash, 0u);
    }
    {
        // The checkpointing run itself must not perturb the stream:
        // the trigger rides the instrument chain between events.
        soc::SocTop soc(p, SimulationBuilder()
                               .checkDeterminism()
                               .checkpointAt(ticksFromMs(10.0), dir));
        soc.run(ticksFromMs(500.0));
        EXPECT_EQ(soc.sim().determinismHash(), cold_hash);
        EXPECT_EQ(soc.sim().eventQueue().numProcessed(), cold_events);
    }
    {
        // The oracle: a warm start resumes the cold run's hash stream
        // and must land on the same final hash and event count.
        soc::SocTop soc(p, SimulationBuilder()
                               .checkDeterminism()
                               .restoreFrom(dir));
        EXPECT_TRUE(soc.sim().restored());
        soc.run(ticksFromMs(500.0));
        EXPECT_EQ(soc.sim().determinismHash(), cold_hash);
        EXPECT_EQ(soc.sim().eventQueue().numProcessed(), cold_events);
        EXPECT_EQ(soc.app().frames().size(), 2u);
    }
}

TEST(CheckpointSoc, RestoreIntoDifferentConfigIsFatal)
{
    std::string dir = tempDir("ckpt_soc_mismatch");
    soc::SocParams p = smallSocParams();
    {
        soc::SocTop soc(p, SimulationBuilder()
                               .checkDeterminism()
                               .checkpointAt(ticksFromMs(10.0), dir));
        soc.run(ticksFromMs(500.0));
    }
    soc::SocParams other = p;
    other.memConfig = soc::MemConfig::HMC;
    EXPECT_DEATH(
        {
            soc::SocTop soc(other, SimulationBuilder()
                                       .checkDeterminism()
                                       .restoreFrom(dir));
        },
        "config fingerprint");
}

} // namespace
} // namespace emerald
