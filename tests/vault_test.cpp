/**
 * @file
 * Unit and property tests for seer-vault (DESIGN.md §13): the binary
 * frame codec and its torn-tail semantics, write-ahead ledger and
 * checkpoint round-trips, interner and monitor state identity under
 * randomized workloads, and the headline restore-fidelity contract —
 * a VaultedMonitor killed at an arbitrary point and reconstructed
 * over the same directory emits verdicts bit-identical to an
 * uninterrupted run, for randomized kill points, checkpoint cadences,
 * torn ledger tails, and models with and without latency profiles.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/binio.hpp"
#include "common/rng.hpp"
#include "core/mining/latency_profile.hpp"
#include "core/monitor/report_json.hpp"
#include "core/monitor/workflow_monitor.hpp"
#include "logging/identifier_interner.hpp"
#include "vault/vault.hpp"
#include "vault/vaulted_monitor.hpp"

using namespace cloudseer;
using namespace cloudseer::core;

namespace {

/** Fresh per-test scratch directory under the system temp root. */
class VaultDir
{
  public:
    explicit VaultDir(const std::string &name)
        : path((std::filesystem::temp_directory_path() /
                ("cloudseer_" + name))
                   .string())
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~VaultDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    const std::string path;
};

/** Bitwise reference CRC-32, for checking the sliced table version. */
std::uint32_t
referenceCrc32(std::string_view data)
{
    std::uint32_t crc = 0xFFFFFFFFu;
    for (unsigned char byte : data) {
        crc ^= byte;
        for (int k = 0; k < 8; ++k)
            crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xFFFFFFFFu;
}

} // namespace

// --- binio ----------------------------------------------------------

TEST(BinioTest, Crc32KnownAnswer)
{
    // The standard CRC-32 check value (zlib/PNG convention).
    EXPECT_EQ(common::crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(common::crc32(""), 0u);
}

TEST(BinioTest, Crc32MatchesBitwiseReferenceAtEveryLength)
{
    // The production crc32 folds four bytes per step with a tail
    // loop; sweep lengths 0..64 so every word/tail split is hit. A
    // seeded CRC over the second half continues the first half's.
    std::string data;
    common::Rng rng(7);
    for (int len = 0; len <= 64; ++len) {
        EXPECT_EQ(common::crc32(data), referenceCrc32(data))
            << "length " << len;
        std::string_view view(data);
        std::size_t half = data.size() / 3;
        EXPECT_EQ(common::crc32(view.substr(half),
                                common::crc32(view.substr(0, half))),
                  referenceCrc32(data))
            << "length " << len;
        data.push_back(static_cast<char>(rng.uniformInt(0, 255)));
    }
}

TEST(BinioTest, WriterReaderRoundTrip)
{
    common::BinWriter out;
    out.writeU8(0xAB);
    out.writeU32(0xDEADBEEFu);
    out.writeU64(0x0123456789ABCDEFull);
    out.writeI64(-42);
    out.writeF64(3.25);
    out.writeBool(true);
    out.writeString("hello vault");
    out.writeU32Vector({1, 2, 3});
    out.writeU64Vector({});

    common::BinReader in(out.bytes());
    EXPECT_EQ(in.readU8(), 0xAB);
    EXPECT_EQ(in.readU32(), 0xDEADBEEFu);
    EXPECT_EQ(in.readU64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(in.readI64(), -42);
    EXPECT_EQ(in.readF64(), 3.25);
    EXPECT_TRUE(in.readBool());
    EXPECT_EQ(in.readString(), "hello vault");
    EXPECT_EQ(in.readU32Vector(), (std::vector<std::uint32_t>{1, 2, 3}));
    EXPECT_TRUE(in.readU64Vector().empty());
    EXPECT_TRUE(in.ok());
    EXPECT_TRUE(in.atEnd());
}

TEST(BinioTest, ReaderFailureIsSticky)
{
    common::BinWriter out;
    out.writeU32(7);
    common::BinReader in(out.bytes());
    EXPECT_EQ(in.readU64(), 0u); // runs past the 4 available bytes
    EXPECT_FALSE(in.ok());
    EXPECT_EQ(in.readU32(), 0u); // still failed, still zero
    EXPECT_FALSE(in.ok());
}

// --- frame codec ----------------------------------------------------

TEST(FrameTest, ScanRoundTripAndTornTail)
{
    VaultDir dir("frame_test");
    std::string path = dir.path + "/frames.bin";
    {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(vault::writeFileHeader(out, vault::kLedgerMagic));
        vault::appendFrame(out, "alpha");
        vault::appendFrame(out, "beta");
        vault::appendFrame(out, "gamma");
    }
    vault::FrameScan scan = vault::scanFrames(path,
                                              vault::kLedgerMagic);
    EXPECT_TRUE(scan.headerOk);
    EXPECT_FALSE(scan.torn);
    ASSERT_EQ(scan.frames.size(), 3u);
    EXPECT_EQ(scan.frames[1], "beta");

    // Chop mid-way through the last frame: the crash signature. The
    // intact prefix survives; the tail is reported, not interpreted.
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) - 3);
    scan = vault::scanFrames(path, vault::kLedgerMagic);
    EXPECT_TRUE(scan.headerOk);
    EXPECT_TRUE(scan.torn);
    EXPECT_GT(scan.tornBytes, 0u);
    ASSERT_EQ(scan.frames.size(), 2u);
    EXPECT_EQ(scan.frames[1], "beta");
}

TEST(FrameTest, CorruptPayloadStopsScanAtChecksum)
{
    VaultDir dir("frame_corrupt");
    std::string path = dir.path + "/frames.bin";
    {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(vault::writeFileHeader(out, vault::kLedgerMagic));
        vault::appendFrame(out, "first");
        vault::appendFrame(out, "second");
    }
    // Flip one payload byte of the second frame.
    std::fstream patch(path,
                       std::ios::binary | std::ios::in | std::ios::out);
    patch.seekp(-1, std::ios::end);
    patch.put('X');
    patch.close();

    vault::FrameScan scan = vault::scanFrames(path,
                                              vault::kLedgerMagic);
    EXPECT_TRUE(scan.torn);
    ASSERT_EQ(scan.frames.size(), 1u);
    EXPECT_EQ(scan.frames[0], "first");
}

TEST(FrameTest, WrongMagicRefusesFile)
{
    VaultDir dir("frame_magic");
    std::string path = dir.path + "/frames.bin";
    {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(
            vault::writeFileHeader(out, vault::kCheckpointMagic));
        vault::appendFrame(out, "payload");
    }
    vault::FrameScan scan = vault::scanFrames(path,
                                              vault::kLedgerMagic);
    EXPECT_FALSE(scan.headerOk);
    EXPECT_TRUE(scan.frames.empty());
}

// --- write-ahead ledger ---------------------------------------------

TEST(LedgerTest, AppendReadRoundTrip)
{
    VaultDir dir("ledger_roundtrip");
    std::string path = vault::ledgerPath(dir.path);

    logging::LogRecord record;
    record.id = 42;
    record.timestamp = 1.5;
    record.node = "node-1";
    record.service = "svc";
    record.level = logging::LogLevel::Warning;
    record.body = "worker stalled";

    {
        vault::WriteAheadLedger ledger(path);
        ASSERT_TRUE(ledger.open());
        ledger.appendLine(1, "raw wire line");
        ledger.appendRecord(2, record);
        ledger.appendLine(3, "");
        // No explicit flush: the destructor group-commits the batch,
        // so an orderly shutdown loses nothing.
    }

    vault::LedgerScan scan = vault::readLedger(path);
    EXPECT_TRUE(scan.headerOk);
    EXPECT_FALSE(scan.torn);
    ASSERT_EQ(scan.inputs.size(), 3u);
    EXPECT_EQ(scan.inputs[0].kind, vault::LedgerEntry::RawLine);
    EXPECT_EQ(scan.inputs[0].seq, 1u);
    EXPECT_EQ(scan.inputs[0].line, "raw wire line");
    EXPECT_EQ(scan.inputs[1].kind, vault::LedgerEntry::Record);
    EXPECT_EQ(scan.inputs[1].seq, 2u);
    EXPECT_EQ(scan.inputs[1].record.id, 42u);
    EXPECT_EQ(scan.inputs[1].record.level,
              logging::LogLevel::Warning);
    EXPECT_EQ(scan.inputs[1].record.body, "worker stalled");
    EXPECT_EQ(scan.inputs[2].line, "");
}

TEST(LedgerTest, RotateEmptiesAndDiscardsPending)
{
    VaultDir dir("ledger_rotate");
    std::string path = vault::ledgerPath(dir.path);
    vault::WriteAheadLedger ledger(path);
    ASSERT_TRUE(ledger.open());
    ledger.appendLine(1, "flushed");
    ledger.flush();
    ledger.appendLine(2, "still pending");
    ASSERT_TRUE(ledger.rotate());

    vault::LedgerScan scan = vault::readLedger(path);
    EXPECT_TRUE(scan.headerOk);
    EXPECT_TRUE(scan.inputs.empty());

    // The ledger stays appendable after rotation.
    ledger.appendLine(3, "post-rotation");
    ledger.flush();
    scan = vault::readLedger(path);
    ASSERT_EQ(scan.inputs.size(), 1u);
    EXPECT_EQ(scan.inputs[0].seq, 3u);
}

// --- checkpoint files -----------------------------------------------

TEST(CheckpointTest, WriteReadRoundTrip)
{
    VaultDir dir("ckpt_roundtrip");
    std::string path = vault::checkpointPath(dir.path);

    vault::CheckpointMeta meta;
    meta.modelFingerprint = 0xFEEDFACEull;
    meta.coveredSeq = 128;
    meta.monitorTime = 99.5;
    std::vector<std::pair<vault::CheckpointSection, std::string>>
        sections;
    sections.emplace_back(vault::CheckpointSection::Meta,
                          vault::encodeMeta(meta));
    sections.emplace_back(vault::CheckpointSection::Interner,
                          std::string("interner-bytes"));
    sections.emplace_back(vault::CheckpointSection::Monitor,
                          std::string("monitor-bytes"));
    std::uint64_t bytes = vault::writeCheckpoint(path, sections);
    EXPECT_GT(bytes, 0u);
    EXPECT_EQ(bytes, std::filesystem::file_size(path));

    vault::CheckpointScan scan = vault::readCheckpoint(path);
    EXPECT_TRUE(scan.headerOk);
    EXPECT_TRUE(scan.complete);
    ASSERT_TRUE(scan.hasMeta);
    EXPECT_EQ(scan.meta.modelFingerprint, 0xFEEDFACEull);
    EXPECT_EQ(scan.meta.coveredSeq, 128u);
    EXPECT_EQ(scan.meta.monitorTime, 99.5);
    ASSERT_EQ(scan.sections.size(), 3u);
    EXPECT_EQ(scan.sections[1].second, "interner-bytes");
}

TEST(CheckpointTest, MissingTerminatorMeansIncomplete)
{
    VaultDir dir("ckpt_incomplete");
    std::string path = vault::checkpointPath(dir.path);
    vault::CheckpointMeta meta;
    ASSERT_GT(vault::writeCheckpoint(
                  path, {{vault::CheckpointSection::Meta,
                          vault::encodeMeta(meta)}}),
              0u);
    // Drop the End frame (4-byte kind + 8-byte frame header).
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) - 12);
    vault::CheckpointScan scan = vault::readCheckpoint(path);
    EXPECT_TRUE(scan.headerOk);
    EXPECT_FALSE(scan.complete);
    EXPECT_TRUE(scan.hasMeta);
}

// --- interner snapshot/restore --------------------------------------

TEST(InternerVaultTest, SnapshotRestoreIsIdentityUnderRandomWorkload)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        common::Rng rng(seed);
        logging::IdentifierInterner source;
        // Randomized workload with repeats, so hits and misses both
        // accumulate; a small capacity on some seeds exercises the
        // rejection path too.
        if (seed % 2 == 0)
            source.setCapacity(12);
        std::vector<std::string> pool;
        for (int i = 0; i < 20; ++i)
            pool.push_back("id-" + std::to_string(seed) + "-" +
                           std::to_string(rng.uniformInt(0, 15)));
        std::vector<logging::IdToken> sourceTokens;
        for (const std::string &value : pool)
            sourceTokens.push_back(source.intern(value));
        if (seed % 2 == 0) {
            // Deterministically overflow the 12-entry capacity so
            // the rejection tally is exercised regardless of how
            // many distinct values the random pool produced.
            for (int i = 0; i < 13; ++i)
                source.intern("spill-" + std::to_string(i));
        }

        common::BinWriter out;
        source.snapshotState(out);
        logging::IdentifierInterner restored;
        common::BinReader in(out.bytes());
        ASSERT_TRUE(restored.restoreState(in)) << "seed " << seed;
        EXPECT_TRUE(in.atEnd());

        EXPECT_EQ(restored.size(), source.size());
        EXPECT_EQ(restored.stats().hits, source.stats().hits);
        EXPECT_EQ(restored.stats().misses, source.stats().misses);
        EXPECT_EQ(restored.stats().capacity, source.stats().capacity);
        EXPECT_EQ(restored.stats().capRejected,
                  source.stats().capRejected);
        for (logging::IdToken token = 0; token < source.size();
             ++token)
            EXPECT_EQ(restored.text(token), source.text(token));
        // Future interning behaves identically (same tokens, same
        // capacity enforcement) — the property that keeps a restored
        // monitor's eviction and routing decisions in lockstep.
        for (const std::string &value : pool)
            EXPECT_EQ(restored.intern(value), source.find(value));
        if (seed % 2 == 0) {
            EXPECT_GT(source.stats().capRejected, 0u);
            EXPECT_EQ(restored.intern("definitely-new-identifier"),
                      logging::kInvalidIdToken);
        }
    }
}

TEST(InternerVaultTest, RestoreReplacesExistingTable)
{
    logging::IdentifierInterner source;
    source.intern("alpha");
    source.intern("beta");
    source.intern("alpha");
    common::BinWriter out;
    source.snapshotState(out);

    // A table that already holds other texts, one of them the
    // snapshot's second: the restore yields exactly the snapshot's.
    logging::IdentifierInterner existing;
    existing.intern("gamma");
    existing.intern("beta");
    existing.intern("delta");
    common::BinReader in(out.bytes());
    ASSERT_TRUE(existing.restoreState(in));
    EXPECT_TRUE(in.atEnd());
    ASSERT_EQ(existing.size(), 2u);
    EXPECT_EQ(existing.text(0), "alpha");
    EXPECT_EQ(existing.text(1), "beta");
    EXPECT_EQ(existing.find("gamma"), logging::kInvalidIdToken);
    EXPECT_EQ(existing.find("delta"), logging::kInvalidIdToken);
    EXPECT_EQ(existing.stats().hits, 1u);
    EXPECT_EQ(existing.stats().misses, 2u);
    EXPECT_EQ(existing.intern("gamma"), 2u);
}

// --- monitor state round-trip and kill/restore fidelity --------------

namespace {

/**
 * Ping/pong monitor fixture mirroring monitor_test, plus a fork
 * model so groups hold real ambiguity when snapshots are taken.
 */
class VaultMonitorTest : public ::testing::Test
{
  protected:
    std::shared_ptr<logging::TemplateCatalog> catalog =
        std::make_shared<logging::TemplateCatalog>();

    std::vector<TaskAutomaton>
    automata()
    {
        logging::TemplateId ping =
            catalog->intern("svc-a", "ping <uuid>");
        logging::TemplateId pong =
            catalog->intern("svc-b", "pong <uuid>");
        logging::TemplateId ack =
            catalog->intern("svc-c", "ack <uuid>");
        std::vector<TaskAutomaton> out;
        out.emplace_back(
            "ping-pong",
            std::vector<EventNode>{{ping, 0}, {pong, 0}},
            std::vector<DependencyEdge>{{0, 1, true}});
        out.emplace_back(
            "ping-ack",
            std::vector<EventNode>{{ping, 0}, {ack, 0}},
            std::vector<DependencyEdge>{{0, 1, true}});
        return out;
    }

    static MonitorConfig
    config(bool with_profile)
    {
        MonitorConfig out;
        out.timeoutSeconds = 50.0;
        if (with_profile) {
            LatencyProfile profile;
            profile.task = "ping-pong";
            profile.runs = 4;
            profile.total = {4, 0.5, 1.0, 1.0, 1.0};
            profile.edges[{0, 1}] = profile.total;
            out.latencyProfiles = {profile};
        }
        return out;
    }

    static std::string
    uuid(int which)
    {
        char buf[37];
        std::snprintf(buf, sizeof buf,
                      "%08d-aaaa-bbbb-cccc-dddddddddddd", which);
        return buf;
    }

    /**
     * Randomized interleaved workload: ping always opens; roughly
     * half the tasks complete via pong or ack, some after a latency
     * that trips the (profiled) budget, and the rest are left to time
     * out — so Accepted, Timeout and LatencyAnomaly verdicts all
     * appear in the stream the fidelity property compares.
     */
    std::vector<logging::LogRecord>
    workload(std::uint64_t seed, int tasks)
    {
        common::Rng rng(seed);
        std::vector<logging::LogRecord> records;
        logging::RecordId next = 1;
        double t = 0.0;
        auto make = [&](const std::string &service,
                        const std::string &body) {
            logging::LogRecord record;
            record.id = next++;
            record.timestamp = (t += 0.25);
            record.node = "controller";
            record.service = service;
            record.level = logging::LogLevel::Info;
            record.body = body;
            return record;
        };
        std::vector<int> open;
        for (int task = 1; task <= tasks; ++task) {
            records.push_back(
                make("svc-a", "ping " + uuid(task)));
            open.push_back(task);
            while (open.size() > 3) {
                std::size_t pick = static_cast<std::size_t>(
                    rng.uniformInt(
                        0, static_cast<int>(open.size()) - 1));
                int closing = open[pick];
                open.erase(open.begin() +
                           static_cast<std::ptrdiff_t>(pick));
                int how = rng.uniformInt(0, 3);
                if (how == 3)
                    t += 3.0; // blows the profiled 1s budget
                records.push_back(
                    make(how == 1 ? "svc-c" : "svc-b",
                         (how == 1 ? "ack " : "pong ") +
                             uuid(closing)));
            }
        }
        return records;
    }

    static std::string
    render(const std::vector<MonitorReport> &reports,
           const std::shared_ptr<logging::TemplateCatalog> &catalog)
    {
        std::string out;
        for (const MonitorReport &report : reports) {
            out += reportToJson(report, *catalog);
            out += "\n";
        }
        return out;
    }

    /**
     * Claim 2^60 checker relations in a Monitor section, so its
     * restore is refused. The image ends with the checker's relation
     * count, its three id counters, its largest timeout and the
     * no-observability flag: 8 + 24 + 8 + 1 bytes.
     */
    static void
    claimHugeRelationCount(std::string &body)
    {
        ASSERT_GE(body.size(), 41u);
        std::size_t at = body.size() - 41;
        ASSERT_EQ(body.substr(at, 8), std::string(8, '\0'));
        body[at + 7] = static_cast<char>(0x10);
    }

    /** Size, hits, misses and cap rejections of a monitor's interner,
     *  as its health sample reports them. */
    static std::vector<std::uint64_t>
    internerReadings(const WorkflowMonitor &monitor)
    {
        obs::HealthSample sample = monitor.healthSample();
        return {sample.internerSize, sample.internerHits,
                sample.internerMisses, sample.internerCapRejected};
    }
};

} // namespace

TEST_F(VaultMonitorTest, MonitorSaveRestoreMidStreamIsIdentity)
{
    std::vector<logging::LogRecord> records = workload(11, 16);
    WorkflowMonitor a(config(false), catalog, automata());
    WorkflowMonitor b(config(false), catalog, automata());
    std::size_t half = records.size() / 2;
    for (std::size_t i = 0; i < half; ++i)
        a.feed(records[i]);

    common::BinWriter out;
    a.saveState(out);
    common::BinReader in(out.bytes());
    ASSERT_TRUE(b.restoreState(in));

    // From here on the two monitors must be indistinguishable.
    std::string left, right;
    for (std::size_t i = half; i < records.size(); ++i) {
        left += render(a.feed(records[i]), catalog);
        right += render(b.feed(records[i]), catalog);
    }
    left += render(a.finish(), catalog);
    right += render(b.finish(), catalog);
    EXPECT_EQ(left, right);
    EXPECT_FALSE(left.empty());
    EXPECT_EQ(a.stats().accepted, b.stats().accepted);
    EXPECT_EQ(a.lastTime(), b.lastTime());
}

TEST_F(VaultMonitorTest, DisabledVaultIsNullSink)
{
    VaultDir dir("vault_nullsink");
    std::vector<logging::LogRecord> records = workload(3, 10);

    WorkflowMonitor bare(config(false), catalog, automata());
    vault::VaultedMonitor vaulted({}, config(false), catalog,
                                  automata());
    EXPECT_FALSE(vaulted.enabled());
    EXPECT_FALSE(vaulted.recovery().attempted);
    EXPECT_FALSE(vaulted.checkpoint());

    std::string left, right;
    for (const logging::LogRecord &record : records) {
        left += render(bare.feed(record), catalog);
        right += render(vaulted.feed(record), catalog);
    }
    left += render(bare.finish(), catalog);
    right += render(vaulted.finish(), catalog);
    EXPECT_EQ(left, right);
    EXPECT_EQ(vaulted.stats().walAppends, 0u);
    EXPECT_EQ(vaulted.stats().checkpointsTaken, 0u);
    // Nothing durability-related ever touched the filesystem.
    EXPECT_TRUE(std::filesystem::is_empty(dir.path));
}

/**
 * The headline property (satellite of DESIGN.md §13): kill a vaulted
 * monitor at a random point — optionally tearing the ledger tail the
 * way a crash mid-append would — reconstruct it over the same
 * directory, and the restored monitor's verdicts are bit-identical
 * to an uninterrupted reference run: replayed-tail reports match the
 * reference for the same seq range, and every subsequent input
 * (including resends of inputs lost to the torn tail) produces the
 * reference report stream, through finish().
 */
TEST_F(VaultMonitorTest, KillRestoreFidelityAtRandomPoints)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        bool with_profile = seed % 2 == 1; // odd seeds arm seer-flight
        bool tear_tail = seed % 3 == 0;
        std::vector<logging::LogRecord> records =
            workload(seed * 977, 20);

        // Uninterrupted reference over the identical model/config,
        // reports indexed by input seq (1-based, as the ledger's).
        WorkflowMonitor reference(config(with_profile), catalog,
                                  automata());
        std::vector<std::string> refBySeq(records.size() + 1);
        for (std::size_t i = 0; i < records.size(); ++i)
            refBySeq[i + 1] = render(reference.feed(records[i]),
                                     catalog);

        VaultDir dir("vault_fidelity_" + std::to_string(seed));
        vault::VaultConfig vault_config;
        vault_config.directory = dir.path;
        common::Rng rng(seed);
        vault_config.checkpointEveryRecords =
            static_cast<std::uint64_t>(rng.uniformInt(0, 9));
        std::size_t kill_at = static_cast<std::size_t>(rng.uniformInt(
            1, static_cast<int>(records.size()) - 2));

        auto vaulted = std::make_unique<vault::VaultedMonitor>(
            vault_config, config(with_profile), catalog, automata());
        for (std::size_t i = 0; i < kill_at; ++i) {
            std::string got = render(vaulted->feed(records[i]),
                                     catalog);
            ASSERT_EQ(got, refBySeq[i + 1])
                << "seed " << seed << " pre-kill input " << i;
        }
        vaulted.reset(); // the kill (destructor flushes the batch)
        if (tear_tail) {
            // Simulate a crash mid-append: chop bytes off the ledger
            // and smear garbage over the cut.
            std::string wal = vault::ledgerPath(dir.path);
            auto size = std::filesystem::file_size(wal);
            if (size > 40)
                std::filesystem::resize_file(wal, size - 11);
            std::ofstream smear(wal,
                                std::ios::binary | std::ios::app);
            smear << "\x07garbage";
        }

        auto restored = std::make_unique<vault::VaultedMonitor>(
            vault_config, config(with_profile), catalog, automata());
        const vault::RecoverResult &rec = restored->recovery();
        ASSERT_TRUE(rec.attempted) << "seed " << seed;
        ASSERT_TRUE(rec.recovered)
            << "seed " << seed << ": " << rec.error;
        ASSERT_LE(rec.lastReplayedSeq, kill_at) << "seed " << seed;

        // Gate 1: the replayed tail re-emitted exactly the reports
        // the reference produced for those seqs.
        std::string expectReplay;
        for (std::uint64_t s = rec.checkpointSeq + 1;
             s <= rec.lastReplayedSeq; ++s)
            expectReplay += refBySeq[s];
        EXPECT_EQ(render(rec.replayReports, catalog), expectReplay)
            << "seed " << seed;

        // Gate 2: inputs lost to the torn tail are resent (the
        // restored monitor hands out the same seqs it lost), then
        // the rest of the stream continues — every report must match
        // the reference, through finish().
        for (std::size_t s = rec.lastReplayedSeq + 1;
             s <= records.size(); ++s) {
            std::string got =
                render(restored->feed(records[s - 1]), catalog);
            ASSERT_EQ(got, refBySeq[s])
                << "seed " << seed << " post-restore seq " << s;
        }
        EXPECT_EQ(render(restored->finish(), catalog),
                  render(reference.finish(), catalog))
            << "seed " << seed;
    }
}

TEST_F(VaultMonitorTest, RecoveryRefusesModelFingerprintMismatch)
{
    VaultDir dir("vault_mismatch");
    vault::VaultConfig vault_config;
    vault_config.directory = dir.path;
    std::vector<logging::LogRecord> records = workload(5, 8);
    {
        vault::VaultedMonitor vaulted(vault_config, config(false),
                                      catalog, automata());
        for (const logging::LogRecord &record : records)
            vaulted.feed(record);
    }

    // Reconstruct against a different model: recovery must refuse
    // (no silent verdicts from someone else's state) and fall back
    // to a fresh monitor that still works.
    logging::TemplateId solo = catalog->intern("svc-z", "solo <uuid>");
    std::vector<TaskAutomaton> other;
    other.emplace_back("solo",
                       std::vector<EventNode>{{solo, 0}},
                       std::vector<DependencyEdge>{});
    vault::VaultedMonitor restored(vault_config, config(false),
                                   catalog, std::move(other));
    EXPECT_TRUE(restored.recovery().attempted);
    EXPECT_FALSE(restored.recovery().recovered);
    EXPECT_NE(restored.recovery().error.find("fingerprint"),
              std::string::npos)
        << restored.recovery().error;
    // Nothing from the incompatible history was replayed; the
    // refused files were set aside for autopsy, not overwritten.
    EXPECT_EQ(restored.recovery().replayedInputs, 0u);
    EXPECT_TRUE(std::filesystem::exists(
        vault::checkpointPath(dir.path) + ".refused"));
    EXPECT_TRUE(std::filesystem::exists(
        vault::ledgerPath(dir.path) + ".refused"));
    restored.feedLine("bogus line");
    EXPECT_EQ(restored.monitor().malformedLines(), 1u);
}

TEST_F(VaultMonitorTest, RecoveryRefusesCraftedMonitorSection)
{
    VaultDir dir("vault_crafted");
    vault::VaultConfig vault_config;
    vault_config.directory = dir.path;
    {
        // Construction alone leaves a sound checkpoint of a fresh
        // monitor behind.
        vault::VaultedMonitor vaulted(vault_config, config(false),
                                      catalog, automata());
    }
    const std::string path = vault::checkpointPath(dir.path);
    vault::CheckpointScan scan = vault::readCheckpoint(path);
    ASSERT_TRUE(scan.complete);
    std::vector<std::pair<vault::CheckpointSection, std::string>>
        sections = scan.sections;
    bool patched = false;
    for (auto &[kind, body] : sections) {
        if (kind != vault::CheckpointSection::Monitor)
            continue;
        claimHugeRelationCount(body);
        patched = true;
    }
    ASSERT_TRUE(patched);
    ASSERT_GT(vault::writeCheckpoint(path, sections), 0u);

    vault::VaultedMonitor restored(vault_config, config(false), catalog,
                                   automata());
    EXPECT_TRUE(restored.recovery().attempted);
    EXPECT_FALSE(restored.recovery().recovered);
    EXPECT_EQ(restored.recovery().error, "monitor restore refused");
    EXPECT_TRUE(std::filesystem::exists(path + ".refused"));
    EXPECT_TRUE(std::filesystem::exists(vault::ledgerPath(dir.path) +
                                        ".refused"));
    // The rebuilt monitor works.
    std::vector<logging::LogRecord> records = workload(4, 4);
    for (const logging::LogRecord &record : records)
        restored.feed(record);
    EXPECT_EQ(restored.monitor().ingestStats().recordsDelivered,
              records.size());
}

/**
 * A refused restore leaves nothing of the refused image behind: the
 * forged interner image it opens with is gone with the rebuilt
 * monitor, and no other monitor's interner is touched.
 */
TEST_F(VaultMonitorTest, RefusedRestoreLeavesNoTrace)
{
    WorkflowMonitor earlier(config(false), catalog, automata());
    for (const logging::LogRecord &record : workload(9, 6))
        earlier.feed(record);
    const std::vector<std::uint64_t> earlier_readings =
        internerReadings(earlier);
    ASSERT_GT(earlier_readings[0], 0u);

    VaultDir dir("vault_no_trace");
    vault::VaultConfig vault_config;
    vault_config.directory = dir.path;
    {
        vault::VaultedMonitor vaulted(vault_config, config(false),
                                      catalog, automata());
    }
    const std::string path = vault::checkpointPath(dir.path);
    vault::CheckpointScan scan = vault::readCheckpoint(path);
    ASSERT_TRUE(scan.complete);
    std::vector<std::pair<vault::CheckpointSection, std::string>>
        sections = scan.sections;
    bool patched = false;
    for (auto &[kind, body] : sections) {
        if (kind != vault::CheckpointSection::Monitor)
            continue;
        // Swap the interner image the section opens with for one
        // carrying an extra identifier and inflated tallies.
        common::BinReader in(body);
        logging::IdentifierInterner image;
        ASSERT_TRUE(image.restoreState(in));
        logging::IdentifierInterner forged;
        for (int i = 0; i < 997; ++i)
            forged.intern("forged-identifier");
        common::BinWriter out;
        forged.snapshotState(out);
        body = out.takeBytes() + body.substr(body.size() - in.remaining());
        claimHugeRelationCount(body);
        patched = true;
    }
    ASSERT_TRUE(patched);
    ASSERT_GT(vault::writeCheckpoint(path, sections), 0u);

    vault::VaultedMonitor restored(vault_config, config(false), catalog,
                                   automata());
    EXPECT_FALSE(restored.recovery().recovered);
    EXPECT_EQ(restored.recovery().error, "monitor restore refused");

    WorkflowMonitor fresh(config(false), catalog, automata());
    EXPECT_EQ(internerReadings(fresh),
              (std::vector<std::uint64_t>{0, 0, 0, 0}));
    EXPECT_EQ(internerReadings(restored.monitor()),
              internerReadings(fresh));
    EXPECT_EQ(internerReadings(earlier), earlier_readings);
}

TEST_F(VaultMonitorTest, RecoveryRefusesRetiredInternerSection)
{
    VaultDir dir("vault_retired");
    vault::VaultConfig vault_config;
    vault_config.directory = dir.path;
    {
        vault::VaultedMonitor vaulted(vault_config, config(false),
                                      catalog, automata());
    }
    // The older three-section layout: Meta, Interner, Monitor.
    const std::string path = vault::checkpointPath(dir.path);
    vault::CheckpointScan scan = vault::readCheckpoint(path);
    ASSERT_TRUE(scan.complete);
    std::vector<std::pair<vault::CheckpointSection, std::string>>
        sections = scan.sections;
    common::BinWriter empty_table;
    logging::IdentifierInterner().snapshotState(empty_table);
    sections.insert(sections.begin() + 1,
                    {vault::CheckpointSection::Interner,
                     empty_table.takeBytes()});
    ASSERT_GT(vault::writeCheckpoint(path, sections), 0u);

    vault::VaultedMonitor restored(vault_config, config(false), catalog,
                                   automata());
    EXPECT_TRUE(restored.recovery().attempted);
    EXPECT_FALSE(restored.recovery().recovered);
    EXPECT_NE(restored.recovery().error.find("Interner"),
              std::string::npos)
        << restored.recovery().error;
    EXPECT_TRUE(std::filesystem::exists(path + ".refused"));
}

/**
 * A refused restore over a pulse-enabled monitor on a fixed port keeps
 * serving on that port: the monitor the refusal rebuilds binds it only
 * after the one it replaces has let it go. Covers both refusals, the
 * retired Interner section and a monitor image whose restore fails.
 */
TEST_F(VaultMonitorTest, RefusedRestoreKeepsFixedPulsePort)
{
    MonitorConfig pulse_config = config(false);
    pulse_config.pulse.enabled = true;
    pulse_config.pulse.httpPort = 0;
    {
        WorkflowMonitor probe(pulse_config, catalog, automata());
        pulse_config.pulse.httpPort = probe.pulsePort();
    }
    const int port = pulse_config.pulse.httpPort;
    ASSERT_GT(port, 0);

    VaultDir dir("vault_fixed_port");
    vault::VaultConfig vault_config;
    vault_config.directory = dir.path;
    const std::string path = vault::checkpointPath(dir.path);
    {
        vault::VaultedMonitor vaulted(vault_config, pulse_config,
                                      catalog, automata());
        ASSERT_EQ(vaulted.monitor().pulsePort(), port);
    }
    vault::CheckpointScan scan = vault::readCheckpoint(path);
    ASSERT_TRUE(scan.complete);

    std::vector<std::pair<vault::CheckpointSection, std::string>>
        retired = scan.sections;
    common::BinWriter empty_table;
    logging::IdentifierInterner().snapshotState(empty_table);
    retired.insert(retired.begin() + 1,
                   {vault::CheckpointSection::Interner,
                    empty_table.takeBytes()});

    // A monitor image cut short by one byte: its interner image
    // restores, the rest of the monitor does not.
    std::vector<std::pair<vault::CheckpointSection, std::string>>
        refused = scan.sections;
    for (auto &[kind, body] : refused)
        if (kind == vault::CheckpointSection::Monitor)
            body.pop_back();

    const std::vector<std::pair<
        std::vector<std::pair<vault::CheckpointSection, std::string>>,
        std::string>>
        cases = {{retired, "checkpoint has a separate Interner section "
                           "(older image)"},
                 {refused, "monitor restore refused"}};
    for (const auto &[sections, error] : cases) {
        ASSERT_GT(vault::writeCheckpoint(path, sections), 0u);
        vault::VaultedMonitor restored(vault_config, pulse_config,
                                       catalog, automata());
        EXPECT_FALSE(restored.recovery().recovered);
        EXPECT_EQ(restored.recovery().error, error);
        EXPECT_TRUE(std::filesystem::exists(path + ".refused"));
        EXPECT_EQ(restored.monitor().pulsePort(), port);
    }
}

/**
 * A checkpoint restores on its own: a process that has already run
 * another monitor on other identifiers recovers it, and the rest of
 * the stream renders the uninterrupted run's verdicts. The vault is
 * written and recovered in child processes, so neither process has
 * seen the other's identifiers.
 */
TEST_F(VaultMonitorTest, CheckpointRestoresBesideAnotherMonitor)
{
    // Identifiers no other test feeds, so that only the children
    // below ever intern them.
    std::vector<logging::LogRecord> records = workload(13, 16);
    for (logging::LogRecord &record : records)
        record.body.replace(record.body.find("-aaaa-"), 6, "-eeee-");
    const std::size_t half = records.size() / 2;
    VaultDir dir("vault_beside");
    vault::VaultConfig vault_config;
    vault_config.directory = dir.path;

    EXPECT_EXIT(
        {
            vault::VaultedMonitor vaulted(vault_config, config(true),
                                          catalog, automata());
            for (std::size_t i = 0; i < half; ++i)
                vaulted.feed(records[i]);
            std::_Exit(vaulted.checkpoint() ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");

    EXPECT_EXIT(
        {
            WorkflowMonitor other(config(true), catalog, automata());
            for (int k = 1; k <= 8; ++k) {
                logging::LogRecord record = records[0];
                record.body = "ping " + uuid(1000 + k);
                other.feed(record);
            }
            vault::VaultedMonitor restored(vault_config, config(true),
                                           catalog, automata());
            if (!restored.recovery().recovered) {
                std::fprintf(stderr, "recovery refused: %s\n",
                             restored.recovery().error.c_str());
                std::_Exit(1);
            }
            WorkflowMonitor reference(config(true), catalog, automata());
            std::string want;
            std::string got;
            for (std::size_t i = 0; i < records.size(); ++i) {
                std::string verdicts = render(reference.feed(records[i]),
                                              catalog);
                if (i >= half) {
                    want += verdicts;
                    got += render(restored.feed(records[i]), catalog);
                }
            }
            want += render(reference.finish(), catalog);
            got += render(restored.finish(), catalog);
            if (got != want || want.empty()) {
                std::fprintf(stderr, "verdicts differ:\n%s---\n%s",
                             want.c_str(), got.c_str());
                std::_Exit(2);
            }
            std::_Exit(0);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST_F(VaultMonitorTest, StageClockTimesOneHistogramPerStage)
{
    VaultDir dir("vault_stage_clock");
    vault::VaultConfig vault_config;
    vault_config.directory = dir.path;
    MonitorConfig monitor_config = config(false);
    monitor_config.observability.metrics = true;
    vault::VaultedMonitor vaulted(vault_config, monitor_config, catalog,
                                  automata());
    std::vector<logging::LogRecord> records = workload(6, 40);
    ASSERT_GT(records.size(), obs::StageClock::kLapEvery);

    // The first input is timed stage by stage.
    vaulted.feedLine(logging::encodeLogLine(records[0]));

    // Exactly one histogram per tagged stage the monitor passes
    // through, named after its stage, plus the totals.
    std::set<std::string> histograms;
    std::istringstream text(vaulted.monitor().prometheusText());
    for (std::string line; std::getline(text, line);) {
        const std::string type = "# TYPE ";
        const std::string kind = " histogram";
        if (line.rfind(type, 0) == 0 && line.size() > kind.size() &&
            line.compare(line.size() - kind.size(), kind.size(), kind) ==
                0) {
            histograms.insert(line.substr(
                type.size(), line.size() - type.size() - kind.size()));
        }
    }
    std::set<std::string> expected = {"seer_feed_latency_us",
                                      "seer_wal_append_us"};
    for (obs::Stage stage :
         {obs::Stage::Sink, obs::Stage::Parse, obs::Stage::Route,
          obs::Stage::Check, obs::Stage::Verdict}) {
        expected.insert(std::string("seer_stage_") +
                        obs::stageName(stage) + "_us");
    }
    EXPECT_EQ(histograms, expected);

    // That input's laps add up to no more than its total.
    obs::Observability &sinks = *vaulted.monitor().observability();
    obs::StageClock &clock = *sinks.stageClock();
    ASSERT_EQ(clock.total().count(), 1u);
    EXPECT_EQ(clock.laps(obs::Stage::WalAppend),
              sinks.walAppendLatency());
    double laps = 0.0;
    for (int stage = 0; stage < obs::kStageCount; ++stage) {
        const obs::Histogram *lap =
            clock.laps(static_cast<obs::Stage>(stage));
        if (lap == nullptr)
            continue;
        EXPECT_EQ(lap->count(), 1u) << obs::stageName(
            static_cast<obs::Stage>(stage));
        laps += lap->sum();
    }
    EXPECT_GT(laps, 0.0);
    EXPECT_LE(laps, clock.total().sum() + 1e-6);

    // Every input is totalled; one in kLapEvery is lapped again.
    for (std::size_t i = 1; i <= obs::StageClock::kLapEvery; ++i)
        vaulted.feed(records[i]);
    EXPECT_EQ(clock.total().count(), obs::StageClock::kLapEvery + 1);
    EXPECT_EQ(clock.laps(obs::Stage::Check)->count(), 2u);
    EXPECT_EQ(clock.laps(obs::Stage::WalAppend)->count(), 2u);
}
