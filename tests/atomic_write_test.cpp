// Isolation suite for the two durability primitives the campaign store
// is built on: atomic whole-file replacement (support/atomic_write.hpp)
// and checksummed record framing (io/record_journal.hpp). Each case
// fabricates one concrete kind of on-disk damage -- truncated tail,
// corrupted checksum, duplicated record, empty file -- and pins the
// recovery contract: torn *final* records are detected and discarded,
// mid-file corruption is a hard error, and duplicates deduplicate.

#include "campaign/result_store.hpp"
#include "io/record_journal.hpp"
#include "support/atomic_write.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

namespace mwl {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed up front so reruns in the
/// same build tree start clean.
fs::path scratch(const std::string& name)
{
    const fs::path dir = fs::path("atomic_write_test_tmp") / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string slurp(const fs::path& path)
{
    std::string text;
    EXPECT_TRUE(read_file(path, text)) << path;
    return text;
}

// ------------------------------------------------------- atomic_write --

TEST(AtomicWrite, CreatesAndReplacesWholeFiles)
{
    const fs::path dir = scratch("replace");
    const fs::path target = dir / "file.txt";
    atomic_write_file(target, "first contents\n");
    EXPECT_EQ(slurp(target), "first contents\n");
    atomic_write_file(target, "second contents, longer than the first\n");
    EXPECT_EQ(slurp(target), "second contents, longer than the first\n");
    // No temp file may survive a successful replacement.
    std::size_t entries = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
        static_cast<void>(entry);
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
}

TEST(AtomicWrite, MissingDirectoryIsAnIoError)
{
    EXPECT_THROW(atomic_write_file(
                     fs::path("atomic_write_test_no_such_dir") / "x.txt",
                     "content"),
                 io_error);
}

TEST(AtomicWrite, ReadFileReportsMissingFilesAsFalse)
{
    std::string text = "sentinel";
    EXPECT_FALSE(read_file("atomic_write_test_missing_file", text));
}

// ------------------------------------------------------------ framing --

TEST(RecordJournal, FrameAndParseRoundTrip)
{
    const std::string framed = frame_record("hello world") +
                               frame_record("") +
                               frame_record("key=value detail=spaces ok");
    const journal_load loaded = parse_records(framed);
    EXPECT_FALSE(loaded.dropped_tail);
    EXPECT_EQ(loaded.valid_bytes, framed.size());
    ASSERT_EQ(loaded.payloads.size(), 3u);
    EXPECT_EQ(loaded.payloads[0], "hello world");
    EXPECT_EQ(loaded.payloads[1], "");
    EXPECT_EQ(loaded.payloads[2], "key=value detail=spaces ok");
}

TEST(RecordJournal, PayloadsMayNotContainNewlines)
{
    EXPECT_THROW(static_cast<void>(frame_record("two\nlines")), error);
}

TEST(RecordJournal, EmptyInputIsAValidEmptyJournal)
{
    const journal_load loaded = parse_records("");
    EXPECT_TRUE(loaded.payloads.empty());
    EXPECT_EQ(loaded.valid_bytes, 0u);
    EXPECT_FALSE(loaded.dropped_tail);
}

TEST(RecordJournal, TruncatedFinalRecordIsDroppedNotPropagated)
{
    const std::string good = frame_record("record one") +
                             frame_record("record two");
    const std::string torn = frame_record("record three");
    // Tear the last record at every byte boundary, including losing just
    // the trailing newline: all of them must recover the first two.
    for (std::size_t cut = 0; cut < torn.size(); ++cut) {
        const journal_load loaded =
            parse_records(good + torn.substr(0, cut));
        EXPECT_EQ(loaded.payloads.size(), 2u) << "cut=" << cut;
        EXPECT_EQ(loaded.valid_bytes, good.size()) << "cut=" << cut;
        if (cut > 0) {
            EXPECT_TRUE(loaded.dropped_tail) << "cut=" << cut;
            EXPECT_FALSE(loaded.tail_error.empty()) << "cut=" << cut;
        }
    }
}

TEST(RecordJournal, CorruptedChecksumOnFinalRecordIsDropped)
{
    const std::string good = frame_record("kept");
    std::string bad = frame_record("flipped");
    bad[0] = bad[0] == '0' ? '1' : '0'; // damage the checksum hex
    const journal_load loaded = parse_records(good + bad);
    ASSERT_EQ(loaded.payloads.size(), 1u);
    EXPECT_EQ(loaded.payloads[0], "kept");
    EXPECT_TRUE(loaded.dropped_tail);
    EXPECT_EQ(loaded.valid_bytes, good.size());
}

TEST(RecordJournal, CorruptedPayloadOnFinalRecordIsDropped)
{
    const std::string good = frame_record("kept");
    std::string bad = frame_record("flipped");
    bad[bad.size() - 2] ^= 1; // damage the payload, checksum now mismatches
    const journal_load loaded = parse_records(good + bad);
    ASSERT_EQ(loaded.payloads.size(), 1u);
    EXPECT_TRUE(loaded.dropped_tail);
}

TEST(RecordJournal, MidFileCorruptionIsAHardErrorNotARecovery)
{
    std::string bad = frame_record("damaged");
    bad[0] = bad[0] == '0' ? '1' : '0';
    const std::string text = bad + frame_record("later record");
    // A bad record *followed by* a good one cannot be a crash of our
    // appender; silently resuming would drop acknowledged data.
    EXPECT_THROW(static_cast<void>(parse_records(text)),
                 journal_format_error);
}

// ---------------------------------------------------- journal_writer --

TEST(JournalWriter, AppendsSurviveReopen)
{
    const fs::path dir = scratch("append");
    const fs::path path = dir / "journal.log";
    {
        journal_writer writer(path);
        writer.append("one");
        writer.append("two");
    }
    {
        journal_writer writer(path, slurp(path).size());
        writer.append("three");
    }
    const journal_load loaded = load_journal(path);
    ASSERT_EQ(loaded.payloads.size(), 3u);
    EXPECT_EQ(loaded.payloads[2], "three");
    EXPECT_FALSE(loaded.dropped_tail);
}

TEST(JournalWriter, TruncatingToValidBytesCutsATornTailBeforeAppending)
{
    const fs::path dir = scratch("truncate");
    const fs::path path = dir / "journal.log";
    {
        journal_writer writer(path);
        writer.append("kept record");
    }
    // Simulate a crash mid-append: half a framed record at the end.
    const std::string torn = frame_record("torn record");
    {
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << torn.substr(0, torn.size() / 2);
    }
    const journal_load damaged = load_journal(path);
    ASSERT_TRUE(damaged.dropped_tail);
    ASSERT_EQ(damaged.payloads.size(), 1u);
    {
        journal_writer writer(path, damaged.valid_bytes);
        writer.append("after recovery");
    }
    const journal_load loaded = load_journal(path);
    EXPECT_FALSE(loaded.dropped_tail);
    ASSERT_EQ(loaded.payloads.size(), 2u);
    EXPECT_EQ(loaded.payloads[0], "kept record");
    EXPECT_EQ(loaded.payloads[1], "after recovery");
}

TEST(JournalWriter, MissingFileLoadsAsEmpty)
{
    const journal_load loaded =
        load_journal("atomic_write_test_no_such_journal.log");
    EXPECT_TRUE(loaded.payloads.empty());
    EXPECT_FALSE(loaded.dropped_tail);
}

// ------------------------------------------- store-level damage cases --

point_result make_result(std::size_t index)
{
    point_result r;
    r.index = index;
    r.key = "fir4/v0/a2m8/s" + std::to_string(10 * index);
    r.lambda = 10 + static_cast<int>(index);
    r.latency = 9 + static_cast<int>(index);
    r.area = 1234.5 + 0.125 * static_cast<double>(index);
    return r;
}

TEST(ResultStoreDamage, PointPayloadRoundTripsExactly)
{
    point_result r = make_result(3);
    r.area = 0.1 + 0.2; // not representable; %.17g must round-trip it
    EXPECT_EQ(parse_point_payload(to_payload(r)), r);

    point_result failed = make_result(4);
    failed.error = "infeasible: lambda below lambda_min";
    EXPECT_EQ(parse_point_payload(to_payload(failed)), failed);
}

TEST(ResultStoreDamage, PointFieldsAreWholeFiniteNumbers)
{
    const std::string tail = " key=k lambda=3 latency=2 area=5 status=ok";
    try {
        static_cast<void>(parse_point_payload("point index=-1" + tail));
        ADD_FAILURE() << "parsed index=-1";
    } catch (const store_format_error& e) {
        EXPECT_STREQ(e.what(), "bad numeric value in 'index=-1'");
    }
    for (const char* area : {"nan", "inf", "1e999", "1e-310"}) {
        EXPECT_THROW(static_cast<void>(parse_point_payload(
                         "point index=1 key=k lambda=3 latency=2 area=" +
                         std::string(area) + " status=ok")),
                     store_format_error)
            << area;
    }
}

TEST(ResultStoreDamage, RecordFieldsSplitOnAnyWhitespace)
{
    // Tabs separate fields like spaces do, so a key cannot hold one;
    // detail= still takes the rest of the payload verbatim.
    const point_result r = parse_point_payload(
        "point\tindex=2\tkey=k lambda=3 latency=2 area=5 status=error "
        "detail=a\tb  c ");
    EXPECT_EQ(r.index, 2u);
    EXPECT_EQ(r.key, "k");
    EXPECT_EQ(r.error, "a\tb  c ");
    EXPECT_THROW(static_cast<void>(parse_point_payload(
                     "point index=2 key=a\tb lambda=3 latency=2 area=5 "
                     "status=ok")),
                 store_format_error);
}

TEST(ResultStoreDamage, PointsBeyondTheHeaderCountAreRejected)
{
    const fs::path dir = scratch("beyond_journal");
    result_store store = result_store::create(dir, "scenario fir4\n",
                                              /*fingerprint=*/0x77,
                                              /*total_points=*/2);
    store.record(make_result(1));
    {
        journal_writer writer(dir / "journal.log",
                              slurp(dir / "journal.log").size());
        writer.append(to_payload(make_result(2)));
    }
    EXPECT_THROW(static_cast<void>(result_store::open(dir, std::nullopt)),
                 store_format_error);

    const fs::path snap = scratch("beyond_snapshot");
    static_cast<void>(result_store::create(snap, "scenario fir4\n", 0x77, 2));
    const std::string header =
        load_journal(snap / "journal.log").payloads.front();
    std::ofstream(snap / "snapshot.log", std::ios::binary)
        << frame_record(header) << frame_record(to_payload(make_result(5)));
    EXPECT_THROW(
        static_cast<void>(result_store::open(snap, std::uint64_t{0x77})),
        store_format_error);
}

TEST(ResultStoreDamage, HeaderNumbersAreWholeTokens)
{
    for (const char* header :
         {"campaign-store format_version=1 fingerprint=0x77 points=1",
          "campaign-store format_version=1 fingerprint=-77 points=1",
          "campaign-store format_version=1 fingerprint=77 points=-1"}) {
        const fs::path dir = scratch("header_tokens");
        atomic_write_file(dir / "spec.campaign", "scenario fir4\n");
        std::ofstream(dir / "journal.log", std::ios::binary)
            << frame_record(header);
        EXPECT_THROW(static_cast<void>(result_store::open(dir, std::nullopt)),
                     store_format_error)
            << header;
    }
}

TEST(ResultStoreDamage, DuplicateRecordsDeduplicateFirstWins)
{
    const fs::path dir = scratch("duplicates");
    // A crash between snapshot replacement and journal reset leaves the
    // same records in both files; fabricate exactly that state.
    result_store store = result_store::create(dir, "scenario fir4\n",
                                              /*fingerprint=*/0x1234,
                                              /*total_points=*/4);
    store.record(make_result(0));
    store.record(make_result(1));
    store.flush_checkpoint(); // snapshot now holds records 0 and 1
    {
        // Re-append record 1 to the (reset) journal behind the store's
        // back, as if the reset had been lost.
        journal_writer writer(dir / "journal.log",
                              slurp(dir / "journal.log").size());
        writer.append(to_payload(make_result(1)));
    }
    const result_store reopened =
        result_store::open(dir, std::uint64_t{0x1234});
    EXPECT_EQ(reopened.results().size(), 2u);
    EXPECT_EQ(reopened.load_stats().duplicates, 1u);
    EXPECT_EQ(reopened.results().at(1), make_result(1));
}

TEST(ResultStoreDamage, TornJournalTailIsDroppedAndTruncatedOnOpen)
{
    const fs::path dir = scratch("torn_tail");
    result_store store = result_store::create(dir, "scenario fir4\n",
                                              /*fingerprint=*/0x5678,
                                              /*total_points=*/4);
    store.record(make_result(0));
    const std::string torn = frame_record(to_payload(make_result(1)));
    {
        std::ofstream out(dir / "journal.log",
                          std::ios::app | std::ios::binary);
        out << torn.substr(0, torn.size() - 3);
    }
    result_store reopened = result_store::open(dir, std::uint64_t{0x5678});
    EXPECT_TRUE(reopened.load_stats().dropped_tail);
    EXPECT_EQ(reopened.results().size(), 1u);
    EXPECT_FALSE(reopened.has(1)); // the torn point re-runs on resume
    // Appending after recovery must leave a clean journal.
    reopened.record(make_result(1));
    const journal_load loaded = load_journal(dir / "journal.log");
    EXPECT_FALSE(loaded.dropped_tail);
    const result_store again = result_store::open(dir, std::uint64_t{0x5678});
    EXPECT_EQ(again.results().size(), 2u);
}

TEST(ResultStoreDamage, EmptyJournalRecoversViaExpectedFingerprint)
{
    const fs::path dir = scratch("empty_journal");
    // Crash after the spec write but before the header append: the
    // journal exists and is empty.
    atomic_write_file(dir / "spec.campaign", "scenario fir4\n");
    { std::ofstream out(dir / "journal.log", std::ios::binary); }
    // Without the spec's fingerprint there is nothing to validate against.
    EXPECT_THROW(static_cast<void>(result_store::open(dir, std::nullopt)),
                 store_format_error);
    result_store store = result_store::open(dir, std::uint64_t{0x9abc});
    EXPECT_TRUE(store.results().empty());
    store.record(make_result(0));
    const result_store reopened =
        result_store::open(dir, std::uint64_t{0x9abc});
    EXPECT_EQ(reopened.results().size(), 1u);
    EXPECT_EQ(reopened.fingerprint(), 0x9abcu);
}

TEST(ResultStoreDamage, CorruptSnapshotIsAHardError)
{
    const fs::path dir = scratch("bad_snapshot");
    result_store store = result_store::create(dir, "scenario fir4\n",
                                              /*fingerprint=*/0xdef0,
                                              /*total_points=*/2);
    store.record(make_result(0));
    store.flush_checkpoint();
    // Snapshots are atomically replaced; a torn one means real corruption.
    std::string snapshot = slurp(dir / "snapshot.log");
    snapshot.resize(snapshot.size() - 4);
    std::ofstream(dir / "snapshot.log", std::ios::binary) << snapshot;
    EXPECT_THROW(
        static_cast<void>(result_store::open(dir, std::uint64_t{0xdef0})),
        store_format_error);
}

TEST(ResultStoreDamage, FingerprintMismatchIsRejected)
{
    const fs::path dir = scratch("fingerprint");
    result_store store = result_store::create(dir, "scenario fir4\n",
                                              /*fingerprint=*/0x1111,
                                              /*total_points=*/2);
    store.record(make_result(0));
    EXPECT_THROW(
        static_cast<void>(result_store::open(dir, std::uint64_t{0x2222})),
        store_format_error);
}

TEST(ResultStoreDamage, CreateRefusesADirectoryThatAlreadyHoldsACampaign)
{
    const fs::path dir = scratch("recreate");
    static_cast<void>(result_store::create(dir, "scenario fir4\n", 0x1, 1));
    EXPECT_THROW(static_cast<void>(
                     result_store::create(dir, "scenario fir4\n", 0x1, 1)),
                 store_format_error);
}

} // namespace
} // namespace mwl
