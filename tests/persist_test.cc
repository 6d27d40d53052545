// Tests for src/persist: the checksummed WAL, atomic snapshots, the
// durable-record codec and the DurableState recovery path (ISSUE 9).
// The core invariant under test is durable-prefix semantics: whatever a
// crash, truncation or bit flip leaves on disk, recovery yields a
// byte-exact prefix of what was appended (WAL) or a typed error
// (snapshot) — never a crash, a hang, or a silently different record.
// The serving-level kill tests (SIGKILL at armed crash points through
// ustl-serve) live in tools/check.sh; this file pins the layers below.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "consolidate/oracle.h"
#include "persist/crash_point.h"
#include "persist/durable_state.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "pipeline/oracle_broker.h"

namespace ustl {
namespace {

namespace fs = std::filesystem;

// Fresh per-test scratch directory, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("ustl_persist_" + tag + "_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

// Payloads with embedded NULs, high bytes and a size spread around the
// frame-header boundary.
std::vector<std::string> FuzzishPayloads() {
  std::vector<std::string> payloads;
  payloads.push_back("");
  payloads.push_back(std::string(1, '\0'));
  payloads.push_back("plain ascii record");
  payloads.push_back(std::string("\x00\xFF\x7F\x80 embedded", 13));
  payloads.push_back(std::string(300, 'x'));
  std::string binary;
  for (int i = 0; i < 256; ++i) binary.push_back(static_cast<char>(i));
  payloads.push_back(binary);
  return payloads;
}

TEST(Crc32cTest, MatchesReferenceVector) {
  // RFC 3720 test vector for CRC32C.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  // Any single-bit difference must change the checksum.
  EXPECT_NE(Crc32c("123456789"), Crc32c("123456788"));
  EXPECT_NE(Crc32c(std::string(1, '\0')), Crc32c(""));
}

TEST(FsyncPolicyTest, ParsesNamesAndRejectsGarbage) {
  EXPECT_EQ(ParseFsyncPolicy("none").value(), FsyncPolicy::kNone);
  EXPECT_EQ(ParseFsyncPolicy("batch").value(), FsyncPolicy::kBatch);
  EXPECT_EQ(ParseFsyncPolicy("always").value(), FsyncPolicy::kAlways);
  EXPECT_FALSE(ParseFsyncPolicy("").ok());
  EXPECT_FALSE(ParseFsyncPolicy("Batch").ok());
  EXPECT_FALSE(ParseFsyncPolicy("fsync").ok());
  for (FsyncPolicy policy :
       {FsyncPolicy::kNone, FsyncPolicy::kBatch, FsyncPolicy::kAlways}) {
    EXPECT_EQ(ParseFsyncPolicy(FsyncPolicyName(policy)).value(), policy);
  }
}

TEST(WalTest, RoundTripAcrossReopen) {
  ScratchDir dir("wal_roundtrip");
  const std::vector<std::string> payloads = FuzzishPayloads();
  for (FsyncPolicy policy :
       {FsyncPolicy::kNone, FsyncPolicy::kBatch, FsyncPolicy::kAlways}) {
    const std::string path = dir.file(std::string("wal_") +
                                      FsyncPolicyName(policy));
    WalOptions options;
    options.fsync = policy;
    options.batch_appends = 2;
    {
      Wal wal;
      WalOpenResult result;
      ASSERT_TRUE(wal.Open(path, options, &result).ok());
      EXPECT_TRUE(result.records.empty());
      for (const std::string& payload : payloads) {
        ASSERT_TRUE(wal.Append(payload).ok());
      }
      EXPECT_EQ(wal.appends(), payloads.size());
      ASSERT_TRUE(wal.Close().ok());
    }
    Wal wal;
    WalOpenResult result;
    ASSERT_TRUE(wal.Open(path, options, &result).ok());
    EXPECT_EQ(result.records, payloads);
    EXPECT_EQ(result.truncated_tail_bytes, 0u);
    // The reopened log appends at the tail, not over it.
    ASSERT_TRUE(wal.Append("after reopen").ok());
    ASSERT_TRUE(wal.Close().ok());
    WalOpenResult again;
    Wal wal2;
    ASSERT_TRUE(wal2.Open(path, options, &again).ok());
    ASSERT_EQ(again.records.size(), payloads.size() + 1);
    EXPECT_EQ(again.records.back(), "after reopen");
  }
}

TEST(WalTest, ResetEmptiesTheLog) {
  ScratchDir dir("wal_reset");
  Wal wal;
  WalOpenResult result;
  ASSERT_TRUE(wal.Open(dir.file("wal.log"), WalOptions(), &result).ok());
  ASSERT_TRUE(wal.Append("doomed").ok());
  EXPECT_GT(wal.bytes(), 0u);
  ASSERT_TRUE(wal.Reset().ok());
  EXPECT_EQ(wal.bytes(), 0u);
  ASSERT_TRUE(wal.Append("survivor").ok());
  ASSERT_TRUE(wal.Close().ok());
  Wal reopened;
  WalOpenResult after;
  ASSERT_TRUE(reopened.Open(dir.file("wal.log"), WalOptions(), &after).ok());
  EXPECT_EQ(after.records, std::vector<std::string>{"survivor"});
}

// The kill-test invariant at byte granularity: truncate a clean log at
// EVERY possible length and recovery must yield exactly the records whose
// frames fit, report the torn remainder, and leave the file appendable.
TEST(WalTest, TruncationSweepRecoversDurablePrefix) {
  ScratchDir dir("wal_trunc");
  const std::vector<std::string> payloads = FuzzishPayloads();
  const std::string clean_path = dir.file("clean.log");
  std::vector<uint64_t> frame_ends;  // cumulative byte offset per record
  {
    Wal wal;
    WalOpenResult result;
    ASSERT_TRUE(wal.Open(clean_path, WalOptions(), &result).ok());
    for (const std::string& payload : payloads) {
      ASSERT_TRUE(wal.Append(payload).ok());
      frame_ends.push_back(wal.bytes());
    }
    ASSERT_TRUE(wal.Close().ok());
  }
  const std::string clean = ReadFile(clean_path);
  ASSERT_EQ(clean.size(), frame_ends.back());

  for (size_t cut = 0; cut <= clean.size(); ++cut) {
    const std::string path = dir.file("cut.log");
    WriteFile(path, clean.substr(0, cut));
    Wal wal;
    WalOpenResult result;
    ASSERT_TRUE(wal.Open(path, WalOptions(), &result).ok()) << "cut=" << cut;
    // Durable prefix: every record whose frame ends at or before the cut.
    size_t expect = 0;
    while (expect < frame_ends.size() && frame_ends[expect] <= cut) ++expect;
    ASSERT_EQ(result.records.size(), expect) << "cut=" << cut;
    for (size_t i = 0; i < expect; ++i) {
      EXPECT_EQ(result.records[i], payloads[i]) << "cut=" << cut;
    }
    const uint64_t durable = expect == 0 ? 0 : frame_ends[expect - 1];
    EXPECT_EQ(result.truncated_tail_bytes, cut - durable) << "cut=" << cut;
    // The torn tail is gone from disk and the log accepts new records.
    ASSERT_TRUE(wal.Append("appended after tear").ok());
    ASSERT_TRUE(wal.Close().ok());
    Wal reopened;
    WalOpenResult after;
    ASSERT_TRUE(reopened.Open(path, WalOptions(), &after).ok());
    ASSERT_EQ(after.records.size(), expect + 1);
    EXPECT_EQ(after.records.back(), "appended after tear");
  }
}

// Seeded bit-flip fuzz: whatever single bit rots, recovery returns some
// byte-exact prefix of the original records — never a mutated record,
// never a crash. (A flip inside a payload is caught by that frame's CRC;
// a flip inside a header derails framing; both truncate from there.)
TEST(WalTest, BitFlipFuzzNeverYieldsACorruptRecord) {
  ScratchDir dir("wal_flip");
  const std::vector<std::string> payloads = FuzzishPayloads();
  const std::string clean_path = dir.file("clean.log");
  {
    Wal wal;
    WalOpenResult result;
    ASSERT_TRUE(wal.Open(clean_path, WalOptions(), &result).ok());
    for (const std::string& payload : payloads) {
      ASSERT_TRUE(wal.Append(payload).ok());
    }
    ASSERT_TRUE(wal.Close().ok());
  }
  const std::string clean = ReadFile(clean_path);
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<size_t> pick_byte(0, clean.size() - 1);
  std::uniform_int_distribution<int> pick_bit(0, 7);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = clean;
    const size_t byte = pick_byte(rng);
    mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << pick_bit(rng)));
    const std::string path = dir.file("flip.log");
    WriteFile(path, mutated);
    Wal wal;
    WalOpenResult result;
    Status status = wal.Open(path, WalOptions(), &result);
    ASSERT_TRUE(status.ok()) << "trial " << trial << " byte " << byte;
    ASSERT_LE(result.records.size(), payloads.size());
    for (size_t i = 0; i < result.records.size(); ++i) {
      // Prefix records must be byte-exact — a flip can shorten the
      // recovery, never silently alter it. (A flip at or past the cut
      // cannot touch earlier frames.)
      EXPECT_EQ(result.records[i], payloads[i])
          << "trial " << trial << " byte " << byte << " record " << i;
    }
    (void)wal.Close();
  }
}

TEST(SnapshotTest, RoundTripAndMissingFileIsNotFound) {
  ScratchDir dir("snap_roundtrip");
  std::vector<std::string> records;
  Status missing = ReadSnapshotFile(dir.file("absent.bin"), &records);
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);

  const std::vector<std::string> payloads = FuzzishPayloads();
  const std::string path = dir.file("snap.bin");
  ASSERT_TRUE(WriteSnapshotFile(path, payloads).ok());
  ASSERT_TRUE(ReadSnapshotFile(path, &records).ok());
  EXPECT_EQ(records, payloads);
  // No stray temp file left behind after the atomic publish.
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // Overwrite with different content: readers see old xor new, and here
  // (no crash) strictly the new.
  ASSERT_TRUE(WriteSnapshotFile(path, {"only record"}).ok());
  ASSERT_TRUE(ReadSnapshotFile(path, &records).ok());
  EXPECT_EQ(records, std::vector<std::string>{"only record"});

  ASSERT_TRUE(WriteSnapshotFile(path, {}).ok());
  ASSERT_TRUE(ReadSnapshotFile(path, &records).ok());
  EXPECT_TRUE(records.empty());
}

// Every single-bit flip anywhere in a snapshot is covered by the trailing
// CRC (or breaks framing first): the reader must return a typed error and
// an empty result, never a crash and never partial records.
TEST(SnapshotTest, BitFlipFuzzAlwaysYieldsTypedError) {
  ScratchDir dir("snap_flip");
  const std::string path = dir.file("snap.bin");
  ASSERT_TRUE(WriteSnapshotFile(path, FuzzishPayloads()).ok());
  const std::string clean = ReadFile(path);
  std::mt19937 rng(20260809);
  std::uniform_int_distribution<size_t> pick_byte(0, clean.size() - 1);
  std::uniform_int_distribution<int> pick_bit(0, 7);
  const std::string mutated_path = dir.file("mutated.bin");
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = clean;
    const size_t byte = pick_byte(rng);
    mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << pick_bit(rng)));
    WriteFile(mutated_path, mutated);
    std::vector<std::string> records = {"stale sentinel"};
    Status status = ReadSnapshotFile(mutated_path, &records);
    EXPECT_FALSE(status.ok()) << "trial " << trial << " byte " << byte;
    EXPECT_TRUE(records.empty()) << "trial " << trial << " byte " << byte;
  }
}

TEST(SnapshotTest, TruncationSweepAlwaysYieldsTypedError) {
  ScratchDir dir("snap_trunc");
  const std::string path = dir.file("snap.bin");
  ASSERT_TRUE(WriteSnapshotFile(path, FuzzishPayloads()).ok());
  const std::string clean = ReadFile(path);
  const std::string cut_path = dir.file("cut.bin");
  for (size_t cut = 0; cut < clean.size(); ++cut) {
    WriteFile(cut_path, clean.substr(0, cut));
    std::vector<std::string> records;
    Status status = ReadSnapshotFile(cut_path, &records);
    EXPECT_FALSE(status.ok()) << "cut=" << cut;
    EXPECT_TRUE(records.empty()) << "cut=" << cut;
  }
  // Trailing garbage after a valid snapshot is corruption too.
  WriteFile(cut_path, clean + "garbage");
  std::vector<std::string> records;
  EXPECT_FALSE(ReadSnapshotFile(cut_path, &records).ok());
}

TEST(SnapshotTest, WriteFileAtomicPublishesExactBytes) {
  ScratchDir dir("atomic_write");
  const std::string path = dir.file("out.txt");
  const std::string contents("line one\nbinary \x00\xFF tail", 24);
  ASSERT_TRUE(WriteFileAtomic(path, contents).ok());
  EXPECT_EQ(ReadFile(path), contents);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  ASSERT_TRUE(WriteFileAtomic(path, "replaced").ok());
  EXPECT_EQ(ReadFile(path), "replaced");
}

DurableVerdict SampleVerdict(uint64_t seed, bool approved) {
  DurableVerdict verdict;
  verdict.key.lo = seed * 0x9E3779B97F4A7C15ull;
  verdict.key.hi = ~seed;
  verdict.verdict.approved = approved;
  verdict.verdict.direction =
      approved ? ReplaceDirection::kRhsToLhs : ReplaceDirection::kLhsToRhs;
  return verdict;
}

DurableApproved SampleApproved() {
  DurableApproved approved;
  approved.column = "street \xC3\xA9";  // non-ASCII column name
  approved.program = std::string("sub(\"St\x00\", \"Street\")", 21);
  approved.direction = ReplaceDirection::kRhsToLhs;
  approved.rank = 3;
  approved.pairs = {{"Oak Street", "Oak St"}, {"", "empty lhs ok"}};
  return approved;
}

TEST(DurableRecordCodecTest, VerdictRoundTrip) {
  for (bool approved : {true, false}) {
    const DurableVerdict original = SampleVerdict(7, approved);
    OracleDurableState state;
    ASSERT_TRUE(DecodeDurableRecord(EncodeVerdictRecord(original), &state).ok());
    ASSERT_EQ(state.verdicts.size(), 1u);
    ASSERT_TRUE(state.approved.empty());
    EXPECT_EQ(state.verdicts[0].key.lo, original.key.lo);
    EXPECT_EQ(state.verdicts[0].key.hi, original.key.hi);
    EXPECT_EQ(state.verdicts[0].verdict.approved, original.verdict.approved);
    EXPECT_EQ(state.verdicts[0].verdict.direction,
              original.verdict.direction);
  }
}

TEST(DurableRecordCodecTest, ApprovedRoundTrip) {
  const DurableApproved original = SampleApproved();
  OracleDurableState state;
  ASSERT_TRUE(DecodeDurableRecord(EncodeApprovedRecord(original), &state).ok());
  ASSERT_EQ(state.approved.size(), 1u);
  const DurableApproved& decoded = state.approved[0];
  EXPECT_EQ(decoded.column, original.column);
  EXPECT_EQ(decoded.program, original.program);
  EXPECT_EQ(decoded.direction, original.direction);
  EXPECT_EQ(decoded.rank, original.rank);
  EXPECT_EQ(decoded.pairs, original.pairs);
}

TEST(DurableRecordCodecTest, RejectsMalformedRecords) {
  OracleDurableState state;
  EXPECT_FALSE(DecodeDurableRecord("", &state).ok());
  EXPECT_FALSE(DecodeDurableRecord("\x03junk tag", &state).ok());
  // Verdict with trailing bytes.
  std::string verdict = EncodeVerdictRecord(SampleVerdict(1, true));
  EXPECT_FALSE(DecodeDurableRecord(verdict + "x", &state).ok());
  // Verdict truncated anywhere.
  for (size_t cut = 0; cut < verdict.size(); ++cut) {
    EXPECT_FALSE(
        DecodeDurableRecord(std::string_view(verdict).substr(0, cut), &state)
            .ok())
        << "cut=" << cut;
  }
  // Approved truncated anywhere.
  std::string approved = EncodeApprovedRecord(SampleApproved());
  for (size_t cut = 0; cut < approved.size(); ++cut) {
    EXPECT_FALSE(
        DecodeDurableRecord(std::string_view(approved).substr(0, cut), &state)
            .ok())
        << "cut=" << cut;
  }
  EXPECT_TRUE(state.verdicts.empty());
  EXPECT_TRUE(state.approved.empty());
}

// Random bytes and randomly mutated valid records: the decoder must
// always return (a typed Status), never crash, hang or over-read. This is
// the "frames and checksums but does not decode" layer — the WAL CRC
// guards integrity, the codec guards structure.
TEST(DurableRecordCodecTest, DecodeFuzzNeverCrashes) {
  std::mt19937 rng(424242);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  const std::string approved = EncodeApprovedRecord(SampleApproved());
  for (int trial = 0; trial < 500; ++trial) {
    std::string bytes;
    if (trial % 2 == 0) {
      std::uniform_int_distribution<size_t> len_dist(0, 64);
      const size_t len = len_dist(rng);
      for (size_t i = 0; i < len; ++i) {
        bytes.push_back(static_cast<char>(byte_dist(rng)));
      }
    } else {
      bytes = approved;
      std::uniform_int_distribution<size_t> pos_dist(0, bytes.size() - 1);
      bytes[pos_dist(rng)] = static_cast<char>(byte_dist(rng));
    }
    OracleDurableState state;
    (void)DecodeDurableRecord(bytes, &state);  // must simply return
  }
}

TEST(CrashPointTest, ArmFromSpecParsesAndCountsDown) {
  EXPECT_TRUE(CrashPoint::ArmFromSpec("").ok());  // empty disarms
  EXPECT_FALSE(CrashPoint::ArmFromSpec("wal_append").ok());
  EXPECT_FALSE(CrashPoint::ArmFromSpec("wal_append:0").ok());
  EXPECT_FALSE(CrashPoint::ArmFromSpec("wal_append:x").ok());
  EXPECT_FALSE(CrashPoint::ArmFromSpec("unknown_kind:3").ok());

  ASSERT_TRUE(CrashPoint::ArmFromSpec("wal_append:3").ok());
  // Other kinds never trip a wal_append arming.
  EXPECT_FALSE(CrashPoint::Reached(CrashPointKind::kSnapshotTemp));
  EXPECT_FALSE(CrashPoint::Reached(CrashPointKind::kWalAppend));  // hit 1
  EXPECT_FALSE(CrashPoint::Reached(CrashPointKind::kWalAppend));  // hit 2
  EXPECT_TRUE(CrashPoint::Reached(CrashPointKind::kWalAppend));   // hit 3
  CrashPoint::Disarm();
  EXPECT_FALSE(CrashPoint::Reached(CrashPointKind::kWalAppend));
}

// Counts backend calls; approves everything (the broker serializes, so a
// plain counter is enough).
class CountingOracle : public VerificationOracle {
 public:
  Verdict Verify(const std::vector<StringPair>& group_pairs) override {
    (void)group_pairs;
    ++calls_;
    Verdict verdict;
    verdict.approved = true;
    verdict.direction = ReplaceDirection::kLhsToRhs;
    return verdict;
  }
  size_t calls() const { return calls_; }

 private:
  size_t calls_ = 0;
};

std::vector<StringPair> Question(int i) {
  const std::string n = "Oak" + std::to_string(i);
  return {{n + " Street", n + " St"}};
}

// One program per question index (the approved log is keyed by program,
// so shared programs would collapse into one entry); the referenced
// string must outlive the string_view in the context.
const std::string& Program(int i) {
  static std::vector<std::string>* programs = new std::vector<std::string>();
  while (static_cast<int>(programs->size()) <= i) {
    programs->push_back("replace(\"Street" + std::to_string(programs->size()) +
                        "\", \"St\")");
  }
  return (*programs)[i];
}

QuestionContext Context(int i) {
  QuestionContext context;
  context.column = "street";
  context.program = Program(i);
  context.presented = 1;
  return context;
}

// End-to-end durability: a broker's verdicts + approved log written
// through the listener survive a DurableState reopen, seed a fresh
// broker, and make the warm broker answer the same questions with ZERO
// backend calls and an identical exported state.
TEST(DurableStateTest, WarmBrokerRecoversStateAndSkipsBackend) {
  ScratchDir dir("durable_e2e");
  constexpr int kQuestions = 8;
  OracleDurableState cold_exported;
  {
    auto opened = DurableState::Open(dir.path(), DurableState::Options());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<DurableState> persist = std::move(opened).value();
    EXPECT_EQ(persist->stats().recovered_records, 0u);
    CountingOracle backend;
    OracleBroker broker(&backend);
    persist->RecoverInto(&broker);
    for (int i = 0; i < kQuestions; ++i) {
      Verdict verdict = broker.VerifyWithContext(Question(i), Context(i));
      EXPECT_TRUE(verdict.approved);
    }
    EXPECT_EQ(backend.calls(), static_cast<size_t>(kQuestions));
    EXPECT_EQ(persist->stats().wal_appends,
              static_cast<uint64_t>(2 * kQuestions));  // verdict + approved
    ASSERT_TRUE(persist->Flush().ok());
    cold_exported = broker.ExportDurableState();
    broker.SetDurabilityListener(nullptr);
  }

  auto reopened = DurableState::Open(dir.path(), DurableState::Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::unique_ptr<DurableState> persist = std::move(reopened).value();
  EXPECT_EQ(persist->stats().recovered_records,
            static_cast<uint64_t>(2 * kQuestions));
  EXPECT_EQ(persist->stats().truncated_tail_bytes, 0u);
  CountingOracle backend;
  OracleBroker broker(&backend);
  persist->RecoverInto(&broker);
  for (int i = 0; i < kQuestions; ++i) {
    Verdict verdict = broker.VerifyWithContext(Question(i), Context(i));
    EXPECT_TRUE(verdict.approved);
  }
  // Warm: every verdict served from the recovered cache.
  EXPECT_EQ(backend.calls(), 0u);
  EXPECT_EQ(broker.stats().cache_hits, static_cast<size_t>(kQuestions));
  // Replaying the recovered state reproduced the cold session exactly.
  const OracleDurableState warm_exported = broker.ExportDurableState();
  ASSERT_EQ(warm_exported.verdicts.size(), cold_exported.verdicts.size());
  ASSERT_EQ(warm_exported.approved.size(), cold_exported.approved.size());
  for (size_t i = 0; i < cold_exported.verdicts.size(); ++i) {
    EXPECT_EQ(EncodeVerdictRecord(warm_exported.verdicts[i]),
              EncodeVerdictRecord(cold_exported.verdicts[i]));
  }
  for (size_t i = 0; i < cold_exported.approved.size(); ++i) {
    EXPECT_EQ(EncodeApprovedRecord(warm_exported.approved[i]),
              EncodeApprovedRecord(cold_exported.approved[i]));
  }
  // Recovery itself must not have re-logged the recovered records.
  EXPECT_EQ(persist->stats().wal_appends, 0u);
  broker.SetDurabilityListener(nullptr);
}

// Compaction: snapshot the exported state, reset the WAL, reopen — the
// snapshot alone carries the state, and a stale-WAL replay on top (the
// crash-between-rename-and-reset window) is an idempotent no-op.
TEST(DurableStateTest, CompactionSnapshotsAndReopens) {
  ScratchDir dir("durable_compact");
  DurableState::Options options;
  options.compact_wal_bytes = 64;  // tiny: compact almost immediately
  {
    auto opened = DurableState::Open(dir.path(), options);
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<DurableState> persist = std::move(opened).value();
    CountingOracle backend;
    OracleBroker broker(&backend);
    persist->RecoverInto(&broker);
    for (int i = 0; i < 6; ++i) {
      (void)broker.VerifyWithContext(Question(i), Context(i));
    }
    EXPECT_TRUE(persist->ShouldCompact());
    ASSERT_TRUE(persist->WriteSnapshot(broker.ExportDurableState()).ok());
    EXPECT_FALSE(persist->ShouldCompact());  // WAL was reset
    EXPECT_EQ(persist->stats().snapshot_writes, 1u);
    broker.SetDurabilityListener(nullptr);
  }
  ASSERT_TRUE(fs::exists(dir.file("snapshot.bin")));

  auto reopened = DurableState::Open(dir.path(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::unique_ptr<DurableState> persist = std::move(reopened).value();
  EXPECT_EQ(persist->stats().recovered_records, 12u);  // 6 verdicts + 6 log
  CountingOracle backend;
  OracleBroker broker(&backend);
  persist->RecoverInto(&broker);
  for (int i = 0; i < 6; ++i) {
    (void)broker.VerifyWithContext(Question(i), Context(i));
  }
  EXPECT_EQ(backend.calls(), 0u);
  broker.SetDurabilityListener(nullptr);
}

// A WAL record that frames and checksums correctly but does not decode is
// format skew, not a torn tail: Open must fail typed, not truncate.
TEST(DurableStateTest, UndecodableWalRecordFailsTyped) {
  ScratchDir dir("durable_skew");
  {
    Wal wal;
    WalOpenResult result;
    ASSERT_TRUE(wal.Open(dir.file("wal.log"), WalOptions(), &result).ok());
    ASSERT_TRUE(wal.Append("\x09not a durable record").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  auto opened = DurableState::Open(dir.path(), DurableState::Options());
  EXPECT_FALSE(opened.ok());
}

TEST(DurableStateTest, CorruptSnapshotFailsTyped) {
  ScratchDir dir("durable_badsnap");
  WriteFile(dir.file("snapshot.bin"), "USTLSNP1 but then nonsense");
  auto opened = DurableState::Open(dir.path(), DurableState::Options());
  EXPECT_FALSE(opened.ok());
}

}  // namespace
}  // namespace ustl
