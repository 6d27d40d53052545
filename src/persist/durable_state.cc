#include "persist/durable_state.h"

#include <cstdint>
#include <filesystem>
#include <utility>

#include "persist/snapshot.h"

namespace ustl {

namespace {

constexpr uint8_t kTagVerdict = 1;
constexpr uint8_t kTagApproved = 2;

constexpr char kSnapshotFile[] = "snapshot.bin";
constexpr char kWalFile[] = "wal.log";

void PutStr(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// Cursor-style bounded reader: every Get validates the remaining bytes,
// so a corrupt length can never over-read.
struct Reader {
  const char* p;
  size_t left;
  bool ok = true;

  uint8_t U8() {
    if (left < 1) return Fail<uint8_t>();
    const uint8_t v = static_cast<uint8_t>(*p);
    ++p;
    --left;
    return v;
  }
  uint32_t U32() {
    if (left < 4) return Fail<uint32_t>();
    const uint32_t v = GetU32(p);
    p += 4;
    left -= 4;
    return v;
  }
  uint64_t U64() {
    const uint64_t lo = U32();
    const uint64_t hi = U32();
    return lo | (hi << 32);
  }
  std::string Str() {
    const uint32_t len = U32();
    if (!ok || left < len) return Fail<std::string>();
    std::string s(p, len);
    p += len;
    left -= len;
    return s;
  }

  template <typename T>
  T Fail() {
    ok = false;
    left = 0;
    return T{};
  }
};

}  // namespace

std::string EncodeVerdictRecord(const DurableVerdict& verdict) {
  std::string out;
  out.push_back(static_cast<char>(kTagVerdict));
  PutU64(&out, verdict.key.lo);
  PutU64(&out, verdict.key.hi);
  out.push_back(verdict.verdict.approved ? 1 : 0);
  out.push_back(static_cast<char>(verdict.verdict.direction));
  return out;
}

std::string EncodeApprovedRecord(const DurableApproved& approved) {
  std::string out;
  out.push_back(static_cast<char>(kTagApproved));
  PutStr(&out, approved.column);
  PutStr(&out, approved.program);
  out.push_back(static_cast<char>(approved.direction));
  PutU64(&out, approved.rank);
  PutU32(&out, static_cast<uint32_t>(approved.pairs.size()));
  for (const StringPair& pair : approved.pairs) {
    PutStr(&out, pair.lhs);
    PutStr(&out, pair.rhs);
  }
  return out;
}

Status DecodeDurableRecord(std::string_view bytes, OracleDurableState* out) {
  Reader reader{bytes.data(), bytes.size()};
  const uint8_t tag = reader.U8();
  if (!reader.ok) return Status::Internal("durable record: empty");
  switch (tag) {
    case kTagVerdict: {
      DurableVerdict verdict;
      verdict.key.lo = reader.U64();
      verdict.key.hi = reader.U64();
      const uint8_t approved = reader.U8();
      const uint8_t direction = reader.U8();
      if (!reader.ok || reader.left != 0 || approved > 1 || direction > 1) {
        return Status::Internal("durable record: malformed verdict");
      }
      verdict.verdict.approved = approved != 0;
      verdict.verdict.direction = static_cast<ReplaceDirection>(direction);
      out->verdicts.push_back(std::move(verdict));
      return Status::OK();
    }
    case kTagApproved: {
      DurableApproved approved;
      approved.column = reader.Str();
      approved.program = reader.Str();
      const uint8_t direction = reader.U8();
      approved.rank = reader.U64();
      const uint32_t pair_count = reader.U32();
      if (!reader.ok || direction > 1) {
        return Status::Internal("durable record: malformed approved header");
      }
      // Each pair needs >= 8 bytes of length prefixes, which bounds the
      // reserve against a forged count.
      if (pair_count > reader.left / 8) {
        return Status::Internal("durable record: pair count too large");
      }
      approved.direction = static_cast<ReplaceDirection>(direction);
      approved.pairs.reserve(pair_count);
      for (uint32_t i = 0; i < pair_count; ++i) {
        StringPair pair;
        pair.lhs = reader.Str();
        pair.rhs = reader.Str();
        if (!reader.ok) {
          return Status::Internal("durable record: malformed pair");
        }
        approved.pairs.push_back(std::move(pair));
      }
      if (reader.left != 0) {
        return Status::Internal("durable record: trailing bytes");
      }
      out->approved.push_back(std::move(approved));
      return Status::OK();
    }
    default:
      return Status::Internal("durable record: unknown tag " +
                              std::to_string(tag));
  }
}

Result<std::unique_ptr<DurableState>> DurableState::Open(
    const std::string& dir, const Options& options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("persist dir '" + dir + "': " + ec.message());
  }

  std::unique_ptr<DurableState> state(new DurableState());
  state->dir_ = dir;
  state->options_ = options;

  // Snapshot first (if any): the compacted base.
  std::vector<std::string> snapshot_records;
  Status snap_status =
      ReadSnapshotFile(dir + "/" + kSnapshotFile, &snapshot_records);
  if (!snap_status.ok() && snap_status.code() != StatusCode::kNotFound) {
    return snap_status;
  }
  for (const std::string& record : snapshot_records) {
    Status decode_status = DecodeDurableRecord(record, &state->recovered_);
    if (!decode_status.ok()) return decode_status;
  }

  // Then the WAL's durable prefix on top. A torn tail is truncated by
  // Open and reported, not failed; a record that frames+checksums but
  // does not decode is format skew and fails typed.
  WalOptions wal_options;
  wal_options.fsync = options.fsync;
  wal_options.batch_appends = options.batch_appends;
  wal_options.trace = options.trace;
  wal_options.fsync_latency_us = options.fsync_latency_us;
  WalOpenResult wal_result;
  Status wal_status =
      state->wal_.Open(dir + "/" + kWalFile, wal_options, &wal_result);
  if (!wal_status.ok()) return wal_status;
  for (const std::string& record : wal_result.records) {
    Status decode_status = DecodeDurableRecord(record, &state->recovered_);
    if (!decode_status.ok()) return decode_status;
  }

  state->recovered_records_ =
      snapshot_records.size() + wal_result.records.size();
  state->truncated_tail_bytes_ = wal_result.truncated_tail_bytes;
  return state;
}

DurableState::~DurableState() = default;

void DurableState::RecoverInto(OracleBroker* broker) {
  broker->RestoreDurableState(recovered_);
  // Release the recovered copy before traffic starts; the counters keep
  // reporting what was recovered.
  recovered_ = OracleDurableState();
  broker->SetDurabilityListener(this);
}

void DurableState::AppendRecord(const std::string& payload) {
  // Root span on the process-level context (parent 0): one per durable
  // record, wrapping the frame write and any policy-driven fsync (which
  // opens its own root "fsync" span inside).
  ScopedSpan append_span(options_.trace, 0, "wal_append");
  append_span.AddAttr("bytes", static_cast<int64_t>(payload.size()));
  std::lock_guard<std::mutex> lock(mutex_);
  if (!wal_.is_open()) return;
  Status status = wal_.Append(payload);
  if (!status.ok() && deferred_error_.ok()) {
    // Listener path runs under the broker mutex: remember the first
    // failure for Flush instead of throwing into verdict processing. A
    // lost append only weakens warmth, never correctness.
    deferred_error_ = status;
  }
}

void DurableState::OnVerdictCached(const DurableVerdict& verdict) {
  AppendRecord(EncodeVerdictRecord(verdict));
}

void DurableState::OnApprovedRecorded(const DurableApproved& approved) {
  AppendRecord(EncodeApprovedRecord(approved));
}

bool DurableState::ShouldCompact() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return options_.compact_wal_bytes > 0 &&
         wal_.bytes() > options_.compact_wal_bytes;
}

Status DurableState::WriteSnapshot(const OracleDurableState& state) {
  // Compaction = encode + snapshot publish + WAL reset; the snapshot
  // write nests inside so a profile separates serialization from the
  // rename-and-fsync publish.
  ScopedSpan compaction_span(options_.trace, 0, "compaction");
  std::vector<std::string> records;
  records.reserve(state.verdicts.size() + state.approved.size());
  for (const DurableVerdict& verdict : state.verdicts) {
    records.push_back(EncodeVerdictRecord(verdict));
  }
  for (const DurableApproved& approved : state.approved) {
    records.push_back(EncodeApprovedRecord(approved));
  }
  compaction_span.AddAttr("records", static_cast<int64_t>(records.size()));
  std::lock_guard<std::mutex> lock(mutex_);
  ScopedSpan snapshot_span(options_.trace, compaction_span.id(),
                           "snapshot_write");
  Status status = WriteSnapshotFile(dir_ + "/" + kSnapshotFile, records);
  if (!status.ok()) return status;
  snapshot_span.End();
  ++snapshot_writes_;
  if (wal_.is_open()) {
    Status reset_status = wal_.Reset();
    if (!reset_status.ok()) return reset_status;
  }
  return Status::OK();
}

Status DurableState::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!deferred_error_.ok()) return deferred_error_;
  if (!wal_.is_open()) return Status::OK();
  return wal_.Sync();
}

PersistStats DurableState::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  PersistStats stats;
  stats.wal_appends = wal_.appends();
  stats.fsyncs = wal_.fsyncs();
  stats.recovered_records = recovered_records_;
  stats.truncated_tail_bytes = truncated_tail_bytes_;
  stats.snapshot_writes = snapshot_writes_;
  return stats;
}

}  // namespace ustl
