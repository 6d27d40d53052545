// Append-only write-ahead log with checksummed, length-prefixed records
// and torn-tail truncation on open (ISSUE 9 tentpole).
//
// On-disk framing, little-endian:
//
//   [u32 payload_len][u32 crc32c(payload)][payload bytes]
//
// repeated back to back. The only failure a single-writer WAL on a local
// filesystem has to survive is a torn tail — the process died partway
// through handing a record to write(2) — so recovery is: scan records
// until the first incomplete frame or CRC mismatch, truncate the file
// there, and report everything before it as the durable prefix. A
// mismatch mid-file (bit rot, hand-edited file) also truncates from that
// point: durable-prefix semantics, never a partial or reordered replay.
//
// Durability is tunable per deployment via FsyncPolicy:
//   kNone    — never fsync; crash loses page-cache tail (fastest).
//   kBatch   — fsync every `batch_appends` records and on Sync()/close.
//   kAlways  — fsync after every append (slowest, loses nothing).
// Since every WAL record here is a replayable pure function of question
// content, a lost tail only costs re-asked oracle questions, never
// wrong answers — which is why kBatch is the serving default.
#ifndef USTL_PERSIST_WAL_H_
#define USTL_PERSIST_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ustl {

/// CRC32C (Castagnoli), table-driven software implementation. Test
/// vector: Crc32c("123456789") == 0xE3069283.
uint32_t Crc32c(const void* data, size_t size);
inline uint32_t Crc32c(std::string_view s) { return Crc32c(s.data(), s.size()); }

/// Little-endian fixed-width integers, the one byte order of every WAL,
/// snapshot and durable-record field. GetU32/GetU64 read exactly 4/8
/// bytes at `p`; callers check the bounds.
inline void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}
inline void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}
inline uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}
inline uint64_t GetU64(const char* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

enum class FsyncPolicy : uint8_t { kNone, kBatch, kAlways };

/// Parses "none" | "batch" | "always".
Result<FsyncPolicy> ParseFsyncPolicy(std::string_view name);
const char* FsyncPolicyName(FsyncPolicy policy);

struct WalOptions {
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  /// Under kBatch: fsync once every this many appends (and on Sync()).
  uint64_t batch_appends = 32;
  /// Borrowed process-level trace context (obs/trace.h): each fsync
  /// opens a root "fsync" span, so durability stalls show up in profiles
  /// and flight-recorder dumps. Null = no spans (the default; tests and
  /// standalone WAL users stay observability-free).
  TraceContext* trace = nullptr;
  /// Borrowed latency histogram: every fsync's wall time lands here
  /// (the ustl_persist_fsync_latency_us satellite). Null = not recorded.
  Histogram* fsync_latency_us = nullptr;
};

/// What Wal::Open recovered from an existing log file.
struct WalOpenResult {
  /// Payloads of every intact record, in append order.
  std::vector<std::string> records;
  /// Bytes dropped from the tail (0 for a clean file). Nonzero after a
  /// torn write — expected, not an error.
  uint64_t truncated_tail_bytes = 0;
};

class Wal {
 public:
  Wal() = default;
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Opens (creating if absent) the log at `path`, replays intact records
  /// into `*result`, truncates any torn tail, and leaves the file open
  /// for appending. Not thread-safe against concurrent Open on the same
  /// path — the WAL is single-writer by design.
  Status Open(const std::string& path, const WalOptions& options,
              WalOpenResult* result);

  /// Appends one framed record. The frame is handed to write(2) as a
  /// single buffer; fsync per the policy. Carries the kWalAppend /
  /// kWalMidRecord crash points.
  Status Append(std::string_view payload);

  /// Forces an fsync now if any append happened since the last sync,
  /// regardless of policy.
  Status Sync();

  /// Truncates the log to empty and fsyncs — called after a snapshot has
  /// durably landed, making every logged record redundant.
  Status Reset();

  /// Closes the file (syncing first under kBatch/kAlways). Idempotent.
  Status Close();

  bool is_open() const { return fd_ >= 0; }
  /// Current log size in bytes (frames included).
  uint64_t bytes() const { return bytes_; }
  uint64_t appends() const { return appends_; }
  uint64_t fsyncs() const { return fsyncs_; }

 private:
  Status SyncNow();

  int fd_ = -1;
  std::string path_;
  WalOptions options_;
  uint64_t bytes_ = 0;
  uint64_t appends_ = 0;
  uint64_t fsyncs_ = 0;
  uint64_t unsynced_appends_ = 0;
};

}  // namespace ustl

#endif  // USTL_PERSIST_WAL_H_
