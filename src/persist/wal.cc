#include "persist/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "persist/crash_point.h"

namespace ustl {

namespace {

// CRC32C lookup table (polynomial 0x1EDC6F41, reflected 0x82F63B78),
// generated once at first use.
const std::array<uint32_t, 256>& Crc32cTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

// Loops write(2) until every byte is handed to the kernel.
Status WriteAll(int fd, const char* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("wal write: ") +
                              std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadAll(int fd, std::string* out) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("wal read: ") +
                              std::strerror(errno));
    }
    if (n == 0) return Status::OK();
    out->append(buf, static_cast<size_t>(n));
  }
}

constexpr size_t kFrameHeaderBytes = 8;  // u32 len + u32 crc

}  // namespace

uint32_t Crc32c(const void* data, size_t size) {
  const auto& table = Crc32cTable();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Result<FsyncPolicy> ParseFsyncPolicy(std::string_view name) {
  if (name == "none") return FsyncPolicy::kNone;
  if (name == "batch") return FsyncPolicy::kBatch;
  if (name == "always") return FsyncPolicy::kAlways;
  return Status::InvalidArgument("fsync policy '" + std::string(name) +
                                 "': expected none|batch|always");
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNone:
      return "none";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kAlways:
      return "always";
  }
  return "unknown";
}

Wal::~Wal() { Close(); }

Status Wal::Open(const std::string& path, const WalOptions& options,
                 WalOpenResult* result) {
  if (fd_ >= 0) return Status::FailedPrecondition("wal already open");
  result->records.clear();
  result->truncated_tail_bytes = 0;

  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::Internal("wal open '" + path + "': " +
                            std::strerror(errno));
  }

  std::string contents;
  Status read_status = ReadAll(fd, &contents);
  if (!read_status.ok()) {
    ::close(fd);
    return read_status;
  }

  // Replay intact frames; stop at the first incomplete frame or CRC
  // mismatch and truncate the file there. Everything before the tear is
  // the durable prefix.
  size_t good = 0;
  while (contents.size() - good >= kFrameHeaderBytes) {
    const uint32_t len = GetU32(contents.data() + good);
    const uint32_t crc = GetU32(contents.data() + good + 4);
    if (contents.size() - good - kFrameHeaderBytes < len) break;
    const char* payload = contents.data() + good + kFrameHeaderBytes;
    if (Crc32c(payload, len) != crc) break;
    result->records.emplace_back(payload, len);
    good += kFrameHeaderBytes + len;
  }
  if (good < contents.size()) {
    result->truncated_tail_bytes = contents.size() - good;
    if (::ftruncate(fd, static_cast<off_t>(good)) != 0) {
      const int err = errno;
      ::close(fd);
      return Status::Internal("wal truncate '" + path + "': " +
                              std::strerror(err));
    }
    if (::fsync(fd) != 0) {
      const int err = errno;
      ::close(fd);
      return Status::Internal("wal fsync '" + path + "': " +
                              std::strerror(err));
    }
  }
  if (::lseek(fd, static_cast<off_t>(good), SEEK_SET) < 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal("wal seek '" + path + "': " +
                            std::strerror(err));
  }

  fd_ = fd;
  path_ = path;
  options_ = options;
  bytes_ = good;
  appends_ = 0;
  fsyncs_ = 0;
  unsynced_appends_ = 0;
  return Status::OK();
}

Status Wal::Append(std::string_view payload) {
  if (fd_ < 0) return Status::FailedPrecondition("wal not open");
  if (payload.size() > 0x7FFFFFFFu) {
    return Status::InvalidArgument("wal record too large");
  }
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32c(payload));
  frame.append(payload.data(), payload.size());

  if (CrashPoint::Reached(CrashPointKind::kWalMidRecord)) {
    // Simulate a torn write: hand the kernel only a prefix of the frame
    // (header plus half the payload), then die without unwinding. The
    // restarted process must truncate this tear.
    const size_t torn = kFrameHeaderBytes + payload.size() / 2;
    (void)WriteAll(fd_, frame.data(), torn);
    CrashPoint::Kill();
  }

  Status write_status = WriteAll(fd_, frame.data(), frame.size());
  if (!write_status.ok()) return write_status;
  bytes_ += frame.size();
  ++appends_;
  ++unsynced_appends_;

  if (options_.fsync == FsyncPolicy::kAlways ||
      (options_.fsync == FsyncPolicy::kBatch && options_.batch_appends > 0 &&
       unsynced_appends_ >= options_.batch_appends)) {
    Status sync_status = SyncNow();
    if (!sync_status.ok()) return sync_status;
  }

  if (CrashPoint::Reached(CrashPointKind::kWalAppend)) {
    // Record boundary: the full frame reached the kernel (and, under
    // kAlways, the platter). Recovery must replay it.
    CrashPoint::Kill();
  }
  return Status::OK();
}

Status Wal::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("wal not open");
  if (unsynced_appends_ == 0) return Status::OK();
  return SyncNow();
}

Status Wal::SyncNow() {
  ScopedSpan fsync_span(options_.trace, 0, "fsync");
  SteadyClock::time_point start;
  if (options_.fsync_latency_us != nullptr) start = SteadyNow();
  if (::fsync(fd_) != 0) {
    return Status::Internal("wal fsync '" + path_ + "': " +
                            std::strerror(errno));
  }
  if (options_.fsync_latency_us != nullptr) {
    options_.fsync_latency_us->Observe(MicrosSince(start));
  }
  ++fsyncs_;
  unsynced_appends_ = 0;
  return Status::OK();
}

Status Wal::Reset() {
  if (fd_ < 0) return Status::FailedPrecondition("wal not open");
  if (::ftruncate(fd_, 0) != 0) {
    return Status::Internal("wal truncate '" + path_ + "': " +
                            std::strerror(errno));
  }
  if (::lseek(fd_, 0, SEEK_SET) < 0) {
    return Status::Internal("wal seek '" + path_ + "': " +
                            std::strerror(errno));
  }
  bytes_ = 0;
  unsynced_appends_ = 0;
  if (options_.fsync != FsyncPolicy::kNone) {
    Status sync_status = SyncNow();
    if (!sync_status.ok()) return sync_status;
  }
  return Status::OK();
}

Status Wal::Close() {
  if (fd_ < 0) return Status::OK();
  Status status = Status::OK();
  if (options_.fsync != FsyncPolicy::kNone && unsynced_appends_ > 0) {
    status = SyncNow();
  }
  if (::close(fd_) != 0 && status.ok()) {
    status = Status::Internal("wal close '" + path_ + "': " +
                              std::strerror(errno));
  }
  fd_ = -1;
  return status;
}

}  // namespace ustl
