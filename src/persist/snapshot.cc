#include "persist/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "persist/crash_point.h"
#include "persist/wal.h"  // Crc32c, PutU32/GetU32

namespace ustl {

namespace {

constexpr char kMagic[8] = {'U', 'S', 'T', 'L', 'S', 'N', 'P', '1'};

Status WriteAllFd(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("snapshot write: ") +
                              std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

// fsyncs the directory containing `path` so the rename itself is durable.
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Internal("snapshot dir open '" + dir + "': " +
                            std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::Internal("snapshot dir fsync '" + dir + "': " +
                            std::strerror(err));
  }
  return Status::OK();
}

}  // namespace

Status WriteSnapshotFile(const std::string& path,
                         const std::vector<std::string>& records) {
  std::string body;
  body.append(kMagic, sizeof(kMagic));
  PutU64(&body, records.size());
  for (const std::string& record : records) {
    if (record.size() > 0x7FFFFFFFu) {
      return Status::InvalidArgument("snapshot record too large");
    }
    PutU32(&body, static_cast<uint32_t>(record.size()));
    body.append(record);
  }
  PutU32(&body, Crc32c(body.data(), body.size()));

  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("snapshot open '" + tmp + "': " +
                            std::strerror(errno));
  }
  Status status = WriteAllFd(fd, body);
  if (status.ok() && ::fsync(fd) != 0) {
    status = Status::Internal("snapshot fsync '" + tmp + "': " +
                              std::strerror(errno));
  }
  if (::close(fd) != 0 && status.ok()) {
    status = Status::Internal("snapshot close '" + tmp + "': " +
                              std::strerror(errno));
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }

  if (CrashPoint::Reached(CrashPointKind::kSnapshotTemp)) {
    // Temp file durable, final name untouched: recovery must ignore the
    // orphan temp and use the previous snapshot + full WAL.
    CrashPoint::Kill();
  }

  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return Status::Internal("snapshot rename '" + tmp + "' -> '" + path +
                            "': " + std::strerror(err));
  }
  Status dir_status = SyncParentDir(path);
  if (!dir_status.ok()) return dir_status;

  if (CrashPoint::Reached(CrashPointKind::kSnapshotRename)) {
    // Snapshot published, WAL not yet compacted: recovery replays the new
    // snapshot plus stale WAL records, which must be harmless duplicates.
    CrashPoint::Kill();
  }
  return Status::OK();
}

Status ReadSnapshotFile(const std::string& path,
                        std::vector<std::string>* records) {
  records->clear();
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("snapshot '" + path + "' does not exist");
    }
    return Status::Internal("snapshot open '" + path + "': " +
                            std::strerror(errno));
  }
  std::string contents;
  {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        const int err = errno;
        ::close(fd);
        return Status::Internal("snapshot read '" + path + "': " +
                                std::strerror(err));
      }
      if (n == 0) break;
      contents.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);

  constexpr size_t kMinBytes = sizeof(kMagic) + 8 + 4;  // magic+count+crc
  if (contents.size() < kMinBytes) {
    return Status::Internal("snapshot '" + path + "': truncated header");
  }
  if (std::memcmp(contents.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Internal("snapshot '" + path + "': bad magic");
  }
  const uint32_t stored_crc = GetU32(contents.data() + contents.size() - 4);
  const uint32_t actual_crc = Crc32c(contents.data(), contents.size() - 4);
  if (stored_crc != actual_crc) {
    return Status::Internal("snapshot '" + path + "': checksum mismatch");
  }

  const uint64_t count = GetU64(contents.data() + sizeof(kMagic));
  size_t off = sizeof(kMagic) + 8;
  const size_t end = contents.size() - 4;
  // Bounded decode: every length is validated against the remaining
  // bytes, so a forged count or length cannot over-read or over-allocate.
  if (count > (end - off) / 4) {
    return Status::Internal("snapshot '" + path + "': record count too large");
  }
  records->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    if (end - off < 4) {
      records->clear();
      return Status::Internal("snapshot '" + path + "': truncated record");
    }
    const uint32_t len = GetU32(contents.data() + off);
    off += 4;
    if (end - off < len) {
      records->clear();
      return Status::Internal("snapshot '" + path + "': truncated record");
    }
    records->emplace_back(contents.data() + off, len);
    off += len;
  }
  if (off != end) {
    records->clear();
    return Status::Internal("snapshot '" + path + "': trailing garbage");
  }
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("atomic write open '" + tmp + "': " +
                            std::strerror(errno));
  }
  Status status = WriteAllFd(fd, contents);
  if (status.ok() && ::fsync(fd) != 0) {
    status = Status::Internal("atomic write fsync '" + tmp + "': " +
                              std::strerror(errno));
  }
  if (::close(fd) != 0 && status.ok()) {
    status = Status::Internal("atomic write close '" + tmp + "': " +
                              std::strerror(errno));
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return Status::Internal("atomic write rename '" + tmp + "' -> '" + path +
                            "': " + std::strerror(err));
  }
  return Status::OK();
}

}  // namespace ustl
