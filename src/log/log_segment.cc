#include "log/log_segment.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/failpoint.h"

namespace mvstore {
namespace logseg {

std::string SegmentPath(const std::string& prefix, uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), ".%08llu.seg",
                static_cast<unsigned long long>(seq));
  return prefix + buf;
}

std::vector<SegmentFile> ListSegments(const std::string& prefix) {
  namespace fs = std::filesystem;
  std::vector<SegmentFile> segments;
  fs::path p(prefix);
  fs::path dir = p.has_parent_path() ? p.parent_path() : fs::path(".");
  std::string base = p.filename().string() + ".";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    // base + digits + ".seg". SegmentPath zero-pads to 8 digits but %08llu
    // widens past 10^8 rotations, so accept any run of >= 8 digits — the
    // lister must recognize everything the writer can emit.
    if (name.size() < base.size() + 12 || name.rfind(base, 0) != 0 ||
        name.compare(name.size() - 4, 4, ".seg") != 0) {
      continue;
    }
    const std::string digits =
        name.substr(base.size(), name.size() - base.size() - 4);
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    SegmentFile f;
    f.seq = std::strtoull(digits.c_str(), nullptr, 10);
    f.path = entry.path().string();
    std::error_code size_ec;
    f.size = static_cast<uint64_t>(fs::file_size(entry.path(), size_ec));
    if (size_ec) f.size = 0;
    segments.push_back(std::move(f));
  }
  std::sort(segments.begin(), segments.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.seq < b.seq;
            });
  return segments;
}

}  // namespace logseg

SegmentedLogSink::SegmentedLogSink(std::string prefix, Options options,
                                   StatsCollector* stats)
    : prefix_(std::move(prefix)), options_(options), stats_(stats) {
  // A zero target would rotate on every batch: refuse it as a broken sink
  // instead of silently writing one segment file per group commit.
  if (options_.segment_bytes == 0) {
    Fail("open (segment_bytes must be > 0)");
    return;
  }
  MutexLock guard(mutex_);
  std::vector<logseg::SegmentFile> existing = logseg::ListSegments(prefix_);
  OpenSegmentLocked(existing.empty() ? 1 : existing.back().seq);
}

SegmentedLogSink::~SegmentedLogSink() {
  MutexLock guard(mutex_);
  if (file_ != nullptr) std::fclose(file_);
}

void SegmentedLogSink::OpenSegmentLocked(uint64_t seq) {
  const std::string path = logseg::SegmentPath(prefix_, seq);
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t size = static_cast<uint64_t>(fs::file_size(path, ec));
  if (ec) size = 0;
  if (size > 0 && size < logseg::kHeaderSize) {
    // Crash between creation and the header write; no records inside.
    fs::resize_file(path, 0, ec);
    size = 0;
  }
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    Fail("fopen");
    return;
  }
  seq_ = seq;
  segment_size_ = size;
  if (size == 0) {
    uint8_t header[logseg::kHeaderSize];
    std::memcpy(header, logseg::kSegmentMagic, sizeof(logseg::kSegmentMagic));
    std::memcpy(header + sizeof(logseg::kSegmentMagic), &seq, sizeof(seq));
    if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header)) {
      Fail("fwrite(header)");
      return;
    }
    std::fflush(file_);
    segment_size_ = logseg::kHeaderSize;
  }
}

void SegmentedLogSink::RotateLocked() {
  if (file_ != nullptr) {
    bool synced = !MVSTORE_FAILPOINT("log.rotate") && std::fflush(file_) == 0;
    if (synced && options_.use_fsync) synced = PortableFsync(file_);
    if (!synced) Fail("flush at rotation");
    std::fclose(file_);
    file_ = nullptr;
  }
  OpenSegmentLocked(seq_ + 1);
  if (stats_ != nullptr) stats_->Add(Stat::kLogSegmentsRotated);
}

void SegmentedLogSink::Write(const uint8_t* data, size_t size) {
  MutexLock guard(mutex_);
  if (segment_size_ > logseg::kHeaderSize &&
      segment_size_ + size > options_.segment_bytes) {
    RotateLocked();
  }
  if (file_ == nullptr) return;
  if (MVSTORE_FAILPOINT("log.append.partial")) {
    // Torn-write crash: a prefix of the batch reaches the OS, then the
    // process dies mid-write. Recovery must detect and truncate the tear.
    std::fwrite(data, 1, size / 2, file_);
    std::fflush(file_);
    std::_Exit(failpoint::kCrashExitCode);
  }
  last_write_ = Position{seq_, segment_size_};
  if (MVSTORE_FAILPOINT("log.append.write") ||
      std::fwrite(data, 1, size, file_) != size) {
    Fail("fwrite");
    return;
  }
  segment_size_ += size;
}

void SegmentedLogSink::Sync() {
  MutexLock guard(mutex_);
  if (file_ == nullptr) return;
  // fwrite into stdio's buffer can succeed while the real write fails here
  // (ENOSPC), and with use_fsync the page cache can accept what the device
  // then rejects (EIO at writeback); both are dropped durability and must
  // surface.
  bool synced =
      !MVSTORE_FAILPOINT("log.append.sync") && std::fflush(file_) == 0;
  if (synced && options_.use_fsync) synced = PortableFsync(file_);
  if (!synced) Fail("flush/fsync");
}

uint64_t SegmentedLogSink::current_seq() const {
  MutexLock guard(mutex_);
  return seq_;
}

SegmentedLogSink::Position SegmentedLogSink::current_pos() const {
  MutexLock guard(mutex_);
  return Position{seq_, segment_size_};
}

SegmentedLogSink::Position SegmentedLogSink::last_write_pos() const {
  MutexLock guard(mutex_);
  return last_write_;
}

Status SegmentedLogSink::MirrorAppend(uint64_t seq, uint64_t offset,
                                      const uint8_t* data, size_t size,
                                      bool sync) {
  MutexLock guard(mutex_);
  if (failed_.load(std::memory_order_acquire)) return Status::Internal();
  if (seq > seq_) {
    // The leader rotated: seal the local segment and open the leader's
    // sequence number directly (may skip numbers after a re-seed; local
    // OpenSegmentLocked writes the same 16-byte header the leader wrote,
    // so mirrored segments stay byte-identical).
    if (file_ != nullptr) {
      bool synced = std::fflush(file_) == 0;
      if (synced && options_.use_fsync) synced = PortableFsync(file_);
      if (!synced) {
        Fail("mirror flush at rotation");
        return Status::Internal();
      }
      std::fclose(file_);
      file_ = nullptr;
    }
    OpenSegmentLocked(seq);
    if (stats_ != nullptr) stats_->Add(Stat::kLogSegmentsRotated);
  }
  if (file_ == nullptr) return Status::Internal();
  if (seq != seq_ || offset != segment_size_) {
    // Not the next byte of the local stream: the mirror and the leader
    // disagree about where we are. Never write — a silent gap or overwrite
    // here is exactly the divergence this subsystem must rule out.
    return Status::InvalidArgument();
  }
  last_write_ = Position{seq_, segment_size_};
  if (std::fwrite(data, 1, size, file_) != size) {
    Fail("mirror fwrite");
    return Status::Internal();
  }
  segment_size_ += size;
  if (sync) {
    bool synced = std::fflush(file_) == 0;
    if (synced && options_.use_fsync) synced = PortableFsync(file_);
    if (!synced) {
      Fail("mirror flush/fsync");
      return Status::Internal();
    }
  }
  return Status::OK();
}

void SegmentedLogSink::SetRetainFloor(uint64_t seq) {
  retain_floor_.store(seq, std::memory_order_release);
}

Status SegmentedLogSink::TruncateActiveTail(uint64_t bytes) {
  MutexLock guard(mutex_);
  if (bytes == 0) return Status::OK();
  if (file_ == nullptr || failed_.load(std::memory_order_acquire)) {
    return Status::Internal();
  }
  if (segment_size_ < logseg::kHeaderSize + bytes) {
    return Status::InvalidArgument();
  }
  if (std::fflush(file_) != 0) {
    Fail("flush before tail truncation");
    return Status::Internal();
  }
  std::error_code ec;
  std::filesystem::resize_file(logseg::SegmentPath(prefix_, seq_),
                               segment_size_ - bytes, ec);
  if (ec) {
    Fail("tail truncation");
    return Status::Internal();
  }
  // The stream stays open in append mode, so the next write lands at the
  // new, shorter end (POSIX O_APPEND re-seeks per write).
  segment_size_ -= bytes;
  return Status::OK();
}

uint64_t SegmentedLogSink::Rotate() {
  MutexLock guard(mutex_);
  RotateLocked();
  return seq_;
}

uint64_t SegmentedLogSink::RemoveSegmentsBelow(uint64_t seq) {
  // Listing and unlinking need no lock: Rotate only ever creates files with
  // *larger* sequence numbers, so the set below `seq` is stable.
  // A bootstrapping follower may still be pulling covered segments; the
  // retain floor keeps them until its stream attaches (SetRetainFloor).
  const uint64_t floor = retain_floor_.load(std::memory_order_acquire);
  if (floor > 0 && floor < seq) seq = floor;
  uint64_t removed = 0;
  namespace fs = std::filesystem;
  for (const logseg::SegmentFile& f : logseg::ListSegments(prefix_)) {
    if (f.seq >= seq) break;
    // Injected unlink failure: the segment stays behind (recovery must
    // tolerate covered segments that outlive their checkpoint).
    if (MVSTORE_FAILPOINT("log.segment.remove")) continue;
    std::error_code ec;
    if (fs::remove(f.path, ec) && !ec) {
      ++removed;
      if (stats_ != nullptr) stats_->Add(Stat::kLogSegmentsDeleted);
    }
  }
  return removed;
}

void SegmentedLogSink::Fail(const char* what) {
  if (!failed_.exchange(true, std::memory_order_acq_rel)) {
    std::fprintf(stderr,
                 "mvstore: segmented log sink '%s' failed in %s; further "
                 "commit records will NOT be durable\n",
                 prefix_.c_str(), what);
  }
  if (stats_ != nullptr) stats_->Add(Stat::kLogWriteErrors);
}

}  // namespace mvstore
