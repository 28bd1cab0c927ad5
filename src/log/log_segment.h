// Segmented redo-log output: the log as a sequence of rotating files.
//
// A single append-only log file cannot be truncated from the front, so a
// checkpoint could never reclaim the bytes it makes redundant. Segmenting
// fixes that: the logger writes to `<prefix>.<seq>.seg` files, rotating to a
// new sequence number when the current segment exceeds a size target, and a
// completed checkpoint deletes every segment whose records it wholly covers
// (see core/checkpoint.h for the covering rule).
//
// Invariants the rest of the durability subsystem relies on:
//  * Segment sequence numbers start at 1 and increase monotonically; the
//    file name and the 16-byte segment header both carry the number.
//  * A batch handed to Write() is never split across segments, and batches
//    are whole commit records, so every segment is independently parseable.
//  * Reopening an existing prefix resumes appending to the highest-numbered
//    segment; nothing is ever truncated at open time except a segment too
//    short to hold its own header (a crash landed between file creation and
//    the header write — it provably contains no records).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/mutex.h"
#include "common/status.h"
#include "log/logger.h"

namespace mvstore {
namespace logseg {

/// Bytes 0-7 of every segment file.
inline constexpr char kSegmentMagic[8] = {'M', 'V', 'S', 'E', 'G', '0', '0', '1'};
/// Magic (8B) + sequence number (8B).
inline constexpr size_t kHeaderSize = 16;

/// `<prefix>.<seq, 8 digits>.seg`
std::string SegmentPath(const std::string& prefix, uint64_t seq);

struct SegmentFile {
  uint64_t seq = 0;
  std::string path;
  uint64_t size = 0;
};

/// All existing segment files for `prefix`, sorted by sequence number.
std::vector<SegmentFile> ListSegments(const std::string& prefix);

}  // namespace logseg

/// Rotating-segment log sink (see file comment). Thread-safe: the logger's
/// flusher thread calls Write/Sync while a checkpointer may concurrently
/// Rotate or RemoveSegmentsBelow.
class SegmentedLogSink : public LogSink {
 public:
  struct Options {
    /// Rotate once the current segment reaches this many bytes. A batch
    /// larger than the target gets a segment to itself (records are never
    /// split). Must be > 0; 0 leaves the sink failed at construction.
    uint64_t segment_bytes = 64ull << 20;
    /// fsync every Sync() (see DatabaseOptions::fsync_log).
    bool use_fsync = false;
  };

  SegmentedLogSink(std::string prefix, Options options,
                   StatsCollector* stats = nullptr);
  ~SegmentedLogSink() override;

  void Write(const uint8_t* data, size_t size) override;
  void Sync() override;
  Status status() const override {
    return failed_.load(std::memory_order_acquire) ? Status::Internal()
                                                   : Status::OK();
  }

  /// A byte position in the segment stream: segment sequence number plus
  /// offset within that segment file (header included). Ordered
  /// lexicographically.
  struct Position {
    uint64_t seq = 0;
    uint64_t offset = 0;
    bool operator<(const Position& o) const {
      return seq != o.seq ? seq < o.seq : offset < o.offset;
    }
    bool operator==(const Position& o) const {
      return seq == o.seq && offset == o.offset;
    }
  };

  /// Sequence number of the segment currently receiving appends.
  uint64_t current_seq() const;

  /// End of everything written so far: {current segment, its size}. The log
  /// shipper reads this under the same lock Write advances it under, so a
  /// stream attached at current_pos() misses nothing.
  Position current_pos() const;

  /// Where the most recent Write landed: {segment, offset of the batch's
  /// first byte}. Stable until the next Write (rotation does not move it),
  /// which is what lets the post-flush CommitObserver name the batch it was
  /// just handed.
  Position last_write_pos() const;

  /// Follower-side mirror append: write `size` bytes at exactly
  /// (seq, offset) of the local segment stream, creating segment `seq`
  /// (header included — headers are byte-identical across replicas) when
  /// `seq` is ahead of the current segment. Returns InvalidArgument when
  /// the position does not extend the local stream contiguously (the mirror
  /// desynced from the leader) and Internal on I/O failure. `sync` forces
  /// the bytes down per Options::use_fsync before returning.
  Status MirrorAppend(uint64_t seq, uint64_t offset, const uint8_t* data,
                      size_t size, bool sync);

  /// Keep segments >= `seq` alive through RemoveSegmentsBelow (a follower
  /// is bootstrapping from them); 0 lifts the floor. The shipper owns this.
  void SetRetainFloor(uint64_t seq);

  /// Cut the last `bytes` bytes off the active segment — the promote path's
  /// seal: a partial record mirrored before the leader died is dropped
  /// exactly as crash recovery truncates a torn tail. InvalidArgument when
  /// the cut would reach into the segment header.
  Status TruncateActiveTail(uint64_t bytes);

  /// Close the current segment and open the next one. Returns the new
  /// segment's sequence number; every record flushed before this call lives
  /// in a segment with a smaller number.
  uint64_t Rotate();

  /// Delete every segment file with sequence number < `seq` (checkpoint
  /// truncation). Returns the number of files removed.
  uint64_t RemoveSegmentsBelow(uint64_t seq);

  const std::string& prefix() const { return prefix_; }

 private:
  /// Open segment `seq` (append). Writes a fresh header when the file is
  /// empty; truncates first when it is shorter than a header.
  void OpenSegmentLocked(uint64_t seq) REQUIRES(mutex_);
  void RotateLocked() REQUIRES(mutex_);
  void Fail(const char* what);

  const std::string prefix_;
  const Options options_;
  StatsCollector* const stats_;

  mutable Mutex mutex_;
  std::FILE* file_ GUARDED_BY(mutex_) = nullptr;
  uint64_t seq_ GUARDED_BY(mutex_) = 0;
  /// Bytes in the current segment, header included.
  uint64_t segment_size_ GUARDED_BY(mutex_) = 0;
  /// Where the latest Write/MirrorAppend began.
  Position last_write_ GUARDED_BY(mutex_) = {0, 0};
  std::atomic<uint64_t> retain_floor_{0};
  std::atomic<bool> failed_{false};
};

}  // namespace mvstore
