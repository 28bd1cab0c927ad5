// Checkpointing: bound recovery time and reclaim log space.
//
// A redo-only log (log/, core/recovery.h) grows forever and replays from
// byte zero. The checkpointer scans every table at a consistent point,
// writes the rows to a versioned checkpoint file, and records two facts the
// recovery path keys off:
//
//   * snapshot_ts  — every transaction with end timestamp <= snapshot_ts is
//     fully contained in the checkpoint image; recovery replays only log
//     records with end timestamp > snapshot_ts ("checkpoint + tail replay").
//   * covered_seq  — the log was rotated (log/log_segment.h) immediately
//     before the snapshot point was chosen, so every record in a segment
//     with sequence number < covered_seq has end timestamp <= snapshot_ts.
//     Once the checkpoint file is durably published, those segments are
//     redundant and are deleted (log truncation).
//
// Consistency per engine:
//   * MV engines: the scan runs inside one read-only Snapshot transaction,
//     so the image is transactionally exact at snapshot_ts across all
//     tables; tail replay onto it needs no conflict tolerance.
//   * 1V engine: single-version storage has no snapshots. The scan reads
//     each row under its key lock (never torn, never uncommitted), with
//     snapshot_ts drawn from the commit clock *before* the scan, so the
//     image of each row is its state at snapshot_ts or later — a fuzzy
//     checkpoint. Tail replay (end timestamp > snapshot_ts, in order, with
//     idempotent conflict tolerance: re-insert overwrites, re-delete and
//     update-of-missing-row are skipped) converges every row to the logged
//     final state; see ReplayOptions::tolerant in core/recovery.h.
//
// File format (little-endian, fixed-size rows):
//   header : magic "MVCKPT01" (8B) | format u32 | table_count u32
//            | snapshot_ts u64 | covered_seq u64
//   tables : table_id u32 | payload_size u32 | row_count u64
//            | row_count * payload_size row bytes
//   footer : checksum u64 (FNV-1a 64 of all preceding bytes)
//            | magic "MVCKPTED" (8B)
// The file is written to `<path>.tmp`, fsynced, then renamed — a crash
// mid-checkpoint leaves the previous checkpoint (or none) intact.
#pragma once

#include <string>

#include "common/status.h"
#include "core/database.h"

namespace mvstore {

/// Facts recovery needs before deciding what to replay.
struct CheckpointInfo {
  Timestamp snapshot_ts = 0;
  uint64_t covered_seq = 0;
};

/// What a checkpoint pass did.
struct CheckpointStats {
  Timestamp snapshot_ts = 0;
  uint64_t covered_seq = 0;
  uint64_t tables = 0;
  uint64_t rows = 0;
  uint64_t bytes = 0;          // checkpoint file size
  uint64_t segments_deleted = 0;
};

class Checkpointer {
 public:
  struct Options {
    /// Checkpoint file path (published atomically via `<path>.tmp` rename).
    std::string path;
    /// Delete fully-covered log segments after the checkpoint is durable
    /// (a database without an on-disk log has nothing to delete).
    bool truncate_log = true;
  };

  Checkpointer(Database& db, Options options)
      : db_(db), options_(std::move(options)) {}

  /// Take one checkpoint. Safe to call while transactions run; commits are
  /// never blocked (MV) or blocked only per-row for the duration of a key
  /// lock (1V). Concurrent Take calls on the same database serialize
  /// (Database::checkpoint_mutex).
  Status Take(CheckpointStats* stats = nullptr);

 private:
  Database& db_;
  const Options options_;
};

/// Probe `path`: OK and *info filled for a valid checkpoint, NotFound when
/// the file does not exist, Internal when it exists but is corrupt (bad
/// magic, short file, checksum mismatch).
Status InspectCheckpoint(const std::string& path, CheckpointInfo* info);

/// Load the rows of a valid checkpoint into `db`, whose tables must already
/// be created with matching ids and payload sizes and still be empty.
/// Does NOT pause the logger — the recovery driver (RecoverDatabase) owns
/// that; calling this on a live logging database would re-log every row.
Status LoadCheckpoint(Database& db, const std::string& path,
                      CheckpointInfo* info, uint64_t* rows_loaded);

}  // namespace mvstore
