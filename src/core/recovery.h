// Crash recovery: rebuild database contents from checkpoint + redo log.
//
// The paper's engines log redo-only commit records ordered by end timestamp
// (Section 3.2: "Commit ordering is determined by transaction end
// timestamps, which are included in the log records, so multiple log streams
// on different devices can be used"). Recovery therefore:
//
//   1. loads the latest checkpoint, if any (core/checkpoint.h) — it covers
//      every transaction with end timestamp <= its snapshot_ts;
//   2. parses the log tail — every segment (log/log_segment.h) the
//      checkpoint does not cover — accepting a torn final batch: the valid
//      prefix is kept, the torn bytes are truncated off the last segment (so
//      a continued log stays parseable), counted, and reported;
//   3. replays records with end timestamp > snapshot_ts in end-timestamp
//      order, optionally partitioned by primary key across worker threads
//      (the paper's multiple-log-streams observation: per-key order is all
//      that matters, so disjoint key sets replay concurrently);
//   4. advances the engine's commit clock past every replayed timestamp, so
//      post-recovery commits extend the log consistently.
//
// Updates are byte-range diffs keyed by the row's primary key; inserts carry
// the full payload; deletes carry the key.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "core/database.h"
#include "log/log_record.h"

namespace mvstore {

/// How ReplayRecords applies a record stream.
struct ReplayOptions {
  /// Worker threads; ops partition by hash(table, primary key), each worker
  /// applies its keys in end-timestamp order. 1 = serial.
  uint32_t threads = 1;
  /// Skip records with end_ts <= this (they are inside the checkpoint).
  Timestamp skip_through_ts = 0;
  /// Tolerate idempotent conflicts: an insert whose key exists overwrites
  /// the payload, a delete of a missing key and an update of a missing row
  /// are skipped (counted in RecoveryReport::idempotent_applies). Required
  /// when replaying onto a fuzzy 1V checkpoint whose rows may already
  /// include part of the tail; without a checkpoint, leave strict so real
  /// corruption surfaces as Internal.
  bool tolerant = false;
};

/// What a recovery pass found and did.
struct RecoveryReport {
  bool checkpoint_loaded = false;
  Timestamp checkpoint_ts = 0;
  uint64_t checkpoint_rows = 0;
  uint64_t segments_scanned = 0;
  uint64_t torn_tails = 0;          // files whose tail failed to parse
  uint64_t torn_bytes_dropped = 0;  // bytes truncated off those tails
  uint64_t records_parsed = 0;
  uint64_t records_replayed = 0;
  uint64_t records_skipped = 0;     // covered by the checkpoint
  uint64_t idempotent_applies = 0;  // tolerant-mode conflict skips
  Timestamp max_timestamp = 0;      // largest end_ts seen anywhere
};

/// Parse every commit record in `bytes`, starting at offset `start` (a
/// segment's payload begins after its header). Returns false on a malformed
/// tail; records parsed so far are kept and *valid_bytes (if non-null) is
/// set to the absolute offset of the parseable prefix's end — the caller's
/// truncation point.
bool ParseAllRecords(const std::vector<uint8_t>& bytes,
                     std::vector<ParsedLogRecord>* records,
                     size_t* valid_bytes = nullptr, size_t start = 0);

/// Read a file into memory (streamed; files > 2 GiB are fine). Empty result
/// if the file cannot be read; *status (if non-null) distinguishes NotFound
/// (no such file) from Internal (a read error mid-file — the returned
/// prefix is short, and treating it as a torn tail would truncate real
/// data, so recovery must fail instead).
std::vector<uint8_t> ReadLogFile(const std::string& path,
                                 Status* status = nullptr);

/// Replay `records` into `db`. Table IDs in the records must match tables
/// already created in `db` with identical payload sizes. Records are applied
/// in end-timestamp order (per key, when parallel).
///
/// Returns the first non-recoverable error, or OK. In strict mode
/// (tolerant=false) NotFound / AlreadyExists conflicts are treated as
/// corruption and reported as Internal.
Status ReplayRecords(Database& db, std::vector<ParsedLogRecord> records,
                     const ReplayOptions& options,
                     RecoveryReport* report = nullptr);

/// Back-compat convenience: strict, serial replay.
Status ReplayRecords(Database& db, std::vector<ParsedLogRecord> records);

/// Full recovery pass configuration (Database::Open wires this from
/// DatabaseOptions).
struct RecoveryOptions {
  /// Segment prefix of the log (DatabaseOptions::log_path); empty = no log.
  std::string log_path;
  /// Optional checkpoint file; missing file = full-log replay.
  std::string checkpoint_path;
  uint32_t threads = 1;
  /// Physically truncate torn tails off log files so a continued log stays
  /// parseable. Turn off only for read-only forensics.
  bool truncate_torn_tail = true;
};

/// Verify that the local segment set can honor a checkpoint that claims to
/// cover everything below `covered_seq`: an unbroken run of segment files
/// must start exactly at `covered_seq` (lower-numbered leftovers are
/// exempt — they are covered). Internal, with the gap named on stderr,
/// when it cannot. RecoverDatabase runs this BEFORE loading checkpoint
/// rows, so a checkpoint whose tail segments are missing (a shipped
/// checkpoint paired with someone else's log, a deleted middle segment)
/// is refused before it mutates the database; the replication follower
/// (src/repl/replica.h) runs the same check against its mirrored segment
/// set before declaring itself caught up.
Status ValidateSegmentCoverage(const std::string& log_path,
                               uint64_t covered_seq);

/// Checkpoint-load + tail-replay into `db` (tables must exist and be
/// empty). Pauses the logger for the duration — replayed commits are
/// already in the log and must not be re-appended — and advances the commit
/// clock past every recovered timestamp before returning.
Status RecoverDatabase(Database& db, const RecoveryOptions& options,
                       RecoveryReport* report = nullptr);

}  // namespace mvstore
