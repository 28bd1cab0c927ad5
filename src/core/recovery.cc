#include "core/recovery.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/failpoint.h"
#include "core/checkpoint.h"
#include "log/log_segment.h"

namespace mvstore {

bool ParseAllRecords(const std::vector<uint8_t>& bytes,
                     std::vector<ParsedLogRecord>* records,
                     size_t* valid_bytes, size_t start) {
  size_t pos = start;
  size_t last_good = start;
  while (pos < bytes.size()) {
    ParsedLogRecord record;
    if (!ParseLogRecord(bytes, pos, &record)) {
      if (valid_bytes != nullptr) *valid_bytes = last_good;
      return false;
    }
    records->push_back(std::move(record));
    last_good = pos;
  }
  if (valid_bytes != nullptr) *valid_bytes = last_good;
  return true;
}

std::vector<uint8_t> ReadLogFile(const std::string& path, Status* status) {
  std::vector<uint8_t> bytes;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (status != nullptr) *status = Status::NotFound();
    return bytes;
  }
  // Size probe with a 64-bit offset (plain ftell returns long, which
  // truncates >2 GiB logs on LLP64 platforms); reading itself is streamed,
  // so a failed probe only costs reallocation.
#if defined(_WIN32)
  if (_fseeki64(file, 0, SEEK_END) == 0) {
    long long size = _ftelli64(file);
    if (size > 0) bytes.reserve(static_cast<size_t>(size));
    _fseeki64(file, 0, SEEK_SET);
  }
#else
  if (fseeko(file, 0, SEEK_END) == 0) {
    off_t size = ftello(file);
    if (size > 0) bytes.reserve(static_cast<size_t>(size));
    fseeko(file, 0, SEEK_SET);
  }
#endif
  uint8_t chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  // A mid-file read error leaves a short buffer that would otherwise be
  // indistinguishable from a torn tail — and torn tails get truncated.
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (status != nullptr) {
    *status = read_error ? Status::Internal() : Status::OK();
  }
  return bytes;
}

namespace {

/// Partition hash: ops on the same (table, primary key) must land on the
/// same replay worker so their end-timestamp order is preserved.
uint64_t PartitionOf(uint64_t table, uint64_t key) {
  uint64_t x = key * 0x9E3779B97F4A7C15ull ^ (table * 0xBF58476D1CE4E5B9ull);
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  return x;
}

/// Apply ops [begin, end) inside one transaction. Returns kAborted with the
/// transaction already rolled back (caller retries the whole batch — the
/// rollback undid every op), or Internal on corruption, or OK.
Status ApplyBatch(Database& db, const std::vector<const ParsedLogOp*>& ops,
                  size_t begin, size_t end, bool tolerant,
                  uint64_t* idempotent) {
  Txn* txn = db.Begin(IsolationLevel::kReadCommitted);
  for (size_t i = begin; i < end; ++i) {
    const ParsedLogOp& op = *ops[i];
    Status s;
    switch (op.op) {
      case LogOp::kInsert: {
        s = db.Insert(txn, op.table, op.bytes.data());
        if (s.IsAlreadyExists() && tolerant) {
          // The row is already there (fuzzy checkpoint captured this insert
          // or a later state); converge by overwriting the payload.
          const uint64_t key =
              db.PrimaryKeyOfPayload(op.table, op.bytes.data());
          s = db.Update(txn, op.table, /*index=*/0, key, [&](void* p) {
            std::memcpy(p, op.bytes.data(), op.bytes.size());
          });
          ++*idempotent;
        }
        break;
      }
      case LogOp::kUpdate: {
        s = db.Update(txn, op.table, /*index=*/0, op.key, [&](void* p) {
          std::memcpy(static_cast<char*>(p) + op.offset, op.bytes.data(),
                      op.bytes.size());
        });
        if (s.IsNotFound() && tolerant) {
          // Row missing: a later delete (still ahead in this worker's
          // stream) removed it before the fuzzy checkpoint captured it.
          s = Status::OK();
          ++*idempotent;
        }
        break;
      }
      case LogOp::kDelete: {
        s = db.Delete(txn, op.table, /*index=*/0, op.key);
        if (s.IsNotFound() && tolerant) {
          s = Status::OK();
          ++*idempotent;
        }
        break;
      }
    }
    if (s.IsAborted()) return s;
    if (!s.ok()) {
      db.Abort(txn);
      return Status::Internal();
    }
  }
  Status c = db.Commit(txn);
  if (c.ok() || c.IsAborted()) return c;
  return Status::Internal();
}

/// One worker's stream: batched transactions, retrying aborted batches
/// (cross-worker lock-table collisions under 1V, never data conflicts —
/// key sets are disjoint by partition). A batch holds its key locks until
/// commit, so wide batches from several workers can deadlock through
/// lock-table hash collisions; aborted batches shrink geometrically down to
/// single-op transactions, which cannot hold more than one point lock and
/// therefore always make progress.
Status ApplyOps(Database& db, const std::vector<const ParsedLogOp*>& ops,
                bool tolerant, uint64_t* idempotent_out,
                std::atomic<bool>* failed) {
  constexpr size_t kBatch = 128;
  constexpr int kMaxSingleRetries = 1000;
  uint64_t idempotent = 0;
  size_t i = 0;
  size_t batch = kBatch;
  int single_retries = 0;
  while (i < ops.size()) {
    if (failed != nullptr && failed->load(std::memory_order_relaxed)) break;
    const size_t end = std::min(i + batch, ops.size());
    uint64_t batch_idempotent = 0;
    Status s = ApplyBatch(db, ops, i, end, tolerant, &batch_idempotent);
    if (s.ok()) {
      idempotent += batch_idempotent;
      i = end;
      batch = std::min(batch * 2, kBatch);
      single_retries = 0;
      continue;
    }
    if (s.IsAborted()) {
      if (end - i > 1) {
        batch = (end - i) / 2;  // contention: try a narrower lock footprint
        continue;
      }
      if (++single_retries <= kMaxSingleRetries) continue;
      s = Status::Internal();  // a single op aborting forever is not contention
    }
    if (failed != nullptr) failed->store(true, std::memory_order_relaxed);
    return s;
  }
  *idempotent_out = idempotent;
  return Status::OK();
}

}  // namespace

Status ReplayRecords(Database& db, std::vector<ParsedLogRecord> records,
                     const ReplayOptions& options, RecoveryReport* report) {
  obs::LatencyHistograms& hists = db.hists();
  const uint64_t t_start = hists.enabled() ? obs::NowTicks() : 0;
  // End-timestamp order is the paper's commit order; every worker stream
  // below preserves it per key.
  std::stable_sort(records.begin(), records.end(),
                   [](const ParsedLogRecord& a, const ParsedLogRecord& b) {
                     return a.end_ts < b.end_ts;
                   });

  const uint32_t threads = std::max<uint32_t>(1, options.threads);
  std::vector<std::vector<const ParsedLogOp*>> streams(threads);
  uint64_t replayed = 0;
  uint64_t skipped = 0;
  Timestamp max_ts = 0;
  for (const ParsedLogRecord& record : records) {
    max_ts = std::max(max_ts, record.end_ts);
    if (record.end_ts <= options.skip_through_ts) {
      ++skipped;
      continue;
    }
    for (const ParsedLogOp& op : record.ops) {
      if (op.table >= db.NumTables()) return Status::Internal();
      uint64_t key;
      if (op.op == LogOp::kInsert) {
        // Validate before running the extractor over the payload bytes.
        if (op.bytes.size() != db.PayloadSize(op.table)) {
          return Status::Internal();
        }
        key = db.PrimaryKeyOfPayload(op.table, op.bytes.data());
      } else {
        if (op.op == LogOp::kUpdate &&
            op.offset + op.bytes.size() > db.PayloadSize(op.table)) {
          return Status::Internal();
        }
        key = op.key;
      }
      const size_t w =
          threads == 1 ? 0 : PartitionOf(op.table, key) % threads;
      streams[w].push_back(&op);
    }
    ++replayed;
  }

  Status status;
  std::vector<uint64_t> idempotent(threads, 0);
  if (threads == 1) {
    status = ApplyOps(db, streams[0], options.tolerant, &idempotent[0],
                      nullptr);
  } else {
    std::atomic<bool> failed{false};
    std::vector<Status> worker_status(threads);
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (uint32_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        worker_status[t] = ApplyOps(db, streams[t], options.tolerant,
                                    &idempotent[t], &failed);
      });
    }
    for (auto& th : pool) th.join();
    for (const Status& s : worker_status) {
      if (!s.ok()) {
        status = s;
        break;
      }
    }
  }
  if (!status.ok()) return status;

  uint64_t idempotent_total = 0;
  for (uint64_t v : idempotent) idempotent_total += v;
  db.stats().Add(Stat::kRecoveryRecordsReplayed, replayed);
  if (skipped > 0) db.stats().Add(Stat::kRecoveryRecordsSkipped, skipped);
  if (idempotent_total > 0) {
    db.stats().Add(Stat::kRecoveryIdempotentApplies, idempotent_total);
  }
  if (report != nullptr) {
    report->records_replayed += replayed;
    report->records_skipped += skipped;
    report->idempotent_applies += idempotent_total;
    report->max_timestamp = std::max(report->max_timestamp, max_ts);
  }
  if (t_start != 0) hists.RecordSince(obs::Hist::kRecoveryReplay, t_start);
  return Status::OK();
}

Status ReplayRecords(Database& db, std::vector<ParsedLogRecord> records) {
  return ReplayRecords(db, std::move(records), ReplayOptions{}, nullptr);
}

namespace {

/// Resume-appends guard: recovery replays through the normal commit path,
/// whose records are already in the log.
struct LoggerPauseGuard {
  explicit LoggerPauseGuard(Logger& logger) : logger(logger) {
    logger.PauseForReplay();
  }
  ~LoggerPauseGuard() { logger.ResumeAfterReplay(); }
  Logger& logger;
};

void NoteTornTail(Database& db, const std::string& path, uint64_t dropped,
                  size_t records_kept, RecoveryReport* report) {
  std::fprintf(stderr,
               "mvstore: torn tail in log '%s': keeping %zu records, "
               "dropping %llu trailing bytes\n",
               path.c_str(), records_kept,
               static_cast<unsigned long long>(dropped));
  db.stats().Add(Stat::kRecoveryTornTails);
  db.stats().Add(Stat::kRecoveryTornBytesDropped, dropped);
  if (report != nullptr) {
    ++report->torn_tails;
    report->torn_bytes_dropped += dropped;
  }
}

/// Cut the torn bytes off `path`, leaving `keep` bytes. A truncation that
/// does not take effect must fail recovery: the reopened sink would append
/// new records after the garbage, and the NEXT recovery would drop them all
/// as one giant torn tail.
Status TruncateTornTail(const std::string& path, uint64_t keep) {
  std::error_code ec;
  std::filesystem::resize_file(path, keep, ec);
  if (ec) {
    std::fprintf(stderr,
                 "mvstore: cannot truncate torn tail of '%s': %s\n",
                 path.c_str(), ec.message().c_str());
    return Status::Internal();
  }
  return Status::OK();
}

/// The shared continuity rule (see ValidateSegmentCoverage in recovery.h):
/// segments at or above `first_required` must form an unbroken run starting
/// exactly there. Segments *below* it are checkpoint-covered leftovers
/// (crash before truncation finished, or a sink that recreated low numbers
/// after segment loss) and carry no needed records, so they are exempt.
Status CheckSegmentContinuity(const std::string& log_path,
                              const std::vector<logseg::SegmentFile>& segments,
                              uint64_t first_required) {
  size_t begin_idx = 0;
  while (begin_idx < segments.size() &&
         segments[begin_idx].seq < first_required) {
    ++begin_idx;
  }
  if (begin_idx == segments.size()) {
    if (first_required > 1) {
      std::fprintf(stderr,
                   "mvstore: checkpoint for '%s' covers through segment %llu "
                   "but no segment at or above it survives; refusing "
                   "recovery that would silently drop the log tail\n",
                   log_path.c_str(),
                   static_cast<unsigned long long>(first_required));
      return Status::Internal();
    }
    return Status::OK();  // no log yet: nothing to replay
  }
  if (segments[begin_idx].seq != first_required) {
    std::fprintf(stderr,
                 "mvstore: log '%s' starts at segment %llu but nothing "
                 "covers segments %llu..%llu (missing checkpoint or deleted "
                 "segments); refusing partial recovery\n",
                 log_path.c_str(),
                 static_cast<unsigned long long>(segments[begin_idx].seq),
                 static_cast<unsigned long long>(first_required),
                 static_cast<unsigned long long>(segments[begin_idx].seq - 1));
    return Status::Internal();
  }
  for (size_t i = begin_idx + 1; i < segments.size(); ++i) {
    if (segments[i].seq != segments[i - 1].seq + 1) {
      std::fprintf(stderr,
                   "mvstore: log '%s' has a gap: segment %llu is followed "
                   "by %llu; refusing partial recovery\n",
                   log_path.c_str(),
                   static_cast<unsigned long long>(segments[i - 1].seq),
                   static_cast<unsigned long long>(segments[i].seq));
      return Status::Internal();
    }
  }
  return Status::OK();
}

/// Parse every segment of a segmented log in sequence order. Only the
/// highest-numbered segment may be torn (rotation closes a segment before
/// opening its successor); a parse failure anywhere else is corruption.
///
/// The sequence numbers must also account for every record: a gap between
/// segments, or a first segment that neither seq 1 nor a loaded checkpoint
/// explains, means records were lost (a deleted middle segment, or a
/// checkpoint that truncated the log and then went missing) — recovering
/// the remainder silently would present partial data as a clean database.
Status GatherSegmentRecords(Database& db, const RecoveryOptions& options,
                            bool have_checkpoint, uint64_t covered_seq,
                            std::vector<ParsedLogRecord>* records,
                            RecoveryReport* report) {
  const std::vector<logseg::SegmentFile> segments =
      logseg::ListSegments(options.log_path);
  const uint64_t first_required =
      have_checkpoint && covered_seq > 0 ? covered_seq : 1;
  Status continuity =
      CheckSegmentContinuity(options.log_path, segments, first_required);
  if (!continuity.ok()) return continuity;
  for (size_t i = 0; i < segments.size(); ++i) {
    const logseg::SegmentFile& seg = segments[i];
    const bool last = i + 1 == segments.size();
    if (seg.seq < covered_seq) continue;  // wholly inside the checkpoint
    if (seg.size < logseg::kHeaderSize) {
      // Crash between file creation and the header write: provably empty,
      // but only ever legal at the tail.
      if (!last) return Status::Internal();
      if (seg.size > 0) {
        NoteTornTail(db, seg.path, seg.size, 0, report);
        if (options.truncate_torn_tail) {
          Status t = TruncateTornTail(seg.path, 0);
          if (!t.ok()) return t;
        }
      }
      continue;
    }
    // Injected per-segment read failure (or crash mid-recovery: the next
    // recovery must start over from the same durable state).
    if (MVSTORE_FAILPOINT("recovery.segment.scan")) return Status::Internal();
    Status read_status;
    std::vector<uint8_t> bytes = ReadLogFile(seg.path, &read_status);
    if (!read_status.ok()) return Status::Internal();
    if (bytes.size() < logseg::kHeaderSize ||
        std::memcmp(bytes.data(), logseg::kSegmentMagic,
                    sizeof(logseg::kSegmentMagic)) != 0) {
      return Status::Internal();
    }
    uint64_t embedded_seq = 0;
    std::memcpy(&embedded_seq, bytes.data() + sizeof(logseg::kSegmentMagic),
                sizeof(embedded_seq));
    if (embedded_seq != seg.seq) return Status::Internal();
    const size_t before = records->size();
    size_t valid = 0;
    if (!ParseAllRecords(bytes, records, &valid, logseg::kHeaderSize)) {
      if (!last) return Status::Internal();
      NoteTornTail(db, seg.path, bytes.size() - valid,
                   records->size() - before, report);
      if (options.truncate_torn_tail) {
        Status t = TruncateTornTail(seg.path, valid);
        if (!t.ok()) return t;
      }
    }
    if (report != nullptr) ++report->segments_scanned;
  }
  return Status::OK();
}

}  // namespace

Status ValidateSegmentCoverage(const std::string& log_path,
                               uint64_t covered_seq) {
  return CheckSegmentContinuity(log_path, logseg::ListSegments(log_path),
                                covered_seq > 0 ? covered_seq : 1);
}

Status RecoverDatabase(Database& db, const RecoveryOptions& options,
                       RecoveryReport* report) {
  RecoveryReport local;
  LoggerPauseGuard pause(db.logger());

  // 1. Checkpoint image, if one exists. Probe the header and validate its
  //    coverage claim against the local segment set BEFORE loading a single
  //    row: covered_seq arrives inside the checkpoint file (possibly shipped
  //    from another machine), and a checkpoint paired with a log whose
  //    covering segments are missing must be refused while the tables are
  //    still empty — not after half its rows are in.
  Timestamp skip_through_ts = 0;
  uint64_t covered_seq = 0;
  if (!options.checkpoint_path.empty()) {
    CheckpointInfo probe;
    Status ps = InspectCheckpoint(options.checkpoint_path, &probe);
    if (ps.ok()) {
      if (!options.log_path.empty() && probe.covered_seq > 0) {
        Status cs =
            ValidateSegmentCoverage(options.log_path, probe.covered_seq);
        if (!cs.ok()) return cs;
      }
      CheckpointInfo info;
      uint64_t rows = 0;
      Status s = LoadCheckpoint(db, options.checkpoint_path, &info, &rows);
      if (!s.ok()) return s;
      local.checkpoint_loaded = true;
      local.checkpoint_ts = info.snapshot_ts;
      local.checkpoint_rows = rows;
      skip_through_ts = info.snapshot_ts;
      covered_seq = info.covered_seq;
    } else if (!ps.IsNotFound()) {
      return ps;  // a corrupt checkpoint must not be silently skipped
    }
  }

  // 2. Tail records.
  std::vector<ParsedLogRecord> records;
  if (!options.log_path.empty()) {
    Status s = GatherSegmentRecords(db, options, local.checkpoint_loaded,
                                    covered_seq, &records, &local);
    if (!s.ok()) return s;
  }
  local.records_parsed = records.size();

  // 3. Replay. Tolerant only over a *fuzzy* checkpoint — the 1V engine's
  //    per-row-locked image (core/checkpoint.h). MV checkpoints are exact
  //    snapshots, and a bare log starts from nothing; both replay strictly
  //    so corruption surfaces as Internal instead of being absorbed.
  ReplayOptions replay;
  replay.threads = options.threads;
  replay.skip_through_ts = skip_through_ts;
  replay.tolerant =
      local.checkpoint_loaded && db.scheme() == Scheme::kSingleVersion;
  Status s = ReplayRecords(db, std::move(records), replay, &local);
  if (!s.ok()) return s;

  // 4. Post-recovery commits must draw timestamps past everything replayed.
  db.AdvanceCommitTimestamp(
      std::max(local.max_timestamp, local.checkpoint_ts));

  if (report != nullptr) *report = local;
  return Status::OK();
}

std::unique_ptr<Database> Database::Open(
    const DatabaseOptions& options,
    const std::function<void(Database&)>& define_schema, Status* status,
    RecoveryReport* report) {
  auto set_status = [&](Status s) {
    if (status != nullptr) *status = s;
  };
  auto db = std::make_unique<Database>(options);
  if (!db->log_status().ok()) {
    // A database opened for durability with a dead log sink is useless;
    // fail loudly instead of running volatile.
    set_status(Status::Internal());
    return nullptr;
  }
  if (define_schema) define_schema(*db);
  // Recover whenever there is durable state to load — a checkpoint alone
  // counts (log_mode may be kDisabled for a read-only analytical open).
  if (!options.log_path.empty() || !options.checkpoint_path.empty()) {
    RecoveryOptions recovery;
    recovery.log_path = options.log_path;
    recovery.checkpoint_path = options.checkpoint_path;
    recovery.threads = options.recovery_threads;
    Status s = RecoverDatabase(*db, recovery, report);
    if (!s.ok()) {
      set_status(s);
      return nullptr;
    }
  }
  set_status(Status::OK());
  return db;
}

}  // namespace mvstore
