#include "core/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "common/failpoint.h"
#include "core/recovery.h"
#include "log/log_segment.h"
#include "txn/transaction.h"

namespace mvstore {

namespace {

constexpr char kHeaderMagic[8] = {'M', 'V', 'C', 'K', 'P', 'T', '0', '1'};
constexpr char kFooterMagic[8] = {'M', 'V', 'C', 'K', 'P', 'T', 'E', 'D'};
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kHeaderSize = 8 + 4 + 4 + 8 + 8;
constexpr size_t kFooterSize = 8 + 8;
constexpr size_t kTableHeaderSize = 4 + 4 + 8;

/// FNV-1a 64, streamed.
class Checksum {
 public:
  void Update(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

/// Buffered, checksummed writer over a stdio FILE.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::FILE* file) : file_(file) {}

  bool Write(const void* data, size_t n) {
    checksum_.Update(data, n);
    return Raw(data, n);
  }
  /// Write without folding into the checksum (the footer itself).
  bool Raw(const void* data, size_t n) {
    return std::fwrite(data, 1, n, file_) == n;
  }
  template <typename T>
  bool Put(T value) {
    return Write(&value, sizeof(T));
  }
  uint64_t checksum() const { return checksum_.value(); }

 private:
  std::FILE* file_;
  Checksum checksum_;
};

/// Validate magic + checksum + structure; fill *info. `payload` gets the
/// byte range holding the table sections (between header and footer).
Status ValidateCheckpoint(const std::vector<uint8_t>& bytes,
                          CheckpointInfo* info, size_t* tables_begin,
                          uint32_t* table_count) {
  if (bytes.size() < kHeaderSize + kFooterSize) return Status::Internal();
  if (std::memcmp(bytes.data(), kHeaderMagic, 8) != 0) return Status::Internal();
  if (std::memcmp(bytes.data() + bytes.size() - 8, kFooterMagic, 8) != 0) {
    return Status::Internal();
  }
  uint32_t format = 0;
  std::memcpy(&format, bytes.data() + 8, 4);
  if (format != kFormatVersion) return Status::Internal();
  std::memcpy(table_count, bytes.data() + 12, 4);
  std::memcpy(&info->snapshot_ts, bytes.data() + 16, 8);
  std::memcpy(&info->covered_seq, bytes.data() + 24, 8);
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, bytes.data() + bytes.size() - kFooterSize, 8);
  Checksum actual;
  actual.Update(bytes.data(), bytes.size() - kFooterSize);
  if (actual.value() != stored_checksum) return Status::Internal();
  *tables_begin = kHeaderSize;
  return Status::OK();
}

}  // namespace

Status Checkpointer::Take(CheckpointStats* stats) {
  if (options_.path.empty()) return Status::InvalidArgument();
  obs::LatencyHistograms& hists = db_.hists();
  const uint64_t t_start = hists.enabled() ? obs::NowTicks() : 0;
  // One checkpoint pass at a time per database: concurrent passes would
  // interleave writes into the same temp file and publish a corrupt
  // checkpoint after its predecessor's covered segments were deleted.
  MutexLock serialize(db_.checkpoint_mutex());

  // 1. Barrier: everything appended so far reaches the sink, then rotate so
  //    the covering rule holds — any record flushed into a segment below
  //    `covered` was appended (and its end timestamp drawn) before this
  //    point, hence before snapshot_ts is drawn below.
  Logger& logger = db_.logger();
  logger.FlushAll();
  auto* segmented = dynamic_cast<SegmentedLogSink*>(logger.sink());
  const uint64_t covered = segmented != nullptr ? segmented->Rotate() : 0;

  // 2. Snapshot point. MV: a read-only Snapshot transaction pins an exact
  //    read time. 1V: the commit clock *before* the fuzzy scan (see header).
  Txn* snap = nullptr;
  Timestamp snapshot_ts;
  if (db_.scheme() != Scheme::kSingleVersion) {
    snap = db_.Begin(IsolationLevel::kSnapshot, /*read_only=*/true);
    snapshot_ts = static_cast<Transaction*>(snap)->begin_ts.load(
        std::memory_order_acquire);
  } else {
    snapshot_ts = db_.LastCommitTimestamp();
  }

  // 3. Scan + write `<path>.tmp`, one table buffered at a time.
  const std::string tmp_path = options_.path + ".tmp";
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    if (snap != nullptr) db_.Abort(snap);
    return Status::Internal();
  }
  CheckpointWriter writer(file);
  const uint32_t table_count = db_.NumTables();
  bool write_ok = writer.Write(kHeaderMagic, 8) && writer.Put(kFormatVersion) &&
                  writer.Put(table_count) && writer.Put(snapshot_ts) &&
                  writer.Put(covered);
  uint64_t total_rows = 0;
  Status scan_status;
  std::vector<uint8_t> rows;
  for (TableId tid = 0; write_ok && scan_status.ok() && tid < table_count;
       ++tid) {
    const uint32_t payload_size = db_.PayloadSize(tid);
    rows.clear();
    auto consume = [&](const void* payload) {
      const auto* p = static_cast<const uint8_t*>(payload);
      rows.insert(rows.end(), p, p + payload_size);
      return true;
    };
    if (snap != nullptr) {
      scan_status = db_.ScanTable(snap, tid, consume);
      if (scan_status.IsAborted()) snap = nullptr;  // handle already released
    } else {
      // 1V: each row is read under a briefly-held key lock; RunTransaction
      // absorbs lock-timeout aborts by rescanning from scratch.
      scan_status = db_.RunTransaction(
          IsolationLevel::kReadCommitted, [&](Txn* t) {
            rows.clear();
            return db_.ScanTable(t, tid, consume);
          });
    }
    if (!scan_status.ok()) break;
    const uint64_t row_count = rows.size() / payload_size;
    write_ok = writer.Put(tid) && writer.Put(payload_size) &&
               writer.Put(row_count) &&
               (rows.empty() || writer.Write(rows.data(), rows.size()));
    total_rows += row_count;
  }
  if (snap != nullptr) {
    Status commit = db_.Commit(snap);
    if (scan_status.ok()) scan_status = commit;
  }
  if (write_ok) {
    const uint64_t checksum = writer.checksum();
    write_ok = writer.Raw(&checksum, 8) && writer.Raw(kFooterMagic, 8);
  }
  // Injected tmp-write failure (or crash mid-checkpoint, leaving a stale
  // tmp file behind — which publish-by-rename makes harmless).
  if (MVSTORE_FAILPOINT("checkpoint.write")) write_ok = false;
  // 4. Make it durable, then publish atomically.
  if (write_ok) write_ok = std::fflush(file) == 0;
  if (write_ok) write_ok = PortableFsync(file);
  std::fclose(file);
  if (!scan_status.ok() || !write_ok) {
    std::remove(tmp_path.c_str());
    return scan_status.ok() ? Status::Internal() : scan_status;
  }
  // Injected rename failure; a crash action here dies between the durable
  // tmp file and the publish — recovery must keep using the old checkpoint.
  std::error_code ec;
  if (MVSTORE_FAILPOINT("checkpoint.rename")) {
    ec = std::make_error_code(std::errc::io_error);
  } else {
    std::filesystem::rename(tmp_path, options_.path, ec);
  }
  if (ec) {
    std::remove(tmp_path.c_str());
    return Status::Internal();
  }
  db_.stats().Add(Stat::kCheckpointsTaken);

  // 5. The checkpoint now covers every record below `covered`; reclaim.
  uint64_t deleted = 0;
  if (options_.truncate_log && segmented != nullptr && covered > 0) {
    deleted = segmented->RemoveSegmentsBelow(covered);
  }

  if (stats != nullptr) {
    stats->snapshot_ts = snapshot_ts;
    stats->covered_seq = covered;
    stats->tables = table_count;
    stats->rows = total_rows;
    std::error_code size_ec;
    stats->bytes = static_cast<uint64_t>(
        std::filesystem::file_size(options_.path, size_ec));
    if (size_ec) stats->bytes = 0;
    stats->segments_deleted = deleted;
  }
  if (t_start != 0) hists.RecordSince(obs::Hist::kCheckpoint, t_start);
  return Status::OK();
}

Status InspectCheckpoint(const std::string& path, CheckpointInfo* info) {
  Status s;
  std::vector<uint8_t> bytes = ReadLogFile(path, &s);
  if (!s.ok()) return s;
  size_t tables_begin = 0;
  uint32_t table_count = 0;
  return ValidateCheckpoint(bytes, info, &tables_begin, &table_count);
}

Status LoadCheckpoint(Database& db, const std::string& path,
                      CheckpointInfo* info, uint64_t* rows_loaded) {
  if (MVSTORE_FAILPOINT("checkpoint.load")) return Status::Internal();
  Status s;
  std::vector<uint8_t> bytes = ReadLogFile(path, &s);
  if (!s.ok()) return s;
  CheckpointInfo local_info;
  size_t pos = 0;
  uint32_t table_count = 0;
  s = ValidateCheckpoint(bytes, &local_info, &pos, &table_count);
  if (!s.ok()) return s;
  if (info != nullptr) *info = local_info;

  const size_t tables_end = bytes.size() - kFooterSize;
  uint64_t loaded = 0;
  for (uint32_t i = 0; i < table_count; ++i) {
    if (pos + kTableHeaderSize > tables_end) return Status::Internal();
    TableId table_id;
    uint32_t payload_size;
    uint64_t row_count;
    std::memcpy(&table_id, bytes.data() + pos, 4);
    std::memcpy(&payload_size, bytes.data() + pos + 4, 4);
    std::memcpy(&row_count, bytes.data() + pos + 8, 8);
    pos += kTableHeaderSize;
    if (table_id >= db.NumTables() ||
        payload_size != db.PayloadSize(table_id)) {
      return Status::Internal();  // schema mismatch
    }
    if (row_count > (tables_end - pos) / payload_size) {
      return Status::Internal();
    }
    // Batched inserts: one transaction per kBatch rows keeps undo/write
    // sets bounded without paying a commit per row.
    constexpr uint64_t kBatch = 512;
    uint64_t row = 0;
    while (row < row_count) {
      const uint64_t end = std::min(row + kBatch, row_count);
      Txn* txn = db.Begin(IsolationLevel::kReadCommitted);
      for (; row < end; ++row) {
        Status ins = db.Insert(txn, table_id, bytes.data() + pos +
                                                  row * payload_size);
        if (!ins.ok()) {
          if (!ins.IsAborted()) db.Abort(txn);
          return Status::Internal();
        }
      }
      Status c = db.Commit(txn);
      if (!c.ok()) return Status::Internal();
    }
    pos += row_count * payload_size;
    loaded += row_count;
  }
  if (pos != tables_end) return Status::Internal();
  if (rows_loaded != nullptr) *rows_loaded = loaded;
  return Status::OK();
}

Status Database::Checkpoint() {
  if (options_.checkpoint_path.empty()) return Status::InvalidArgument();
  Checkpointer checkpointer(
      *this, Checkpointer::Options{options_.checkpoint_path,
                                   /*truncate_log=*/true});
  return checkpointer.Take(nullptr);
}

}  // namespace mvstore
