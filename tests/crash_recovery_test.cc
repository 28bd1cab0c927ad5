// Crash-simulation suite: kill the writer at arbitrary points (by truncating
// the log at arbitrary byte offsets, the on-disk image a mid-batch crash
// leaves), recover, and verify committed-prefix semantics; plus
// recover-then-continue round trips, checkpoint + tail replay equivalence
// against full-log replay, parallel-vs-serial replay equivalence, and
// checkpoint log truncation.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/database.h"
#include "core/recovery.h"
#include "log/log_segment.h"

namespace mvstore {
namespace {

namespace fs = std::filesystem;

struct Row {
  uint64_t key;
  uint64_t value;
  uint64_t extra;
};
uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

void DefineSchema(Database& db) {
  TableDef def;
  def.name = "rows";
  def.payload_size = sizeof(Row);
  def.indexes.push_back(IndexDef{&RowKey, 1024, true});
  db.CreateTable(def);
}

/// Full visible contents of table 0, keyed by primary key.
std::map<uint64_t, std::vector<uint8_t>> DumpTable(Database& db) {
  std::map<uint64_t, std::vector<uint8_t>> out;
  const uint32_t payload_size = db.PayloadSize(0);
  Status s = db.RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* t) {
    out.clear();
    return db.ScanTable(t, 0, [&](const void* p) {
      const auto* bytes = static_cast<const uint8_t*>(p);
      out[db.PrimaryKeyOfPayload(0, p)] =
          std::vector<uint8_t>(bytes, bytes + payload_size);
      return true;
    });
  });
  EXPECT_TRUE(s.ok());
  return out;
}

Status InsertRow(Database& db, uint64_t key, uint64_t value) {
  return db.RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* t) {
    Row row{key, value, key ^ 0xABCDull};
    return db.Insert(t, 0, &row);
  });
}

class CrashRecoveryTest : public ::testing::TestWithParam<Scheme> {
 protected:
  // Everything a test writes (segments, checkpoints, copies) lives in one
  // directory per scheme and process, emptied up front: segment sinks append
  // to whatever segments already exist, so a rerun must start clean.
  CrashRecoveryTest()
      : dir_(::testing::TempDir() + "/crash_" +
             std::to_string(static_cast<int>(GetParam())) + "_" +
             std::to_string(::getpid())),
        prefix_(dir_ + "/db") {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~CrashRecoveryTest() override { fs::remove_all(dir_); }

  /// Log at the default segment size, so every test run fits in one
  /// segment; synchronous commits (every committed transaction is on disk
  /// before the next starts — the deterministic crash model).
  DatabaseOptions OneSegmentOptions() {
    DatabaseOptions opts;
    opts.scheme = GetParam();
    opts.log_mode = LogMode::kSync;
    opts.log_path = prefix_;
    return opts;
  }

  /// The newest (append-receiving) segment of `prefix`.
  static std::string LastSegment(const std::string& prefix) {
    const auto segments = logseg::ListSegments(prefix);
    return segments.empty() ? std::string() : segments.back().path;
  }

  /// Segmented log with tiny segments (forces rotation) + checkpoint path.
  DatabaseOptions SegmentedOptions(uint64_t segment_bytes = 2048) {
    DatabaseOptions opts;
    opts.scheme = GetParam();
    opts.log_mode = LogMode::kSync;
    opts.log_path = prefix_;
    opts.log_segment_bytes = segment_bytes;
    opts.checkpoint_path = prefix_ + ".ckpt";
    return opts;
  }

  const std::string dir_;
  const std::string prefix_;
};

/// Parse the records of one segment file (its bytes after the header).
/// False on a torn tail, like ParseAllRecords.
bool ParseSegment(const std::string& path,
                  std::vector<ParsedLogRecord>* records) {
  const std::vector<uint8_t> bytes = ReadLogFile(path);
  if (bytes.size() < logseg::kHeaderSize) return bytes.empty();
  return ParseAllRecords(bytes, records, nullptr, logseg::kHeaderSize);
}

// --- torn tail ---------------------------------------------------------------

TEST_P(CrashRecoveryTest, TornTailRecoversCommittedPrefix) {
  constexpr uint64_t kTxns = 40;
  {
    Database db(OneSegmentOptions());
    DefineSchema(db);
    for (uint64_t k = 0; k < kTxns; ++k) {
      ASSERT_TRUE(InsertRow(db, k, k * 10).ok());
    }
  }
  const std::string log = LastSegment(prefix_);
  ASSERT_FALSE(log.empty());
  const uint64_t full_size = static_cast<uint64_t>(fs::file_size(log));
  ASSERT_GT(full_size, logseg::kHeaderSize);

  // Crash images: cut the last segment at arbitrary offsets, including
  // mid-record and inside the segment header.
  const std::string torn_prefix = prefix_ + "_torn";
  const std::string torn = logseg::SegmentPath(torn_prefix, 1);
  for (uint64_t cut : {full_size - 1, full_size - 13, full_size / 2,
                       full_size / 3, uint64_t{7}}) {
    fs::copy_file(log, torn, fs::copy_options::overwrite_existing);
    fs::resize_file(torn, cut);
    // A cut can land exactly on a record boundary, leaving a clean log.
    std::vector<ParsedLogRecord> probe;
    const bool cut_mid_record = !ParseSegment(torn, &probe);

    DatabaseOptions fresh;
    fresh.scheme = GetParam();
    fresh.log_mode = LogMode::kDisabled;
    Database db(fresh);
    DefineSchema(db);
    RecoveryOptions recovery;
    recovery.log_path = torn_prefix;
    ASSERT_TRUE(RecoverDatabase(db, recovery).ok()) << "cut=" << cut;

    // Committed-prefix semantics: with kSync + a single-threaded writer the
    // log holds records in commit order, so the recovered keys must be
    // exactly {0..K-1} for some K, each with its committed value.
    auto contents = DumpTable(db);
    uint64_t expect = 0;
    for (const auto& [key, payload] : contents) {
      EXPECT_EQ(key, expect) << "cut=" << cut;
      Row row{};
      std::memcpy(&row, payload.data(), sizeof(Row));
      EXPECT_EQ(row.value, key * 10);
      EXPECT_EQ(row.extra, key ^ 0xABCDull);
      ++expect;
    }
    EXPECT_LE(contents.size(), kTxns);
    // The torn bytes were truncated off the segment (continued logs must
    // stay parseable), and the event was counted.
    EXPECT_LE(fs::file_size(torn), cut) << "cut=" << cut;
    EXPECT_EQ(db.stats().Get(Stat::kRecoveryTornTails),
              cut_mid_record ? 1u : 0u)
        << "cut=" << cut;
  }
}

// --- recover-then-continue ---------------------------------------------------

TEST_P(CrashRecoveryTest, ReopenPreservesExistingLog) {
  // Before the append-mode fix, the second construction opened the log with
  // "wb" and silently destroyed phase A.
  {
    Database db(OneSegmentOptions());
    DefineSchema(db);
    for (uint64_t k = 0; k < 10; ++k) ASSERT_TRUE(InsertRow(db, k, k).ok());
  }
  {
    Status status;
    RecoveryReport report;
    auto db = Database::Open(OneSegmentOptions(), DefineSchema, &status, &report);
    ASSERT_NE(db, nullptr) << status.ToString();
    EXPECT_EQ(report.records_replayed, 10u);
    EXPECT_EQ(DumpTable(*db).size(), 10u);
    for (uint64_t k = 10; k < 20; ++k) {
      ASSERT_TRUE(InsertRow(*db, k, k).ok());
    }
  }
  {
    Status status;
    RecoveryReport report;
    auto db = Database::Open(OneSegmentOptions(), DefineSchema, &status, &report);
    ASSERT_NE(db, nullptr) << status.ToString();
    EXPECT_EQ(report.records_replayed, 20u);
    auto contents = DumpTable(*db);
    ASSERT_EQ(contents.size(), 20u);
    for (uint64_t k = 0; k < 20; ++k) EXPECT_EQ(contents.count(k), 1u);
  }
}

TEST_P(CrashRecoveryTest, SegmentedRoundTripWithRotationAndTornTail) {
  std::map<uint64_t, uint64_t> model;
  {
    auto db = Database::Open(SegmentedOptions(), DefineSchema);
    ASSERT_NE(db, nullptr);
    for (uint64_t k = 0; k < 60; ++k) {
      ASSERT_TRUE(InsertRow(*db, k, k * 3).ok());
      model[k] = k * 3;
    }
  }
  ASSERT_GT(logseg::ListSegments(prefix_).size(), 1u) << "no rotation";

  // Tear the newest segment mid-record.
  auto segments = logseg::ListSegments(prefix_);
  const auto& tail = segments.back();
  ASSERT_GT(tail.size, logseg::kHeaderSize + 5);
  fs::resize_file(tail.path, tail.size - 5);

  uint64_t prefix_max = 0;
  {
    Status status;
    RecoveryReport report;
    auto db =
        Database::Open(SegmentedOptions(), DefineSchema, &status, &report);
    ASSERT_NE(db, nullptr) << status.ToString();
    EXPECT_GE(report.torn_tails, 1u);
    EXPECT_GE(report.torn_bytes_dropped, 1u);
    auto contents = DumpTable(*db);
    // Committed prefix: contiguous keys from 0, shorter than the full run.
    ASSERT_FALSE(contents.empty());
    uint64_t expect = 0;
    for (const auto& [key, payload] : contents) {
      EXPECT_EQ(key, expect);
      Row row{};
      std::memcpy(&row, payload.data(), sizeof(Row));
      EXPECT_EQ(row.value, model[key]);
      ++expect;
    }
    EXPECT_LT(contents.size(), 60u);
    prefix_max = expect;  // first missing key
    // Continue: the truncated tail must accept appends cleanly.
    for (uint64_t k = prefix_max; k < prefix_max + 20; ++k) {
      ASSERT_TRUE(InsertRow(*db, k, k * 3).ok());
    }
  }
  {
    auto db = Database::Open(SegmentedOptions(), DefineSchema);
    ASSERT_NE(db, nullptr);
    auto contents = DumpTable(*db);
    EXPECT_EQ(contents.size(), prefix_max + 20);
  }
}

// --- checkpoint + tail -------------------------------------------------------

TEST_P(CrashRecoveryTest, CheckpointPlusTailEqualsFullReplay) {
  std::mt19937_64 rng(42);
  {
    auto db = Database::Open(SegmentedOptions(), DefineSchema);
    ASSERT_NE(db, nullptr);
    for (uint64_t k = 0; k < 50; ++k) {
      ASSERT_TRUE(InsertRow(*db, k, k).ok());
    }
    // Checkpoint WITHOUT truncation so the full log survives for the
    // equivalence check below.
    Checkpointer checkpointer(
        *db, Checkpointer::Options{prefix_ + ".ckpt", /*truncate_log=*/false});
    CheckpointStats stats;
    ASSERT_TRUE(checkpointer.Take(&stats).ok());
    EXPECT_EQ(stats.rows, 50u);
    EXPECT_GT(stats.snapshot_ts, 0u);
    // Post-checkpoint tail: updates, deletes, inserts.
    for (int i = 0; i < 120; ++i) {
      uint64_t k = rng() % 50;
      ASSERT_TRUE(db->RunTransaction(IsolationLevel::kReadCommitted,
                                     [&](Txn* t) {
                                       return db->Update(t, 0, 0, k,
                                                         [&](void* p) {
                                                           static_cast<Row*>(p)
                                                               ->value += 7;
                                                         });
                                     })
                      .ok());
    }
    for (uint64_t k = 0; k < 50; k += 10) {
      ASSERT_TRUE(db->RunTransaction(IsolationLevel::kReadCommitted,
                                     [&](Txn* t) { return db->Delete(t, 0, 0, k); })
                      .ok());
    }
    for (uint64_t k = 50; k < 70; ++k) {
      ASSERT_TRUE(InsertRow(*db, k, k * 11).ok());
    }
  }

  // Recovery A: checkpoint + tail.
  std::map<uint64_t, std::vector<uint8_t>> via_checkpoint;
  RecoveryReport report_a;
  {
    Status status;
    auto db =
        Database::Open(SegmentedOptions(), DefineSchema, &status, &report_a);
    ASSERT_NE(db, nullptr) << status.ToString();
    EXPECT_TRUE(report_a.checkpoint_loaded);
    EXPECT_EQ(report_a.checkpoint_rows, 50u);
    via_checkpoint = DumpTable(*db);
  }
  // Recovery B: ignore the checkpoint, replay the whole log.
  std::map<uint64_t, std::vector<uint8_t>> via_full_log;
  RecoveryReport report_b;
  {
    DatabaseOptions opts = SegmentedOptions();
    opts.checkpoint_path.clear();
    Status status;
    auto db = Database::Open(opts, DefineSchema, &status, &report_b);
    ASSERT_NE(db, nullptr) << status.ToString();
    EXPECT_FALSE(report_b.checkpoint_loaded);
    EXPECT_EQ(report_b.records_skipped, 0u);
    via_full_log = DumpTable(*db);
  }
  // Checkpoint recovery must have done strictly less log work: segments
  // below covered_seq are skipped unread, and any covered records in the
  // tail segments are skipped by timestamp.
  EXPECT_LT(report_a.records_parsed, report_b.records_parsed);
  EXPECT_EQ(report_a.records_replayed + report_a.records_skipped,
            report_a.records_parsed);
  // Byte-identical table contents.
  EXPECT_EQ(via_checkpoint, via_full_log);
  EXPECT_EQ(via_checkpoint.size(), 65u);  // 50 - 5 deleted + 20 inserted
}

TEST_P(CrashRecoveryTest, CheckpointUnderLoadMatchesFullReplay) {
  // Checkpoints run against live traffic: the MV image must be an exact
  // snapshot mid-stream, the 1V image a fuzzy one that tolerant tail replay
  // converges. Equivalence against full-log replay proves both.
  {
    auto db = Database::Open(SegmentedOptions(/*segment_bytes=*/4096),
                             DefineSchema);
    ASSERT_NE(db, nullptr);
    for (uint64_t k = 0; k < 64; ++k) {
      ASSERT_TRUE(InsertRow(*db, k, k).ok());
    }
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (uint32_t w = 0; w < 3; ++w) {
      writers.emplace_back([&, w] {
        std::mt19937_64 rng(100 + w);
        uint64_t next_insert = 1000 + w * 10000;
        while (!stop.load(std::memory_order_acquire)) {
          const uint64_t dice = rng() % 10;
          if (dice < 6) {
            uint64_t k = rng() % 64;
            db->RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* t) {
              Status s = db->Update(t, 0, 0, k, [&](void* p) {
                static_cast<Row*>(p)->value += w + 1;
              });
              return s.IsNotFound() ? Status::OK() : s;  // deleted race
            });
          } else if (dice < 8) {
            InsertRow(*db, next_insert++, dice);
          } else {
            uint64_t k = rng() % 64;
            db->RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* t) {
              Status s = db->Delete(t, 0, 0, k);
              return s.IsNotFound() ? Status::OK() : s;
            });
          }
        }
      });
    }
    // Several checkpoints mid-traffic, truncation off so the full log
    // survives for the equivalence recovery below.
    Checkpointer checkpointer(
        *db, Checkpointer::Options{prefix_ + ".ckpt", /*truncate_log=*/false});
    for (int i = 0; i < 3; ++i) {
      CheckpointStats stats;
      ASSERT_TRUE(checkpointer.Take(&stats).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    stop.store(true, std::memory_order_release);
    for (auto& t : writers) t.join();
  }

  std::map<uint64_t, std::vector<uint8_t>> via_checkpoint;
  {
    Status status;
    RecoveryReport report;
    auto db =
        Database::Open(SegmentedOptions(4096), DefineSchema, &status, &report);
    ASSERT_NE(db, nullptr) << status.ToString();
    EXPECT_TRUE(report.checkpoint_loaded);
    via_checkpoint = DumpTable(*db);
  }
  std::map<uint64_t, std::vector<uint8_t>> via_full_log;
  {
    DatabaseOptions opts = SegmentedOptions(4096);
    opts.checkpoint_path.clear();
    Status status;
    auto db = Database::Open(opts, DefineSchema, &status);
    ASSERT_NE(db, nullptr) << status.ToString();
    via_full_log = DumpTable(*db);
  }
  EXPECT_EQ(via_checkpoint, via_full_log);
}

TEST_P(CrashRecoveryTest, ConcurrentCheckpointsSerializeAndStayValid) {
  {
    auto db = Database::Open(SegmentedOptions(/*segment_bytes=*/1024),
                             DefineSchema);
    ASSERT_NE(db, nullptr);
    for (uint64_t k = 0; k < 40; ++k) {
      ASSERT_TRUE(InsertRow(*db, k, k).ok());
    }
    // Racing checkpoint passes (periodic + manual, say) must serialize;
    // interleaved writers would publish a checksum-corrupt file.
    std::vector<std::thread> checkpointers;
    std::atomic<int> failures{0};
    for (int t = 0; t < 3; ++t) {
      checkpointers.emplace_back([&] {
        for (int i = 0; i < 4; ++i) {
          if (!db->Checkpoint().ok()) failures.fetch_add(1);
        }
      });
    }
    for (auto& t : checkpointers) t.join();
    EXPECT_EQ(failures.load(), 0);
    CheckpointInfo info;
    EXPECT_TRUE(InspectCheckpoint(prefix_ + ".ckpt", &info).ok());
  }
  Status status;
  RecoveryReport report;
  auto db = Database::Open(SegmentedOptions(1024), DefineSchema, &status,
                           &report);
  ASSERT_NE(db, nullptr) << status.ToString();
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_EQ(DumpTable(*db).size(), 40u);
}

TEST_P(CrashRecoveryTest, CheckpointTruncationReclaimsSegments) {
  auto db = Database::Open(SegmentedOptions(/*segment_bytes=*/1024),
                           DefineSchema);
  ASSERT_NE(db, nullptr);
  for (uint64_t k = 0; k < 150; ++k) {
    ASSERT_TRUE(InsertRow(*db, k, k).ok());
  }
  const auto before = logseg::ListSegments(prefix_);
  uint64_t bytes_before = 0;
  for (const auto& seg : before) bytes_before += seg.size;
  ASSERT_GT(before.size(), 2u);

  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_GE(db->stats().Get(Stat::kCheckpointsTaken), 1u);

  const auto after = logseg::ListSegments(prefix_);
  uint64_t bytes_after = 0;
  for (const auto& seg : after) bytes_after += seg.size;
  EXPECT_LT(after.size(), before.size());
  EXPECT_LT(bytes_after, bytes_before);
  EXPECT_GE(db->stats().Get(Stat::kLogSegmentsDeleted),
            before.size() - after.size());

  // Post-truncation writes + recovery still see everything.
  for (uint64_t k = 150; k < 170; ++k) {
    ASSERT_TRUE(InsertRow(*db, k, k).ok());
  }
  db.reset();
  Status status;
  RecoveryReport report;
  auto recovered = Database::Open(SegmentedOptions(/*segment_bytes=*/1024),
                                  DefineSchema, &status, &report);
  ASSERT_NE(recovered, nullptr) << status.ToString();
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_EQ(DumpTable(*recovered).size(), 170u);
}

TEST_P(CrashRecoveryTest, MissingSegmentOrCheckpointRefusesPartialRecovery) {
  {
    auto db = Database::Open(SegmentedOptions(/*segment_bytes=*/1024),
                             DefineSchema);
    ASSERT_NE(db, nullptr);
    for (uint64_t k = 0; k < 150; ++k) {
      ASSERT_TRUE(InsertRow(*db, k, k).ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());  // truncates: segments now start > 1
    for (uint64_t k = 150; k < 200; ++k) {
      ASSERT_TRUE(InsertRow(*db, k, k).ok());
    }
  }
  auto segments = logseg::ListSegments(prefix_);
  ASSERT_GT(segments.front().seq, 1u);
  ASSERT_GT(segments.size(), 2u);

  // Checkpoint gone: the surviving segments no longer account for the
  // truncated prefix; recovering just them would silently lose rows.
  {
    const std::string ckpt = prefix_ + ".ckpt";
    const std::string hidden = ckpt + ".hidden";
    fs::rename(ckpt, hidden);
    Status status;
    auto db = Database::Open(SegmentedOptions(1024), DefineSchema, &status);
    EXPECT_EQ(db, nullptr);
    EXPECT_FALSE(status.ok());
    fs::rename(hidden, ckpt);
  }
  // A deleted middle segment is a sequence gap: same refusal.
  {
    const auto& middle = segments[segments.size() / 2];
    const std::string hidden = middle.path + ".hidden";
    fs::rename(middle.path, hidden);
    Status status;
    auto db = Database::Open(SegmentedOptions(1024), DefineSchema, &status);
    EXPECT_EQ(db, nullptr);
    EXPECT_FALSE(status.ok());
    fs::rename(hidden, middle.path);
  }
  // Intact again: full recovery.
  {
    Status status;
    auto db = Database::Open(SegmentedOptions(1024), DefineSchema, &status);
    ASSERT_NE(db, nullptr) << status.ToString();
    EXPECT_EQ(DumpTable(*db).size(), 200u);
  }
  // Every tail segment lost while the checkpoint survives: the sink
  // recreates segment 1 at construction, which must NOT satisfy a
  // checkpoint covering through a later segment — the post-checkpoint tail
  // is gone and recovery has to say so.
  {
    std::vector<std::pair<std::string, std::string>> hidden;
    for (const auto& seg : logseg::ListSegments(prefix_)) {
      hidden.emplace_back(seg.path, seg.path + ".hidden");
      fs::rename(seg.path, hidden.back().second);
    }
    Status status;
    auto db = Database::Open(SegmentedOptions(1024), DefineSchema, &status);
    EXPECT_EQ(db, nullptr);
    EXPECT_FALSE(status.ok());
    for (const auto& seg : logseg::ListSegments(prefix_)) {
      std::remove(seg.path.c_str());  // the recreated empty segment 1
    }
    for (const auto& [orig, hid] : hidden) fs::rename(hid, orig);
    auto restored = Database::Open(SegmentedOptions(1024), DefineSchema);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(DumpTable(*restored).size(), 200u);
  }
}

// A checkpoint that did not originate locally (log-shipping bootstrap: the
// file arrives from the leader ahead of its covering segments) carries a
// covered_seq claim the local directory cannot back. Recovery must
// revalidate that claim against the LOCAL segment set and refuse while the
// tables are still empty — trusting the shipped header would silently drop
// everything the leader logged after the checkpoint.
TEST_P(CrashRecoveryTest, ShippedCheckpointWithoutCoveringSegmentsRefused) {
  {
    auto db = Database::Open(SegmentedOptions(/*segment_bytes=*/1024),
                             DefineSchema);
    ASSERT_NE(db, nullptr);
    for (uint64_t k = 0; k < 150; ++k) {
      ASSERT_TRUE(InsertRow(*db, k, k).ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    for (uint64_t k = 150; k < 200; ++k) {
      ASSERT_TRUE(InsertRow(*db, k, k).ok());
    }
  }
  const auto segments = logseg::ListSegments(prefix_);
  ASSERT_GT(segments.front().seq, 1u);

  const std::string shipped_prefix = prefix_ + "_shipped";
  DatabaseOptions shipped = SegmentedOptions(1024);
  shipped.log_path = shipped_prefix;
  shipped.checkpoint_path = shipped_prefix + ".ckpt";
  fs::copy_file(prefix_ + ".ckpt", shipped.checkpoint_path,
                fs::copy_options::overwrite_existing);

  // Checkpoint present, segments absent: covered_seq > 1 with no covering
  // run on disk. Refused before a single row loads.
  {
    Status status;
    auto db = Database::Open(shipped, DefineSchema, &status);
    EXPECT_EQ(db, nullptr);
    EXPECT_FALSE(status.ok());
  }
  // The sink auto-creates segment 1 on the failed open; a fresh low-numbered
  // segment still does not satisfy a checkpoint covering a later one.
  {
    Status status;
    auto db = Database::Open(shipped, DefineSchema, &status);
    EXPECT_EQ(db, nullptr);
    EXPECT_FALSE(status.ok());
  }
  // Ship the covering segments too (discarding the recreated segment 1):
  // now the claim is backed and recovery yields the full table.
  for (const auto& seg : logseg::ListSegments(shipped_prefix)) {
    std::remove(seg.path.c_str());
  }
  const std::string base_name = prefix_.substr(prefix_.find_last_of('/') + 1);
  for (const auto& seg : segments) {
    const std::string name = seg.path.substr(seg.path.find_last_of('/') + 1);
    const std::string dest = shipped_prefix + name.substr(base_name.size());
    fs::copy_file(seg.path, dest, fs::copy_options::overwrite_existing);
  }
  {
    Status status;
    auto db = Database::Open(shipped, DefineSchema, &status);
    ASSERT_NE(db, nullptr) << status.ToString();
    EXPECT_EQ(DumpTable(*db).size(), 200u);
  }
  std::remove(shipped.checkpoint_path.c_str());
  for (const auto& seg : logseg::ListSegments(shipped_prefix)) {
    std::remove(seg.path.c_str());
  }
}

TEST_P(CrashRecoveryTest, ListSegmentsAcceptsWidenedSequenceNumbers) {
  // SegmentPath zero-pads to 8 digits but widens beyond 10^8 rotations;
  // the lister must see everything the writer can emit.
  const std::string narrow = logseg::SegmentPath(prefix_, 7);
  const std::string wide = prefix_ + ".123456789.seg";  // 9 digits
  for (const std::string& path : {narrow, wide}) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputc('x', f);
    std::fclose(f);
  }
  auto segments = logseg::ListSegments(prefix_);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments.front().seq, 7u);
  EXPECT_EQ(segments.back().seq, 123456789u);
  std::remove(narrow.c_str());
  std::remove(wide.c_str());
}

TEST_P(CrashRecoveryTest, CheckpointOnlyOpenLoadsWithoutLog) {
  {
    auto db = Database::Open(SegmentedOptions(), DefineSchema);
    ASSERT_NE(db, nullptr);
    for (uint64_t k = 0; k < 30; ++k) {
      ASSERT_TRUE(InsertRow(*db, k, k * 2).ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  // Read-only analytical open: no log, logging disabled, checkpoint only.
  DatabaseOptions opts;
  opts.scheme = GetParam();
  opts.log_mode = LogMode::kDisabled;
  opts.checkpoint_path = prefix_ + ".ckpt";
  Status status;
  RecoveryReport report;
  auto db = Database::Open(opts, DefineSchema, &status, &report);
  ASSERT_NE(db, nullptr) << status.ToString();
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_EQ(report.checkpoint_rows, 30u);
  EXPECT_EQ(DumpTable(*db).size(), 30u);
}

// --- parallel replay ---------------------------------------------------------

TEST_P(CrashRecoveryTest, ParallelReplayMatchesSerial) {
  std::mt19937_64 rng(7);
  {
    Database db(OneSegmentOptions());
    DefineSchema(db);
    for (uint64_t k = 0; k < 200; ++k) {
      ASSERT_TRUE(InsertRow(db, k, k).ok());
    }
    for (int i = 0; i < 800; ++i) {
      uint64_t k = rng() % 200;
      ASSERT_TRUE(db.RunTransaction(IsolationLevel::kReadCommitted,
                                    [&](Txn* t) {
                                      return db.Update(t, 0, 0, k, [&](void* p) {
                                        auto* row = static_cast<Row*>(p);
                                        row->value = row->value * 31 + 1;
                                      });
                                    })
                      .ok());
    }
    for (uint64_t k = 0; k < 200; k += 9) {
      ASSERT_TRUE(db.RunTransaction(IsolationLevel::kReadCommitted,
                                    [&](Txn* t) { return db.Delete(t, 0, 0, k); })
                      .ok());
    }
  }

  auto recover = [&](uint32_t threads) {
    DatabaseOptions fresh;
    fresh.scheme = GetParam();
    fresh.log_mode = LogMode::kDisabled;
    Database db(fresh);
    DefineSchema(db);
    RecoveryOptions options;
    options.log_path = prefix_;
    options.threads = threads;
    RecoveryReport report;
    EXPECT_TRUE(RecoverDatabase(db, options, &report).ok())
        << "threads=" << threads;
    return DumpTable(db);
  };
  auto serial = recover(1);
  auto parallel = recover(4);
  EXPECT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(serial, parallel);  // byte-identical contents
}

// --- interleaved committers ---------------------------------------------------

/// Commits from threads taking turns on shared rows leave a log whose
/// replay order matters. A crash image of such a log must (a) replay to
/// byte-identical contents serially and in parallel, and (b) leave the
/// recovered clock strictly above the replayed maximum -- a post-recovery
/// commit reusing a replayed timestamp would corrupt the replay order of
/// the *next* recovery.
TEST_P(CrashRecoveryTest, InterleavedCommittersReplayDeterministically) {
  constexpr uint32_t kThreads = 3;
  constexpr uint32_t kRounds = 40;  // committed transactions per thread
  constexpr uint64_t kShared = 8;
  {
    DatabaseOptions opts = OneSegmentOptions();
    Database db(opts);
    DefineSchema(db);
    for (uint64_t k = 0; k < kShared; ++k) {
      ASSERT_TRUE(InsertRow(db, k, 1).ok());
    }
    // A turnstile alternates commit order across threads deterministically:
    // the maximally interleaved schedule, independent of the scheduler.
    std::atomic<uint32_t> turn{0};
    std::vector<std::thread> writers;
    for (uint32_t w = 0; w < kThreads; ++w) {
      writers.emplace_back([&, w] {
        for (uint32_t round = 0; round < kRounds; ++round) {
          while (turn.load(std::memory_order_acquire) % kThreads != w) {
            std::this_thread::yield();
          }
          const uint64_t shared_key = (round + w) % kShared;
          const uint64_t own_key = 1000 + w * 1000 + round;
          Status s = db.RunTransaction(
              IsolationLevel::kReadCommitted, [&](Txn* t) {
                // Order-sensitive accumulation on a shared row: replay in
                // anything but end-timestamp order changes the bytes.
                Status u = db.Update(t, 0, 0, shared_key, [&](void* p) {
                  auto* row = static_cast<Row*>(p);
                  row->value = row->value * 31 + w + 1;
                });
                if (!u.ok()) return u;
                Row row{own_key, w, own_key ^ 0xABCDull};
                return db.Insert(t, 0, &row);
              });
          EXPECT_TRUE(s.ok());
          turn.fetch_add(1, std::memory_order_release);
        }
      });
    }
    for (auto& t : writers) t.join();
  }

  // Crash: tear the last segment mid-record.
  const std::string log = LastSegment(prefix_);
  ASSERT_FALSE(log.empty());
  const uint64_t full_size = static_cast<uint64_t>(fs::file_size(log));
  fs::resize_file(log, full_size - 9);

  std::vector<ParsedLogRecord> records;
  (void)ParseSegment(log, &records);  // false: torn tail
  ASSERT_GT(records.size(), kShared);

  auto recover = [&](uint32_t threads, RecoveryReport* report) {
    DatabaseOptions fresh;
    fresh.scheme = GetParam();
    fresh.log_mode = LogMode::kDisabled;
    auto db = std::make_unique<Database>(fresh);
    DefineSchema(*db);
    RecoveryOptions options;
    options.log_path = prefix_;
    options.threads = threads;
    EXPECT_TRUE(RecoverDatabase(*db, options, report).ok())
        << "threads=" << threads;
    return db;
  };
  RecoveryReport serial_report, parallel_report;
  auto serial_db = recover(1, &serial_report);
  auto parallel_db = recover(4, &parallel_report);
  EXPECT_EQ(serial_report.max_timestamp, parallel_report.max_timestamp);
  EXPECT_EQ(DumpTable(*serial_db), DumpTable(*parallel_db));

  // Post-recovery commits draw strictly above everything replayed. Check
  // what actually reaches the log after a recover-and-continue open: the
  // replay order of the *next* recovery depends on these records sorting
  // after all existing ones.
  EXPECT_GE(serial_db->LastCommitTimestamp(), serial_report.max_timestamp);
  {
    DatabaseOptions opts = OneSegmentOptions();
    auto db = Database::Open(opts, DefineSchema);
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(InsertRow(*db, 999999, 1).ok());
  }
  ASSERT_EQ(LastSegment(prefix_), log);  // the continued log extends it
  std::vector<ParsedLogRecord> continued;
  ASSERT_TRUE(ParseSegment(log, &continued));
  ASSERT_GT(continued.size(), records.size());
  for (size_t i = records.size(); i < continued.size(); ++i) {
    EXPECT_GT(continued[i].end_ts, serial_report.max_timestamp);
  }
}

// --- failure surfacing -------------------------------------------------------

TEST_P(CrashRecoveryTest, BadLogPathSurfacesAtOpen) {
  DatabaseOptions opts;
  opts.scheme = GetParam();
  opts.log_mode = LogMode::kAsync;
  opts.log_path = "/nonexistent_dir_mvstore/x.log";
  {
    Database db(opts);  // construction warns on stderr but stays usable
    EXPECT_FALSE(db.log_status().ok());
  }
  Status status;
  auto db = Database::Open(opts, DefineSchema, &status);
  EXPECT_EQ(db, nullptr);
  EXPECT_FALSE(status.ok());
}

TEST_P(CrashRecoveryTest, ZeroSegmentSizeSurfacesAtOpen) {
  // A zero rotation target would cut a new segment file per group commit;
  // the sink refuses it the way it refuses an unopenable path.
  DatabaseOptions opts = OneSegmentOptions();
  opts.log_segment_bytes = 0;
  {
    Database db(opts);
    EXPECT_FALSE(db.log_status().ok());
  }
  Status status;
  auto db = Database::Open(opts, DefineSchema, &status);
  EXPECT_EQ(db, nullptr);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(logseg::ListSegments(prefix_).empty());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, CrashRecoveryTest,
                         ::testing::Values(Scheme::kSingleVersion,
                                           Scheme::kMultiVersionLocking,
                                           Scheme::kMultiVersionOptimistic),
                         [](const auto& info) {
                           switch (info.param) {
                             case Scheme::kSingleVersion:
                               return std::string("SV");
                             case Scheme::kMultiVersionLocking:
                               return std::string("MVL");
                             default:
                               return std::string("MVO");
                           }
                         });

}  // namespace
}  // namespace mvstore
