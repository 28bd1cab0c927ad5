// Redo logging: record serialization round trips, diff-based update records,
// group commit batching, sync vs async modes (paper Sections 2.4, 5).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

#include "cc/mv_engine.h"
#include "common/failpoint.h"
#include "core/database.h"
#include "core/recovery.h"
#include "log/log_record.h"
#include "log/log_segment.h"
#include "log/logger.h"

namespace mvstore {
namespace {

/// Log prefix inside a fresh, empty per-test directory: the segment sink
/// appends to whatever segments already exist under a prefix, so a rerun
/// must not find the previous run's files.
std::string FreshLogPrefix(const std::string& test) {
  const std::string dir = ::testing::TempDir() + "/mvstore_logger_" + test;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir + "/wal";
}

/// Every byte after the segment headers, across all segments in order.
std::vector<uint8_t> SegmentPayload(const std::string& prefix) {
  std::vector<uint8_t> out;
  for (const logseg::SegmentFile& seg : logseg::ListSegments(prefix)) {
    std::vector<uint8_t> bytes = ReadLogFile(seg.path);
    if (bytes.size() <= logseg::kHeaderSize) continue;
    out.insert(out.end(), bytes.begin() + logseg::kHeaderSize, bytes.end());
  }
  return out;
}

TEST(LogRecordTest, InsertRoundTrip) {
  std::vector<uint8_t> buf;
  LogRecordBuilder builder(buf);
  builder.BeginRecord(/*end_ts=*/42, /*txn_id=*/7);
  uint8_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  builder.AddInsert(/*table=*/3, payload, sizeof(payload));
  builder.EndRecord();

  size_t pos = 0;
  ParsedLogRecord rec;
  ASSERT_TRUE(ParseLogRecord(buf, pos, &rec));
  EXPECT_EQ(rec.end_ts, 42u);
  EXPECT_EQ(rec.txn_id, 7u);
  ASSERT_EQ(rec.ops.size(), 1u);
  EXPECT_EQ(rec.ops[0].op, LogOp::kInsert);
  EXPECT_EQ(rec.ops[0].table, 3u);
  EXPECT_EQ(rec.ops[0].bytes, std::vector<uint8_t>(payload, payload + 8));
  EXPECT_EQ(pos, buf.size());
}

TEST(LogRecordTest, UpdateLogsOnlyTheDiff) {
  std::vector<uint8_t> buf;
  LogRecordBuilder builder(buf);
  builder.BeginRecord(1, 1);
  uint8_t before[16] = {0};
  uint8_t after[16] = {0};
  after[5] = 0xAA;
  after[6] = 0xBB;
  builder.AddUpdate(0, /*key=*/77, before, after, sizeof(before));
  builder.EndRecord();

  size_t pos = 0;
  ParsedLogRecord rec;
  ASSERT_TRUE(ParseLogRecord(buf, pos, &rec));
  ASSERT_EQ(rec.ops.size(), 1u);
  EXPECT_EQ(rec.ops[0].op, LogOp::kUpdate);
  EXPECT_EQ(rec.ops[0].key, 77u);
  EXPECT_EQ(rec.ops[0].offset, 5u);
  EXPECT_EQ(rec.ops[0].bytes, (std::vector<uint8_t>{0xAA, 0xBB}));
}

TEST(LogRecordTest, IdenticalPayloadsProduceEmptyDiff) {
  std::vector<uint8_t> buf;
  LogRecordBuilder builder(buf);
  builder.BeginRecord(1, 1);
  uint8_t data[16] = {9};
  builder.AddUpdate(0, /*key=*/9, data, data, sizeof(data));
  builder.EndRecord();

  size_t pos = 0;
  ParsedLogRecord rec;
  ASSERT_TRUE(ParseLogRecord(buf, pos, &rec));
  EXPECT_TRUE(rec.ops[0].bytes.empty());
}

TEST(LogRecordTest, DeleteLogsKey) {
  std::vector<uint8_t> buf;
  LogRecordBuilder builder(buf);
  builder.BeginRecord(1, 1);
  builder.AddDelete(2, 0xDEADBEEF);
  builder.EndRecord();

  size_t pos = 0;
  ParsedLogRecord rec;
  ASSERT_TRUE(ParseLogRecord(buf, pos, &rec));
  EXPECT_EQ(rec.ops[0].op, LogOp::kDelete);
  EXPECT_EQ(rec.ops[0].key, 0xDEADBEEFu);
}

TEST(LogRecordTest, MultipleRecordsParseSequentially) {
  std::vector<uint8_t> buf;
  for (int i = 0; i < 5; ++i) {
    LogRecordBuilder builder(buf);
    builder.BeginRecord(i, i);
    builder.AddDelete(0, i);
    builder.EndRecord();
  }
  size_t pos = 0;
  ParsedLogRecord rec;
  int count = 0;
  while (ParseLogRecord(buf, pos, &rec)) {
    EXPECT_EQ(rec.end_ts, static_cast<Timestamp>(count));
    ++count;
  }
  EXPECT_EQ(count, 5);
}

TEST(LoggerTest, AsyncAppendsReachSink) {
  auto* sink = new MemoryLogSink();
  Logger logger(LogMode::kAsync, sink);
  std::vector<uint8_t> rec{1, 2, 3, 4};
  for (int i = 0; i < 100; ++i) logger.Append(rec);
  logger.FlushAll();
  EXPECT_EQ(sink->Contents().size(), 400u);
  EXPECT_EQ(logger.records_appended(), 100u);
}

TEST(LoggerTest, SyncWaitsForFlush) {
  auto* sink = new MemoryLogSink();
  Logger logger(LogMode::kSync, sink);
  std::vector<uint8_t> rec{9, 9, 9};
  logger.Append(rec);  // returns only after the batch is flushed
  EXPECT_EQ(sink->Contents().size(), 3u);
}

/// DatabaseOptions::fsync_log: the fsync'd sink must behave identically at
/// the API level (bytes land in the segment); the durability difference is
/// only observable across an OS crash, which a unit test cannot stage.
TEST(LoggerTest, FsyncModeWritesIdenticalBytes) {
  const std::string prefix = FreshLogPrefix("fsync");
  {
    auto* sink = new SegmentedLogSink(
        prefix, SegmentedLogSink::Options{1 << 20, /*use_fsync=*/true});
    ASSERT_TRUE(sink->status().ok());
    Logger logger(LogMode::kSync, sink);
    std::vector<uint8_t> rec{7, 7, 7, 7, 7};
    logger.Append(rec);  // returns only after an fsync'd flush
  }
  const std::vector<uint8_t> payload = SegmentPayload(prefix);
  ASSERT_EQ(payload.size(), 5u);
  for (uint8_t b : payload) EXPECT_EQ(b, 7);
}

/// The reopen bug this suite guards against: a sink that opened its file
/// with "wb" made reconstructing a database on an existing log path
/// silently destroy all prior committed records.
TEST(LoggerTest, SegmentSinkAppendsAcrossReopen) {
  const std::string prefix = FreshLogPrefix("reopen");
  for (int round = 0; round < 3; ++round) {
    auto* sink = new SegmentedLogSink(prefix, SegmentedLogSink::Options{});
    ASSERT_TRUE(sink->status().ok());
    Logger logger(LogMode::kSync, sink);
    std::vector<uint8_t> rec{static_cast<uint8_t>(round), 1, 2};
    logger.Append(rec);
  }
  EXPECT_EQ(logseg::ListSegments(prefix).size(), 1u);  // resumed, not rotated
  const std::vector<uint8_t> payload = SegmentPayload(prefix);
  ASSERT_EQ(payload.size(), 9u);  // three rounds of three bytes, none lost
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(payload[round * 3], static_cast<uint8_t>(round));
  }
}

TEST(LoggerTest, UnopenableSinkSurfacesStatus) {
  SegmentedLogSink sink("/nonexistent_dir_mvstore/x",
                        SegmentedLogSink::Options{});
  EXPECT_FALSE(sink.status().ok());
}

/// A flush the device rejects (ENOSPC, EIO at writeback; injected at the
/// sink's sync step) must report broken durability rather than silently
/// dropping bytes.
TEST(LoggerTest, FailedSyncSurfacesStatus) {
  failpoint::DisarmAll();
  const std::string prefix = FreshLogPrefix("failed_sync");
  auto* sink = new SegmentedLogSink(prefix, SegmentedLogSink::Options{});
  ASSERT_TRUE(sink->status().ok());
  Logger logger(LogMode::kSync, sink);
  ASSERT_TRUE(failpoint::ArmSpec("log.append.sync=error"));
  std::vector<uint8_t> rec(128, 0x42);
  logger.Append(rec);  // flushed (and failed) before returning
  failpoint::DisarmAll();
  EXPECT_FALSE(logger.sink_status().ok());
}

/// PauseForReplay drops appended records (they are already in the log being
/// replayed) and ResumeAfterReplay restores normal appends.
TEST(LoggerTest, ReplayPauseDropsAppends) {
  auto* sink = new MemoryLogSink();
  Logger logger(LogMode::kSync, sink);
  std::vector<uint8_t> rec{1, 2, 3};
  logger.Append(rec);
  logger.PauseForReplay();
  logger.Append(rec);  // dropped; must not block in kSync either
  logger.ResumeAfterReplay();
  logger.Append(rec);
  EXPECT_EQ(sink->Contents().size(), 6u);
}

TEST(LoggerTest, DisabledDropsEverything) {
  Logger logger(LogMode::kDisabled, nullptr);
  std::vector<uint8_t> rec{1};
  logger.Append(rec);
  EXPECT_EQ(logger.records_appended(), 0u);
}

/// DatabaseOptions::group_commit_us: concurrent committers coalesce into
/// one flush (one fsync when the sink fsyncs) — strictly fewer sink
/// batches than records under concurrency, with every record accounted
/// for in the group-size counter.
TEST(LoggerTest, GroupCommitCoalescesConcurrentAppenders) {
  const std::string prefix = FreshLogPrefix("group_commit");
  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kRecords = 25;
  StatsCollector stats;
  auto* sink = new SegmentedLogSink(
      prefix, SegmentedLogSink::Options{1 << 20, /*use_fsync=*/true}, &stats);
  ASSERT_TRUE(sink->status().ok());
  {
    Logger logger(LogMode::kSync, sink, /*group_commit_us=*/1000, &stats);
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        std::vector<uint8_t> rec(16, 0x3C);
        for (uint32_t i = 0; i < kRecords; ++i) logger.Append(rec);
      });
    }
    for (auto& th : threads) th.join();
    logger.FlushAll();
    const uint64_t commits = logger.records_appended();
    ASSERT_EQ(commits, kThreads * kRecords);
    // Each counted batch is one Write+Sync (= one fsync on this sink).
    EXPECT_GT(stats.Get(Stat::kLogGroupCommits), 0u);
    EXPECT_LT(stats.Get(Stat::kLogGroupCommits), commits);
    EXPECT_EQ(stats.Get(Stat::kLogGroupSizeSum), commits);
  }
}

/// With the window at 0 the flusher behaves exactly as before (flush as
/// soon as it wakes), and the counters still balance.
TEST(LoggerTest, ZeroWindowStillCountsBatches) {
  StatsCollector stats;
  auto* sink = new MemoryLogSink();
  {
    Logger logger(LogMode::kSync, sink, /*group_commit_us=*/0, &stats);
    std::vector<uint8_t> rec{1, 2, 3};
    for (int i = 0; i < 10; ++i) logger.Append(rec);
    logger.FlushAll();
    EXPECT_EQ(sink->Contents().size(), 30u);
  }
  EXPECT_GT(stats.Get(Stat::kLogGroupCommits), 0u);
  EXPECT_EQ(stats.Get(Stat::kLogGroupSizeSum), 10u);
}

TEST(LoggerTest, ConcurrentAppendersAllFlushed) {
  auto* sink = new MemoryLogSink();  // owned by the logger
  Logger logger(LogMode::kAsync, sink);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      std::vector<uint8_t> rec(10, 0x5A);
      for (int i = 0; i < 500; ++i) logger.Append(rec);
    });
  }
  for (auto& th : threads) th.join();
  logger.FlushAll();
  EXPECT_EQ(sink->Contents().size(), 4u * 500 * 10);
  EXPECT_EQ(logger.records_appended(), 2000u);
}

/// One delete-op commit record carrying `end_ts`.
std::vector<uint8_t> RecordAt(Timestamp end_ts, TxnId txn_id = 1) {
  std::vector<uint8_t> rec;
  LogRecordBuilder builder(rec);
  builder.BeginRecord(end_ts, txn_id);
  builder.AddDelete(0, end_ts);
  builder.EndRecord();
  return rec;
}

/// Every record in `bytes`, in log order; fails the test on a torn parse.
std::vector<ParsedLogRecord> ParseAll(const std::vector<uint8_t>& bytes) {
  std::vector<ParsedLogRecord> out;
  size_t pos = 0;
  ParsedLogRecord rec;
  while (ParseLogRecord(bytes, pos, &rec)) out.push_back(rec);
  EXPECT_EQ(pos, bytes.size());
  return out;
}

/// Forwards to a sink the test keeps, so the bytes outlive the logger.
class ForwardingSink : public LogSink {
 public:
  explicit ForwardingSink(MemoryLogSink& target) : target_(target) {}
  void Write(const uint8_t* data, size_t size) override {
    target_.Write(data, size);
  }

 private:
  MemoryLogSink& target_;
};

/// Appends chained in real time (each one under a test mutex, with a
/// strictly larger end timestamp than the last) stand for commits that
/// depend on each other. Whatever lanes they land in, the log must hold
/// them in end-timestamp order: recovery replays update diffs in log order.
TEST(LoggerTest, ChainedAppendsStayInEndTimestampOrder) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  MemoryLogSink sink;
  {
    Logger logger(LogMode::kAsync, new ForwardingSink(sink),
                  /*group_commit_us=*/20);
    std::mutex chain;
    Timestamp next_ts = 0;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          std::lock_guard<std::mutex> guard(chain);
          logger.Append(RecordAt(++next_ts));
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  const std::vector<ParsedLogRecord> records = ParseAll(sink.Contents());
  ASSERT_EQ(records.size(), static_cast<size_t>(kThreads) * kPerThread);
  size_t inversions = 0;
  for (size_t i = 1; i < records.size(); ++i) {
    if (records[i].end_ts < records[i - 1].end_ts) ++inversions;
  }
  EXPECT_EQ(inversions, 0u);
}

/// More appending threads than lanes: lanes are shared, and every byte
/// and record is still accounted for exactly.
TEST(LoggerTest, MoreThreadsThanLanesShareLanes) {
  constexpr int kThreads = static_cast<int>(Logger::kLanes) * 2 + 3;
  constexpr int kPerThread = 200;
  auto* sink = new MemoryLogSink();  // owned by the logger
  Logger logger(LogMode::kAsync, sink);
  std::atomic<size_t> bytes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::vector<uint8_t> rec =
            RecordAt(static_cast<Timestamp>(t) * kPerThread + i + 1, t + 1);
        bytes.fetch_add(rec.size());
        logger.Append(rec);
      }
    });
  }
  for (auto& th : threads) th.join();
  logger.FlushAll();
  const std::vector<uint8_t> contents = sink->Contents();
  EXPECT_EQ(contents.size(), bytes.load());
  EXPECT_EQ(ParseAll(contents).size(),
            static_cast<size_t>(kThreads) * kPerThread);
  EXPECT_EQ(logger.records_appended(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

/// kSync: when Append returns, the caller's record is in the sink.
TEST(LoggerTest, SyncAppendersFindTheirRecordOnReturn) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  auto* sink = new MemoryLogSink();  // owned by the logger
  Logger logger(LogMode::kSync, sink);
  std::atomic<int> missing{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const Timestamp ts = static_cast<Timestamp>(t) * kPerThread + i + 1;
        logger.Append(RecordAt(ts));
        bool found = false;
        for (const ParsedLogRecord& rec : ParseAll(sink->Contents())) {
          found = found || rec.end_ts == ts;
        }
        if (!found) missing.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(missing.load(), 0);
}

/// A sink whose Sync blocks until the test opens its gate, so a test can
/// hold the flusher inside an fsync.
class GatedSyncSink : public LogSink {
 public:
  void Write(const uint8_t*, size_t) override {}
  void Sync() override {
    std::unique_lock<std::mutex> lock(mutex_);
    ++syncs_started_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  void WaitForSyncStarted() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return syncs_started_ > 0; });
  }
  void Open() {
    std::lock_guard<std::mutex> guard(mutex_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int syncs_started_ = 0;
  bool open_ = false;
};

/// Pipelined flushing: a kSync record appended while the flusher is inside
/// an fsync goes out in the next pass as soon as that fsync returns. With a
/// timer window it would wait the whole (here one-second) window more.
TEST(LoggerTest, SyncRecordArrivingDuringFsyncSkipsTheWindow) {
  using Clock = std::chrono::steady_clock;
  auto* sink = new GatedSyncSink();  // owned by the logger
  Logger logger(LogMode::kSync, sink, /*group_commit_us=*/1000000);
  std::thread first([&] { logger.Append(RecordAt(1)); });
  sink->WaitForSyncStarted();  // the first record's batch is in Sync
  std::atomic<int64_t> second_ms{-1};
  std::thread second([&] {
    const auto start = Clock::now();
    logger.Append(RecordAt(2));
    second_ms.store(std::chrono::duration_cast<std::chrono::milliseconds>(
                        Clock::now() - start)
                        .count());
  });
  while (logger.records_appended() < 2) std::this_thread::yield();
  sink->Open();
  first.join();
  second.join();
  EXPECT_LT(second_ms.load(), 500);
}

/// FlushAll waits on the flusher like a kSync committer, so it closes the
/// window instead of sitting out the timer.
TEST(LoggerTest, FlushAllSkipsTheWindow) {
  using Clock = std::chrono::steady_clock;
  auto* sink = new MemoryLogSink();  // owned by the logger
  Logger logger(LogMode::kAsync, sink, /*group_commit_us=*/1000000);
  logger.Append(RecordAt(1));
  const auto start = Clock::now();
  logger.FlushAll();
  const auto took = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - start);
  EXPECT_LT(took.count(), 500);
  EXPECT_EQ(ParseAll(sink->Contents()).size(), 1u);
}

/// kAsync records nobody waits for still batch by the window: the flusher
/// flushes at most once per window (plus the first pass and FlushAll's),
/// however often appenders arrive.
TEST(LoggerTest, AsyncAppendsStillBatchByTheWindow) {
  using Clock = std::chrono::steady_clock;
  constexpr auto kWindow = std::chrono::milliseconds(20);
  constexpr auto kRun = std::chrono::milliseconds(200);
  StatsCollector stats;
  auto* sink = new MemoryLogSink();  // owned by the logger
  Logger logger(LogMode::kAsync, sink,
                /*group_commit_us=*/static_cast<uint32_t>(
                    std::chrono::microseconds(kWindow).count()),
                &stats);
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (Timestamp i = 1; Clock::now() - start < kRun; ++i) {
        logger.Append(RecordAt(i * 4 + t));
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  for (auto& th : threads) th.join();
  logger.FlushAll();
  const auto elapsed = Clock::now() - start;
  const uint64_t batches = stats.Get(Stat::kLogGroupCommits);
  EXPECT_GT(batches, 0u);
  EXPECT_LE(batches, static_cast<uint64_t>(elapsed / kWindow) + 2);
  EXPECT_EQ(stats.Get(Stat::kLogGroupSizeSum), logger.records_appended());
}

/// Lanes belong to the logger, not to threads: records of threads that
/// have exited still reach the sink when the logger shuts down.
TEST(LoggerTest, DestructorFlushesLanesOfExitedThreads) {
  constexpr int kThreads = 6;
  constexpr int kPerThread = 50;
  MemoryLogSink sink;
  {
    // A one-second window keeps the flusher from writing before shutdown.
    Logger logger(LogMode::kAsync, new ForwardingSink(sink),
                  /*group_commit_us=*/1000000);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          logger.Append(
              RecordAt(static_cast<Timestamp>(t) * kPerThread + i + 1));
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(logger.records_appended(),
              static_cast<uint64_t>(kThreads) * kPerThread);
  }
  EXPECT_EQ(ParseAll(sink.Contents()).size(),
            static_cast<size_t>(kThreads) * kPerThread);
}

/// End-to-end: committed MV transactions produce parseable commit records
/// with their end timestamps; aborted transactions log nothing.
TEST(LoggerTest, EngineCommitsProduceRecords) {
  struct Row {
    uint64_t key;
    uint64_t value;
  };
  MVEngineOptions opts;
  opts.log_mode = LogMode::kAsync;
  MVEngine engine(opts);
  TableDef def;
  def.name = "rows";
  def.payload_size = sizeof(Row);
  def.indexes.push_back(
      IndexDef{[](const void* p) { return static_cast<const Row*>(p)->key; },
               64, true});
  TableId table = engine.CreateTable(def);

  Transaction* t1 = engine.Begin(IsolationLevel::kReadCommitted, false);
  Row row{1, 10};
  ASSERT_TRUE(engine.Insert(t1, table, &row).ok());
  ASSERT_TRUE(engine.Commit(t1).ok());

  Transaction* t2 = engine.Begin(IsolationLevel::kReadCommitted, false);
  ASSERT_TRUE(engine.Update(t2, table, 0, 1, [](void* p) {
                  static_cast<Row*>(p)->value = 20;
                }).ok());
  ASSERT_TRUE(engine.Commit(t2).ok());

  Transaction* t3 = engine.Begin(IsolationLevel::kReadCommitted, false);
  ASSERT_TRUE(engine.Delete(t3, table, 0, 1).ok());
  engine.Abort(t3);  // aborted: no record

  // Read-only transactions log nothing either.
  Transaction* t4 = engine.Begin(IsolationLevel::kReadCommitted, false);
  ASSERT_TRUE(engine.Read(t4, table, 0, 1, &row).IsNotFound() == false);
  ASSERT_TRUE(engine.Commit(t4).ok());

  engine.logger().FlushAll();
  EXPECT_EQ(engine.logger().records_appended(), 2u);
}

/// ENOSPC in the middle of a group commit (injected at the sink's
/// sync step via failpoint): every committer parked on the shared flush must
/// get the failure promptly — no hang on the flushed-count wait, and no
/// spurious success ack for a commit whose bytes never became durable.
TEST(LoggerTest, EnospcMidGroupCommitWindowFailsAllParkedCommitters) {
  struct KvRow {
    uint64_t key;
    uint64_t value;
  };
  failpoint::DisarmAll();
  DatabaseOptions opts;
  opts.log_mode = LogMode::kSync;
  opts.log_path = FreshLogPrefix("enospc_group");
  opts.fsync_log = true;
  // A window kSync committers close at once: they park on the failing fsync.
  opts.group_commit_us = 2000;
  Database db(opts);
  TableDef def;
  def.name = "kv";
  def.payload_size = sizeof(KvRow);
  def.indexes.push_back(IndexDef{
      [](const void* p) { return static_cast<const KvRow*>(p)->key; }, 64,
      true});
  TableId table = db.CreateTable(def);

  // Prove the pipe works before breaking it.
  Txn* seed = db.Begin(IsolationLevel::kReadCommitted);
  KvRow first{1, 1};
  ASSERT_TRUE(db.Insert(seed, table, &first).ok());
  ASSERT_TRUE(db.Commit(seed).ok());

  ASSERT_TRUE(failpoint::ArmSpec("log.append.sync=error"));
  constexpr int kThreads = 4;
  std::atomic<int> acked{0};
  std::atomic<int> failed{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Txn* txn = db.Begin(IsolationLevel::kReadCommitted);
      KvRow row{100 + static_cast<uint64_t>(t), 1};
      Status s = db.Insert(txn, table, &row);
      if (s.ok()) {
        s = db.Commit(txn);
      } else if (!s.IsAborted()) {
        db.Abort(txn);
      }
      (s.ok() ? acked : failed).fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  failpoint::DisarmAll();

  EXPECT_EQ(acked.load(), 0);  // no success ack without durability
  EXPECT_EQ(failed.load(), kThreads);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            20);  // parked committers were released promptly, not hung
  EXPECT_FALSE(db.log_status().ok());
  EXPECT_TRUE(db.read_only());
}

}  // namespace
}  // namespace mvstore
