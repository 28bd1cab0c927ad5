// Recovery: parse + replay redo logs, rebuilding identical database
// contents from the log alone.
#include "core/recovery.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "common/random.h"

namespace mvstore {
namespace {

struct Row {
  uint64_t key;
  uint64_t value;
  uint64_t extra;
};
uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

TableId MakeTable(Database& db) {
  TableDef def;
  def.name = "rows";
  def.payload_size = sizeof(Row);
  def.indexes.push_back(IndexDef{&RowKey, 256, true});
  return db.CreateTable(def);
}

class RecoveryTest : public ::testing::TestWithParam<Scheme> {
 protected:
  // A directory per scheme and process, emptied first: the segment sink
  // appends to any segments already under the prefix, so a rerun must not
  // find the previous run's log.
  RecoveryTest()
      : dir_(::testing::TempDir() + "/mvstore_recovery_" +
             std::to_string(static_cast<int>(GetParam())) + "_" +
             std::to_string(::getpid())),
        path_(dir_ + "/wal") {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~RecoveryTest() override { std::filesystem::remove_all(dir_); }

  DatabaseOptions LoggedOptions() {
    DatabaseOptions opts;
    opts.scheme = GetParam();
    opts.log_mode = LogMode::kSync;  // deterministic: every commit on disk
    opts.log_path = path_;
    return opts;
  }

  const std::string dir_;
  const std::string path_;
};

TEST_P(RecoveryTest, RebuildsInsertsUpdatesDeletes) {
  // Phase 1: run a workload against a logged database, then close it.
  std::vector<std::pair<uint64_t, uint64_t>> expected;  // surviving key->value
  {
    Database db(LoggedOptions());
    TableId table = MakeTable(db);
    for (uint64_t k = 0; k < 50; ++k) {
      ASSERT_TRUE(db.RunTransaction(IsolationLevel::kReadCommitted,
                                    [&](Txn* t) {
                                      Row row{k, k * 10, 7};
                                      return db.Insert(t, table, &row);
                                    })
                      .ok());
    }
    // Update even keys, delete keys divisible by 5.
    for (uint64_t k = 0; k < 50; k += 2) {
      ASSERT_TRUE(db.RunTransaction(IsolationLevel::kReadCommitted,
                                    [&](Txn* t) {
                                      return db.Update(t, table, 0, k,
                                                       [](void* p) {
                                                         static_cast<Row*>(p)
                                                             ->value += 1;
                                                       });
                                    })
                      .ok());
    }
    for (uint64_t k = 0; k < 50; k += 5) {
      ASSERT_TRUE(db.RunTransaction(IsolationLevel::kReadCommitted,
                                    [&](Txn* t) {
                                      return db.Delete(t, table, 0, k);
                                    })
                      .ok());
    }
    // An aborted transaction must leave no trace in the log.
    Txn* doomed = db.Begin(IsolationLevel::kReadCommitted);
    Row row{999, 1, 1};
    ASSERT_TRUE(db.Insert(doomed, table, &row).ok());
    db.Abort(doomed);

    for (uint64_t k = 0; k < 50; ++k) {
      if (k % 5 == 0) continue;
      expected.emplace_back(k, k * 10 + (k % 2 == 0 ? 1 : 0));
    }
  }  // database destroyed; log flushed

  // Phase 2: recover into a fresh database.
  DatabaseOptions fresh;
  fresh.scheme = GetParam();
  fresh.log_mode = LogMode::kDisabled;
  Database recovered(fresh);
  TableId table = MakeTable(recovered);
  RecoveryOptions recovery;
  recovery.log_path = path_;
  ASSERT_TRUE(RecoverDatabase(recovered, recovery).ok());

  for (const auto& [key, value] : expected) {
    Row row{};
    Status s = recovered.RunTransaction(
        IsolationLevel::kReadCommitted,
        [&](Txn* t) { return recovered.Read(t, table, 0, key, &row); });
    ASSERT_TRUE(s.ok()) << "key " << key;
    EXPECT_EQ(row.value, value) << "key " << key;
    EXPECT_EQ(row.extra, 7u);
  }
  // Deleted and aborted keys are absent.
  for (uint64_t k : {uint64_t{0}, uint64_t{5}, uint64_t{999}}) {
    Row row{};
    Status s = recovered.RunTransaction(
        IsolationLevel::kReadCommitted,
        [&](Txn* t) { return recovered.Read(t, table, 0, k, &row); });
    EXPECT_TRUE(s.IsNotFound()) << "key " << k;
  }
}

TEST_P(RecoveryTest, ReplayIsOrderedByEndTimestamp) {
  // Hand-build two records out of order; replay must apply the smaller
  // end timestamp first (insert before update).
  DatabaseOptions fresh;
  fresh.scheme = GetParam();
  fresh.log_mode = LogMode::kDisabled;
  Database db(fresh);
  TableId table = MakeTable(db);

  Row v0{1, 100, 0};
  Row v1 = v0;
  v1.value = 200;

  std::vector<uint8_t> log;
  {
    LogRecordBuilder b(log);  // the *later* update, first in the stream
    b.BeginRecord(/*end_ts=*/20, /*txn=*/2);
    b.AddUpdate(table, 1, &v0, &v1, sizeof(Row));
    b.EndRecord();
  }
  {
    LogRecordBuilder b(log);
    b.BeginRecord(/*end_ts=*/10, /*txn=*/1);
    b.AddInsert(table, &v0, sizeof(Row));
    b.EndRecord();
  }

  std::vector<ParsedLogRecord> records;
  ASSERT_TRUE(ParseAllRecords(log, &records));
  ASSERT_EQ(records.size(), 2u);
  ASSERT_TRUE(ReplayRecords(db, std::move(records)).ok());

  Row row{};
  ASSERT_TRUE(db.RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* t) {
                  return db.Read(t, table, 0, 1, &row);
                }).ok());
  EXPECT_EQ(row.value, 200u);
}

TEST_P(RecoveryTest, CorruptTailReportsValidPrefix) {
  std::vector<uint8_t> log;
  {
    LogRecordBuilder b(log);
    b.BeginRecord(1, 1);
    b.AddDelete(0, 42);
    b.EndRecord();
  }
  const size_t record_bytes = log.size();
  log.push_back(0xFF);  // trailing garbage (torn batch)
  std::vector<ParsedLogRecord> records;
  size_t valid = 0;
  EXPECT_FALSE(ParseAllRecords(log, &records, &valid));
  EXPECT_EQ(records.size(), 1u);       // the intact prefix survives
  EXPECT_EQ(valid, record_bytes);      // and the truncation point is exact
}

TEST_P(RecoveryTest, MissingFileYieldsEmptyLog) {
  EXPECT_TRUE(ReadLogFile("/tmp/definitely_not_here.log").empty());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, RecoveryTest,
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
