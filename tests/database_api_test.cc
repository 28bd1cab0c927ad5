// The public Database facade: RunTransaction retry semantics, scheme
// selection, accessors, and the mixed optimistic/pessimistic coexistence
// mode (paper Section 4.5) exercised through the MVEngine directly.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "cc/mv_engine.h"
#include "common/random.h"
#include "core/database.h"

namespace mvstore {
namespace {

struct Row {
  uint64_t key;
  int64_t value;
};
uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

TableId MakeTable(Database& db) {
  TableDef def;
  def.name = "rows";
  def.payload_size = sizeof(Row);
  def.indexes.push_back(IndexDef{&RowKey, 256, true});
  return db.CreateTable(def);
}

TEST(DatabaseApiTest, PayloadSizeMatchesDef) {
  for (Scheme scheme : {Scheme::kSingleVersion, Scheme::kMultiVersionOptimistic}) {
    DatabaseOptions opts;
    opts.scheme = scheme;
    opts.log_mode = LogMode::kDisabled;
    Database db(opts);
    TableId t = MakeTable(db);
    EXPECT_EQ(db.PayloadSize(t), sizeof(Row));
    EXPECT_EQ(db.scheme(), scheme);
  }
}

TEST(DatabaseApiTest, EngineAccessorsMatchScheme) {
  DatabaseOptions opts;
  opts.scheme = Scheme::kSingleVersion;
  Database sv(opts);
  EXPECT_EQ(sv.mv_engine(), nullptr);
  EXPECT_NE(sv.sv_engine(), nullptr);

  opts.scheme = Scheme::kMultiVersionLocking;
  Database mv(opts);
  EXPECT_NE(mv.mv_engine(), nullptr);
  EXPECT_EQ(mv.sv_engine(), nullptr);
}

/// The scheme, not Begin's `read_only` flag, decides MV/L versus MV/O: an
/// MV/L database hands out pessimistic transactions and an MV/O one
/// optimistic transactions, read-only or not.
TEST(DatabaseApiTest, SchemePicksTransactionKind) {
  for (Scheme scheme :
       {Scheme::kMultiVersionLocking, Scheme::kMultiVersionOptimistic}) {
    DatabaseOptions opts;
    opts.scheme = scheme;
    opts.log_mode = LogMode::kDisabled;
    Database db(opts);
    for (bool read_only : {false, true}) {
      Txn* txn = db.Begin(IsolationLevel::kSerializable, read_only);
      const auto* mv = static_cast<const Transaction*>(txn);
      EXPECT_EQ(mv->pessimistic, scheme == Scheme::kMultiVersionLocking)
          << SchemeName(scheme) << " read_only=" << read_only;
      EXPECT_EQ(mv->read_only, read_only) << SchemeName(scheme);
      db.Abort(txn);
    }
  }
}

TEST(DatabaseApiTest, RunTransactionCommits) {
  DatabaseOptions opts;
  opts.log_mode = LogMode::kDisabled;
  Database db(opts);
  TableId t = MakeTable(db);
  Status s = db.RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* txn) {
    Row row{1, 10};
    return db.Insert(txn, t, &row);
  });
  EXPECT_TRUE(s.ok());
}

TEST(DatabaseApiTest, RunTransactionReturnsNonAbortErrors) {
  DatabaseOptions opts;
  opts.log_mode = LogMode::kDisabled;
  Database db(opts);
  TableId t = MakeTable(db);
  Status s = db.RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* txn) {
    Row row{};
    return db.Read(txn, t, 0, 404, &row);  // NotFound
  });
  EXPECT_TRUE(s.IsNotFound());
}

TEST(DatabaseApiTest, RunTransactionRetriesThroughConflicts) {
  DatabaseOptions opts;
  opts.log_mode = LogMode::kDisabled;
  Database db(opts);
  TableId t = MakeTable(db);
  ASSERT_TRUE(db.RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* txn) {
                  Row row{1, 0};
                  return db.Insert(txn, t, &row);
                }).ok());

  constexpr int kThreads = 4, kEach = 100;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int n = 0; n < kEach; ++n) {
        Status s =
            db.RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* txn) {
              return db.Update(txn, t, 0, 1, [](void* p) {
                static_cast<Row*>(p)->value += 1;
              });
            });
        ASSERT_TRUE(s.ok());
      }
    });
  }
  for (auto& th : threads) th.join();

  Row row{};
  ASSERT_TRUE(db.RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* txn) {
                  return db.Read(txn, t, 0, 1, &row);
                }).ok());
  EXPECT_EQ(row.value, kThreads * kEach);
}

/// Coexistence stress (Section 4.5): optimistic and pessimistic
/// transactions mixed on the same MV engine preserve the bank invariant.
TEST(CoexistenceTest, MixedSchemesPreserveInvariant) {
  MVEngineOptions opts;
  opts.log_mode = LogMode::kDisabled;
  opts.deadlock_interval_us = 500;
  MVEngine engine(opts);
  TableDef def;
  def.name = "accounts";
  def.payload_size = sizeof(Row);
  def.indexes.push_back(IndexDef{&RowKey, 64, true});
  TableId table = engine.CreateTable(def);

  constexpr uint64_t kAccounts = 16;
  constexpr int64_t kInitial = 100;
  for (uint64_t k = 0; k < kAccounts; ++k) {
    Transaction* txn = engine.Begin(IsolationLevel::kReadCommitted, false);
    Row row{k, kInitial};
    ASSERT_TRUE(engine.Insert(txn, table, &row).ok());
    ASSERT_TRUE(engine.Commit(txn).ok());
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    bool pessimistic = (t % 2 == 0);  // alternate MV/L and MV/O workers
    threads.emplace_back([&, t, pessimistic] {
      Random rng(t + 1);
      IsolationLevel iso = (t % 3 == 0) ? IsolationLevel::kSerializable
                                        : IsolationLevel::kRepeatableRead;
      for (int i = 0; i < 300; ++i) {
        uint64_t from = rng.Uniform(kAccounts);
        uint64_t to = (from + 1 + rng.Uniform(kAccounts - 1)) % kAccounts;
        Transaction* txn = engine.Begin(iso, pessimistic);
        Status s = engine.Update(txn, table, 0, from, [](void* p) {
          static_cast<Row*>(p)->value -= 1;
        });
        if (s.IsAborted()) continue;
        if (s.ok()) {
          s = engine.Update(txn, table, 0, to, [](void* p) {
            static_cast<Row*>(p)->value += 1;
          });
        }
        if (s.IsAborted()) continue;
        if (s.ok()) {
          engine.Commit(txn);
        } else {
          engine.Abort(txn);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  Transaction* audit = engine.Begin(IsolationLevel::kSnapshot, false, true);
  int64_t total = 0;
  for (uint64_t k = 0; k < kAccounts; ++k) {
    Row row{};
    ASSERT_TRUE(engine.Read(audit, table, 0, k, &row).ok());
    total += row.value;
  }
  ASSERT_TRUE(engine.Commit(audit).ok());
  EXPECT_EQ(total, static_cast<int64_t>(kAccounts) * kInitial);
}

/// The GC keeps version chains bounded through sustained mixed churn.
TEST(CoexistenceTest, VersionChainsStayBounded) {
  MVEngineOptions opts;
  opts.log_mode = LogMode::kDisabled;
  opts.gc_interval_us = 500;
  MVEngine engine(opts);
  TableDef def;
  def.name = "hot";
  def.payload_size = sizeof(Row);
  def.indexes.push_back(IndexDef{&RowKey, 16, true});
  TableId table = engine.CreateTable(def);
  {
    Transaction* txn = engine.Begin(IsolationLevel::kReadCommitted, false);
    Row row{1, 0};
    ASSERT_TRUE(engine.Insert(txn, table, &row).ok());
    ASSERT_TRUE(engine.Commit(txn).ok());
  }
  for (int i = 0; i < 5000; ++i) {
    Transaction* txn = engine.Begin(IsolationLevel::kReadCommitted, i % 2);
    Status s = engine.Update(txn, table, 0, 1, [](void* p) {
      static_cast<Row*>(p)->value += 1;
    });
    if (s.ok()) {
      engine.Commit(txn);
    } else if (!s.IsAborted()) {
      engine.Abort(txn);
    }
  }
  engine.gc().RunOnce();
  EXPECT_LE(engine.table(table).index(0).CountEntries(), 2u);
}

}  // namespace
}  // namespace mvstore
