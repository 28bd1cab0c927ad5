// Service layer end-to-end: interactive transactions and pipelined batches
// over loopback sessions, whole-txn TATP procedures, admission control and
// pipeline backpressure (kUnavailable semantics), drain-on-shutdown
// durability (committed work survives reopen), group-commit fsync
// amortization, and a real-socket smoke through the epoll server.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "client/tcp_transport.h"
#include "core/database.h"
#include "server/loopback.h"
#include "server/mv_server.h"
#include "server/server_core.h"
#include "workload/tatp.h"

namespace mvstore {
namespace {

struct Row {
  uint64_t key;
  uint64_t value;
};

uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

/// Log prefix inside a fresh, empty directory: the segment sink appends to
/// whatever segments already exist under a prefix, so a rerun must not find
/// the previous run's log.
std::string FreshLogPrefix(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/mvstore_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir + "/wal";
}

TableId MakeRowTable(Database& db) {
  TableDef def;
  def.name = "rows";
  def.payload_size = sizeof(Row);
  def.indexes.push_back(IndexDef{&RowKey, 1024, true});
  // Ordered secondary over the same key (updates mutate only `value`, so
  // in-place 1V updates never change an index key).
  IndexDef by_key_ordered{&RowKey, 1024, false};
  by_key_ordered.ordered = true;
  def.indexes.push_back(by_key_ordered);
  return db.CreateTable(def);
}

const Scheme kAllSchemes[] = {Scheme::kSingleVersion,
                              Scheme::kMultiVersionLocking,
                              Scheme::kMultiVersionOptimistic};

std::unique_ptr<MVClient> ConnectLoopback(LoopbackTransport& transport,
                                          Status* status = nullptr) {
  auto conn = transport.Connect(status);
  if (conn == nullptr) return nullptr;
  return std::make_unique<MVClient>(std::move(conn));
}

TEST(ServerSessionTest, InteractiveTxnAcrossRoundTrips) {
  for (Scheme scheme : kAllSchemes) {
    DatabaseOptions opts;
    opts.scheme = scheme;
    Database db(opts);
    TableId table = MakeRowTable(db);
    ServerCore core(db);
    LoopbackTransport transport(core);
    auto client = ConnectLoopback(transport);
    ASSERT_NE(client, nullptr);

    EXPECT_TRUE(client->Ping().ok());
    ASSERT_TRUE(client->Begin(IsolationLevel::kReadCommitted).ok());
    Row row{7, 70};
    ASSERT_TRUE(client->Insert(table, &row, sizeof(row)).ok());
    // Read-your-writes inside the open transaction, across round trips.
    Row read{};
    ASSERT_TRUE(client->Get(table, 0, 7, &read, sizeof(read)).ok());
    EXPECT_EQ(read.value, 70u);
    ASSERT_TRUE(client->Commit().ok());

    // A second session sees the committed row; update and delete it.
    auto client2 = ConnectLoopback(transport);
    ASSERT_NE(client2, nullptr);
    ASSERT_TRUE(client2->Begin(IsolationLevel::kReadCommitted).ok());
    row.value = 71;
    ASSERT_TRUE(client2->Put(table, 0, 7, &row, sizeof(row)).ok());
    ASSERT_TRUE(client2->Get(table, 0, 7, &read, sizeof(read)).ok());
    EXPECT_EQ(read.value, 71u);
    ASSERT_TRUE(client2->Delete(table, 0, 7).ok());
    EXPECT_TRUE(client2->Get(table, 0, 7, &read, sizeof(read)).IsNotFound());
    ASSERT_TRUE(client2->Commit().ok());
  }
}

TEST(ServerSessionTest, ProtocolStateErrors) {
  Database db{DatabaseOptions{}};
  TableId table = MakeRowTable(db);
  ServerCore core(db);
  LoopbackTransport transport(core);
  auto client = ConnectLoopback(transport);
  ASSERT_NE(client, nullptr);

  // Operations need an open transaction.
  Row row{1, 1};
  EXPECT_TRUE(client->Insert(table, &row, sizeof(row)).IsInvalidArgument());
  EXPECT_TRUE(client->Commit().IsInvalidArgument());
  EXPECT_TRUE(client->Abort().IsInvalidArgument());
  // One interactive transaction per session.
  ASSERT_TRUE(client->Begin(IsolationLevel::kSerializable).ok());
  EXPECT_TRUE(client->Begin(IsolationLevel::kSerializable).IsInvalidArgument());
  // Bad table / index / payload-size are rejected without killing the txn.
  EXPECT_TRUE(client->Insert(99, &row, sizeof(row)).IsInvalidArgument());
  EXPECT_TRUE(client->Insert(table, &row, 3).IsInvalidArgument());
  EXPECT_TRUE(
      client->Get(table, 7, 1, &row, sizeof(row)).IsInvalidArgument());
  EXPECT_TRUE(client->Commit().ok());
  // The connection survived all of it.
  EXPECT_TRUE(client->Ping().ok());
}

TEST(ServerSessionTest, PipelinedWholeTxnInOneFlush) {
  for (Scheme scheme : kAllSchemes) {
    DatabaseOptions opts;
    opts.scheme = scheme;
    Database db(opts);
    TableId table = MakeRowTable(db);
    ServerCore core(db);
    LoopbackTransport transport(core);
    auto client = ConnectLoopback(transport);
    ASSERT_NE(client, nullptr);

    client->QueueBegin(IsolationLevel::kReadCommitted);
    for (uint64_t k = 0; k < 10; ++k) {
      Row row{k, k * 10};
      client->QueueInsert(table, &row, sizeof(row));
    }
    client->QueueCommit();
    std::vector<WireResult> results;
    ASSERT_TRUE(client->FlushBatch(&results).ok());
    ASSERT_EQ(results.size(), 12u);
    for (const WireResult& r : results) EXPECT_TRUE(r.status.ok());

    // Verify via a pipelined read batch.
    client->QueueBegin(IsolationLevel::kReadCommitted, /*read_only=*/true);
    for (uint64_t k = 0; k < 10; ++k) client->QueueGet(table, 0, k);
    client->QueueCommit();
    results.clear();
    ASSERT_TRUE(client->FlushBatch(&results).ok());
    ASSERT_EQ(results.size(), 12u);
    for (uint64_t k = 0; k < 10; ++k) {
      const WireResult& r = results[1 + k];
      ASSERT_TRUE(r.status.ok());
      Row row{};
      ASSERT_EQ(r.payload.size(), sizeof(row));
      std::memcpy(&row, r.payload.data(), sizeof(row));
      EXPECT_EQ(row.key, k);
      EXPECT_EQ(row.value, k * 10);
    }
  }
}

TEST(ServerSessionTest, ScanRangeOverWire) {
  for (Scheme scheme : kAllSchemes) {
    DatabaseOptions opts;
    opts.scheme = scheme;
    Database db(opts);
    TableId table = MakeRowTable(db);
    ServerCore core(db);
    LoopbackTransport transport(core);
    auto client = ConnectLoopback(transport);
    ASSERT_NE(client, nullptr);

    ASSERT_TRUE(client->Begin(IsolationLevel::kReadCommitted).ok());
    for (uint64_t k = 20; k-- > 0;) {  // inserted descending, scanned sorted
      Row row{k, 1000 - k};
      ASSERT_TRUE(client->Insert(table, &row, sizeof(row)).ok());
    }
    ASSERT_TRUE(client->Commit().ok());

    ASSERT_TRUE(client->Begin(IsolationLevel::kReadCommitted, true).ok());
    std::vector<std::vector<uint8_t>> rows;
    ASSERT_TRUE(client->ScanRange(table, 1, 5, 15, 100, &rows).ok());
    ASSERT_EQ(rows.size(), 11u);
    uint64_t expect_key = 5;
    for (const auto& bytes : rows) {
      Row row{};
      ASSERT_EQ(bytes.size(), sizeof(row));
      std::memcpy(&row, bytes.data(), sizeof(row));
      EXPECT_EQ(row.key, expect_key);  // ascending key order
      EXPECT_EQ(row.value, 1000 - expect_key);
      ++expect_key;
    }
    ASSERT_TRUE(client->Commit().ok());
    // max_rows caps the scan.
    ASSERT_TRUE(client->Begin(IsolationLevel::kReadCommitted, true).ok());
    rows.clear();
    ASSERT_TRUE(client->ScanRange(table, 1, 0, 100, 5, &rows).ok());
    EXPECT_EQ(rows.size(), 5u);
    ASSERT_TRUE(client->Commit().ok());
  }
}

TEST(ServerSessionTest, TatpProceduresCommitWholeTxns) {
  for (Scheme scheme : kAllSchemes) {
    DatabaseOptions opts;
    opts.scheme = scheme;
    Database db(opts);
    tatp::TatpDatabase tatp_db = tatp::LoadTatp(db, 500);
    tatp::RegisterTatpProcedures(db, tatp_db);
    ServerCore core(db);
    LoopbackTransport transport(core);
    auto client = ConnectLoopback(transport);
    ASSERT_NE(client, nullptr);

    const uint64_t before = db.stats().Get(Stat::kTxnCommitted);
    uint64_t calls = 0;
    for (uint8_t t = 0;
         t <= static_cast<uint8_t>(tatp::TatpTxnType::kDeleteCallForwarding);
         ++t) {
      uint32_t proc_id = 0;
      ASSERT_TRUE(
          client
              ->Resolve(tatp::TatpProcedureName(
                            static_cast<tatp::TatpTxnType>(t)),
                        &proc_id)
              .ok());
      for (uint64_t seed = 0; seed < 5; ++seed) {
        uint8_t arg[9];
        std::memcpy(arg, &seed, 8);
        arg[8] = static_cast<uint8_t>(IsolationLevel::kReadCommitted);
        Status s = client->Call(proc_id, arg, sizeof(arg));
        // Aborts are legitimate outcomes; anything else must be OK.
        EXPECT_TRUE(s.ok() || s.IsAborted()) << s.ToString();
        if (s.ok()) ++calls;
      }
    }
    // Every successful call committed a whole transaction server-side.
    EXPECT_GE(db.stats().Get(Stat::kTxnCommitted), before + calls);
    EXPECT_TRUE(tatp::CheckConsistency(db, tatp_db));

    // Unknown procedure names and ids are clean failures.
    uint32_t proc_id = 0;
    EXPECT_TRUE(client->Resolve("no.such.proc", &proc_id).IsNotFound());
    EXPECT_TRUE(client->Call(9999, nullptr, 0).IsInvalidArgument());
  }
}

TEST(ServerAdmissionTest, MaxSessionsRefusesWithUnavailable) {
  Database db{DatabaseOptions{}};
  ServerCoreOptions core_opts;
  core_opts.max_sessions = 2;
  ServerCore core(db, core_opts);
  LoopbackTransport transport(core);

  Status status;
  auto c1 = ConnectLoopback(transport, &status);
  ASSERT_NE(c1, nullptr);
  auto c2 = ConnectLoopback(transport, &status);
  ASSERT_NE(c2, nullptr);
  auto c3 = ConnectLoopback(transport, &status);
  EXPECT_EQ(c3, nullptr);
  EXPECT_TRUE(status.IsUnavailable());
  EXPECT_EQ(core.sessions_refused.load(), 1u);

  // Freeing a slot re-admits.
  c1.reset();
  EXPECT_EQ(core.active_sessions(), 1u);
  auto c4 = ConnectLoopback(transport, &status);
  EXPECT_NE(c4, nullptr);
}

TEST(ServerAdmissionTest, PipelineOverflowAnswersUnavailable) {
  Database db{DatabaseOptions{}};
  ServerCoreOptions core_opts;
  core_opts.max_pipeline = 4;
  ServerCore core(db, core_opts);
  LoopbackTransport transport(core);
  auto client = ConnectLoopback(transport);
  ASSERT_NE(client, nullptr);

  // 7 requests in one burst: 4 admitted, 3 answered kUnavailable — one
  // response per request, so the pipeline stays aligned.
  for (int i = 0; i < 7; ++i) client->QueuePing();
  std::vector<WireResult> results;
  ASSERT_TRUE(client->FlushBatch(&results).ok());
  ASSERT_EQ(results.size(), 7u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(results[i].status.ok());
  for (int i = 4; i < 7; ++i) {
    EXPECT_TRUE(results[i].status.IsUnavailable()) << i;
  }
  EXPECT_EQ(core.requests_unavailable.load(), 3u);

  // Draining the responses re-arms the budget: the next burst succeeds.
  for (int i = 0; i < 4; ++i) client->QueuePing();
  results.clear();
  ASSERT_TRUE(client->FlushBatch(&results).ok());
  for (const WireResult& r : results) EXPECT_TRUE(r.status.ok());
}

TEST(ServerAdmissionTest, OverflowInsideTxnAbortsIt) {
  // A Begin + N ops + Commit burst whose tail overflows the pipeline must
  // never commit a partial write set: the refusal aborts the open
  // transaction, so the (admitted or refused) Commit cannot persist the
  // admitted prefix.
  Database db{DatabaseOptions{}};
  TableId table = MakeRowTable(db);
  ServerCoreOptions core_opts;
  core_opts.max_pipeline = 4;
  ServerCore core(db, core_opts);
  LoopbackTransport transport(core);
  auto client = ConnectLoopback(transport);
  ASSERT_NE(client, nullptr);

  client->QueueBegin(IsolationLevel::kReadCommitted);
  for (uint64_t k = 0; k < 6; ++k) {
    Row row{k, k};
    client->QueueInsert(table, &row, sizeof(row));
  }
  client->QueueCommit();  // 8 frames; 4 admitted (Begin + 3 inserts)
  std::vector<WireResult> results;
  ASSERT_TRUE(client->FlushBatch(&results).ok());
  ASSERT_EQ(results.size(), 8u);
  EXPECT_TRUE(results[0].status.ok());
  for (size_t i = 4; i < 8; ++i) {
    EXPECT_TRUE(results[i].status.IsUnavailable()) << i;
  }
  // Nothing from the torn burst is visible: the whole txn rolled back.
  ASSERT_TRUE(client->Begin(IsolationLevel::kReadCommitted, true).ok());
  Row read{};
  for (uint64_t k = 0; k < 6; ++k) {
    EXPECT_TRUE(client->Get(table, 0, k, &read, sizeof(read)).IsNotFound());
  }
  ASSERT_TRUE(client->Commit().ok());
  EXPECT_GE(db.stats().Get(Stat::kTxnAborted), 1u);  // the torn burst's txn
}

TEST(ServerSessionTest, ScanResponseNeverOutgrowsFrameLimit) {
  // A successful scan must stop before its response frame could exceed
  // wire::kMaxFrameBody — an oversized valid response would be rejected
  // by the client's parser and kill the connection.
  struct WideRow {
    uint64_t key;
    uint8_t pad[2048];
  };
  Database db{DatabaseOptions{}};
  TableDef def;
  def.name = "wide";
  def.payload_size = sizeof(WideRow);
  def.indexes.push_back(IndexDef{
      [](const void* p) { return static_cast<const WideRow*>(p)->key; },
      8192, true});
  IndexDef ordered{
      [](const void* p) { return static_cast<const WideRow*>(p)->key; },
      8192, false};
  ordered.ordered = true;
  def.indexes.push_back(ordered);
  TableId table = db.CreateTable(def);
  ServerCore core(db);
  LoopbackTransport transport(core);
  auto client = ConnectLoopback(transport);
  ASSERT_NE(client, nullptr);

  constexpr uint64_t kRows = 2000;  // ~4.1 MB of payload > kMaxFrameBody
  ASSERT_TRUE(client->Begin(IsolationLevel::kReadCommitted).ok());
  for (uint64_t k = 0; k < kRows; ++k) {
    WideRow row{};
    row.key = k;
    ASSERT_TRUE(client->Insert(table, &row, sizeof(row)).ok());
  }
  ASSERT_TRUE(client->Commit().ok());

  ASSERT_TRUE(client->Begin(IsolationLevel::kReadCommitted, true).ok());
  std::vector<std::vector<uint8_t>> rows;
  ASSERT_TRUE(
      client->ScanRange(table, 1, 0, kRows, kRows, &rows).ok());
  EXPECT_LT(rows.size(), kRows);  // truncated by the byte budget...
  EXPECT_GT(rows.size(), 0u);
  ASSERT_TRUE(client->Commit().ok());
  EXPECT_TRUE(client->connected());  // ...and the connection survived
}

TEST(ServerAdmissionTest, DrainRefusesNewWorkLetsInFlightFinish) {
  Database db{DatabaseOptions{}};
  TableId table = MakeRowTable(db);
  tatp::TatpDatabase tatp_db = tatp::LoadTatp(db, 100);
  tatp::RegisterTatpProcedures(db, tatp_db);
  ServerCore core(db);
  LoopbackTransport transport(core);
  auto client = ConnectLoopback(transport);
  ASSERT_NE(client, nullptr);

  // Open a transaction, then start draining underneath it.
  ASSERT_TRUE(client->Begin(IsolationLevel::kReadCommitted).ok());
  Row row{1, 10};
  ASSERT_TRUE(client->Insert(table, &row, sizeof(row)).ok());
  core.BeginDrain();
  // In-flight work finishes: more ops and the commit still succeed.
  row = {2, 20};
  ASSERT_TRUE(client->Insert(table, &row, sizeof(row)).ok());
  EXPECT_EQ(core.sessions_with_open_txn(), 1u);
  ASSERT_TRUE(client->Commit().ok());
  EXPECT_EQ(core.sessions_with_open_txn(), 0u);

  // New transactions are refused, interactive and procedural alike.
  EXPECT_TRUE(client->Begin(IsolationLevel::kReadCommitted).IsUnavailable());
  uint32_t proc_id = 0;
  ASSERT_TRUE(client->Resolve("tatp.mixed", &proc_id).ok());
  uint8_t arg[9] = {0};
  EXPECT_TRUE(client->Call(proc_id, arg, sizeof(arg)).IsUnavailable());
  // New sessions are refused.
  Status status;
  EXPECT_EQ(ConnectLoopback(transport, &status), nullptr);
  EXPECT_TRUE(status.IsUnavailable());
  // Reads of already-committed state still work (ping/stats too).
  EXPECT_TRUE(client->Ping().ok());
}

TEST(ServerStatsTest, ReportsServerAndEngineCounters) {
  Database db{DatabaseOptions{}};
  TableId table = MakeRowTable(db);
  ServerCore core(db);
  LoopbackTransport transport(core);
  auto client = ConnectLoopback(transport);
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(client->Begin(IsolationLevel::kReadCommitted).ok());
  Row row{1, 1};
  ASSERT_TRUE(client->Insert(table, &row, sizeof(row)).ok());
  ASSERT_TRUE(client->Commit().ok());

  std::string text;
  ASSERT_TRUE(client->Stats(&text).ok());
  EXPECT_NE(text.find("server.sessions_opened=1"), std::string::npos) << text;
  EXPECT_NE(text.find("server.frames_processed="), std::string::npos);
  EXPECT_NE(text.find("txn_committed=1"), std::string::npos) << text;
}

/// CounterSnapshot is the uniform engine-counter shape STATS builds on.
TEST(ServerStatsTest, CounterSnapshotCoversEveryStat) {
  Database db{DatabaseOptions{}};
  auto snapshot = db.CounterSnapshot();
  ASSERT_EQ(snapshot.size(), static_cast<size_t>(Stat::kNumStats));
  bool found = false;
  for (const auto& [name, value] : snapshot) {
    EXPECT_FALSE(name.empty());
    if (name == "log_group_commits") found = true;
  }
  EXPECT_TRUE(found);
}

/// Acceptance: with fsync_log on, group commit performs measurably fewer
/// fsyncs than committed transactions under concurrent sessions.
TEST(ServerGroupCommitTest, FewerFsyncsThanCommits) {
  const std::string path = FreshLogPrefix("server_group_commit");
  constexpr uint32_t kThreads = 8;
  constexpr uint32_t kTxnsPerThread = 25;
  DatabaseOptions opts;
  opts.scheme = Scheme::kMultiVersionOptimistic;
  opts.log_mode = LogMode::kSync;  // every commit waits for a durable batch
  opts.log_path = path;
  opts.fsync_log = true;
  opts.group_commit_us = 1000;
  Database db(opts);
  TableId table = MakeRowTable(db);
  ServerCore core(db);
  LoopbackTransport transport(core);

  std::vector<std::thread> threads;
  std::atomic<uint32_t> committed{0};
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = ConnectLoopback(transport);
      ASSERT_NE(client, nullptr);
      for (uint32_t i = 0; i < kTxnsPerThread; ++i) {
        client->QueueBegin(IsolationLevel::kReadCommitted);
        Row row{t * 1000 + i, i};
        client->QueueInsert(table, &row, sizeof(row));
        client->QueueCommit();
        std::vector<WireResult> results;
        ASSERT_TRUE(client->FlushBatch(&results).ok());
        if (results.back().status.ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const uint64_t commits = committed.load();
  ASSERT_EQ(commits, kThreads * kTxnsPerThread);
  db.logger().FlushAll();
  // Every flushed batch = one Write+Sync = one fsync here. Coalescing must
  // have grouped concurrent committers: strictly fewer fsyncs than
  // commits, and every commit record accounted for in a counted batch.
  const uint64_t fsyncs = db.stats().Get(Stat::kLogGroupCommits);
  const uint64_t grouped = db.stats().Get(Stat::kLogGroupSizeSum);
  EXPECT_GT(fsyncs, 0u);
  EXPECT_LT(fsyncs, commits);
  EXPECT_EQ(grouped, commits);
}

/// Acceptance: graceful shutdown drains in-flight sessions; nothing a
/// client saw commit is lost, and a later reopen recovers all of it.
TEST(ServerShutdownTest, DrainedCommitsSurviveReopen) {
  for (Scheme scheme : kAllSchemes) {
    const std::string path = FreshLogPrefix(
        "server_drain_" + std::to_string(static_cast<int>(scheme)));
    constexpr uint64_t kRows = 50;

    auto define_schema = [](Database& d) { MakeRowTable(d); };
    {
      DatabaseOptions opts;
      opts.scheme = scheme;
      opts.log_mode = LogMode::kAsync;
      opts.log_path = path;
      opts.group_commit_us = 200;
      Database db(opts);
      TableId table = MakeRowTable(db);
      ServerOptions srv_opts;
      srv_opts.port = 0;
      MVServer server(db, srv_opts);
      ASSERT_TRUE(server.Start().ok());

      TcpTransport transport("127.0.0.1", server.port());
      Status status;
      auto conn = transport.Connect(&status);
      ASSERT_NE(conn, nullptr) << status.ToString();
      MVClient client(std::move(conn));
      for (uint64_t k = 0; k < kRows; ++k) {
        client.QueueBegin(IsolationLevel::kReadCommitted);
        Row row{k, k + 100};
        client.QueueInsert(table, &row, sizeof(row));
        client.QueueCommit();
        std::vector<WireResult> results;
        ASSERT_TRUE(client.FlushBatch(&results).ok());
        ASSERT_TRUE(results.back().status.ok());
      }
      // Graceful shutdown: drain, flush, close. kAsync means commits were
      // acknowledged before reaching the sink — Stop's log flush is what
      // guarantees they are on disk before the database goes away.
      server.Stop();
    }

    Status open_status;
    auto reopened = Database::Open(
        [&] {
          DatabaseOptions opts;
          opts.scheme = scheme;
          opts.log_mode = LogMode::kAsync;
          opts.log_path = path;
          return opts;
        }(),
        define_schema, &open_status);
    ASSERT_NE(reopened, nullptr) << open_status.ToString();
    Txn* txn = reopened->Begin(IsolationLevel::kReadCommitted, true);
    for (uint64_t k = 0; k < kRows; ++k) {
      Row row{};
      ASSERT_TRUE(reopened->Read(txn, 0, 0, k, &row).ok())
          << SchemeName(scheme) << " row " << k;
      EXPECT_EQ(row.value, k + 100);
    }
    reopened->Commit(txn);
  }
}

/// Real-socket smoke: the epoll server answers the same protocol the
/// loopback transport does, byte for byte.
TEST(ServerTcpTest, EndToEndOverRealSockets) {
  DatabaseOptions opts;
  Database db(opts);
  TableId table = MakeRowTable(db);
  tatp::TatpDatabase tatp_db = tatp::LoadTatp(db, 200);
  tatp::RegisterTatpProcedures(db, tatp_db);

  ServerOptions srv_opts;
  srv_opts.port = 0;
  srv_opts.workers = 2;
  MVServer server(db, srv_opts);
  Status start = server.Start();
  if (start.IsUnavailable()) GTEST_SKIP() << "MVServer unsupported here";
  ASSERT_TRUE(start.ok());
  ASSERT_NE(server.port(), 0);

  TcpTransport transport("127.0.0.1", server.port());

  // A few concurrent clients, each running interactive + pipelined work.
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Status status;
      auto conn = transport.Connect(&status);
      ASSERT_NE(conn, nullptr) << status.ToString();
      MVClient client(std::move(conn));
      ASSERT_TRUE(client.Ping().ok());
      // Interactive transaction.
      ASSERT_TRUE(client.Begin(IsolationLevel::kReadCommitted).ok());
      Row row{t, t * 7};
      ASSERT_TRUE(client.Insert(table, &row, sizeof(row)).ok());
      Row read{};
      ASSERT_TRUE(client.Get(table, 0, t, &read, sizeof(read)).ok());
      EXPECT_EQ(read.value, t * 7);
      ASSERT_TRUE(client.Commit().ok());
      // Pipelined TATP procedure batch.
      uint32_t proc_id = 0;
      ASSERT_TRUE(client.Resolve("tatp.mixed", &proc_id).ok());
      for (uint64_t i = 0; i < 32; ++i) {
        uint8_t arg[9] = {0};
        uint64_t seed = t * 100 + i;
        std::memcpy(arg, &seed, 8);
        client.QueueCall(proc_id, arg, sizeof(arg));
      }
      std::vector<WireResult> results;
      ASSERT_TRUE(client.FlushBatch(&results).ok());
      ASSERT_EQ(results.size(), 32u);
      for (const WireResult& r : results) {
        EXPECT_TRUE(r.status.ok() || r.status.IsAborted());
      }
    });
  }
  for (auto& th : threads) th.join();

  // Malformed bytes over a real socket kill only that connection.
  {
    Status status;
    auto conn = transport.Connect(&status);
    ASSERT_NE(conn, nullptr);
    std::vector<uint8_t> garbage(32, 0xAB);
    ASSERT_TRUE(conn->Send(garbage.data(), garbage.size()));
    wire::FrameParser parser;
    wire::Frame frame;
    uint8_t chunk[512];
    wire::FrameParser::Result r = wire::FrameParser::Result::kNeedMore;
    while (r == wire::FrameParser::Result::kNeedMore) {
      size_t n = conn->Recv(chunk, sizeof(chunk));
      if (n == 0) break;
      parser.Feed(chunk, n);
      r = parser.Next(&frame);
    }
    ASSERT_EQ(r, wire::FrameParser::Result::kFrame);
    EXPECT_EQ(frame.opcode, wire::Opcode::kBye);
    EXPECT_NE(frame.flags & wire::kFlagFatal, 0);
  }

  // The server still serves afterwards.
  {
    Status status;
    auto conn = transport.Connect(&status);
    ASSERT_NE(conn, nullptr);
    MVClient client(std::move(conn));
    EXPECT_TRUE(client.Ping().ok());
    std::string text;
    ASSERT_TRUE(client.Stats(&text).ok());
    EXPECT_NE(text.find("server.frames_processed="), std::string::npos);
  }
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(ServerTcpTest, RefusedSessionGetsUnavailableGoodbye) {
  Database db{DatabaseOptions{}};
  ServerOptions srv_opts;
  srv_opts.port = 0;
  srv_opts.core.max_sessions = 0;  // refuse everyone
  MVServer server(db, srv_opts);
  Status start = server.Start();
  if (start.IsUnavailable()) GTEST_SKIP() << "MVServer unsupported here";
  ASSERT_TRUE(start.ok());

  TcpTransport transport("127.0.0.1", server.port());
  Status status;
  auto conn = transport.Connect(&status);
  ASSERT_NE(conn, nullptr);  // TCP accepts, then the server says goodbye
  wire::FrameParser parser;
  wire::Frame frame;
  uint8_t chunk[256];
  wire::FrameParser::Result r = wire::FrameParser::Result::kNeedMore;
  while (r == wire::FrameParser::Result::kNeedMore) {
    size_t n = conn->Recv(chunk, sizeof(chunk));
    if (n == 0) break;
    parser.Feed(chunk, n);
    r = parser.Next(&frame);
  }
  ASSERT_EQ(r, wire::FrameParser::Result::kFrame);
  EXPECT_EQ(frame.opcode, wire::Opcode::kBye);
  ASSERT_GE(frame.body.size(), 2u);
  EXPECT_TRUE(wire::WireToStatus(frame.body[0], frame.body[1])
                  .IsUnavailable());
  EXPECT_EQ(server.core().sessions_refused.load(), 1u);
  server.Stop();
}

}  // namespace
}  // namespace mvstore
