// End-to-end failure semantics: read-only degradation (an injected log
// write/fsync failure flips the Database to kReadOnly — writes refused,
// reads/scans/stats served, counters visible) and the MVClient retry
// policy (kUnavailable retry, reconnect, per-op timeout, and the
// never-retry rule for non-idempotent requests with unknown outcomes).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/failpoint.h"
#include "core/database.h"
#include "server/loopback.h"
#include "server/server_core.h"

namespace mvstore {
namespace {

struct Row {
  uint64_t key;
  uint64_t value;
};

uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

TableId MakeRowTable(Database& db) {
  TableDef def;
  def.name = "rows";
  def.payload_size = sizeof(Row);
  def.indexes.push_back(IndexDef{&RowKey, 1024, true});
  return db.CreateTable(def);
}

const Scheme kAllSchemes[] = {Scheme::kSingleVersion,
                              Scheme::kMultiVersionLocking,
                              Scheme::kMultiVersionOptimistic};

std::string TempDir(const char* name) {
  std::string dir = std::filesystem::temp_directory_path() /
                    ("mvstore_degradation_" + std::string(name));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir;
}

uint64_t Counter(Database& db, const char* name) {
  for (const auto& [counter, value] : db.CounterSnapshot()) {
    if (counter == name) return value;
  }
  return 0;
}

class DegradationTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }
};

// The core contract, per scheme: a failed fsync during a synchronous commit
// returns kReadOnly (the commit is NOT durable), flips the database to
// sticky read-only mode, refuses later writes cheaply, and keeps serving
// reads and scans.
TEST_F(DegradationTest, FsyncFailureFlipsDatabaseToReadOnly) {
  for (Scheme scheme : kAllSchemes) {
    SCOPED_TRACE(SchemeName(scheme));
    failpoint::DisarmAll();
    const std::string dir = TempDir("flip");
    DatabaseOptions opts;
    opts.scheme = scheme;
    opts.log_mode = LogMode::kSync;
    opts.log_path = dir + "/wal";
    opts.fsync_log = true;
    Database db(opts);
    TableId table = MakeRowTable(db);

    // Healthy writes first.
    for (uint64_t k = 1; k <= 10; ++k) {
      Txn* txn = db.Begin(IsolationLevel::kReadCommitted);
      Row row{k, k * 100};
      ASSERT_TRUE(db.Insert(txn, table, &row).ok());
      ASSERT_TRUE(db.Commit(txn).ok());
    }
    EXPECT_FALSE(db.read_only());

    // Break the sink: the next synchronous commit's flush fails its fsync.
    ASSERT_TRUE(failpoint::ArmSpec("log.fsync=error"));
    Txn* txn = db.Begin(IsolationLevel::kReadCommitted);
    Row row{11, 1100};
    Status s = db.Insert(txn, table, &row);
    if (s.ok()) s = db.Commit(txn);
    EXPECT_TRUE(s.IsReadOnly()) << s.ToString();
    EXPECT_TRUE(db.read_only());
    EXPECT_EQ(Counter(db, "read_only_transitions"), 1u);

    // Sticky: disarming the failpoint does not resurrect the sink — only a
    // restart (Database::Open) can prove the durable state is sound again.
    failpoint::DisarmAll();
    Txn* txn2 = db.Begin(IsolationLevel::kReadCommitted);
    Row row2{12, 1200};
    EXPECT_TRUE(db.Insert(txn2, table, &row2).IsReadOnly());
    EXPECT_TRUE(db.Update(txn2, table, 0, 1, [](void*) {}).IsReadOnly());
    EXPECT_TRUE(db.Delete(txn2, table, 0, 1).IsReadOnly());
    // The refused transaction may still read and commit its read-only part.
    Row read{};
    EXPECT_TRUE(db.Read(txn2, table, 0, 1, &read).ok());
    EXPECT_EQ(read.value, 100u);
    EXPECT_TRUE(db.Commit(txn2).ok());
    EXPECT_GE(Counter(db, "writes_refused_read_only"), 3u);
    EXPECT_EQ(Counter(db, "read_only_transitions"), 1u);  // flipped once

    // Reads and scans keep serving. The kReadOnly'd commit (key 11) was
    // already serialized when its flush failed, so it IS visible in memory
    // — that is exactly what "not durable" means: present now, gone after
    // restart. The per-op refusals (key 12) never applied at all.
    Txn* reader = db.Begin(IsolationLevel::kReadCommitted, true);
    uint64_t rows_seen = 0;
    bool saw_refused = false;
    EXPECT_TRUE(db.ScanTable(reader, table, [&](const void* p) {
                    ++rows_seen;
                    saw_refused |= static_cast<const Row*>(p)->key == 12;
                    return true;
                  }).ok());
    EXPECT_EQ(rows_seen, 11u);
    EXPECT_FALSE(saw_refused);
    EXPECT_TRUE(db.Commit(reader).ok());
  }
}

// Asynchronous commits never promised durability at ack time, so they keep
// returning OK; the flip happens when the next commit probes the sink.
TEST_F(DegradationTest, AsyncModeFlipsOnNextCommitProbe) {
  const std::string dir = TempDir("async");
  DatabaseOptions opts;
  opts.log_mode = LogMode::kAsync;
  opts.log_path = dir + "/wal";
  opts.fsync_log = true;
  Database db(opts);
  TableId table = MakeRowTable(db);

  ASSERT_TRUE(failpoint::ArmSpec("log.fsync=error"));
  // Loop until a write is refused, not until read_only(): if the failed
  // flush lands between one commit's sink probe and its post-check, that
  // async commit flips the database yet still returns OK, and the refusal
  // comes from the next attempt.
  Status s;
  for (int attempt = 0; attempt < 200 && !s.IsReadOnly(); ++attempt) {
    Txn* txn = db.Begin(IsolationLevel::kReadCommitted);
    Row row{static_cast<uint64_t>(attempt) + 1, 1};
    s = db.Insert(txn, table, &row);
    if (s.ok()) {
      s = db.Commit(txn);
    } else {
      db.Abort(txn);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(db.read_only());
  EXPECT_TRUE(s.IsReadOnly());  // the flip was reported to the caller
}

// Operator path: EnterReadOnlyMode can fence writes deliberately.
TEST_F(DegradationTest, ExplicitEnterReadOnlyMode) {
  Database db(DatabaseOptions{});
  TableId table = MakeRowTable(db);
  db.EnterReadOnlyMode("operator fence");
  EXPECT_TRUE(db.read_only());
  Txn* txn = db.Begin(IsolationLevel::kReadCommitted);
  Row row{1, 1};
  EXPECT_TRUE(db.Insert(txn, table, &row).IsReadOnly());
  db.Abort(txn);
  EXPECT_EQ(Counter(db, "read_only_transitions"), 1u);
}

// The acceptance-criteria scenario over the service layer: a client keeps
// completing a read workload across the read-only transition, writes come
// back as kReadOnly on the wire, and STATS exposes the transition.
TEST_F(DegradationTest, ClientReadWorkloadSurvivesTransition) {
  const std::string dir = TempDir("serve");
  DatabaseOptions opts;
  opts.log_mode = LogMode::kSync;
  opts.log_path = dir + "/wal";
  opts.fsync_log = true;
  Database db(opts);
  TableId table = MakeRowTable(db);
  ServerCore core(db);
  LoopbackTransport transport(core);

  ClientOptions copts;
  copts.max_retries = 3;
  copts.backoff_base_ms = 0;
  MVClient client(transport, copts);

  // Seed rows while healthy.
  for (uint64_t k = 1; k <= 20; ++k) {
    ASSERT_TRUE(client.Begin(IsolationLevel::kReadCommitted).ok());
    Row row{k, k + 7};
    ASSERT_TRUE(client.Insert(table, &row, sizeof(row)).ok());
    ASSERT_TRUE(client.Commit().ok());
  }

  // Degrade mid-workload.
  ASSERT_TRUE(failpoint::ArmSpec("log.fsync=error"));
  ASSERT_TRUE(client.Begin(IsolationLevel::kReadCommitted).ok());
  Row row{21, 28};
  Status s = client.Insert(table, &row, sizeof(row));
  if (s.ok()) {
    s = client.Commit();
  } else {
    client.Abort();
  }
  EXPECT_TRUE(s.IsReadOnly()) << s.ToString();
  EXPECT_TRUE(db.read_only());
  failpoint::DisarmAll();

  // The same client completes a full read workload after the transition.
  for (uint64_t k = 1; k <= 20; ++k) {
    ASSERT_TRUE(client.Begin(IsolationLevel::kReadCommitted, true).ok());
    Row read{};
    ASSERT_TRUE(client.Get(table, 0, k, &read, sizeof(read)).ok()) << k;
    EXPECT_EQ(read.value, k + 7);
    ASSERT_TRUE(client.Commit().ok());
  }

  // Writes are refused on the wire with the same code the engine uses.
  ASSERT_TRUE(client.Begin(IsolationLevel::kReadCommitted).ok());
  Row refused{22, 29};
  EXPECT_TRUE(client.Insert(table, &refused, sizeof(refused)).IsReadOnly());
  ASSERT_TRUE(client.Abort().ok());

  // Operators can see the degradation through STATS.
  std::string stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_NE(stats.find("read_only_transitions=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("writes_refused_read_only"), std::string::npos);
}

// ---------------------------------------------------------------------------
// MVClient retry policy, driven by a scripted in-memory transport.
// ---------------------------------------------------------------------------

// One scripted connection: answers each request with the next status in the
// script. An exhausted script makes the connection go dead (EOF). A mute
// connection accepts requests but never answers (for timeout tests).
struct ConnScript {
  std::vector<Status> statuses;
  bool repeat_last = false;
  bool mute = false;
};

class ScriptedConnection : public Connection {
 public:
  explicit ScriptedConnection(ConnScript script)
      : script_(std::move(script)) {}

  bool Send(const uint8_t* data, size_t n) override {
    parser_.Feed(data, n);
    wire::Frame frame;
    while (parser_.Next(&frame) == wire::FrameParser::Result::kFrame) {
      if (script_.mute) continue;
      if (script_.statuses.empty()) continue;  // dead: EOF on next read
      Status s = script_.statuses.front();
      if (script_.statuses.size() > 1 || !script_.repeat_last) {
        script_.statuses.erase(script_.statuses.begin());
      }
      wire::AppendResponse(&pending_, frame.opcode, s, nullptr, 0, false);
    }
    return true;
  }

  size_t Recv(uint8_t* buf, size_t n) override {
    if (pending_.empty()) return 0;  // EOF
    size_t take = n < pending_.size() ? n : pending_.size();
    std::memcpy(buf, pending_.data(), take);
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<ptrdiff_t>(take));
    return take;
  }

  size_t RecvTimeout(uint8_t* buf, size_t n, uint32_t timeout_ms,
                     bool* timed_out) override {
    (void)timeout_ms;
    if (timed_out != nullptr) *timed_out = false;
    if (pending_.empty() && script_.mute) {
      if (timed_out != nullptr) *timed_out = true;  // simulate a hung peer
      return 0;
    }
    return Recv(buf, n);
  }

 private:
  ConnScript script_;
  wire::FrameParser parser_;
  std::vector<uint8_t> pending_;
};

class ScriptedTransport : public Transport {
 public:
  explicit ScriptedTransport(std::vector<ConnScript> connections)
      : connections_(std::move(connections)) {}

  std::unique_ptr<Connection> Connect(Status* status) override {
    ++dials_;
    if (connections_.empty()) {
      if (status != nullptr) *status = Status::Unavailable();
      return nullptr;
    }
    ConnScript script = connections_.front();
    if (connections_.size() > 1) {
      connections_.erase(connections_.begin());
    }
    if (status != nullptr) *status = Status::OK();
    return std::make_unique<ScriptedConnection>(std::move(script));
  }

  int dials() const { return dials_; }

 private:
  std::vector<ConnScript> connections_;
  int dials_ = 0;
};

ConnScript AlwaysOk() { return ConnScript{{Status::OK()}, true, false}; }

TEST_F(DegradationTest, RetriesUnavailableOnLiveConnection) {
  ClientOptions copts;
  copts.max_retries = 5;
  copts.backoff_base_ms = 0;
  auto conn = std::make_unique<ScriptedConnection>(ConnScript{
      {Status::Unavailable(), Status::Unavailable(), Status::OK()},
      true,
      false});
  MVClient client(std::move(conn), copts);
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(client.retries(), 2u);
  EXPECT_EQ(client.reconnects(), 0u);  // no transport involved
}

TEST_F(DegradationTest, RetryBudgetExhaustionSurfacesUnavailable) {
  ClientOptions copts;
  copts.max_retries = 2;
  copts.backoff_base_ms = 0;
  auto conn = std::make_unique<ScriptedConnection>(
      ConnScript{{Status::Unavailable()}, true, false});
  MVClient client(std::move(conn), copts);
  EXPECT_TRUE(client.Ping().IsUnavailable());
  EXPECT_EQ(client.retries(), 2u);
}

TEST_F(DegradationTest, TimeoutSurfacesAndPoisonsConnection) {
  ClientOptions copts;
  copts.op_timeout_ms = 30;
  auto conn =
      std::make_unique<ScriptedConnection>(ConnScript{{}, false, true});
  MVClient client(std::move(conn), copts);
  Status s = client.Ping();
  EXPECT_TRUE(s.IsTimeout()) << s.ToString();
  EXPECT_FALSE(client.connected());
  // Without a transport the poisoned client stays down.
  EXPECT_FALSE(client.Ping().ok());
}

TEST_F(DegradationTest, TimeoutRecoversThroughReconnect) {
  ClientOptions copts;
  copts.op_timeout_ms = 30;
  copts.max_retries = 1;
  copts.backoff_base_ms = 0;
  ScriptedTransport transport({ConnScript{{}, false, true}, AlwaysOk()});
  MVClient client(transport, copts);
  EXPECT_TRUE(client.Ping().ok());  // timed out once, reconnected, succeeded
  EXPECT_EQ(client.retries(), 1u);
  EXPECT_EQ(client.reconnects(), 2u);  // lazy first dial + redial
}

TEST_F(DegradationTest, NonIdempotentOpsAreNeverRetriedOnUnknownOutcome) {
  ClientOptions copts;
  copts.max_retries = 3;
  copts.backoff_base_ms = 0;
  // First connection dies before answering (script exhausted), second is
  // healthy: an idempotent request would recover, a write must not.
  ScriptedTransport transport({ConnScript{{}, false, false}, AlwaysOk()});
  MVClient client(transport, copts);
  Row row{1, 1};
  Status s = client.Insert(0, &row, sizeof(row));
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.IsTimeout());
  EXPECT_EQ(client.retries(), 0u);  // outcome unknown: surfaced, not retried
  // The next idempotent request reconnects and completes.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(client.reconnects(), 2u);
}

TEST_F(DegradationTest, NoRetryInsideOpenTransaction) {
  ClientOptions copts;
  copts.max_retries = 3;
  copts.backoff_base_ms = 0;
  // Connection answers Begin, then dies; the follow-up Get must not be
  // replayed on a fresh connection (its transaction is gone).
  ScriptedTransport transport(
      {ConnScript{{Status::OK()}, false, false}, AlwaysOk()});
  MVClient client(transport, copts);
  ASSERT_TRUE(client.Begin(IsolationLevel::kReadCommitted).ok());
  EXPECT_TRUE(client.in_txn());
  std::vector<uint8_t> payload;
  Status s = client.Get(0, 0, 1, &payload);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(client.retries(), 0u);
  EXPECT_FALSE(client.in_txn());  // the txn died with the connection
  // A fresh Begin is retry-safe and lands on the new connection.
  EXPECT_TRUE(client.Begin(IsolationLevel::kReadCommitted).ok());
  EXPECT_TRUE(client.in_txn());
}

TEST_F(DegradationTest, FailedDialIsRetryableForWrites) {
  ClientOptions copts;
  copts.max_retries = 2;
  copts.backoff_base_ms = 0;
  // An empty transport refuses the dial; nothing was ever sent, so even a
  // write may retry the connect — and surface kUnavailable when it never
  // comes up.
  ScriptedTransport transport({});
  MVClient client(transport, copts);
  Row row{1, 1};
  Status s = client.Insert(0, &row, sizeof(row));
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_EQ(client.retries(), 2u);
  EXPECT_EQ(transport.dials(), 3);
}

}  // namespace
}  // namespace mvstore
