// Metrics exposition end-to-end: the kMetrics opcode round-trips over a
// loopback session and returns well-formed Prometheus text whose counter
// and histogram samples agree with the work the session just did; reads
// and scans are timed with their transaction's commit sample; the
// replication-lag gauge appears when a replica gate is attached.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "client/client.h"
#include "core/database.h"
#include "obs/histogram.h"
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

/// Parse Prometheus text into series-name (labels included) -> value,
/// asserting every line is either a comment or exactly "name value".
std::map<std::string, double> ParseExposition(const std::string& text) {
  std::map<std::string, double> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    EXPECT_NE(eol, std::string::npos) << "exposition must end with newline";
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) {
      ADD_FAILURE() << "blank line in exposition";
      continue;
    }
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE ", 0), 0u) << "bad comment: " << line;
      continue;
    }
    size_t sp = line.rfind(' ');
    if (sp == std::string::npos) {
      ADD_FAILURE() << "unparsable line: " << line;
      continue;
    }
    char* end = nullptr;
    double value = std::strtod(line.c_str() + sp + 1, &end);
    EXPECT_EQ(*end, '\0') << "non-numeric sample: " << line;
    out[line.substr(0, sp)] = value;
  }
  return out;
}

TEST(MetricsTest, LoopbackRoundTripMatchesWork) {
  DatabaseOptions opts;
  opts.scheme = Scheme::kMultiVersionOptimistic;
  // A slow-txn threshold (far above anything this test does) opts every
  // commit into pipeline tracing, overriding the 1-in-32 sampling so the
  // histogram counts below can be asserted exactly.
  opts.slow_txn_us = 10 * 1000 * 1000;
  Database db(opts);
  TableId table = MakeRowTable(db);
  ServerCore core(db);
  LoopbackTransport transport(core);
  Status status;
  auto conn = transport.Connect(&status);
  ASSERT_NE(conn, nullptr) << status.ToString();
  MVClient client(std::move(conn));

  constexpr uint64_t kCommits = 25;
  for (uint64_t i = 0; i < kCommits; ++i) {
    ASSERT_TRUE(client.Begin(IsolationLevel::kReadCommitted).ok());
    Row row{i, i * 10};
    ASSERT_TRUE(client.Insert(table, &row, sizeof(row)).ok());
    ASSERT_TRUE(client.Commit().ok());
  }
  Row read{};
  ASSERT_TRUE(client.Begin(IsolationLevel::kReadCommitted, true).ok());
  ASSERT_TRUE(client.Get(table, 0, 3, &read, sizeof(read)).ok());
  ASSERT_TRUE(client.Commit().ok());

  std::string text;
  ASSERT_TRUE(client.Metrics(&text).ok());
  std::map<std::string, double> samples = ParseExposition(text);

  // Engine counters carry the _total suffix and the work just done.
  EXPECT_GE(samples["mvstore_txn_committed_total"], kCommits);
  // Service gauges.
  EXPECT_EQ(samples["mvstore_server_sessions_active"], 1.0);
  EXPECT_EQ(samples["mvstore_read_only"], 0.0);
  // No replica gate -> no repl series.
  EXPECT_EQ(samples.count("mvstore_repl_lag_timestamps"), 0u);

  // Commit histogram: _count matches commits, +Inf bucket equals _count,
  // quantiles are present, finite, and ordered p50 <= p99 <= max.
  EXPECT_GE(samples["mvstore_commit_total_seconds_count"], kCommits);
  EXPECT_EQ(samples["mvstore_commit_total_seconds_bucket{le=\"+Inf\"}"],
            samples["mvstore_commit_total_seconds_count"]);
  double p50 = samples["mvstore_commit_total_quantile_seconds{quantile=\"0.5\"}"];
  double p99 =
      samples["mvstore_commit_total_quantile_seconds{quantile=\"0.99\"}"];
  double max = samples["mvstore_commit_total_max_seconds"];
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p99);
  EXPECT_GT(samples["mvstore_commit_total_seconds_sum"], 0.0);
  EXPECT_GT(max, 0.0);
  // Per-phase commit histograms saw the same commits.
  EXPECT_GE(samples["mvstore_commit_validate_seconds_count"], kCommits);
  EXPECT_GE(samples["mvstore_commit_log_append_seconds_count"], kCommits);
  EXPECT_GE(samples["mvstore_txn_lifetime_seconds_count"], kCommits);
  // The one read went through the Database facade: the threshold times
  // every transaction, so every read lands in the histogram too.
  EXPECT_EQ(samples["mvstore_read_latency_seconds_count"], 1.0);
  EXPECT_EQ(samples["mvstore_reads_total"], 1.0);
}

/// Default sampling: reads and scans are timed inside exactly the
/// transactions Begin sampled for commit tracing, while the reads counter
/// stays exact.
void ExpectReadsSampledWithTheirTransaction(Scheme scheme) {
  DatabaseOptions opts;
  opts.scheme = scheme;
  Database db(opts);
  TableId table = MakeRowTable(db);
  constexpr uint64_t kReadsPerTxn = 4;
  ASSERT_TRUE(db.RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* txn) {
                  for (uint64_t k = 0; k < kReadsPerTxn; ++k) {
                    Row row{k, k};
                    Status s = db.Insert(txn, table, &row);
                    if (!s.ok()) return s;
                  }
                  return Status::OK();
                }).ok());
  // The load transaction may itself have been sampled: count from here.
  auto count = [&db](obs::Hist hist) { return db.hists().Snapshot(hist).count; };
  const uint64_t lifetime0 = count(obs::Hist::kTxnLifetime);
  const uint64_t read0 = count(obs::Hist::kReadLatency);
  const uint64_t scan0 = count(obs::Hist::kScanLatency);

  constexpr uint64_t kTxns = 2 * (obs::kCommitSampleMask + 1);
  for (uint64_t i = 0; i < kTxns; ++i) {
    Txn* txn = db.Begin(IsolationLevel::kReadCommitted);
    Row row{};
    for (uint64_t k = 0; k < kReadsPerTxn; ++k) {
      ASSERT_TRUE(db.Read(txn, table, 0, k, &row).ok());
    }
    ASSERT_TRUE(db.Scan(txn, table, 0, i % kReadsPerTxn, nullptr,
                        [](const void*) { return true; })
                    .ok());
    ASSERT_TRUE(db.Commit(txn).ok());
  }

  // The per-thread round-robin samples exactly one Begin in every
  // kCommitSampleMask + 1 consecutive ones.
  const uint64_t sampled = count(obs::Hist::kTxnLifetime) - lifetime0;
  const uint64_t reads_timed = count(obs::Hist::kReadLatency) - read0;
  const uint64_t scans_timed = count(obs::Hist::kScanLatency) - scan0;
  EXPECT_EQ(sampled, 2u);
  EXPECT_EQ(reads_timed, kReadsPerTxn * sampled);
  EXPECT_EQ(scans_timed, sampled);
  EXPECT_LT(reads_timed, kReadsPerTxn * kTxns);
  EXPECT_LT(scans_timed, kTxns);

  // The scrape's reads counter counts every read, sampled or not.
  ServerCore core(db);
  std::map<std::string, double> samples = ParseExposition(core.MetricsText());
  EXPECT_EQ(samples["mvstore_reads_total"],
            static_cast<double>(kReadsPerTxn * kTxns));
}

TEST(MetricsTest, ReadTracingRidesTheCommitSample1V) {
  ExpectReadsSampledWithTheirTransaction(Scheme::kSingleVersion);
}

TEST(MetricsTest, ReadTracingRidesTheCommitSampleMVO) {
  ExpectReadsSampledWithTheirTransaction(Scheme::kMultiVersionOptimistic);
}

TEST(MetricsTest, CommitTracingIsSampledByDefault) {
  // Without a slow-txn threshold, the commit pipeline is traced 1-in-32
  // per thread (obs::kCommitSampleMask): every commit is counted, but only
  // a deterministic subset lands in the commit histograms.
  DatabaseOptions opts;
  opts.scheme = Scheme::kMultiVersionOptimistic;
  Database db(opts);
  TableId table = MakeRowTable(db);
  ServerCore core(db);
  LoopbackTransport transport(core);
  auto conn = transport.Connect(nullptr);
  ASSERT_NE(conn, nullptr);
  MVClient client(std::move(conn));

  constexpr uint64_t kCommits = 2 * (obs::kCommitSampleMask + 1);
  for (uint64_t i = 0; i < kCommits; ++i) {
    ASSERT_TRUE(client.Begin(IsolationLevel::kReadCommitted).ok());
    Row row{i, i};
    ASSERT_TRUE(client.Insert(table, &row, sizeof(row)).ok());
    ASSERT_TRUE(client.Commit().ok());
  }
  std::string text;
  ASSERT_TRUE(client.Metrics(&text).ok());
  std::map<std::string, double> samples = ParseExposition(text);
  EXPECT_GE(samples["mvstore_txn_committed_total"], kCommits);
  // Two full sampling rounds guarantee at least one trace; sampling must
  // also have thinned the stream well below one-per-commit.
  double traced = samples["mvstore_commit_total_seconds_count"];
  EXPECT_GE(traced, 1.0);
  EXPECT_LT(traced, static_cast<double>(kCommits));
  EXPECT_EQ(samples["mvstore_txn_lifetime_seconds_count"], traced);
}

/// kSync commits bill their group wait with the commit's own sample, so
/// commit_group_wait and commit_total count the same commits and the wait
/// is a part of the commit it was measured in (log.group_wait_share <= 1).
TEST(MetricsTest, GroupWaitIsSampledWithTheCommit) {
  DatabaseOptions opts;
  opts.scheme = Scheme::kMultiVersionOptimistic;
  opts.log_mode = LogMode::kSync;
  Database db(opts);
  TableId table = MakeRowTable(db);
  auto snap = [&db](obs::Hist hist) { return db.hists().Snapshot(hist); };
  // Table creation commits nothing, but count from here regardless.
  const obs::HistogramData total0 = snap(obs::Hist::kCommitTotal);
  const obs::HistogramData wait0 = snap(obs::Hist::kCommitGroupWait);

  constexpr uint64_t kCommits = 2 * (obs::kCommitSampleMask + 1);
  for (uint64_t i = 0; i < kCommits; ++i) {
    Txn* txn = db.Begin(IsolationLevel::kReadCommitted);
    Row row{i, i};
    ASSERT_TRUE(db.Insert(txn, table, &row).ok());
    ASSERT_TRUE(db.Commit(txn).ok());
  }
  obs::HistogramData total = snap(obs::Hist::kCommitTotal);
  obs::HistogramData wait = snap(obs::Hist::kCommitGroupWait);
  total.Subtract(total0);
  wait.Subtract(wait0);
  EXPECT_EQ(total.count, 2u);  // one in kCommitSampleMask + 1, per thread
  EXPECT_EQ(wait.count, total.count);
  EXPECT_LE(wait.sum, total.sum);
}

/// The flusher bills every batch's sink Write+Sync to log_sync, unsampled:
/// one record per counted group commit.
TEST(MetricsTest, LogSyncCountsEveryFlushedBatch) {
  DatabaseOptions opts;
  opts.log_mode = LogMode::kSync;
  Database db(opts);
  TableId table = MakeRowTable(db);
  const uint64_t syncs0 = db.hists().Snapshot(obs::Hist::kLogSync).count;
  const uint64_t batches0 = db.stats().Get(Stat::kLogGroupCommits);

  constexpr uint64_t kCommits = 40;
  for (uint64_t i = 0; i < kCommits; ++i) {
    Txn* txn = db.Begin(IsolationLevel::kReadCommitted);
    Row row{i, i};
    ASSERT_TRUE(db.Insert(txn, table, &row).ok());
    ASSERT_TRUE(db.Commit(txn).ok());
  }
  const uint64_t syncs =
      db.hists().Snapshot(obs::Hist::kLogSync).count - syncs0;
  const uint64_t batches = db.stats().Get(Stat::kLogGroupCommits) - batches0;
  EXPECT_GT(batches, 0u);
  EXPECT_EQ(syncs, batches);
}

TEST(MetricsTest, HistogramsDisabledStillWellFormed) {
  DatabaseOptions opts;
  opts.enable_latency_histograms = false;
  Database db(opts);
  TableId table = MakeRowTable(db);
  ServerCore core(db);
  LoopbackTransport transport(core);
  auto conn = transport.Connect(nullptr);
  ASSERT_NE(conn, nullptr);
  MVClient client(std::move(conn));

  ASSERT_TRUE(client.Begin(IsolationLevel::kReadCommitted).ok());
  Row row{1, 2};
  ASSERT_TRUE(client.Insert(table, &row, sizeof(row)).ok());
  ASSERT_TRUE(client.Commit().ok());

  std::string text;
  ASSERT_TRUE(client.Metrics(&text).ok());
  std::map<std::string, double> samples = ParseExposition(text);
  // Counters still flow; histogram families render with zero counts.
  EXPECT_GE(samples["mvstore_txn_committed_total"], 1.0);
  EXPECT_EQ(samples["mvstore_commit_total_seconds_count"], 0.0);
  EXPECT_EQ(samples["mvstore_commit_total_seconds_bucket{le=\"+Inf\"}"], 0.0);
}

/// Gate stub: a follower that replayed through ts 40 of a leader at ts 100.
class FakeGate : public ReplicaGate {
 public:
  bool writable() override { return false; }
  bool ready() override { return true; }
  Timestamp replayed_ts() override { return 40; }
  Timestamp leader_ts() override { return 100; }
  Status Promote(bool) override { return Status::OK(); }
};

TEST(MetricsTest, ReplicaGateExportsLagGauge) {
  Database db{DatabaseOptions{}};
  ServerCore core(db);
  FakeGate gate;
  core.SetReplica(&gate);
  std::map<std::string, double> samples = ParseExposition(core.MetricsText());
  core.SetReplica(nullptr);
  EXPECT_EQ(samples["mvstore_repl_writable"], 0.0);
  EXPECT_EQ(samples["mvstore_repl_ready"], 1.0);
  EXPECT_EQ(samples["mvstore_repl_replayed_ts"], 40.0);
  EXPECT_EQ(samples["mvstore_repl_leader_ts"], 100.0);
  EXPECT_EQ(samples["mvstore_repl_lag_timestamps"], 60.0);
}

TEST(MetricsTest, CounterSnapshotIsSortedByName) {
  Database db{DatabaseOptions{}};
  auto snapshot = db.CounterSnapshot();
  ASSERT_FALSE(snapshot.empty());
  for (size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].first, snapshot[i].first);
  }
}

}  // namespace
}  // namespace mvstore
