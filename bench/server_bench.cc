// Server throughput: TATP transactions as whole-txn procedure calls over
// the service layer, swept over client connections × pipeline depth ×
// scheme × transport.
//
// Each client connection is one thread driving an MVClient: it queues
// `--depth` kCall frames ("tatp.mixed" — the spec's transaction mix, typed
// server-side from the call's seed), flushes the batch as one write, and
// reads the pipelined responses. Loopback rows measure the protocol +
// session + engine path with no kernel in the way; +tcp rows add real
// sockets through the epoll server. This is the service-layer counterpart
// of table4_tatp: same workload, but every transaction crosses the wire.
//
//   --seconds S        measurement window per point (default 0.5)
//   --subscribers N    TATP scale (default 10000; --full 100000)
//   --threads T        max client connections (default min(24, hw))
//   --depth D          pipelined calls per batch (default 8)
//   --scheme X         restrict to one scheme
//   --tcp 0|1          also run real-socket rows (default 1; auto-skipped
//                      where MVServer is unsupported)
//   --group_commit_us  log group-commit window (with --log_path)
//   --log_path PATH    file-backed redo log (default: in-memory sink)
//   --fsync 0|1        fsync flushed batches (default 0)
//   --follower 0|1     add the replication read axis (default 0): a live
//                      log-shipped follower behind the session layer, rows
//                      comparing pipelined read-only GET throughput served
//                      by the leader (":fread") vs the follower's
//                      replayed_ts snapshot (":fread+follower")
//   --json PATH        machine-readable rows; depth/transport fold into
//                      the scheme label ("MV/O:p8", "MV/O:p8+tcp")
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "client/client.h"
#include "client/tcp_transport.h"
#include "common/random.h"
#include "repl/replica.h"
#include "repl/shipper.h"
#include "server/loopback.h"
#include "server/mv_server.h"
#include "server/server_core.h"
#include "workload/homogeneous.h"
#include "workload/tatp.h"

namespace mvstore {
namespace bench {
namespace {

struct BenchContext {
  Database* db = nullptr;
  Transport* transport = nullptr;
  uint32_t proc_id = 0;
  uint32_t depth = 1;
};

RunResult RunPoint(const BenchContext& ctx, uint32_t connections,
                   double seconds) {
  return RunFixedDuration(
      connections, seconds,
      [&](uint32_t tid, std::atomic<bool>& stop, WorkerCounters& counters) {
        Status status;
        auto conn = ctx.transport->Connect(&status);
        if (conn == nullptr) return;  // admission refused: contribute zeros
        MVClient client(std::move(conn));
        Random rng(0x5EED5EED + tid);
        std::vector<WireResult> results;
        std::vector<uint8_t> arg(9);
        arg[8] = static_cast<uint8_t>(IsolationLevel::kReadCommitted);
        while (!stop.load(std::memory_order_relaxed) && client.connected()) {
          for (uint32_t i = 0; i < ctx.depth; ++i) {
            uint64_t seed = rng.Next();
            std::memcpy(arg.data(), &seed, 8);
            client.QueueCall(ctx.proc_id, arg.data(), arg.size());
          }
          results.clear();
          if (!client.FlushBatch(&results).ok()) break;
          for (const WireResult& r : results) {
            if (r.status.ok()) {
              ++counters.committed;
            } else {
              ++counters.aborted;
            }
          }
        }
      });
}

// --- follower read axis ------------------------------------------------------

constexpr uint64_t kFollowerRows = 4096;

void DefineFollowerRows(Database& db) {
  TableDef def;
  def.name = "rows";
  def.payload_size = sizeof(workload::Row24);
  def.indexes.push_back(
      IndexDef{&workload::Row24Key, kFollowerRows, /*unique=*/true});
  db.CreateTable(std::move(def));
}

/// Pipelined read-only GET batches through a session transport: one Begin +
/// `depth` GETs + Commit per flush; committed counts read transactions.
RunResult RunReadPoint(Transport& transport, uint32_t depth,
                       uint32_t connections, double seconds) {
  return RunFixedDuration(
      connections, seconds,
      [&](uint32_t tid, std::atomic<bool>& stop, WorkerCounters& counters) {
        Status status;
        auto conn = transport.Connect(&status);
        if (conn == nullptr) return;
        MVClient client(std::move(conn));
        Random rng(0xF0110 + tid);
        std::vector<WireResult> results;
        while (!stop.load(std::memory_order_relaxed) && client.connected()) {
          client.QueueBegin(IsolationLevel::kReadCommitted,
                            /*read_only=*/true);
          for (uint32_t i = 0; i < depth; ++i) {
            client.QueueGet(0, 0, rng.Uniform(kFollowerRows));
          }
          client.QueueCommit();
          results.clear();
          if (!client.FlushBatch(&results).ok()) break;
          if (!results.empty() && results.back().status.ok()) {
            ++counters.committed;
          } else {
            ++counters.aborted;
          }
        }
      });
}

}  // namespace
}  // namespace bench
}  // namespace mvstore

int main(int argc, char** argv) {
  using namespace mvstore;
  using namespace mvstore::bench;

  Flags flags(argc, argv, {"seconds", "full", "subscribers", "threads", "depth",
                           "tcp", "scheme", "group_commit_us", "log_path",
                           "fsync", "follower", "json"});
  const double seconds = flags.GetDouble("seconds", 0.5);
  const bool full = flags.Has("full");
  const uint64_t subscribers =
      flags.GetUint("subscribers", full ? 100000 : 10000);
  const uint32_t max_threads =
      static_cast<uint32_t>(flags.GetUint("threads", DefaultMaxThreads()));
  const uint32_t depth =
      static_cast<uint32_t>(flags.GetUint("depth", 8));
  const bool run_tcp = flags.GetUint("tcp", 1) != 0;

  JsonReporter json(flags, BenchSlug(argv[0]));

  std::printf("server_bench: TATP over the service layer (%llu subscribers, "
              "depth %u)\n",
              static_cast<unsigned long long>(subscribers), depth);
  std::printf("%-14s %-10s %12s %12s %10s %10s %10s\n", "scheme", "transport",
              "conns", "tps", "aborts", "p50_us", "p99_us");

  for (Scheme scheme : SchemesToRun(flags)) {
    DatabaseOptions opts = MakeOptions(scheme, flags);
    opts.log_path = flags.GetString("log_path", "");
    if (opts.log_path.empty()) opts.log_mode = LogMode::kAsync;
    opts.fsync_log = flags.GetUint("fsync", 0) != 0;
    opts.group_commit_us =
        static_cast<uint32_t>(flags.GetUint("group_commit_us", 0));
    Database db(opts);
    tatp::TatpDatabase tatp_db = tatp::LoadTatp(db, subscribers);
    tatp::RegisterTatpProcedures(db, tatp_db);

    // Shared admission config: sessions for every swept connection count.
    ServerCoreOptions core_opts;
    core_opts.max_sessions = max_threads + 8;
    core_opts.max_pipeline = depth < 64 ? 64 : depth;

    BenchContext ctx;
    ctx.db = &db;
    ctx.depth = depth == 0 ? 1 : depth;

    // --- loopback rows ---
    {
      ServerCore core(db, core_opts);
      LoopbackTransport loopback(core);
      int64_t proc = db.FindProcedure("tatp.mixed");
      ctx.proc_id = static_cast<uint32_t>(proc);
      ctx.transport = &loopback;
      for (uint32_t conns : ThreadSweep(max_threads)) {
        LatencyProbe probe(db, obs::Hist::kCommitTotal);
        RunResult r = RunPoint(ctx, conns, seconds);
        probe.Finish();
        std::string label = std::string(SchemeName(scheme)) + ":p" +
                            std::to_string(ctx.depth);
        std::printf("%-14s %-10s %12u %12.0f %10llu %10.1f %10.1f\n",
                    label.c_str(), "loopback", conns, r.tps(),
                    static_cast<unsigned long long>(r.aborted),
                    probe.p50_us(), probe.p99_us());
        json.AddRow(label, conns, r.tps(), r.aborted, probe);
      }
    }

    // --- real-socket rows ---
    if (run_tcp) {
      ServerOptions srv_opts;
      srv_opts.port = 0;  // ephemeral
      srv_opts.workers = 2;
      srv_opts.core = core_opts;
      MVServer server(db, srv_opts);
      if (!server.Start().ok()) {
        std::printf("(tcp rows skipped: MVServer unavailable here)\n");
        continue;
      }
      TcpTransport tcp("127.0.0.1", server.port());
      ctx.transport = &tcp;
      for (uint32_t conns : ThreadSweep(max_threads)) {
        LatencyProbe probe(db, obs::Hist::kCommitTotal);
        RunResult r = RunPoint(ctx, conns, seconds);
        probe.Finish();
        std::string label = std::string(SchemeName(scheme)) + ":p" +
                            std::to_string(ctx.depth) + "+tcp";
        std::printf("%-14s %-10s %12u %12.0f %10llu %10.1f %10.1f\n",
                    label.c_str(), "tcp", conns, r.tps(),
                    static_cast<unsigned long long>(r.aborted),
                    probe.p50_us(), probe.p99_us());
        json.AddRow(label, conns, r.tps(), r.aborted, probe);
      }
      server.Stop();
    }

    // --- follower read rows ---
    if (flags.GetUint("follower", 0) != 0) {
#if !defined(__linux__)
      std::printf("(follower rows skipped: replication is Linux-only)\n");
#else
      const std::string dir =
          (std::filesystem::temp_directory_path() / "mvstore_server_bench_repl")
              .string();
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir + "/leader");
      std::filesystem::create_directories(dir + "/follower");
      DatabaseOptions lopts;
      lopts.scheme = scheme;
      lopts.log_mode = LogMode::kAsync;
      lopts.log_path = dir + "/leader/wal";
      lopts.log_segment_bytes = 1 << 20;
      lopts.checkpoint_path = dir + "/leader/ckpt";
      Status st;
      auto leader = Database::Open(lopts, DefineFollowerRows, &st);
      if (leader == nullptr) {
        std::printf("(follower rows skipped: %s)\n", st.ToString().c_str());
        continue;
      }
      for (uint64_t k = 0; k < kFollowerRows; ++k) {
        Txn* txn = leader->Begin(IsolationLevel::kReadCommitted);
        workload::Row24 row{k, k * 10, 0};
        leader->Insert(txn, 0, &row);
        leader->Commit(txn);
      }
      ReplShipper shipper(*leader);
      std::unique_ptr<Replica> replica;
      if (shipper.Start().ok()) {
        ReplicaOptions ropts;
        ropts.db = lopts;
        ropts.db.log_path = dir + "/follower/wal";
        ropts.db.checkpoint_path = dir + "/follower/ckpt";
        ropts.define_schema = DefineFollowerRows;
        ropts.leader_port = shipper.port();
        replica = Replica::Open(ropts, &st);
      }
      const Timestamp target = leader->LastCommitTimestamp();
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (replica != nullptr && replica->replayed_ts() < target &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (replica == nullptr || replica->replayed_ts() < target) {
        std::printf("(follower rows skipped: follower never caught up)\n");
      } else {
        ServerCore lcore(*leader, core_opts);
        LoopbackTransport ltrans(lcore);
        ServerCore fcore(replica->db(), core_opts);
        fcore.SetReplica(replica.get());
        LoopbackTransport ftrans(fcore);
        for (uint32_t conns : ThreadSweep(max_threads)) {
          // Read rows: per-GET latency, from each side's own engine.
          LatencyProbe lprobe(*leader, obs::Hist::kReadLatency);
          RunResult lr = RunReadPoint(ltrans, ctx.depth, conns, seconds);
          lprobe.Finish();
          std::string llabel = std::string(SchemeName(scheme)) + ":fread";
          std::printf("%-14s %-10s %12u %12.0f %10llu %10.1f %10.1f\n",
                      llabel.c_str(), "loopback", conns, lr.tps(),
                      static_cast<unsigned long long>(lr.aborted),
                      lprobe.p50_us(), lprobe.p99_us());
          json.AddRow(llabel, conns, lr.tps(), lr.aborted, lprobe);
          LatencyProbe fprobe(replica->db(), obs::Hist::kReadLatency);
          RunResult fr = RunReadPoint(ftrans, ctx.depth, conns, seconds);
          fprobe.Finish();
          std::string flabel = std::string(SchemeName(scheme)) + ":fread+follower";
          std::printf("%-14s %-10s %12u %12.0f %10llu %10.1f %10.1f\n",
                      flabel.c_str(), "loopback", conns, fr.tps(),
                      static_cast<unsigned long long>(fr.aborted),
                      fprobe.p50_us(), fprobe.p99_us());
          json.AddRow(flabel, conns, fr.tps(), fr.aborted, fprobe);
        }
        fcore.SetReplica(nullptr);
      }
      if (replica != nullptr) replica->Stop();
      replica.reset();
      shipper.Stop();
      leader.reset();
      std::filesystem::remove_all(dir);
#endif
    }
  }
  return 0;
}
