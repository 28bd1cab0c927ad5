// mvserver: serve an mvstore database over the wire protocol.
//
//   mvserver [--port P] [--host H] [--scheme 1V|MV/L|MV/O] [--workers N]
//            [--max-sessions N] [--max-pipeline N]
//            [--log PATH] [--fsync 0|1] [--segment-bytes N]
//            [--group-commit-us N] [--checkpoint PATH]
//            [--tatp SUBSCRIBERS]
//            [--repl-port P] [--follow HOST:PORT]
//
// With --tatp the TATP schema is created, loaded, and its seven
// transactions (plus "tatp.mixed") are registered as whole-txn procedures,
// so any MVClient can drive the paper's workload with one kCall per
// transaction. With --log the database is *opened* (recover-then-continue):
// existing durable state is replayed before serving. SIGINT and SIGTERM are
// handled identically: drain gracefully — in-flight transactions finish,
// the log is flushed — then exit 0. If the shutdown flush cannot promise
// the log is durable (the sink failed or the database degraded to
// read-only mode), the exit status is 2 so supervisors notice the data
// needs attention before a restart (see docs/RELIABILITY.md).
//
// Replication (docs/REPLICATION.md; Linux only):
//   --repl-port P   leader: host a log shipper on P so followers can
//                   bootstrap + tail this database (requires --log).
//   --follow H:P    follower: mirror the leader's log from H:P and serve
//                   read-only snapshot transactions at replayed_ts; writes
//                   are refused kReadOnly until a client sends promote
//                   (mvclient promote). Requires --log and --checkpoint;
//                   incompatible with --tatp loading
//                   (the schema comes from the leader's define order).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "core/database.h"
#include "core/recovery.h"
#include "repl/replica.h"
#include "repl/shipper.h"
#include "server/mv_server.h"
#include "workload/tatp.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_release); }

const char* FlagValue(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

uint64_t FlagUint(int argc, char** argv, const char* name, uint64_t fallback) {
  const char* v = FlagValue(argc, argv, name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

std::string FlagStr(int argc, char** argv, const char* name,
                    const std::string& fallback) {
  const char* v = FlagValue(argc, argv, name);
  return v != nullptr ? v : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mvstore;

  DatabaseOptions db_opts;
  std::string scheme = FlagStr(argc, argv, "--scheme", "MV/O");
  if (scheme == "1V") {
    db_opts.scheme = Scheme::kSingleVersion;
  } else if (scheme == "MV/L") {
    db_opts.scheme = Scheme::kMultiVersionLocking;
  } else if (scheme == "MV/O") {
    db_opts.scheme = Scheme::kMultiVersionOptimistic;
  } else {
    std::fprintf(stderr, "mvserver: unknown --scheme '%s'\n", scheme.c_str());
    return 1;
  }
  db_opts.log_path = FlagStr(argc, argv, "--log", "");
  db_opts.fsync_log = FlagUint(argc, argv, "--fsync", 0) != 0;
  db_opts.log_segment_bytes =
      FlagUint(argc, argv, "--segment-bytes", db_opts.log_segment_bytes);
  if (db_opts.log_segment_bytes == 0) {
    std::fprintf(stderr, "mvserver: --segment-bytes must be > 0\n");
    return 1;
  }
  db_opts.group_commit_us =
      static_cast<uint32_t>(FlagUint(argc, argv, "--group-commit-us", 0));
  db_opts.checkpoint_path = FlagStr(argc, argv, "--checkpoint", "");
  if (db_opts.log_path.empty()) db_opts.log_mode = LogMode::kDisabled;

  const uint64_t tatp_subscribers = FlagUint(argc, argv, "--tatp", 0);

  // Replication roles (both optional; --follow excludes --repl-port).
  const std::string follow = FlagStr(argc, argv, "--follow", "");
  const uint16_t repl_port =
      static_cast<uint16_t>(FlagUint(argc, argv, "--repl-port", 0));
  const bool follower = !follow.empty();
  if (follower && repl_port != 0) {
    std::fprintf(stderr, "mvserver: --follow and --repl-port are exclusive "
                         "(a follower re-ships only after promote)\n");
    return 1;
  }
  if ((follower || repl_port != 0) && db_opts.log_path.empty()) {
    std::fprintf(stderr, "mvserver: replication needs --log PATH\n");
    return 1;
  }
  if (follower && db_opts.checkpoint_path.empty()) {
    std::fprintf(stderr, "mvserver: --follow needs --checkpoint PATH "
                         "(bootstrap target)\n");
    return 1;
  }

  std::unique_ptr<Database> db;
  std::unique_ptr<Replica> replica;
  tatp::TatpDatabase tatp_db{};
  // Schema only: data committed inside define_schema would be logged and
  // then double-applied by Open's replay. Population happens below, after
  // recovery, and only if the recovered database is empty.
  auto define_schema = [&](Database& d) {
    if (tatp_subscribers > 0) {
      tatp_db = tatp::CreateTatpTables(d, tatp_subscribers);
      tatp::RegisterTatpProcedures(d, tatp_db);
    }
  };
  if (follower) {
    const size_t colon = follow.find_last_of(':');
    ReplicaOptions ropts;
    ropts.db = db_opts;
    ropts.define_schema = define_schema;
    ropts.leader_host = colon == std::string::npos ? "127.0.0.1"
                                                   : follow.substr(0, colon);
    ropts.leader_port = static_cast<uint16_t>(std::strtoul(
        follow.c_str() + (colon == std::string::npos ? 0 : colon + 1), nullptr,
        10));
    if (ropts.leader_port == 0) {
      std::fprintf(stderr, "mvserver: bad --follow '%s' (want HOST:PORT)\n",
                   follow.c_str());
      return 1;
    }
    Status open_status;
    replica = Replica::Open(std::move(ropts), &open_status);
    if (replica == nullptr) {
      std::fprintf(stderr, "mvserver: follower open failed: %s\n",
                   open_status.ToString().c_str());
      return 1;
    }
  } else if (!db_opts.log_path.empty() || !db_opts.checkpoint_path.empty()) {
    Status open_status;
    db = Database::Open(db_opts, define_schema, &open_status);
    if (db == nullptr) {
      std::fprintf(stderr, "mvserver: recovery failed: %s\n",
                   open_status.ToString().c_str());
      return 1;
    }
  } else {
    db = std::make_unique<Database>(db_opts);
    define_schema(*db);
  }
  if (tatp_subscribers > 0 && !follower) {
    // Fresh database (nothing recovered): load the TATP population now,
    // through the normal commit path, so it is durable for the next start.
    Txn* probe = db->Begin(IsolationLevel::kReadCommitted, /*read_only=*/true);
    tatp::SubscriberRow sub;
    bool loaded = db->Read(probe, tatp_db.subscriber, 0, 1, &sub).ok();
    db->Commit(probe);
    if (!loaded) {
      std::printf("mvserver: loading %llu TATP subscribers...\n",
                  static_cast<unsigned long long>(tatp_subscribers));
      tatp::PopulateTatp(*db, tatp_db);
    }
  }

  ServerOptions srv_opts;
  srv_opts.host = FlagStr(argc, argv, "--host", "127.0.0.1");
  srv_opts.port = static_cast<uint16_t>(FlagUint(argc, argv, "--port", 7711));
  srv_opts.workers = static_cast<uint32_t>(FlagUint(argc, argv, "--workers", 2));
  srv_opts.core.max_sessions =
      static_cast<uint32_t>(FlagUint(argc, argv, "--max-sessions", 256));
  srv_opts.core.max_pipeline =
      static_cast<uint32_t>(FlagUint(argc, argv, "--max-pipeline", 64));

  Database& serve_db = follower ? replica->db() : *db;
  MVServer server(serve_db, srv_opts);
  Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "mvserver: cannot listen on %s:%u: %s\n",
                 srv_opts.host.c_str(), srv_opts.port, s.ToString().c_str());
    return 1;
  }
  if (follower) server.core().SetReplica(replica.get());

  std::unique_ptr<ReplShipper> shipper;
  if (repl_port != 0) {
    ShipperOptions ship_opts;
    ship_opts.host = srv_opts.host;
    ship_opts.port = repl_port;
    shipper = std::make_unique<ReplShipper>(serve_db, ship_opts);
    Status ship_status = shipper->Start();
    if (!ship_status.ok()) {
      std::fprintf(stderr, "mvserver: cannot ship log on %s:%u: %s\n",
                   srv_opts.host.c_str(), repl_port,
                   ship_status.ToString().c_str());
      server.Stop();
      return 1;
    }
  }

  std::printf("mvserver: %s on %s:%u (%u workers, max %u sessions)%s%s%s\n",
              SchemeName(serve_db.scheme()), srv_opts.host.c_str(),
              server.port(), srv_opts.workers, srv_opts.core.max_sessions,
              tatp_subscribers > 0 ? ", TATP procedures registered" : "",
              repl_port != 0 ? ", shipping log to followers" : "",
              follower ? ", following leader (read-only until promote)" : "");
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("mvserver: draining...\n");
  server.Stop();
  if (shipper != nullptr) shipper->Stop();
  if (follower) {
    server.core().SetReplica(nullptr);
    replica->Stop();
    std::printf("mvserver: follower stopped (replayed_ts %llu%s)\n",
                static_cast<unsigned long long>(replica->replayed_ts()),
                replica->writable() ? ", promoted" : "");
    return 0;
  }
  // Stop() flushed the log; a broken sink or a read-only degradation means
  // acknowledged state may not all be on disk — make the exit status say so.
  if (db->options().log_mode != LogMode::kDisabled &&
      (!db->log_status().ok() || db->read_only())) {
    std::fprintf(stderr,
                 "mvserver: shutdown flush FAILED (%s%s); durable state may "
                 "be behind acknowledged commits\n",
                 db->log_status().ok() ? "" : "log sink broken",
                 db->read_only() ? ", database in read-only mode" : "");
    return 2;
  }
  std::printf("mvserver: stopped\n");
  return 0;
}
