#include "chaos/chaos_drill.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/failpoint.h"
#include "core/database.h"
#include "log/log_segment.h"
#include "repl/replica.h"
#include "repl/shipper.h"

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace mvstore {
namespace chaos {

#if !defined(_WIN32)

namespace {

// Workload row: one counter per key, carrying a checksum over (key,
// version) so recovery corruption — not just loss — is detectable.
struct Row {
  uint64_t key;
  uint64_t version;
  uint64_t checksum;
};

// One acknowledged commit, as recorded in the ack file (fixed 24-byte
// little-endian record; a torn trailing record is ignored on load).
struct AckRec {
  uint64_t key;
  uint64_t version;
  uint64_t checksum;
};

constexpr uint64_t kKeys = 512;
constexpr TableId kTable = 0;

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Lcg(uint64_t x) {
  return x * 6364136223846793005ull + 1442695040888963407ull;
}

uint64_t RowChecksum(uint64_t key, uint64_t version) {
  return SplitMix(key ^ SplitMix(version));
}

uint64_t RowKey(const void* payload) {
  return static_cast<const Row*>(payload)->key;
}

void DefineSchema(Database& db) {
  TableDef def;
  def.name = "chaos";
  def.payload_size = sizeof(Row);
  IndexDef primary;
  primary.extractor = RowKey;
  primary.bucket_count = 4 * kKeys;
  primary.unique = true;
  def.indexes.push_back(primary);
  db.CreateTable(std::move(def));
}

DatabaseOptions MakeDbOptions(const DrillOptions& options) {
  DatabaseOptions db;
  db.scheme = options.scheme;
  // The strictest durability configuration: synchronous commit, fsync per
  // flushed batch, small segments (so rotation and checkpoint-driven
  // truncation actually happen mid-drill), and a real checkpoint path.
  db.log_mode = LogMode::kSync;
  db.log_path = options.dir + "/wal";
  db.fsync_log = true;
  db.log_segment_bytes = 32 * 1024;
  db.checkpoint_path = options.dir + "/ckpt";
  db.recovery_threads = 2;
  db.group_commit_us = 200;
  return db;
}

/// The follower's mirror lives under dir/follower with the same durability
/// configuration as the leader.
DatabaseOptions MakeFollowerDbOptions(const DrillOptions& options) {
  DatabaseOptions db = MakeDbOptions(options);
  db.log_path = options.dir + "/follower/wal";
  db.checkpoint_path = options.dir + "/follower/ckpt";
  return db;
}

std::string MarkerPath(const DrillOptions& options) {
  return options.dir + "/attached";
}

/// Raw write(2) + close, like the ack file: the marker must survive
/// std::_Exit. Its existence means "the follower attached to the live
/// stream at least once this cycle" — from the moment of attach the
/// follower holds the leader's full durable prefix, and every later
/// acknowledged commit blocked on the follower's ack, so marker-present
/// implies the whole acked set is follower-durable.
void WriteMarker(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  [[maybe_unused]] ssize_t n = ::write(fd, "1", 1);
  ::close(fd);
}

// The crash menu. Hit counts are drawn from [min_hit, min_hit + span) so
// the child dies at a different depth every cycle. log.append.partial is an
// ERROR action because the site itself tears the record and exits — the
// others host a plain CRASH action inside Evaluate.
struct CrashSite {
  const char* site;
  failpoint::ActionKind kind;
  uint32_t min_hit;
  uint32_t span;
};

constexpr CrashSite kCrashSites[] = {
    {"log.append.write", failpoint::ActionKind::kCrash, 4, 120},
    {"log.append.partial", failpoint::ActionKind::kError, 4, 120},
    {"log.append.sync", failpoint::ActionKind::kCrash, 2, 40},
    {"log.fsync", failpoint::ActionKind::kCrash, 1, 24},
    {"log.rotate", failpoint::ActionKind::kCrash, 1, 6},
    {"checkpoint.write", failpoint::ActionKind::kCrash, 1, 3},
    {"checkpoint.rename", failpoint::ActionKind::kCrash, 1, 3},
    // repl-mode extras (the parent only draws these when options.repl):
    // die mid-segment-ship / mid-tail-send on the leader, and mid-tail-batch
    // on the follower. The child hosts both, so the kill takes the pair
    // down together — exactly the whole-box failure a failover drill models.
    {"repl.ship.send", failpoint::ActionKind::kCrash, 1, 60},
    {"repl.tail.recv", failpoint::ActionKind::kCrash, 1, 60},
};
constexpr size_t kNumCrashSites = sizeof(kCrashSites) / sizeof(kCrashSites[0]);
/// Sites [0, kNumBaseSites) apply always; the tail is repl-mode only.
constexpr size_t kNumBaseSites = kNumCrashSites - 2;

// Record an acknowledged commit. Raw write(2) + O_APPEND: no stdio buffer
// to lose when the process exits via std::_Exit, and the mutex keeps
// records from interleaving across writer threads.
void WriteAck(int fd, std::mutex* mu, uint64_t key, uint64_t version) {
  AckRec rec{key, version, RowChecksum(key, version)};
  uint8_t buf[sizeof(AckRec)];
  std::memcpy(buf, &rec, sizeof(rec));
  std::lock_guard<std::mutex> lock(*mu);
  size_t done = 0;
  while (done < sizeof(buf)) {
    ssize_t w = ::write(fd, buf + done, sizeof(buf) - done);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return;  // ack dropped: safe direction (DB may hold more than acked)
    }
    done += static_cast<size_t>(w);
  }
}

void Worker(Database* db, int ack_fd, std::mutex* ack_mu, uint64_t seed,
            uint32_t txns, bool checkpointer, std::atomic<bool>* failed) {
  uint64_t rng = seed != 0 ? seed : 1;
  for (uint32_t i = 0; i < txns; ++i) {
    rng = Lcg(rng);
    const uint64_t key = 1 + ((rng >> 33) % kKeys);
    uint64_t version = 0;
    Status s;
    for (int attempt = 0; attempt < 64; ++attempt) {
      s = db->RunTransaction(
          IsolationLevel::kReadCommitted, [&](Txn* txn) {
            Status us = db->Update(txn, kTable, 0, key, [&](void* p) {
              Row* r = static_cast<Row*>(p);
              r->version += 1;
              version = r->version;
              r->checksum = RowChecksum(key, version);
            });
            if (us.IsNotFound()) {
              version = 1;
              Row r{key, version, RowChecksum(key, version)};
              us = db->Insert(txn, kTable, &r);
            }
            return us;
          });
      // Two threads can race the first insert of a key; the loser retries
      // and finds the row. Everything else is final.
      if (!s.IsAlreadyExists()) break;
    }
    if (!s.ok()) {
      failed->store(true, std::memory_order_relaxed);
      return;
    }
    WriteAck(ack_fd, ack_mu, key, version);
    // Exercise rotation + checkpoint publication + segment truncation under
    // fire; a crash armed at a checkpoint site needs a checkpoint to hit.
    if (checkpointer && (i % 300) == 299) (void)db->Checkpoint();
  }
}

/// Open (or, when the local mirror is stale/unusable, wipe and re-seed) the
/// in-child follower. Re-seeding deletes the attach marker first so a
/// marker can only ever refer to the follower state that survives.
std::unique_ptr<Replica> OpenChildReplica(const DrillOptions& options,
                                          const DatabaseOptions& follower_db,
                                          uint16_t leader_port,
                                          bool allow_wipe) {
  ReplicaOptions ropts;
  ropts.db = follower_db;
  ropts.define_schema = DefineSchema;
  ropts.leader_port = leader_port;
  ropts.reconnect_ms = 20;
  const std::string marker = MarkerPath(options);
  ropts.on_first_attach = [marker] { WriteMarker(marker); };
  Status st;
  auto replica = Replica::Open(ropts, &st);
  if (replica == nullptr && allow_wipe) {
    // Local recovery refused the mirror (e.g. a bootstrap died between
    // checkpoint rename and segment pull, leaving a coverage gap): re-seed
    // from scratch, which exercises the checkpoint-ship bootstrap.
    std::error_code ec;
    std::filesystem::remove(marker, ec);
    std::filesystem::remove_all(options.dir + "/follower", ec);
    std::filesystem::create_directories(options.dir + "/follower", ec);
    replica = Replica::Open(ropts, &st);
  }
  return replica;
}

[[noreturn]] void RunChild(const DrillOptions& options,
                           const DatabaseOptions& db_options,
                           const CrashSite& site, uint32_t hit,
                           uint64_t seed) {
  failpoint::Action action;
  action.kind = site.kind;
  action.hit = hit;
  failpoint::Arm(site.site, action);
  Status open_status;
  auto db = Database::Open(db_options, DefineSchema, &open_status);
  if (db == nullptr) std::_Exit(3);

  std::unique_ptr<ReplShipper> shipper;
  std::unique_ptr<Replica> replica;
  if (options.repl) {
    ShipperOptions sopts;
    // Never drop a laggard inside the drill: the zero-acked-loss claim is
    // only provable while every ack is follower-coupled.
    sopts.ack_timeout_ms = 120000;
    shipper = std::make_unique<ReplShipper>(*db, sopts);
    if (!shipper->Start().ok()) std::_Exit(6);
    replica = OpenChildReplica(options, MakeFollowerDbOptions(options),
                               shipper->port(), /*allow_wipe=*/true);
    if (replica == nullptr) std::_Exit(7);
    // Let the follower attach before the commit traffic starts, as a real
    // deployment sets replication up first (failover_drill_test does the
    // same). At full kSync speed the armed hit count is otherwise reached
    // while the follower is still connecting. A kill during the bootstrap
    // (repl.ship.send, log.fsync at a low hit) still covers that path.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (shipper->attached_followers() == 0 && !replica->failed() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  int ack_fd = ::open((options.dir + "/acks.bin").c_str(),
                      O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (ack_fd < 0) std::_Exit(4);
  std::mutex ack_mu;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(options.writer_threads);
  for (uint32_t t = 0; t < options.writer_threads; ++t) {
    threads.emplace_back(Worker, db.get(), ack_fd, &ack_mu,
                         SplitMix(seed ^ (t + 1)), options.txns_per_cycle,
                         t == 0, &failed);
  }
  // Monitor: a follower parked in failed() (e.g. the leader truncated past
  // its position before it could attach) is wiped and re-seeded fresh
  // mid-run — which exercises the checkpoint-ship bootstrap under load.
  std::atomic<bool> workers_done{false};
  std::thread monitor;
  if (replica != nullptr) {
    monitor = std::thread([&] {
      while (!workers_done.load(std::memory_order_acquire)) {
        if (replica != nullptr && replica->failed()) {
          replica.reset();
          std::error_code ec;
          std::filesystem::remove(MarkerPath(options), ec);
          std::filesystem::remove_all(options.dir + "/follower", ec);
          std::filesystem::create_directories(options.dir + "/follower", ec);
          replica = OpenChildReplica(options, MakeFollowerDbOptions(options),
                                     shipper->port(), /*allow_wipe=*/false);
          if (replica == nullptr) return;  // leader-only for the rest
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  for (auto& th : threads) th.join();
  workers_done.store(true, std::memory_order_release);
  if (monitor.joinable()) monitor.join();
  ::close(ack_fd);
  replica.reset();  // close the stream before the shipper goes down
  shipper.reset();
  db.reset();  // clean shutdown: join background threads, flush the log
  std::_Exit(failed.load() ? 5 : 0);
}

/// Divergence check on the raw files, before any recovery touches them:
/// every mirrored segment the leader also still has must be a byte prefix
/// of (or identical to) the leader's — the follower may be shorter (bytes
/// it had not received when the box died) but never different.
bool MirrorIsPrefix(const std::string& leader_prefix,
                    const std::string& follower_prefix, std::string* failure) {
  auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  };
  const std::vector<logseg::SegmentFile> leader =
      logseg::ListSegments(leader_prefix);
  char msg[160];
  for (const logseg::SegmentFile& f :
       logseg::ListSegments(follower_prefix)) {
    const logseg::SegmentFile* match = nullptr;
    for (const logseg::SegmentFile& l : leader) {
      if (l.seq == f.seq) {
        match = &l;
        break;
      }
    }
    // The leader may have truncated (checkpoint) a segment the follower
    // still holds; the follower never holds a segment the leader has not
    // yet created.
    if (match == nullptr) continue;
    const std::vector<char> fb = read_file(f.path);
    const std::vector<char> lb = read_file(match->path);
    if (fb.size() > lb.size() ||
        std::memcmp(fb.data(), lb.data(), fb.size()) != 0) {
      std::snprintf(msg, sizeof(msg),
                    "follower segment %llu diverged from leader "
                    "(follower %zu bytes, leader %zu bytes)",
                    static_cast<unsigned long long>(f.seq), fb.size(),
                    lb.size());
      *failure = msg;
      return false;
    }
  }
  return true;
}

bool LoadAcks(const std::string& path, std::vector<AckRec>* out) {
  out->clear();
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return true;  // no acks yet (first cycle died early)
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const size_t count = bytes.size() / sizeof(AckRec);  // drop any torn tail
  out->reserve(count);
  for (size_t i = 0; i < count; ++i) {
    AckRec rec;
    std::memcpy(&rec, bytes.data() + i * sizeof(AckRec), sizeof(AckRec));
    out->push_back(rec);
  }
  return true;
}

// Recover the database and check every acknowledged commit against it.
// Returns true when the contract held; otherwise fills *failure.
bool VerifyAcks(const DatabaseOptions& db_options, const std::string& ack_path,
                uint64_t* acked_commits, std::string* failure) {
  std::vector<AckRec> acks;
  LoadAcks(ack_path, &acks);
  *acked_commits = acks.size();

  Status open_status;
  auto db = Database::Open(db_options, DefineSchema, &open_status);
  if (db == nullptr) {
    *failure = "recovery failed: " + std::string(open_status.ToString());
    return false;
  }
  std::unordered_map<uint64_t, Row> rows;
  Txn* txn = db->Begin(IsolationLevel::kReadCommitted, /*read_only=*/true);
  Status s = db->ScanTable(txn, kTable, [&](const void* p) {
    const Row* r = static_cast<const Row*>(p);
    rows[r->key] = *r;
    return true;
  });
  if (s.ok()) s = db->Commit(txn);
  if (!s.ok()) {
    *failure = "post-recovery scan failed: " + std::string(s.ToString());
    return false;
  }
  char msg[160];
  for (const AckRec& ack : acks) {
    if (ack.checksum != RowChecksum(ack.key, ack.version)) {
      std::snprintf(msg, sizeof(msg), "corrupt ack record for key %llu",
                    static_cast<unsigned long long>(ack.key));
      *failure = msg;
      return false;
    }
    auto it = rows.find(ack.key);
    if (it == rows.end()) {
      std::snprintf(msg, sizeof(msg),
                    "acked key %llu (version %llu) missing after recovery",
                    static_cast<unsigned long long>(ack.key),
                    static_cast<unsigned long long>(ack.version));
      *failure = msg;
      return false;
    }
    if (it->second.version < ack.version) {
      std::snprintf(
          msg, sizeof(msg),
          "acked commit lost: key %llu recovered at version %llu < acked %llu",
          static_cast<unsigned long long>(ack.key),
          static_cast<unsigned long long>(it->second.version),
          static_cast<unsigned long long>(ack.version));
      *failure = msg;
      return false;
    }
    if (it->second.checksum !=
        RowChecksum(it->second.key, it->second.version)) {
      std::snprintf(msg, sizeof(msg),
                    "recovered row for key %llu fails its checksum",
                    static_cast<unsigned long long>(ack.key));
      *failure = msg;
      return false;
    }
  }
  return true;
}

}  // namespace

Status RunDrill(const DrillOptions& options, DrillReport* report) {
  *report = DrillReport{};
  if (options.dir.empty()) return Status::InvalidArgument();
  std::error_code ec;
  std::filesystem::remove_all(options.dir, ec);
  std::filesystem::create_directories(options.dir, ec);
  if (ec) return Status::Internal();

  const DatabaseOptions db_options = MakeDbOptions(options);
  const DatabaseOptions follower_db = MakeFollowerDbOptions(options);
  if (options.repl) {
    std::filesystem::create_directories(options.dir + "/follower", ec);
    if (ec) return Status::Internal();
  }
  const std::string ack_path = options.dir + "/acks.bin";
  uint64_t rng = SplitMix(options.seed ^ (static_cast<uint64_t>(options.scheme)
                                          << 32));
  char msg[160];
  const size_t num_sites = options.repl ? kNumCrashSites : kNumBaseSites;
  for (uint32_t cycle = 0; cycle < options.cycles; ++cycle) {
    rng = Lcg(rng);
    const CrashSite& site = kCrashSites[(rng >> 33) % num_sites];
    rng = Lcg(rng);
    const uint32_t hit = site.min_hit + (rng >> 33) % site.span;
    if (options.repl) {
      // The marker means "THIS cycle's follower attached"; clear the
      // previous cycle's before the child runs.
      std::filesystem::remove(MarkerPath(options), ec);
    }

    pid_t pid = ::fork();
    if (pid < 0) return Status::Internal();
    if (pid == 0) {
      RunChild(options, db_options, site, hit, SplitMix(rng ^ cycle));
    }
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, 0) != pid) return Status::Internal();
    if (WIFEXITED(wstatus) &&
        WEXITSTATUS(wstatus) == failpoint::kCrashExitCode) {
      ++report->crashes;
    } else if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) {
      ++report->clean_exits;
    } else {
      std::snprintf(msg, sizeof(msg),
                    "child died unexpectedly (wstatus %d) at %s@%u, cycle %u, "
                    "seed %llu",
                    wstatus, site.site, hit, cycle,
                    static_cast<unsigned long long>(options.seed));
      report->failure = msg;
      return Status::OK();
    }

    uint64_t acked = 0;
    std::string failure;
    const bool attached =
        options.repl && std::filesystem::exists(MarkerPath(options));
    // Divergence check first, on the raw files — recovery truncates torn
    // tails and would mask a real byte-level disagreement.
    if (attached &&
        !MirrorIsPrefix(db_options.log_path, follower_db.log_path,
                        &failure)) {
      std::snprintf(msg, sizeof(msg), " [site %s@%u, cycle %u, seed %llu]",
                    site.site, hit, cycle,
                    static_cast<unsigned long long>(options.seed));
      report->failure = failure + msg;
      return Status::OK();
    }
    if (!VerifyAcks(db_options, ack_path, &acked, &failure)) {
      std::snprintf(msg, sizeof(msg), " [site %s@%u, cycle %u, seed %llu]",
                    site.site, hit, cycle,
                    static_cast<unsigned long long>(options.seed));
      report->failure = failure + msg;
      return Status::OK();
    }
    if (attached) {
      // The failover claim: the dead leader's acked set is fully present
      // on the follower's recovered mirror — a promote here loses nothing.
      uint64_t f_acked = 0;
      if (!VerifyAcks(follower_db, ack_path, &f_acked, &failure)) {
        std::snprintf(msg, sizeof(msg),
                      " [on FOLLOWER; site %s@%u, cycle %u, seed %llu]",
                      site.site, hit, cycle,
                      static_cast<unsigned long long>(options.seed));
        report->failure = failure + msg;
        return Status::OK();
      }
      ++report->follower_verified;
    }
    report->acked_commits = acked;
    ++report->cycles_run;
  }
  return Status::OK();
}

#else  // _WIN32

Status RunDrill(const DrillOptions& options, DrillReport* report) {
  (void)options;
  *report = DrillReport{};
  report->failure = "chaos drills require fork(); unsupported platform";
  return Status::Unavailable();
}

#endif

}  // namespace chaos
}  // namespace mvstore
