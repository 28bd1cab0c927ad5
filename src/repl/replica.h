// Replica: the follower half of log-shipping replication.
//
// Owns a Database whose segmented log is a byte-for-byte mirror of the
// leader's, kept current by a streaming thread that speaks the repl opcodes
// to the leader's ReplShipper (src/repl/shipper.h):
//
//   Bootstrap — Open() first recovers whatever the local mirror already
//   holds (ordinary crash recovery, including the shipped-checkpoint
//   coverage check), then the thread handshakes. A fresh follower fetches
//   the leader's checkpoint file in chunks, loads it, and pulls segment
//   bytes from the checkpoint's covered_seq; a restarting follower resumes
//   pulling at its own durable position. Every pulled byte goes through
//   SegmentedLogSink::MirrorAppend, so the mirror either extends
//   contiguously or the desync is refused.
//
//   Tail replay — pulled and pushed bytes are parsed incrementally
//   (records never split across segments, but batches may split across
//   frames, so a carry buffer holds the unparsed suffix) and applied with
//   the same ReplayRecords machinery crash recovery uses, while the local
//   logger stays paused so replayed commits are not re-appended. The
//   largest applied leader end-timestamp is published as replayed_ts() —
//   the staleness watermark follower snapshot reads run at.
//
//   Attach — once caught up, kReplStream flips the connection to push mode:
//   the leader streams every flushed batch, the replica makes it durable
//   (MirrorAppend with sync) before acking, and heartbeats bound staleness
//   detection. A lost or silent leader triggers reconnect-and-resume; an
//   unrecoverable condition (scheme mismatch, divergence, leader truncated
//   past our position) parks the replica in failed().
//
//   Promote() — seal the mirrored tail exactly as crash recovery seals a
//   torn log (partial record truncated off), advance the commit clock past
//   everything replayed, and resume the logger: the follower is now a
//   writable leader appending to the same segment files.
//
// The Replica implements ServerCore's ReplicaGate, so a server fronting it
// refuses writes with kReadOnly until promoted while serving snapshot
// reads throughout. See docs/REPLICATION.md for the full contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/database.h"
#include "server/server_core.h"

namespace mvstore {

struct ReplicaOptions {
  /// Local mirror database. Must log to disk (log_path set);
  /// checkpoint_path is required to bootstrap from
  /// a leader that has truncated its log. The scheme must match the
  /// leader's.
  DatabaseOptions db;
  /// Table definitions, exactly as passed to the leader's Database::Open.
  std::function<void(Database&)> define_schema;

  std::string leader_host = "127.0.0.1";
  uint16_t leader_port = 0;

  /// Pause between reconnect attempts after a lost leader.
  uint32_t reconnect_ms = 50;
  /// Attached stream with no frame (tail or heartbeat) for this long =
  /// leader presumed dead; drop the connection and re-dial.
  uint32_t heartbeat_timeout_ms = 2000;
  /// Per-request timeout during the pull phase.
  uint32_t io_timeout_ms = 5000;
  /// Pull-phase chunk request size.
  uint32_t max_chunk = 256 * 1024;
  /// Invoked (from the streaming thread) the first time this replica
  /// attaches to the live stream — the "caught up at least once" signal the
  /// failover drill keys its ack ledger on.
  std::function<void()> on_first_attach;
};

class Replica : public ReplicaGate {
 public:
  /// Recover the local mirror and start following. Returns nullptr with
  /// *status set when the options are invalid or local recovery fails;
  /// leader unreachability is NOT an Open error — the streaming thread
  /// keeps retrying until Stop() or Promote().
  static std::unique_ptr<Replica> Open(ReplicaOptions options,
                                       Status* status = nullptr);
  ~Replica() override;

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// The local database: serve reads from it (through a ServerCore whose
  /// gate this replica is), and writes after Promote().
  Database& db() { return *db_; }

  /// Stop following without promoting (shutdown path). Idempotent.
  void Stop();

  // --- ReplicaGate ----------------------------------------------------------

  bool writable() override { return promoted_.load(std::memory_order_acquire); }
  bool ready() override {
    return ever_attached_.load(std::memory_order_acquire);
  }
  Timestamp replayed_ts() override {
    return replayed_ts_.load(std::memory_order_acquire);
  }
  /// Seal the replicated tail (truncate any half-mirrored record, exactly
  /// as crash recovery truncates a torn tail), advance the commit clock
  /// past everything replayed, resume the logger, and go writable.
  /// Unavailable when the replica never attached and `force` is false.
  Status Promote(bool force) override;

  // --- observability --------------------------------------------------------

  /// Unrecoverable: scheme/protocol mismatch, local mirror diverged, or the
  /// leader truncated segments past our position (re-seed required).
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  /// Successful live-stream attaches over this replica's lifetime. Unlike
  /// reconnects(), this does NOT grow while re-dialing a dead leader, so a
  /// harness can prove "the stream never dropped between attach N and the
  /// leader's death" by the counter holding at N.
  uint64_t attaches() const { return attaches_.load(std::memory_order_relaxed); }
  /// Leader commit clock as of the last handshake/heartbeat — replayed_ts()
  /// lagging this bounds observed staleness (and their difference is the
  /// replication-lag gauge the metrics exposition publishes).
  Timestamp leader_ts() override {
    return leader_ts_.load(std::memory_order_acquire);
  }
  uint64_t batches_applied() const {
    return batches_applied_.load(std::memory_order_relaxed);
  }

 private:
  explicit Replica(ReplicaOptions options);

  struct Impl;

  ReplicaOptions options_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Impl> impl_;

  std::atomic<bool> promoted_{false};
  std::atomic<bool> ever_attached_{false};
  std::atomic<bool> failed_{false};
  std::atomic<Timestamp> replayed_ts_{0};
  std::atomic<Timestamp> leader_ts_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> attaches_{0};
  std::atomic<uint64_t> batches_applied_{0};
};

}  // namespace mvstore
