// ReplShipper: the leader half of log-shipping replication.
//
// Serves followers on its own listen port, speaking the repl opcodes of the
// shared wire protocol (server/wire.h). Each follower connection moves
// through two phases:
//
//   Pull (request/response) — the follower bootstraps: kReplHandshake
//   exchanges protocol version, scheme and positions; kReplCkptChunk ships
//   the leader's checkpoint file; kReplSegChunk ships sealed-segment and
//   live-segment bytes by (seq, offset). Pulls are stateless and
//   restartable — a follower can die mid-bootstrap and resume at its own
//   durable position. From handshake until attach the shipper pins a
//   retain floor on the segment sink so a concurrent checkpoint cannot
//   truncate segments the follower is still fetching.
//
//   Push (streaming) — kReplStream attaches the follower once its position
//   equals the sink's current position; the comparison and the registration
//   happen under the same hub lock the commit observer enqueues under, so
//   no flushed batch can fall between pull and push. After attach the
//   leader pushes every flushed group-commit batch as kReplTail frames
//   (split below the frame body cap), interleaves kReplHeartbeat when
//   idle, and reads kReplAck frames back.
//
// Durability coupling: the shipper installs itself as the logger's
// CommitObserver, which runs after the sink's Write+Sync but before kSync
// committers are released. In sync mode (the default) OnFlushedBatch
// blocks until every attached follower has acknowledged the batch as
// locally durable — so "commit acknowledged to a client" implies "the
// bytes are on the follower's disk", the invariant the failover drill
// proves. A follower that stops acking within ack_timeout_ms is dropped
// (and its connection shut down) rather than wedging commits; a follower
// that sends garbage kills only its own connection, never the leader.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/database.h"

namespace mvstore {

struct ShipperOptions {
  /// Numeric IPv4 listen address for the replication port.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back with port().
  uint16_t port = 0;
  /// Block the log flusher (and therefore kSync committers) until every
  /// attached follower acknowledged the batch. Off = pure asynchronous
  /// shipping: followers lag without back-pressuring commits, and acked
  /// commits can be lost with the leader.
  bool sync = true;
  /// How long a sync flush waits for follower acks before dropping the
  /// laggard and releasing committers.
  uint32_t ack_timeout_ms = 5000;
  /// Idle-stream heartbeat interval (also the sender's poll granularity).
  uint32_t heartbeat_ms = 100;
  /// Byte cap per kReplCkptChunk / kReplSegChunk response payload.
  uint32_t max_chunk = 256 * 1024;
};

class ReplShipper {
 public:
  /// `db` must log to disk (DatabaseOptions::log_path set, so its sink is a
  /// SegmentedLogSink); Start() returns InvalidArgument otherwise.
  ReplShipper(Database& db, ShipperOptions options = {});
  ~ReplShipper();  // Stop()s if still running

  ReplShipper(const ReplShipper&) = delete;
  ReplShipper& operator=(const ReplShipper&) = delete;

  /// Bind, listen, spawn the acceptor, and install the commit observer.
  Status Start();

  /// Detach the observer (commits stop waiting), close every follower
  /// connection, and join all threads. Idempotent.
  void Stop();

  bool running() const;
  uint16_t port() const;

  /// Followers currently in push mode.
  uint32_t attached_followers();
  /// Flushed batches offered to at least one attached follower.
  uint64_t batches_shipped() const;
  /// Followers dropped for ack timeout or a dead/garbage connection.
  uint64_t followers_dropped() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mvstore
