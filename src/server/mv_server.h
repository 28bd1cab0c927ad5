// MVServer: epoll-based network front end.
//
// One acceptor plus N worker event loops serve wire-protocol frames
// (server/wire.h) over TCP. The acceptor owns the listen socket and admits
// connections through the shared ServerCore (admission control lives
// there, not here); each admitted connection is pinned to one worker, so a
// session is only ever touched by its worker thread and needs no locking.
// Workers run edge-level epoll loops: read everything available, feed the
// session, write responses back, and fall back to EPOLLOUT buffering when
// the socket would block — a slow reader holds only its own connection's
// buffer, never a worker thread.
//
// Shutdown is drain-first: Stop() flips the core into draining (new
// sessions and new transactions get kUnavailable), waits for in-flight
// transactions to finish (bounded by drain_timeout_ms), flushes the redo
// log, and only then tears the event loops down — so every transaction a
// client saw commit is durable and a later Database::Open recovers it.
//
// Linux-only (epoll + eventfd): on other platforms Start() returns
// kUnavailable and the loopback transport (server/loopback.h) remains the
// way to serve in-process traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "server/server_core.h"

namespace mvstore {

struct ServerOptions {
  /// Numeric IPv4 listen address.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the chosen port back with port().
  uint16_t port = 0;
  /// Worker event loops (connections are pinned round-robin). Dispatch is
  /// synchronous on the worker, so a LogMode::kSync commit blocks its loop
  /// for the rest of the in-flight fsync plus its own: size this to the
  /// expected number of *concurrently committing* sessions when running
  /// synchronous durability; kAsync commits never block the loop.
  uint32_t workers = 2;
  /// Admission control, shared with every other transport on the core.
  ServerCoreOptions core;
  /// How long Stop() waits for in-flight transactions to finish before
  /// closing connections anyway (their sessions abort what is still open).
  uint32_t drain_timeout_ms = 2000;
};

class MVServer {
 public:
  MVServer(Database& db, ServerOptions options = {});
  ~MVServer();  // Stop()s if still running

  MVServer(const MVServer&) = delete;
  MVServer& operator=(const MVServer&) = delete;

  /// Bind, listen, and start the acceptor + workers. InvalidArgument for a
  /// bad host, Internal for socket failures, kUnavailable off-Linux.
  Status Start();

  /// Graceful drain-then-close; idempotent. See the header comment.
  void Stop();

  bool running() const;
  /// Actual bound port (after Start with port = 0).
  uint16_t port() const;

  ServerCore& core();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mvstore
