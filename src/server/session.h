// Session: per-connection protocol state and request dispatch.
//
// One session per connection, owned by the ServerCore and driven by a
// transport (epoll worker or loopback): the transport feeds raw received
// bytes in, the session parses frames (server/wire.h), dispatches each
// request, and appends encoded response frames to the transport's write
// buffer — one response per request, in request order, so pipelining needs
// no request ids.
//
// A session owns at most one open transaction handle at a time: kBegin
// opens it, kCommit/kAbort (or any operation status that means the engine
// already rolled it back) closes it, and destroying the session aborts
// whatever is still open (client vanished mid-transaction). Registered
// procedures (kCall) manage their own transactions and neither see nor
// disturb the session's interactive handle.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "server/wire.h"

namespace mvstore {

class Database;
class ServerCore;
class Txn;

class Session {
 public:
  Session(Database& db, ServerCore& core);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Feed `n` received bytes; parse and dispatch every complete frame,
  /// appending response frames to *out. Returns false when the connection
  /// must close (malformed frame — framing is lost); a final fatal frame
  /// telling the client why has already been appended to *out.
  bool OnBytes(const uint8_t* data, size_t n, std::vector<uint8_t>* out);

  /// The transport fully drained this session's responses to the client;
  /// resets the pipeline-burst budget (see ServerCoreOptions::max_pipeline).
  void OnDrained() { burst_depth_ = 0; }

  bool has_open_txn() const { return txn_ != nullptr; }
  IsolationLevel isolation() const { return isolation_; }

 private:
  void HandleFrame(const wire::Frame& frame, std::vector<uint8_t>* out);
  /// Follower write gate: when the core's ReplicaGate reports read-only,
  /// answer kReadOnly (leaving the open transaction usable for reads) and
  /// return true.
  bool RefuseWrite(const wire::Frame& frame, std::vector<uint8_t>* out);

  Database& db_;
  ServerCore& core_;
  wire::FrameParser parser_;

  /// The interactive transaction this session owns, if any.
  Txn* txn_ = nullptr;
  IsolationLevel isolation_ = IsolationLevel::kReadCommitted;
  /// Frames admitted since the write buffer last drained.
  uint32_t burst_depth_ = 0;
};

}  // namespace mvstore
