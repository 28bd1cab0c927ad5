#include "repl/replica.h"

#include <algorithm>

#include "common/failpoint.h"
#include "core/checkpoint.h"
#include "core/recovery.h"
#include "log/log_segment.h"
#include "server/wire.h"

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#endif

namespace mvstore {

#if defined(__linux__)

namespace {

/// Unparsed-suffix cap: a record that never completes past this is corrupt,
/// not merely split across frames (the largest legal record is far smaller
/// than a segment).
constexpr size_t kMaxCarry = 64u << 20;

/// RunSession / Streaming outcome.
enum SessionEnd : int {
  kRetry = 0,     // transient: re-dial and resume from the durable position
  kTerminal = 1,  // stopping, promoted, or failed_ was set
};

bool SendAll(int fd, const uint8_t* data, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<size_t>(w);
    } else if (w < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

/// One leader connection: dial, framed send, framed receive with timeout.
struct Conn {
  int fd = -1;
  wire::FrameParser parser;

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  bool Dial(const std::string& host, uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      fd = -1;
      return false;
    }
    int on = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
    return true;
  }

  bool Send(wire::Opcode opcode, const std::vector<uint8_t>& body) {
    std::vector<uint8_t> framed;
    wire::AppendFrame(&framed, opcode, 0, body.data(), body.size());
    return SendAll(fd, framed.data(), framed.size());
  }

  /// 1 = *frame filled, 0 = timeout, -1 = connection dead or framing lost.
  int Recv(wire::Frame* frame, uint32_t timeout_ms,
           const std::atomic<bool>& stop) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    uint8_t buf[64 * 1024];
    while (true) {
      switch (parser.Next(frame)) {
        case wire::FrameParser::Result::kFrame:
          return 1;
        case wire::FrameParser::Result::kBad:
          return -1;
        case wire::FrameParser::Result::kNeedMore:
          break;
      }
      if (stop.load(std::memory_order_acquire)) return -1;
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return 0;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - now)
                            .count();
      pollfd p{fd, POLLIN, 0};
      const int n =
          ::poll(&p, 1, static_cast<int>(std::min<long long>(left, 100)));
      if (n < 0 && errno != EINTR) return -1;
      if (n <= 0) continue;
      const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
      if (r <= 0) return -1;
      parser.Feed(buf, static_cast<size_t>(r));
    }
  }
};

}  // namespace

struct Replica::Impl {
  using Position = SegmentedLogSink::Position;

  Replica* self = nullptr;
  SegmentedLogSink* sink = nullptr;
  std::thread thread;
  std::atomic<bool> stopping{false};
  /// The live connection's fd, published so Stop/Promote can shut it down
  /// and unblock the streaming thread.
  std::atomic<int> conn_fd{-1};

  /// Mirrored-but-unapplied suffix of the byte stream (a record split
  /// across tail frames, or the torn tail a dead leader left behind).
  /// Streaming-thread-owned; Promote reads it only after joining.
  std::vector<uint8_t> carry;

  /// True once the local tables hold data (recovered, checkpoint-loaded, or
  /// streamed) — from then on bootstrap-from-checkpoint is off the table
  /// and reconnects resume at the durable mirror position.
  bool have_state = false;
  Timestamp skip_floor = 0;
  bool tolerant = false;
  /// covered_seq of a checkpoint this replica bootstrapped from; the attach
  /// path re-runs the segment-coverage check against it.
  uint64_t covered_seq_hint = 0;
  bool attach_cb_fired = false;

  Database& db() { return *self->db_; }

  void Fail(const char* why) {
    if (!self->failed_.exchange(true, std::memory_order_acq_rel)) {
      std::fprintf(stderr, "mvstore: replica unrecoverable: %s\n", why);
    }
  }

  bool ShouldRun() const {
    return !stopping.load(std::memory_order_acquire) &&
           !self->failed_.load(std::memory_order_acquire) &&
           !self->promoted_.load(std::memory_order_acquire);
  }

  void StreamLoop() {
    bool first = true;
    while (ShouldRun()) {
      if (!first) {
        self->reconnects_.fetch_add(1, std::memory_order_relaxed);
        // Stop-checked reconnect pause.
        for (uint32_t waited = 0;
             waited < self->options_.reconnect_ms && ShouldRun();
             waited += 10) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        if (!ShouldRun()) break;
      }
      first = false;
      RunSession();
    }
    conn_fd.store(-1, std::memory_order_release);
  }

  /// Request/response helper for the pull phase. OK/peer-status on a
  /// response; Timeout on silence; Unavailable on a dead connection or
  /// protocol garbage.
  Status Request(Conn& conn, wire::Opcode opcode,
                 const std::vector<uint8_t>& body,
                 std::vector<uint8_t>* payload) {
    if (!conn.Send(opcode, body)) return Status::Unavailable();
    wire::Frame frame;
    const int r = conn.Recv(&frame, self->options_.io_timeout_ms, stopping);
    if (r == 0) return Status::Timeout();
    if (r < 0) return Status::Unavailable();
    if (frame.opcode != opcode || !(frame.flags & wire::kFlagResponse) ||
        frame.body.size() < 2) {
      return Status::Unavailable();
    }
    const Status status = wire::WireToStatus(frame.body[0], frame.body[1]);
    if (payload != nullptr) {
      payload->assign(frame.body.begin() + 2, frame.body.end());
    }
    return status;
  }

  /// Parse complete records off the carry buffer and apply them with the
  /// recovery machinery; the unparsed suffix stays for the next arrival.
  Status ApplyCarry() {
    std::vector<ParsedLogRecord> records;
    size_t valid = 0;
    ParseAllRecords(carry, &records, &valid);
    if (!records.empty()) {
      Timestamp max_ts = 0;
      for (const ParsedLogRecord& r : records) {
        max_ts = std::max(max_ts, r.end_ts);
      }
      ReplayOptions replay;
      replay.threads = 1;
      replay.skip_through_ts = skip_floor;
      replay.tolerant = tolerant;
      Status s = ReplayRecords(db(), std::move(records), replay);
      if (!s.ok()) return s;
      Timestamp prev = self->replayed_ts_.load(std::memory_order_relaxed);
      while (prev < max_ts && !self->replayed_ts_.compare_exchange_weak(
                                  prev, max_ts, std::memory_order_release)) {
      }
    }
    carry.erase(carry.begin(), carry.begin() + valid);
    if (carry.size() > kMaxCarry) return Status::Internal();
    return Status::OK();
  }

  bool SendAck(Conn& conn) {
    const Position cur = sink->current_pos();
    std::vector<uint8_t> body;
    wire::Put(&body, cur.seq);
    wire::Put(&body, cur.offset);
    return conn.Send(wire::Opcode::kReplAck, body);
  }

  /// Pull the leader's checkpoint file into checkpoint_path. The leader may
  /// rewrite its checkpoint mid-fetch (tmp+rename on its side, but our
  /// chunks would mix the two files and fail the footer check), so the
  /// whole fetch restarts on validation failure.
  Status FetchCheckpoint(Conn& conn) {
    const std::string& path = self->options_.db.checkpoint_path;
    const std::string tmp = path + ".fetch";
    for (int attempt = 0; attempt < 5 && ShouldRun(); ++attempt) {
      std::FILE* out = std::fopen(tmp.c_str(), "wb");
      if (out == nullptr) return Status::Internal();
      uint64_t offset = 0;
      uint64_t total = 0;
      bool io_ok = true;
      do {
        std::vector<uint8_t> body;
        wire::Put(&body, offset);
        wire::Put(&body, self->options_.max_chunk);
        std::vector<uint8_t> payload;
        Status s =
            Request(conn, wire::Opcode::kReplCkptChunk, body, &payload);
        if (!s.ok()) {
          std::fclose(out);
          return s;
        }
        wire::BodyReader reader(payload.data(), payload.size());
        if (!reader.Read(&total)) {
          std::fclose(out);
          return Status::Unavailable();
        }
        const size_t n = reader.remaining();
        if (n > 0 &&
            std::fwrite(reader.rest(), 1, n, out) != n) {
          io_ok = false;
          break;
        }
        if (n == 0 && offset < total) break;  // shrank mid-fetch: revalidate
        offset += n;
      } while (offset < total);
      if (std::fclose(out) != 0) io_ok = false;
      if (!io_ok) return Status::Internal();
      CheckpointInfo info;
      if (offset == total && total > 0 &&
          InspectCheckpoint(tmp, &info).ok()) {
        std::error_code ec;
        std::filesystem::rename(tmp, path, ec);
        return ec ? Status::Internal() : Status::OK();
      }
      // Torn or mid-rewrite image: refetch from scratch.
    }
    return Status::Unavailable();
  }

  void RunSession() {
    Conn conn;
    if (!conn.Dial(self->options_.leader_host, self->options_.leader_port)) {
      return;
    }
    conn_fd.store(conn.fd, std::memory_order_release);
    RunSessionOn(conn);
    conn_fd.store(-1, std::memory_order_release);
  }

  void RunSessionOn(Conn& conn) {
    // --- handshake ---
    const Position local = sink->current_pos();
    std::vector<uint8_t> body;
    wire::Put(&body, wire::kReplProtoVersion);
    wire::Put(&body, static_cast<uint8_t>(db().scheme()));
    wire::Put(&body, static_cast<uint8_t>(have_state ? 1 : 0));
    wire::Put(&body, local.seq);
    wire::Put(&body, local.offset);
    std::vector<uint8_t> payload;
    Status hs = Request(conn, wire::Opcode::kReplHandshake, body, &payload);
    if (hs.IsInvalidArgument()) {
      // Protocol/scheme mismatch, or the leader never wrote bytes we hold:
      // this pairing can never work.
      Fail("handshake refused (version/scheme mismatch or diverged ahead "
           "of leader)");
      return;
    }
    if (!hs.ok()) return;
    wire::BodyReader reader(payload.data(), payload.size());
    uint64_t min_seq = 0, ckpt_size = 0, ckpt_covered = 0, ckpt_ts = 0;
    uint64_t cur_seq = 0, cur_size = 0, last_ts = 0;
    uint8_t ckpt_present = 0;
    if (!reader.Read(&min_seq) || !reader.Read(&ckpt_present) ||
        !reader.Read(&ckpt_size) || !reader.Read(&ckpt_covered) ||
        !reader.Read(&ckpt_ts) || !reader.Read(&cur_seq) ||
        !reader.Read(&cur_size) || !reader.Read(&last_ts)) {
      return;
    }
    self->leader_ts_.store(last_ts, std::memory_order_release);

    // --- choose a start position ---
    Position pos;
    if (!have_state) {
      if (ckpt_present != 0 && ckpt_covered > 0 &&
          !self->options_.db.checkpoint_path.empty()) {
        Status fs = FetchCheckpoint(conn);
        if (!fs.ok()) return;
        CheckpointInfo info;
        uint64_t rows = 0;
        Status ls = LoadCheckpoint(db(), self->options_.db.checkpoint_path,
                                   &info, &rows);
        if (!ls.ok()) {
          Fail("shipped checkpoint failed to load");
          return;
        }
        db().AdvanceCommitTimestamp(info.snapshot_ts);
        skip_floor = info.snapshot_ts;
        tolerant = db().scheme() == Scheme::kSingleVersion;
        covered_seq_hint = info.covered_seq;
        self->replayed_ts_.store(info.snapshot_ts,
                                 std::memory_order_release);
        pos = Position{std::max<uint64_t>(info.covered_seq, 1),
                       logseg::kHeaderSize};
      } else if (min_seq > 1) {
        Fail("leader truncated its log and offers no usable checkpoint "
             "(set checkpoint_path, or re-seed this follower)");
        return;
      } else {
        pos = Position{1, logseg::kHeaderSize};
      }
      // From here the tables are (about to be) non-empty: reconnects must
      // resume at the mirror position, never re-bootstrap.
      have_state = true;
    } else {
      pos = local;
      if (pos.seq < min_seq) {
        Fail("leader truncated segments past this follower's position "
             "(re-seed required)");
        return;
      }
    }

    // --- catch-up: pull segment bytes until level with the live end ---
    while (ShouldRun()) {
      std::vector<uint8_t> req;
      wire::Put(&req, pos.seq);
      wire::Put(&req, pos.offset);
      wire::Put(&req, self->options_.max_chunk);
      std::vector<uint8_t> resp;
      Status s = Request(conn, wire::Opcode::kReplSegChunk, req, &resp);
      if (!s.ok()) return;  // includes NotFound: reconnect and re-handshake
      wire::BodyReader chunk(resp.data(), resp.size());
      uint8_t sealed = 0;
      uint64_t total = 0;
      if (!chunk.Read(&sealed) || !chunk.Read(&total)) return;
      const size_t n = chunk.remaining();
      if (n > 0) {
        Status ma = sink->MirrorAppend(pos.seq, pos.offset, chunk.rest(), n,
                                       /*sync=*/false);
        if (!ma.ok()) {
          Fail("mirror append refused a pulled chunk (local log diverged "
               "from leader)");
          return;
        }
        carry.insert(carry.end(), chunk.rest(), chunk.rest() + n);
        if (!ApplyCarry().ok()) {
          Fail("replaying pulled records failed");
          return;
        }
        pos.offset += n;
        continue;
      }
      if (sealed != 0) {
        if (pos.offset < total) return;  // file shrank under us: reconnect
        if (!carry.empty()) {
          // Batches are never split across segments, so bytes left over at
          // a segment boundary can only be corruption.
          Fail("record spans a segment boundary in the mirrored log");
          return;
        }
        pos = Position{pos.seq + 1, logseg::kHeaderSize};
        continue;
      }
      // Live segment, no new bytes: we are level. Make the mirror durable,
      // then ask to attach; the leader re-checks under its hub lock.
      sink->Sync();
      std::vector<uint8_t> areq;
      wire::Put(&areq, pos.seq);
      wire::Put(&areq, pos.offset);
      std::vector<uint8_t> aresp;
      Status as = Request(conn, wire::Opcode::kReplStream, areq, &aresp);
      if (as.IsInvalidArgument()) {
        Fail("attach refused: follower claims bytes the leader never wrote");
        return;
      }
      if (!as.ok()) return;
      wire::BodyReader att(aresp.data(), aresp.size());
      uint8_t attached = 0;
      uint64_t lseq = 0, lsize = 0;
      if (!att.Read(&attached) || !att.Read(&lseq) || !att.Read(&lsize)) {
        return;
      }
      if (attached == 0) continue;  // leader advanced meanwhile: keep pulling
      if (covered_seq_hint > 0) {
        // Same check recovery runs before trusting a shipped checkpoint:
        // the mirrored segment set must actually back the coverage claim.
        Status vs = ValidateSegmentCoverage(self->options_.db.log_path,
                                            covered_seq_hint);
        if (!vs.ok()) {
          Fail("mirrored segment set does not cover the bootstrap "
               "checkpoint");
          return;
        }
      }
      Streaming(conn, Position{lseq, lsize});
      return;
    }
  }

  /// `level` is the leader's position at the attach. A follower attached
  /// behind it first receives the bytes it lacks as tail batches, and
  /// counts as attached only once it is durable at `level`: from then on it
  /// holds every commit the leader acknowledged before the attach, and the
  /// leader couples every later one to its ack.
  void Streaming(Conn& conn, Position level) {
    bool counted = false;
    auto count_attach = [&] {
      if (counted || sink->current_pos() < level) return;
      counted = true;
      self->attaches_.fetch_add(1, std::memory_order_relaxed);
      if (!self->ever_attached_.exchange(true, std::memory_order_acq_rel) &&
          !attach_cb_fired) {
        attach_cb_fired = true;
        if (self->options_.on_first_attach) self->options_.on_first_attach();
      }
    };
    count_attach();
    auto last_frame = std::chrono::steady_clock::now();
    while (ShouldRun()) {
      wire::Frame frame;
      const int r = conn.Recv(&frame, 100, stopping);
      if (r < 0) return;
      const auto now = std::chrono::steady_clock::now();
      if (r == 0) {
        if (now - last_frame >= std::chrono::milliseconds(
                                    self->options_.heartbeat_timeout_ms)) {
          return;  // silent leader: presume dead, re-dial
        }
        continue;
      }
      last_frame = now;
      switch (frame.opcode) {
        case wire::Opcode::kReplTail: {
          if (MVSTORE_FAILPOINT("repl.tail.recv")) return;
          wire::BodyReader body(frame.body.data(), frame.body.size());
          uint64_t seq = 0, offset = 0;
          if (!body.Read(&seq) || !body.Read(&offset)) return;
          const size_t n = body.remaining();
          const Position local = sink->current_pos();
          const Position at{seq, offset};
          if (at.seq < local.seq ||
              (at.seq == local.seq && offset + n <= local.offset)) {
            // Replayed duplicate (leader resent after our ack was lost):
            // already durable here, just re-ack.
            if (!SendAck(conn)) return;
            break;
          }
          Status ma =
              sink->MirrorAppend(seq, offset, body.rest(), n, /*sync=*/true);
          if (!ma.ok()) {
            Fail("mirror append refused a streamed batch (local log "
                 "diverged from leader)");
            return;
          }
          // Durable first, ack second: the leader releases kSync
          // committers on this ack, so it must imply follower durability.
          if (!SendAck(conn)) return;
          carry.insert(carry.end(), body.rest(), body.rest() + n);
          if (!ApplyCarry().ok()) {
            Fail("replaying streamed records failed");
            return;
          }
          self->batches_applied_.fetch_add(1, std::memory_order_relaxed);
          count_attach();
          break;
        }
        case wire::Opcode::kReplHeartbeat: {
          wire::BodyReader body(frame.body.data(), frame.body.size());
          uint64_t hseq = 0, hsize = 0, hts = 0;
          if (!body.Read(&hseq) || !body.Read(&hsize) || !body.Read(&hts)) {
            return;
          }
          self->leader_ts_.store(hts, std::memory_order_release);
          break;
        }
        default:
          return;  // stream phase speaks tail + heartbeat only
      }
    }
  }

  void StopThread() {
    stopping.store(true, std::memory_order_release);
    const int fd = conn_fd.load(std::memory_order_acquire);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    if (thread.joinable()) thread.join();
  }
};

Replica::Replica(ReplicaOptions options) : options_(std::move(options)) {}

std::unique_ptr<Replica> Replica::Open(ReplicaOptions options,
                                       Status* status) {
  auto fail = [status](Status s) -> std::unique_ptr<Replica> {
    if (status != nullptr) *status = s;
    return nullptr;
  };
  if (options.db.log_path.empty() || options.leader_port == 0 ||
      !options.define_schema) {
    return fail(Status::InvalidArgument());
  }
  std::unique_ptr<Replica> replica(new Replica(std::move(options)));
  Status open_status;
  RecoveryReport report;
  replica->db_ = Database::Open(replica->options_.db,
                                replica->options_.define_schema, &open_status,
                                &report);
  if (replica->db_ == nullptr) return fail(open_status);
  auto* sink =
      dynamic_cast<SegmentedLogSink*>(replica->db_->logger().sink());
  if (sink == nullptr) return fail(Status::InvalidArgument());

  replica->impl_ = std::make_unique<Impl>();
  Impl& impl = *replica->impl_;
  impl.self = replica.get();
  impl.sink = sink;
  const SegmentedLogSink::Position cur = sink->current_pos();
  impl.have_state = report.checkpoint_loaded || report.records_replayed > 0 ||
                    cur.seq > 1 || cur.offset > logseg::kHeaderSize;
  impl.skip_floor = report.checkpoint_ts;
  impl.tolerant = report.checkpoint_loaded &&
                  replica->db_->scheme() == Scheme::kSingleVersion;
  replica->replayed_ts_.store(
      std::max(report.max_timestamp, report.checkpoint_ts),
      std::memory_order_release);

  // Paused for the replica's whole following life: streamed records are
  // already in the mirrored log and must not be re-appended. Promote()
  // resumes.
  replica->db_->logger().PauseForReplay();
  impl.thread = std::thread([&impl] { impl.StreamLoop(); });
  if (status != nullptr) *status = Status::OK();
  return replica;
}

Replica::~Replica() {
  Stop();
}

void Replica::Stop() {
  if (impl_ != nullptr) impl_->StopThread();
}

Status Replica::Promote(bool force) {
  if (promoted_.load(std::memory_order_acquire)) return Status::OK();
  if (!ever_attached_.load(std::memory_order_acquire) && !force) {
    return Status::Unavailable();
  }
  if (impl_ == nullptr) return Status::Internal();
  impl_->StopThread();
  // Seal the tail: a record half-mirrored when the leader died is exactly a
  // torn tail, dropped the same way crash recovery drops one.
  if (!impl_->carry.empty()) {
    Status ts = impl_->sink->TruncateActiveTail(impl_->carry.size());
    if (!ts.ok()) return ts;
    impl_->carry.clear();
  }
  if (MVSTORE_FAILPOINT("repl.promote")) return Status::Internal();
  db_->AdvanceCommitTimestamp(
      std::max(replayed_ts_.load(std::memory_order_acquire),
               leader_ts_.load(std::memory_order_acquire)));
  db_->logger().ResumeAfterReplay();
  promoted_.store(true, std::memory_order_release);
  return Status::OK();
}

#else  // !__linux__

struct Replica::Impl {};

Replica::Replica(ReplicaOptions options) : options_(std::move(options)) {}

std::unique_ptr<Replica> Replica::Open(ReplicaOptions, Status* status) {
  if (status != nullptr) *status = Status::Unavailable();
  return nullptr;
}

Replica::~Replica() = default;

void Replica::Stop() {}

Status Replica::Promote(bool) { return Status::Unavailable(); }

#endif  // __linux__

}  // namespace mvstore
