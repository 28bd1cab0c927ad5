#include "repl/shipper.h"

#include "common/failpoint.h"
#include "common/mutex.h"
#include "core/checkpoint.h"
#include "log/log_segment.h"
#include "server/wire.h"

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <thread>
#include <vector>
#endif

namespace mvstore {

#if defined(__linux__)

namespace {

/// Byte cap per kReplTail frame; batches larger than this are split (the
/// follower mirrors a byte stream, so splits need no record alignment).
constexpr size_t kTailChunk = 1u << 20;

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

/// Read `max` bytes of `path` starting at `offset` into *out; *total gets
/// the file's current size. False when the file cannot be opened.
bool ReadFileChunk(const std::string& path, uint64_t offset, uint32_t max,
                   std::vector<uint8_t>* out, uint64_t* total) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  if (fseeko(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return false;
  }
  const off_t size = ftello(f);
  *total = size < 0 ? 0 : static_cast<uint64_t>(size);
  if (offset < *total && max > 0) {
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(max, *total - offset));
    out->resize(want);
    if (fseeko(f, static_cast<off_t>(offset), SEEK_SET) != 0 ||
        std::fread(out->data(), 1, want, f) != want) {
      std::fclose(f);
      return false;
    }
  }
  std::fclose(f);
  return true;
}

}  // namespace

struct ReplShipper::Impl : public CommitObserver {
  using Position = SegmentedLogSink::Position;

  struct Follower {
    int fd = -1;
    int wake_fd = -1;
    std::thread thread;
    bool attached = false;
    bool dead = false;
    /// Everything below this has been handed to this follower (attach
    /// position, advanced per enqueued batch) — the guard against
    /// re-shipping a batch the follower already pulled.
    Position stream_pos{};
    /// Everything below this is durable at the follower (from kReplAck).
    Position acked{};
    /// Lowest segment this (bootstrapping) follower may still pull;
    /// 0 once attached or dead.
    uint64_t retain_seq = 0;
    std::deque<std::pair<Position, std::vector<uint8_t>>> outbox;
  };

  Database& db;
  ShipperOptions options;
  SegmentedLogSink* sink = nullptr;

  int listen_fd = -1;
  uint16_t bound_port = 0;
  std::thread acceptor;
  std::atomic<bool> running{false};
  std::atomic<bool> stopping{false};

  Mutex hub_mutex;
  CondVar ack_cv;
  std::vector<std::unique_ptr<Follower>> followers GUARDED_BY(hub_mutex);

  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> dropped{0};

  Impl(Database& db_in, ShipperOptions options_in)
      : db(db_in), options(std::move(options_in)) {}

  ~Impl() override { Stop(); }

  Status Start() {
    if (running.load(std::memory_order_acquire)) {
      return Status::InvalidArgument();
    }
    sink = dynamic_cast<SegmentedLogSink*>(db.logger().sink());
    if (sink == nullptr) return Status::InvalidArgument();
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) return Status::Internal();
    int on = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options.port);
    if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
      ::close(listen_fd);
      listen_fd = -1;
      return Status::InvalidArgument();
    }
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
            0 ||
        ::listen(listen_fd, 16) < 0) {
      ::close(listen_fd);
      listen_fd = -1;
      return Status::Internal();
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_port = ntohs(addr.sin_port);
    stopping.store(false, std::memory_order_release);
    running.store(true, std::memory_order_release);
    acceptor = std::thread([this] { AcceptLoop(); });
    db.logger().SetCommitObserver(this);
    return Status::OK();
  }

  /// NO_THREAD_SAFETY_ANALYSIS: the final traversal of `followers` (joins +
  /// fd close) runs without hub_mutex. Safe by protocol — the acceptor is
  /// already joined (the only mutator of the vector's shape besides
  /// ReapDead, which it calls), so the vector is frozen; holding hub_mutex
  /// across thread.join() would deadlock with MarkDead, which each follower
  /// thread takes the lock in on its way out.
  void Stop() NO_THREAD_SAFETY_ANALYSIS {
    if (!running.exchange(false, std::memory_order_acq_rel)) return;
    {
      MutexLock guard(hub_mutex);
      stopping.store(true, std::memory_order_release);
    }
    ack_cv.NotifyAll();
    // Detach before tearing connections down: SetCommitObserver serializes
    // against an in-flight OnFlushedBatch, which the stopping flag just
    // released from its ack wait.
    db.logger().SetCommitObserver(nullptr);
    if (listen_fd >= 0) ::shutdown(listen_fd, SHUT_RDWR);
    if (acceptor.joinable()) acceptor.join();
    if (listen_fd >= 0) ::close(listen_fd);
    listen_fd = -1;
    {
      MutexLock guard(hub_mutex);
      for (auto& f : followers) {
        if (f->fd >= 0) ::shutdown(f->fd, SHUT_RDWR);
        WakeFollower(f.get());
      }
    }
    for (auto& f : followers) {
      if (f->thread.joinable()) f->thread.join();
      if (f->fd >= 0) ::close(f->fd);
      if (f->wake_fd >= 0) ::close(f->wake_fd);
    }
    followers.clear();
    if (sink != nullptr) sink->SetRetainFloor(0);
  }

  static void WakeFollower(Follower* f) {
    if (f->wake_fd >= 0) {
      uint64_t one = 1;
      [[maybe_unused]] ssize_t n = ::write(f->wake_fd, &one, sizeof(one));
    }
  }

  void RecomputeRetainLocked() REQUIRES(hub_mutex) {
    uint64_t floor = 0;
    for (const auto& f : followers) {
      if (f->dead || f->retain_seq == 0) continue;
      if (floor == 0 || f->retain_seq < floor) floor = f->retain_seq;
    }
    sink->SetRetainFloor(floor);
  }

  /// Shut the socket down so the connection thread unblocks and exits; the
  /// thread itself finishes the bookkeeping in MarkDead.
  void DropLocked(Follower* f) REQUIRES(hub_mutex) {
    if (f->dead) return;
    if (f->fd >= 0) ::shutdown(f->fd, SHUT_RDWR);
    f->attached = false;
    dropped.fetch_add(1, std::memory_order_relaxed);
  }

  void MarkDead(Follower* f) {
    MutexLock guard(hub_mutex);
    f->dead = true;
    f->attached = false;
    // Shut the socket down now so the peer sees the session end immediately;
    // the fd itself is closed when the acceptor reaps this entry (keeps the
    // close serialized with Stop(), which also shuts follower fds down).
    if (f->fd >= 0) ::shutdown(f->fd, SHUT_RDWR);
    f->retain_seq = 0;
    f->outbox.clear();
    RecomputeRetainLocked();
    ack_cv.NotifyAll();
  }

  // --- CommitObserver -------------------------------------------------------

  void OnFlushedBatch(const uint8_t* data, size_t size) override {
    if (size == 0) return;
    // last_write_pos names the batch the flusher just handed the sink; it
    // is stable here because only the flusher writes on the leader.
    const Position start = sink->last_write_pos();
    const Position end{start.seq, start.offset + size};
    MutexLock lock(hub_mutex);
    bool offered = false;
    for (auto& f : followers) {
      if (!f->attached || f->dead) continue;
      if (!(f->stream_pos < end)) continue;  // already pulled this batch
      f->outbox.emplace_back(start,
                             std::vector<uint8_t>(data, data + size));
      f->stream_pos = end;
      WakeFollower(f.get());
      offered = true;
    }
    if (!offered) return;
    batches.fetch_add(1, std::memory_order_relaxed);
    if (!options.sync) return;
    // Hold the committers until every attached follower has the batch on
    // its disk — the zero-acked-loss contract. A follower that cannot keep
    // up within the timeout is dropped, not waited on forever. The wait is
    // the repl_ack_wait histogram span: it runs on the leader's flusher
    // thread, inside the group wait every kSync committer of this batch is
    // blocked on.
    obs::LatencyHistograms& hists = db.hists();
    const uint64_t t_wait = hists.enabled() ? obs::NowTicks() : 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options.ack_timeout_ms);
    while (!stopping.load(std::memory_order_acquire)) {
      bool pending = false;
      for (auto& f : followers) {
        if (f->attached && !f->dead && f->acked < end) {
          pending = true;
          break;
        }
      }
      if (!pending) break;
      if (ack_cv.WaitUntil(lock, deadline) == std::cv_status::timeout) {
        for (auto& f : followers) {
          if (f->attached && !f->dead && f->acked < end) DropLocked(f.get());
        }
        break;
      }
    }
    if (t_wait != 0) hists.RecordSince(obs::Hist::kReplAckWait, t_wait);
  }

  // --- acceptor -------------------------------------------------------------

  void AcceptLoop() {
    while (!stopping.load(std::memory_order_acquire)) {
      pollfd p{listen_fd, POLLIN, 0};
      int n = ::poll(&p, 1, 100);
      if (n <= 0) continue;
      int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      int on = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
      ReapDead();
      auto f = std::make_unique<Follower>();
      f->fd = fd;
      f->wake_fd = ::eventfd(0, EFD_NONBLOCK);
      Follower* raw = f.get();
      {
        MutexLock guard(hub_mutex);
        followers.push_back(std::move(f));
      }
      raw->thread = std::thread([this, raw] { ServeConn(raw); });
    }
  }

  void ReapDead() {
    std::vector<std::unique_ptr<Follower>> done;
    {
      MutexLock guard(hub_mutex);
      for (auto it = followers.begin(); it != followers.end();) {
        if ((*it)->dead) {
          done.push_back(std::move(*it));
          it = followers.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& f : done) {
      if (f->thread.joinable()) f->thread.join();
      if (f->fd >= 0) ::close(f->fd);
      if (f->wake_fd >= 0) ::close(f->wake_fd);
    }
  }

  // --- per-connection pull phase --------------------------------------------

  void ServeConn(Follower* f) {
    wire::FrameParser parser;
    uint8_t buf[64 * 1024];
    bool attached = false;
    bool fatal = false;
    while (!stopping.load(std::memory_order_acquire) && !fatal && !attached) {
      pollfd p{f->fd, POLLIN, 0};
      int n = ::poll(&p, 1, 100);
      if (n <= 0) continue;
      ssize_t r = ::recv(f->fd, buf, sizeof(buf), 0);
      if (r <= 0) break;
      parser.Feed(buf, static_cast<size_t>(r));
      wire::Frame frame;
      while (!fatal && !attached) {
        wire::FrameParser::Result res = parser.Next(&frame);
        if (res == wire::FrameParser::Result::kNeedMore) break;
        if (res == wire::FrameParser::Result::kBad) {
          // Garbage from a follower kills only this replication session;
          // the leader and its other followers are untouched.
          fatal = true;
          break;
        }
        std::vector<uint8_t> out;
        if (!HandlePullFrame(f, frame, &out, &attached)) fatal = true;
        if (!out.empty() && !SendAll(f->fd, out.data(), out.size())) {
          fatal = true;
        }
      }
    }
    if (attached && !fatal) StreamTo(f);
    MarkDead(f);
  }

  bool HandlePullFrame(Follower* f, const wire::Frame& frame,
                       std::vector<uint8_t>* out, bool* attached) {
    wire::BodyReader body(frame.body.data(), frame.body.size());
    switch (frame.opcode) {
      case wire::Opcode::kReplHandshake: {
        uint8_t proto = 0, scheme = 0, have_state = 0;
        uint64_t local_seq = 0, local_size = 0;
        if (!body.Read(&proto) || !body.Read(&scheme) ||
            !body.Read(&have_state) || !body.Read(&local_seq) ||
            !body.Read(&local_size)) {
          wire::AppendResponse(out, frame.opcode, Status::InvalidArgument(),
                               nullptr, 0, /*fatal=*/true);
          return false;
        }
        const Position cur = sink->current_pos();
        if (proto != wire::kReplProtoVersion ||
            scheme != static_cast<uint8_t>(db.scheme()) ||
            cur < Position{local_seq, local_size}) {
          // Version/scheme mismatch, or a follower claiming bytes this
          // leader never wrote (a diverged or stale-handshake peer): refuse
          // before any byte ships.
          wire::AppendResponse(out, frame.opcode, Status::InvalidArgument(),
                               nullptr, 0, /*fatal=*/true);
          return false;
        }
        const std::vector<logseg::SegmentFile> segs =
            logseg::ListSegments(sink->prefix());
        const uint64_t min_seq = segs.empty() ? cur.seq : segs.front().seq;
        CheckpointInfo ckpt;
        uint8_t ckpt_present = 0;
        uint64_t ckpt_size = 0;
        const std::string& ckpt_path = db.options().checkpoint_path;
        if (!ckpt_path.empty() &&
            InspectCheckpoint(ckpt_path, &ckpt).ok()) {
          ckpt_present = 1;
          std::vector<uint8_t> none;
          ReadFileChunk(ckpt_path, 0, 0, &none, &ckpt_size);
        }
        {
          // From handshake to attach (or death), nothing the follower may
          // still need to pull is allowed to be truncated away.
          MutexLock guard(hub_mutex);
          f->retain_seq = min_seq;
          RecomputeRetainLocked();
        }
        std::vector<uint8_t> payload;
        wire::Put(&payload, min_seq);
        wire::Put(&payload, ckpt_present);
        wire::Put(&payload, ckpt_size);
        wire::Put(&payload, ckpt.covered_seq);
        wire::Put(&payload, static_cast<uint64_t>(ckpt.snapshot_ts));
        wire::Put(&payload, cur.seq);
        wire::Put(&payload, cur.offset);
        wire::Put(&payload, static_cast<uint64_t>(db.LastCommitTimestamp()));
        wire::AppendResponse(out, frame.opcode, Status::OK(), payload.data(),
                             payload.size());
        return true;
      }

      case wire::Opcode::kReplCkptChunk: {
        uint64_t offset = 0;
        uint32_t max = 0;
        if (!body.Read(&offset) || !body.Read(&max)) {
          wire::AppendResponse(out, frame.opcode, Status::InvalidArgument(),
                               nullptr, 0, /*fatal=*/true);
          return false;
        }
        const std::string& path = db.options().checkpoint_path;
        std::vector<uint8_t> bytes;
        uint64_t total = 0;
        if (path.empty() ||
            !ReadFileChunk(path, offset, std::min(max, options.max_chunk),
                           &bytes, &total)) {
          wire::AppendResponse(out, frame.opcode, Status::NotFound(), nullptr,
                               0);
          return true;
        }
        std::vector<uint8_t> payload;
        wire::Put(&payload, total);
        wire::PutBytes(&payload, bytes.data(), bytes.size());
        wire::AppendResponse(out, frame.opcode, Status::OK(), payload.data(),
                             payload.size());
        return true;
      }

      case wire::Opcode::kReplSegChunk: {
        uint64_t seq = 0, offset = 0;
        uint32_t max = 0;
        if (!body.Read(&seq) || !body.Read(&offset) || !body.Read(&max)) {
          wire::AppendResponse(out, frame.opcode, Status::InvalidArgument(),
                               nullptr, 0, /*fatal=*/true);
          return false;
        }
        if (MVSTORE_FAILPOINT("repl.ship.send")) return false;
        std::vector<uint8_t> bytes;
        uint64_t total = 0;
        if (!ReadFileChunk(logseg::SegmentPath(sink->prefix(), seq), offset,
                           std::min(max, options.max_chunk), &bytes,
                           &total)) {
          wire::AppendResponse(out, frame.opcode, Status::NotFound(), nullptr,
                               0);
          return true;
        }
        const uint8_t sealed = seq < sink->current_seq() ? 1 : 0;
        std::vector<uint8_t> payload;
        wire::Put(&payload, sealed);
        wire::Put(&payload, total);
        wire::PutBytes(&payload, bytes.data(), bytes.size());
        wire::AppendResponse(out, frame.opcode, Status::OK(), payload.data(),
                             payload.size());
        return true;
      }

      case wire::Opcode::kReplStream: {
        uint64_t seq = 0, offset = 0;
        if (!body.Read(&seq) || !body.Read(&offset)) {
          wire::AppendResponse(out, frame.opcode, Status::InvalidArgument(),
                               nullptr, 0, /*fatal=*/true);
          return false;
        }
        const Position follower{seq, offset};
        MutexLock guard(hub_mutex);
        // current_pos is read under the hub lock — the same lock
        // OnFlushedBatch enqueues under — so a batch flushed after this
        // comparison is guaranteed to land in this follower's outbox.
        const Position cur = sink->current_pos();
        if (cur < follower) {
          wire::AppendResponse(out, frame.opcode, Status::InvalidArgument(),
                               nullptr, 0, /*fatal=*/true);
          return false;
        }
        // A follower behind the leader in the live segment attaches too,
        // with the bytes it lacks as its first tail batch. Under steady
        // commit traffic the leader moves on between the follower's last
        // pull and this request, so waiting for exact equality can starve
        // the attach for as long as the traffic lasts.
        std::vector<uint8_t> gap;
        bool ok = follower == cur;
        if (!ok && follower.seq == cur.seq &&
            cur.offset - follower.offset <= options.max_chunk) {
          const uint64_t want = cur.offset - follower.offset;
          uint64_t total = 0;
          ok = ReadFileChunk(logseg::SegmentPath(sink->prefix(), cur.seq),
                             follower.offset, static_cast<uint32_t>(want),
                             &gap, &total) &&
               gap.size() == want;  // short: not yet out of stdio's buffer
        }
        std::vector<uint8_t> payload;
        wire::Put(&payload, static_cast<uint8_t>(ok ? 1 : 0));
        wire::Put(&payload, cur.seq);
        wire::Put(&payload, cur.offset);
        wire::AppendResponse(out, frame.opcode, Status::OK(), payload.data(),
                             payload.size());
        if (ok) {
          f->attached = true;
          if (!gap.empty()) {
            f->outbox.emplace_back(follower, std::move(gap));
            WakeFollower(f);
          }
          f->stream_pos = cur;
          // The follower made its position durable before asking.
          f->acked = follower;
          f->retain_seq = 0;
          RecomputeRetainLocked();
          *attached = true;
        }
        return true;
      }

      default:
        // The replication port speaks only the pull opcodes; anything else
        // is protocol misuse and closes the connection.
        wire::AppendResponse(out, frame.opcode, Status::InvalidArgument(),
                             nullptr, 0, /*fatal=*/true);
        return false;
    }
  }

  // --- per-connection push phase --------------------------------------------

  void StreamTo(Follower* f) {
    wire::FrameParser parser;
    uint8_t buf[16 * 1024];
    auto last_send = std::chrono::steady_clock::now();
    while (!stopping.load(std::memory_order_acquire)) {
      pollfd pfds[2] = {{f->fd, POLLIN, 0}, {f->wake_fd, POLLIN, 0}};
      ::poll(pfds, 2, static_cast<int>(options.heartbeat_ms));
      if (pfds[1].revents & POLLIN) {
        uint64_t drain;
        while (::read(f->wake_fd, &drain, sizeof(drain)) > 0) {
        }
      }
      // Inbound: acks (and only acks).
      if (pfds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
        ssize_t r = ::recv(f->fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (r == 0 || (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR)) {
          return;
        }
        if (r > 0) {
          parser.Feed(buf, static_cast<size_t>(r));
          wire::Frame frame;
          while (true) {
            wire::FrameParser::Result res = parser.Next(&frame);
            if (res == wire::FrameParser::Result::kNeedMore) break;
            if (res == wire::FrameParser::Result::kBad) return;
            if (frame.opcode != wire::Opcode::kReplAck) return;
            wire::BodyReader body(frame.body.data(), frame.body.size());
            uint64_t seq = 0, offset = 0;
            if (!body.Read(&seq) || !body.Read(&offset)) return;
            {
              MutexLock guard(hub_mutex);
              const Position acked{seq, offset};
              if (f->acked < acked) f->acked = acked;
            }
            ack_cv.NotifyAll();
          }
        }
      }
      // Outbound: drained under the lock, sent outside it.
      std::deque<std::pair<Position, std::vector<uint8_t>>> out;
      {
        MutexLock guard(hub_mutex);
        out.swap(f->outbox);
        if (f->dead) return;
      }
      bool sent = false;
      for (const auto& [start, bytes] : out) {
        size_t off = 0;
        while (off < bytes.size()) {
          const size_t n = std::min(kTailChunk, bytes.size() - off);
          if (MVSTORE_FAILPOINT("repl.ship.send")) return;
          std::vector<uint8_t> body;
          wire::Put(&body, start.seq);
          wire::Put(&body, start.offset + off);
          wire::PutBytes(&body, bytes.data() + off, n);
          std::vector<uint8_t> framed;
          wire::AppendFrame(&framed, wire::Opcode::kReplTail, 0, body.data(),
                            body.size());
          if (!SendAll(f->fd, framed.data(), framed.size())) return;
          off += n;
          sent = true;
        }
      }
      const auto now = std::chrono::steady_clock::now();
      if (sent) {
        last_send = now;
      } else if (now - last_send >=
                 std::chrono::milliseconds(options.heartbeat_ms)) {
        const Position cur = sink->current_pos();
        std::vector<uint8_t> body;
        wire::Put(&body, cur.seq);
        wire::Put(&body, cur.offset);
        wire::Put(&body, static_cast<uint64_t>(db.LastCommitTimestamp()));
        std::vector<uint8_t> framed;
        wire::AppendFrame(&framed, wire::Opcode::kReplHeartbeat, 0,
                          body.data(), body.size());
        if (!SendAll(f->fd, framed.data(), framed.size())) return;
        last_send = now;
      }
    }
  }
};

ReplShipper::ReplShipper(Database& db, ShipperOptions options)
    : impl_(std::make_unique<Impl>(db, std::move(options))) {}

ReplShipper::~ReplShipper() { Stop(); }

Status ReplShipper::Start() { return impl_->Start(); }

void ReplShipper::Stop() { impl_->Stop(); }

bool ReplShipper::running() const {
  return impl_->running.load(std::memory_order_acquire);
}

uint16_t ReplShipper::port() const { return impl_->bound_port; }

uint32_t ReplShipper::attached_followers() {
  MutexLock guard(impl_->hub_mutex);
  uint32_t n = 0;
  for (const auto& f : impl_->followers) {
    if (f->attached && !f->dead) ++n;
  }
  return n;
}

uint64_t ReplShipper::batches_shipped() const {
  return impl_->batches.load(std::memory_order_relaxed);
}

uint64_t ReplShipper::followers_dropped() const {
  return impl_->dropped.load(std::memory_order_relaxed);
}

#else  // !__linux__

struct ReplShipper::Impl {
  explicit Impl(Database&, ShipperOptions) {}
};

ReplShipper::ReplShipper(Database& db, ShipperOptions options)
    : impl_(std::make_unique<Impl>(db, std::move(options))) {}

ReplShipper::~ReplShipper() = default;

Status ReplShipper::Start() { return Status::Unavailable(); }

void ReplShipper::Stop() {}

bool ReplShipper::running() const { return false; }

uint16_t ReplShipper::port() const { return 0; }

uint32_t ReplShipper::attached_followers() { return 0; }

uint64_t ReplShipper::batches_shipped() const { return 0; }

uint64_t ReplShipper::followers_dropped() const { return 0; }

#endif  // __linux__

}  // namespace mvstore
