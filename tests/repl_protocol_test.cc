// Replication protocol hardening (ctest labels: unit, repl).
//
// The shipper's port faces another machine's bytes, so it gets the same
// adversarial treatment the session port got in wire_test: garbage frames,
// corrupted checksums, truncated bodies, stale and diverged handshakes — and
// in every case the blast radius must be exactly one replication session.
// The leader keeps committing, other followers keep following, and a fresh
// follower can still attach. Also covered here: the follower's
// heartbeat-timeout reconnect against a fake silent leader, the laggard
// drop (an attached follower that never acks cannot wedge commits forever),
// and the session-layer follower gate (reads OK, writes kReadOnly, promote
// opcode flips it).
#include <gtest/gtest.h>

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "client/read_router.h"
#include "core/database.h"
#include "log/log_segment.h"
#include "repl/replica.h"
#include "repl/shipper.h"
#include "server/loopback.h"
#include "server/server_core.h"
#include "server/wire.h"

namespace mvstore {
namespace {

#if defined(__linux__)

struct Row {
  uint64_t key;
  uint64_t val;
};

uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

void DefineSchema(Database& db) {
  TableDef def;
  def.name = "t";
  def.payload_size = sizeof(Row);
  IndexDef primary;
  primary.extractor = RowKey;
  primary.bucket_count = 1024;
  primary.unique = true;
  def.indexes.push_back(primary);
  db.CreateTable(std::move(def));
}

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

DatabaseOptions MakeDbOptions(const std::string& dir) {
  DatabaseOptions db;
  db.scheme = Scheme::kMultiVersionOptimistic;
  db.log_mode = LogMode::kSync;
  db.log_path = dir + "/wal";
  db.log_segment_bytes = 16 * 1024;
  db.checkpoint_path = dir + "/ckpt";
  return db;
}

Status WriteRow(Database& db, uint64_t key, uint64_t val) {
  return db.RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* txn) {
    Row r{key, val};
    Status s = db.Insert(txn, 0, &r);
    if (s.IsAlreadyExists()) {
      s = db.Update(txn, 0, 0, key, [&](void* p) {
        static_cast<Row*>(p)->val = val;
      });
    }
    return s;
  });
}

bool WaitFor(const std::function<bool()>& cond, uint32_t timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

/// Raw test connection to a repl port: hand-crafted frames in, parsed
/// frames out.
struct RawConn {
  int fd = -1;
  wire::FrameParser parser;

  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  bool Dial(uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool SendRaw(const std::vector<uint8_t>& bytes) {
    return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  bool SendFrame(wire::Opcode opcode, const std::vector<uint8_t>& body,
                 uint8_t flags = 0) {
    std::vector<uint8_t> framed;
    wire::AppendFrame(&framed, opcode, flags, body.data(), body.size());
    return SendRaw(framed);
  }

  /// 1 = frame, 0 = timeout, -1 = closed/garbage.
  int RecvFrame(wire::Frame* frame, int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    uint8_t buf[16 * 1024];
    while (true) {
      switch (parser.Next(frame)) {
        case wire::FrameParser::Result::kFrame:
          return 1;
        case wire::FrameParser::Result::kBad:
          return -1;
        case wire::FrameParser::Result::kNeedMore:
          break;
      }
      if (std::chrono::steady_clock::now() >= deadline) return 0;
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
      if (r <= 0) return -1;
      parser.Feed(buf, static_cast<size_t>(r));
    }
  }

  /// True once the peer closed this connection.
  bool PeerClosed(int timeout_ms = 5000) {
    wire::Frame f;
    while (true) {
      const int r = RecvFrame(&f, timeout_ms);
      if (r <= 0) return r == -1;
    }
  }

  std::vector<uint8_t> HandshakeBody(uint8_t proto, uint8_t scheme,
                                     uint8_t have_state, uint64_t seq,
                                     uint64_t size) {
    std::vector<uint8_t> body;
    wire::Put(&body, proto);
    wire::Put(&body, scheme);
    wire::Put(&body, have_state);
    wire::Put(&body, seq);
    wire::Put(&body, size);
    return body;
  }
};

class ReplProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = FreshDir("mvstore_repl_proto");
    Status st;
    db_ = Database::Open(MakeDbOptions(dir_), DefineSchema, &st);
    ASSERT_NE(db_, nullptr) << st.ToString();
    ShipperOptions sopts;
    sopts.ack_timeout_ms = 500;  // laggard tests should not take long
    shipper_ = std::make_unique<ReplShipper>(*db_, sopts);
    ASSERT_TRUE(shipper_->Start().ok());
    ASSERT_NE(shipper_->port(), 0);
  }

  void TearDown() override {
    shipper_.reset();
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  ReplicaOptions FollowerOptions(const std::string& sub) {
    ReplicaOptions ropts;
    ropts.db = MakeDbOptions(dir_ + "/" + sub);
    std::filesystem::create_directories(dir_ + "/" + sub);
    ropts.define_schema = DefineSchema;
    ropts.leader_port = shipper_->port();
    ropts.reconnect_ms = 10;
    return ropts;
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<ReplShipper> shipper_;
};

// Garbage bytes on the repl port kill only that connection: the leader
// keeps committing and a real follower still attaches afterwards.
TEST_F(ReplProtocolTest, GarbageKillsOnlyThatConnection) {
  RawConn garbage;
  ASSERT_TRUE(garbage.Dial(shipper_->port()));
  ASSERT_TRUE(garbage.SendRaw({'X', 'Y', 0xff, 0x00, 0xde, 0xad, 0xbe,
                               0xef, 1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(garbage.PeerClosed());

  // Leader unharmed: commits succeed...
  ASSERT_TRUE(WriteRow(*db_, 1, 10).ok());
  // ...and a real follower bootstraps, attaches, and replays that commit.
  Status st;
  auto replica = Replica::Open(FollowerOptions("f1"), &st);
  ASSERT_NE(replica, nullptr) << st.ToString();
  ASSERT_TRUE(WaitFor([&] { return replica->ready(); }));
  ASSERT_TRUE(WriteRow(*db_, 2, 20).ok());
  EXPECT_TRUE(WaitFor([&] { return replica->batches_applied() > 0; }));
  EXPECT_FALSE(replica->failed());
}

// A follower behind the leader in the live segment attaches at once, and
// the leader streams the bytes it lacks as the first tail batch, starting
// at the follower's position. Under steady commit traffic the leader moves
// on between a follower's last pull and its attach request, so an attach
// that demanded exact equality could starve for as long as traffic lasts.
TEST_F(ReplProtocolTest, AttachBehindInLiveSegmentStreamsTheGap) {
  ASSERT_TRUE(WriteRow(*db_, 1, 10).ok());
  RawConn conn;
  ASSERT_TRUE(conn.Dial(shipper_->port()));
  ASSERT_TRUE(conn.SendFrame(
      wire::Opcode::kReplHandshake,
      conn.HandshakeBody(wire::kReplProtoVersion,
                         static_cast<uint8_t>(db_->scheme()), 0, 1,
                         logseg::kHeaderSize)));
  wire::Frame frame;
  ASSERT_EQ(conn.RecvFrame(&frame), 1);
  ASSERT_TRUE(wire::WireToStatus(frame.body[0], frame.body[1]).ok());

  // Ask to attach at the start of segment 1, behind the committed row.
  std::vector<uint8_t> stream;
  wire::Put(&stream, uint64_t{1});
  wire::Put(&stream, uint64_t{logseg::kHeaderSize});
  ASSERT_TRUE(conn.SendFrame(wire::Opcode::kReplStream, stream));
  ASSERT_EQ(conn.RecvFrame(&frame), 1);
  wire::BodyReader att(frame.body.data() + 2, frame.body.size() - 2);
  uint8_t attached = 0;
  uint64_t cur_seq = 0, cur_size = 0;
  ASSERT_TRUE(att.Read(&attached));
  ASSERT_TRUE(att.Read(&cur_seq));
  ASSERT_TRUE(att.Read(&cur_size));
  ASSERT_EQ(attached, 1);
  ASSERT_EQ(cur_seq, 1u);
  ASSERT_GT(cur_size, logseg::kHeaderSize);

  ASSERT_EQ(conn.RecvFrame(&frame), 1);
  ASSERT_EQ(frame.opcode, wire::Opcode::kReplTail);
  wire::BodyReader tail(frame.body.data(), frame.body.size());
  uint64_t seq = 0, offset = 0;
  ASSERT_TRUE(tail.Read(&seq));
  ASSERT_TRUE(tail.Read(&offset));
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(offset, logseg::kHeaderSize);
  EXPECT_EQ(tail.remaining(), cur_size - logseg::kHeaderSize);
}

// A frame whose checksum does not match its bytes must close the
// connection (framing cannot be trusted afterwards).
TEST_F(ReplProtocolTest, CorruptChecksumClosesConnection) {
  RawConn conn;
  ASSERT_TRUE(conn.Dial(shipper_->port()));
  std::vector<uint8_t> framed;
  const std::vector<uint8_t> body =
      conn.HandshakeBody(wire::kReplProtoVersion,
                         static_cast<uint8_t>(db_->scheme()), 0, 1, 16);
  wire::AppendFrame(&framed, wire::Opcode::kReplHandshake, 0, body.data(),
                    body.size());
  framed[framed.size() - 1] ^= 0x5a;  // corrupt the last body byte
  ASSERT_TRUE(conn.SendRaw(framed));
  EXPECT_TRUE(conn.PeerClosed());
  EXPECT_TRUE(WriteRow(*db_, 3, 30).ok());  // leader unharmed
}

// A structurally valid frame with a truncated body (handshake missing its
// position fields) is answered InvalidArgument and the connection closed.
TEST_F(ReplProtocolTest, TruncatedBodyRefusedFatally) {
  RawConn conn;
  ASSERT_TRUE(conn.Dial(shipper_->port()));
  std::vector<uint8_t> short_body;
  wire::Put(&short_body, wire::kReplProtoVersion);
  ASSERT_TRUE(conn.SendFrame(wire::Opcode::kReplHandshake, short_body));
  wire::Frame frame;
  ASSERT_EQ(conn.RecvFrame(&frame), 1);
  ASSERT_GE(frame.body.size(), 2u);
  EXPECT_TRUE(
      wire::WireToStatus(frame.body[0], frame.body[1]).IsInvalidArgument());
  EXPECT_TRUE(conn.PeerClosed());
}

// Wrong protocol version and wrong scheme are refused before any byte
// ships.
TEST_F(ReplProtocolTest, VersionAndSchemeMismatchRefused) {
  for (int variant = 0; variant < 2; ++variant) {
    RawConn conn;
    ASSERT_TRUE(conn.Dial(shipper_->port()));
    const uint8_t proto =
        variant == 0 ? wire::kReplProtoVersion + 1 : wire::kReplProtoVersion;
    const uint8_t scheme = variant == 0
                               ? static_cast<uint8_t>(db_->scheme())
                               : static_cast<uint8_t>(db_->scheme()) + 1;
    ASSERT_TRUE(conn.SendFrame(
        wire::Opcode::kReplHandshake,
        conn.HandshakeBody(proto, scheme, 0, 1, 16)));
    wire::Frame frame;
    ASSERT_EQ(conn.RecvFrame(&frame), 1) << "variant " << variant;
    EXPECT_TRUE(
        wire::WireToStatus(frame.body[0], frame.body[1]).IsInvalidArgument());
    EXPECT_TRUE(conn.PeerClosed());
  }
}

// A follower claiming a position beyond anything the leader ever wrote is
// diverged; shipping to it could only corrupt it further.
TEST_F(ReplProtocolTest, DivergedAheadHandshakeRefused) {
  RawConn conn;
  ASSERT_TRUE(conn.Dial(shipper_->port()));
  ASSERT_TRUE(conn.SendFrame(
      wire::Opcode::kReplHandshake,
      conn.HandshakeBody(wire::kReplProtoVersion,
                         static_cast<uint8_t>(db_->scheme()), 1,
                         /*seq=*/999999, /*size=*/1 << 30)));
  wire::Frame frame;
  ASSERT_EQ(conn.RecvFrame(&frame), 1);
  EXPECT_TRUE(
      wire::WireToStatus(frame.body[0], frame.body[1]).IsInvalidArgument());
  EXPECT_TRUE(conn.PeerClosed());
}

// An attached follower that never acks must not wedge commits forever: the
// leader drops it at the ack timeout and the commit completes.
TEST_F(ReplProtocolTest, SilentFollowerDroppedAtAckTimeout) {
  RawConn conn;
  ASSERT_TRUE(conn.Dial(shipper_->port()));
  ASSERT_TRUE(conn.SendFrame(
      wire::Opcode::kReplHandshake,
      conn.HandshakeBody(wire::kReplProtoVersion,
                         static_cast<uint8_t>(db_->scheme()), 0, 1, 16)));
  wire::Frame frame;
  ASSERT_EQ(conn.RecvFrame(&frame), 1);
  ASSERT_TRUE(wire::WireToStatus(frame.body[0], frame.body[1]).ok());
  wire::BodyReader reader(frame.body.data() + 2, frame.body.size() - 2);
  uint64_t min_seq = 0, ckpt_size = 0, cov = 0, ts = 0, cur_seq = 0,
           cur_size = 0, last = 0;
  uint8_t present = 0;
  ASSERT_TRUE(reader.Read(&min_seq));
  ASSERT_TRUE(reader.Read(&present));
  ASSERT_TRUE(reader.Read(&ckpt_size));
  ASSERT_TRUE(reader.Read(&cov));
  ASSERT_TRUE(reader.Read(&ts));
  ASSERT_TRUE(reader.Read(&cur_seq));
  ASSERT_TRUE(reader.Read(&cur_size));
  ASSERT_TRUE(reader.Read(&last));

  // Attach at the leader's exact position (quiescent leader: stable).
  std::vector<uint8_t> stream;
  wire::Put(&stream, cur_seq);
  wire::Put(&stream, cur_size);
  ASSERT_TRUE(conn.SendFrame(wire::Opcode::kReplStream, stream));
  ASSERT_EQ(conn.RecvFrame(&frame), 1);
  wire::BodyReader att(frame.body.data() + 2, frame.body.size() - 2);
  uint8_t attached = 0;
  ASSERT_TRUE(att.Read(&attached));
  ASSERT_EQ(attached, 1);
  ASSERT_TRUE(WaitFor([&] { return shipper_->attached_followers() == 1; }));

  // Never ack. The commit must still complete (ack_timeout_ms = 500).
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(WriteRow(*db_, 4, 40).ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(30));
  EXPECT_TRUE(WaitFor([&] { return shipper_->followers_dropped() >= 1; }));
  EXPECT_EQ(shipper_->attached_followers(), 0u);
  // Subsequent commits fly free.
  ASSERT_TRUE(WriteRow(*db_, 5, 50).ok());
}

// A fake leader that answers the handshake and attach but then goes silent
// must trip the follower's heartbeat timeout and trigger reconnects.
TEST_F(ReplProtocolTest, HeartbeatTimeoutTriggersReconnect) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  int on = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const uint16_t fake_port = ntohs(addr.sin_port);

  std::atomic<int> accepts{0};
  std::atomic<bool> stop{false};
  std::thread fake([&] {
    while (!stop.load()) {
      pollfd p{listen_fd, POLLIN, 0};
      if (::poll(&p, 1, 50) <= 0) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      accepts.fetch_add(1);
      // Serve handshake + empty live chunk + attach, then go silent.
      wire::FrameParser parser;
      uint8_t buf[4096];
      const auto conn_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!stop.load() &&
             std::chrono::steady_clock::now() < conn_deadline) {
        pollfd cp{fd, POLLIN, 0};
        if (::poll(&cp, 1, 50) <= 0) continue;
        const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
        if (r <= 0) break;
        parser.Feed(buf, static_cast<size_t>(r));
        wire::Frame frame;
        while (parser.Next(&frame) == wire::FrameParser::Result::kFrame) {
          std::vector<uint8_t> payload;
          if (frame.opcode == wire::Opcode::kReplHandshake) {
            wire::Put(&payload, uint64_t{1});   // min_seq
            wire::Put(&payload, uint8_t{0});    // no checkpoint
            wire::Put(&payload, uint64_t{0});
            wire::Put(&payload, uint64_t{0});
            wire::Put(&payload, uint64_t{0});
            wire::Put(&payload, uint64_t{1});   // cur = {1, 16}
            wire::Put(&payload, uint64_t{16});
            wire::Put(&payload, uint64_t{1});   // last_ts
          } else if (frame.opcode == wire::Opcode::kReplSegChunk) {
            wire::Put(&payload, uint8_t{0});    // live segment
            wire::Put(&payload, uint64_t{16});  // total = header only
          } else if (frame.opcode == wire::Opcode::kReplStream) {
            wire::Put(&payload, uint8_t{1});    // attached
            wire::Put(&payload, uint64_t{1});
            wire::Put(&payload, uint64_t{16});
          } else {
            continue;  // acks etc.: ignore
          }
          std::vector<uint8_t> out;
          wire::AppendResponse(&out, frame.opcode, Status::OK(),
                               payload.data(), payload.size());
          if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) < 0) break;
        }
      }
      ::close(fd);  // silence, then hang up: the replica must reconnect
    }
  });

  ReplicaOptions ropts;
  ropts.db = MakeDbOptions(FreshDir("mvstore_repl_proto_hb"));
  ropts.define_schema = DefineSchema;
  ropts.leader_port = fake_port;
  ropts.reconnect_ms = 10;
  ropts.heartbeat_timeout_ms = 200;
  Status st;
  auto replica = Replica::Open(ropts, &st);
  ASSERT_NE(replica, nullptr) << st.ToString();

  // The fake leader never heartbeats, so every attach must time out and
  // re-dial: multiple accepts prove the detection loop works.
  EXPECT_TRUE(WaitFor([&] { return accepts.load() >= 3; }, 20000));
  EXPECT_TRUE(replica->ready());  // it did attach (then lost the leader)
  EXPECT_GE(replica->reconnects(), 1u);
  EXPECT_FALSE(replica->failed());

  replica->Stop();
  stop.store(true);
  fake.join();
  ::close(listen_fd);
}

// The session layer in front of a follower: reads work at the replayed
// snapshot, writes come back kReadOnly without killing the transaction,
// and kReplPromote flips the gate.
TEST_F(ReplProtocolTest, FollowerSessionsReadOnlyUntilPromoted) {
  ASSERT_TRUE(WriteRow(*db_, 7, 70).ok());
  Status st;
  auto replica = Replica::Open(FollowerOptions("f2"), &st);
  ASSERT_NE(replica, nullptr) << st.ToString();
  ASSERT_TRUE(WaitFor([&] { return replica->ready(); }));
  ASSERT_TRUE(
      WaitFor([&] { return replica->replayed_ts() >= db_->LastCommitTimestamp(); }));

  ServerCore core(replica->db());
  core.SetReplica(replica.get());
  LoopbackTransport transport(core);
  MVClient client(transport);

  ASSERT_TRUE(client.Begin(IsolationLevel::kReadCommitted).ok());
  Row row{};
  ASSERT_TRUE(client.Get(0, 0, 7, &row, sizeof(row)).ok());
  EXPECT_EQ(row.val, 70u);
  Row nrow{8, 80};
  EXPECT_TRUE(client.Insert(0, &nrow, sizeof(nrow)).IsReadOnly());
  // The refusal left the transaction alive: reads still work, commit is OK.
  ASSERT_TRUE(client.Get(0, 0, 7, &row, sizeof(row)).ok());
  ASSERT_TRUE(client.Commit().ok());

  // Promote through the wire opcode, then writes flow.
  ASSERT_TRUE(client.Promote().ok());
  EXPECT_TRUE(replica->writable());
  ASSERT_TRUE(client.Begin(IsolationLevel::kReadCommitted).ok());
  ASSERT_TRUE(client.Insert(0, &nrow, sizeof(nrow)).ok());
  ASSERT_TRUE(client.Commit().ok());

  core.SetReplica(nullptr);
}

// ReadRouter sends read-only transactions to the follower, writes (and
// read-your-own-writes reads) to the leader, and falls back to the
// leader when the follower is marked out.
TEST_F(ReplProtocolTest, ReadRouterRoutesReadsToFollower) {
  ASSERT_TRUE(WriteRow(*db_, 5, 50).ok());
  Status st;
  auto replica = Replica::Open(FollowerOptions("router"), &st);
  ASSERT_NE(replica, nullptr) << st.ToString();
  // replayed_ts can catch up before the attach is recorded; the follower
  // serves reads only once ready(), so wait for both.
  ASSERT_TRUE(WaitFor([&] {
    return replica->ready() &&
           replica->replayed_ts() >= db_->LastCommitTimestamp();
  }));

  ServerCore leader_core(*db_);
  LoopbackTransport leader_transport(leader_core);
  MVClient leader_client(leader_transport);
  ServerCore follower_core(replica->db());
  follower_core.SetReplica(replica.get());
  LoopbackTransport follower_transport(follower_core);
  MVClient follower_client(follower_transport);

  ReadRouter router(&leader_client);
  router.AddFollower(&follower_client);
  ASSERT_EQ(router.Writer(), &leader_client);
  ASSERT_EQ(router.available_followers(), 1u);

  // A read-only transaction through Reader() lands on the follower and
  // sees the replicated row.
  MVClient* reader = router.Reader();
  ASSERT_EQ(reader, &follower_client);
  ASSERT_TRUE(
      reader->Begin(IsolationLevel::kReadCommitted, /*read_only=*/true).ok());
  Row row{};
  ASSERT_TRUE(reader->Get(0, 0, 5, &row, sizeof(row)).ok());
  EXPECT_EQ(row.val, 50u);
  ASSERT_TRUE(reader->Commit().ok());

  // Writes through Writer() reach the leader and replicate down.
  ASSERT_TRUE(WriteRow(*db_, 6, 60).ok());
  ASSERT_TRUE(WaitFor([&] {
    return replica->replayed_ts() >= db_->LastCommitTimestamp();
  }));
  reader = router.Reader();
  ASSERT_EQ(reader, &follower_client);
  ASSERT_TRUE(
      reader->Begin(IsolationLevel::kReadCommitted, /*read_only=*/true).ok());
  ASSERT_TRUE(reader->Get(0, 0, 6, &row, sizeof(row)).ok());
  EXPECT_EQ(row.val, 60u);
  ASSERT_TRUE(reader->Commit().ok());

  // Follower marked out: reads fall back to the leader (and keep
  // working); marking it back restores the fan-out.
  router.MarkUnavailable(&follower_client);
  EXPECT_EQ(router.available_followers(), 0u);
  reader = router.Reader();
  ASSERT_EQ(reader, &leader_client);
  ASSERT_TRUE(
      reader->Begin(IsolationLevel::kReadCommitted, /*read_only=*/true).ok());
  ASSERT_TRUE(reader->Get(0, 0, 6, &row, sizeof(row)).ok());
  ASSERT_TRUE(reader->Commit().ok());
  router.MarkAvailable(&follower_client);
  EXPECT_EQ(router.Reader(), &follower_client);

  follower_core.SetReplica(nullptr);
}

// Promote without ever attaching is refused (the shell would serve
// nothing), and kReplPromote against a non-follower server is
// InvalidArgument.
TEST_F(ReplProtocolTest, PromoteGuards) {
  // Non-follower server: no gate.
  ServerCore core(*db_);
  LoopbackTransport transport(core);
  MVClient client(transport);
  EXPECT_TRUE(client.Promote().IsInvalidArgument());

  // Fresh replica against an unreachable leader: never attaches.
  ReplicaOptions ropts;
  ropts.db = MakeDbOptions(FreshDir("mvstore_repl_proto_pg"));
  ropts.define_schema = DefineSchema;
  ropts.leader_port = 1;  // nothing listens there
  ropts.reconnect_ms = 10;
  Status st;
  auto replica = Replica::Open(ropts, &st);
  ASSERT_NE(replica, nullptr) << st.ToString();
  EXPECT_TRUE(replica->Promote(/*force=*/false).IsUnavailable());
  // Forced promote of an empty-but-valid mirror is allowed (operator's
  // last resort) and yields a writable database.
  EXPECT_TRUE(replica->Promote(/*force=*/true).ok());
  EXPECT_TRUE(replica->writable());
  EXPECT_TRUE(WriteRow(replica->db(), 9, 90).ok());
}

#else  // !__linux__

TEST(ReplProtocolTest, SkippedOnNonLinux) {
  GTEST_SKIP() << "replication is Linux-only";
}

#endif

}  // namespace
}  // namespace mvstore
