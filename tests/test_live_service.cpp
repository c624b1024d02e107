// Tests for the batched/pipelined transport layer and the client session
// multiplexer: wire-format v2 (piggybacked acks, hello epochs) including
// backward compatibility with v1 streams, frame coalescing counters,
// piggybacked-ack equivalence with the standalone-ack baseline, restart
// detection via hello epochs, and SessionMux traffic over live sockets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/hls_node.hpp"
#include "lockmgr/resource.hpp"
#include "lockmgr/session_mux.hpp"
#include "net/cluster.hpp"
#include "net/framing.hpp"
#include "net/tcp_node.hpp"

namespace hlock::net {
namespace {

TcpConfig fast_cfg() {
  TcpConfig c;
  c.reconnect_min = msec(5);
  c.reconnect_max = msec(100);
  c.heartbeat_interval = msec(50);
  c.idle_timeout = msec(400);
  c.max_batch_bytes = 0;  // tests opt in to coalescing explicitly
  return c;
}

Message sample_message(std::uint32_t lock) {
  Message m;
  m.kind = MsgKind::kRequest;
  m.lock = LockId{lock};
  m.req.requester = NodeId{7};
  m.req.mode = Mode::kIW;
  m.req.stamp = LamportStamp{42, NodeId{7}};
  return m;
}

bool spin_until(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

std::uint16_t reserve_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

/// Hand-driven blocking socket speaking the wire protocol at a TcpNode.
class RawClient {
 public:
  explicit RawClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
  }

 private:
  int fd_{-1};
};

/// Per-lock-id delivery counts: asserts exactly-once across churn.
struct DeliveryLog {
  std::mutex mu;
  std::map<std::uint64_t, int> counts;
  std::size_t total{0};

  std::function<void(const Message&)> handler() {
    return [this](const Message& m) {
      const std::lock_guard<std::mutex> g(mu);
      ++counts[m.lock.value];
      ++total;
    };
  }
  std::size_t size() {
    const std::lock_guard<std::mutex> g(mu);
    return total;
  }
  bool exactly_once(std::size_t expected) {
    const std::lock_guard<std::mutex> g(mu);
    if (counts.size() != expected || total != expected) return false;
    for (const auto& [key, n] : counts) {
      if (n != 1) return false;
    }
    return true;
  }
};

// --- wire format v2: the piggybacked ack field --------------------------

TEST(LiveService, FrameCarriesSeqAndPiggybackedAck) {
  const Message m = sample_message(9);
  const auto bytes = frame(m, /*seq=*/17, /*ack=*/12);
  FrameDecoder d;
  d.feed(bytes.data(), bytes.size());
  DecodedFrame f;
  ASSERT_TRUE(d.next_frame(f));
  EXPECT_FALSE(f.control);
  EXPECT_EQ(f.seq, 17u);
  EXPECT_EQ(f.ack_seq, 12u);
  EXPECT_EQ(f.msg.lock, LockId{9});
  EXPECT_FALSE(d.next_frame(f));
}

TEST(LiveService, AckZeroMeansNoInformation) {
  const auto bytes = frame(sample_message(1), /*seq=*/1, /*ack=*/0);
  FrameDecoder d;
  d.feed(bytes.data(), bytes.size());
  DecodedFrame f;
  ASSERT_TRUE(d.next_frame(f));
  EXPECT_EQ(f.ack_seq, 0u) << "ack 0 must survive as 'no info', not garbage";
}

TEST(LiveService, AckFieldIsStampableInPlace) {
  // TcpNode stamps the cumulative ack into already-encoded frames at
  // kAckFieldOffset; the decoder must read back exactly what was stamped.
  auto bytes = frame(sample_message(2), /*seq=*/3, /*ack=*/0);
  ASSERT_GE(bytes.size(), kAckFieldOffset + 8);
  const std::uint64_t ack = 0x0123'4567'89ab'cdefULL;
  for (int i = 0; i < 8; ++i)
    bytes[kAckFieldOffset + i] = static_cast<std::uint8_t>(ack >> (8 * i));
  FrameDecoder d;
  d.feed(bytes.data(), bytes.size());
  DecodedFrame f;
  ASSERT_TRUE(d.next_frame(f));
  EXPECT_EQ(f.ack_seq, ack);
  EXPECT_EQ(f.msg.lock, LockId{2}) << "stamping must not corrupt the payload";
}

TEST(LiveService, DecoderRejectsV1DataFrame) {
  // Build a v1 frame by hand from a v2 one: drop the 8-byte ack field and
  // rewrite the prefix without kAckFlagBit. v2 is the only wire format.
  const auto v2 = frame(sample_message(5), /*seq=*/4);
  std::vector<std::uint8_t> v1;
  v1.reserve(v2.size());
  const std::uint32_t v2_prefix = static_cast<std::uint32_t>(v2[0]) |
                                  (static_cast<std::uint32_t>(v2[1]) << 8) |
                                  (static_cast<std::uint32_t>(v2[2]) << 16) |
                                  (static_cast<std::uint32_t>(v2[3]) << 24);
  ASSERT_NE(v2_prefix & kAckFlagBit, 0u) << "encoder should emit v2";
  const std::uint32_t v1_len = (v2_prefix & kLengthMask) - 8;
  for (int i = 0; i < 4; ++i)
    v1.push_back(static_cast<std::uint8_t>(v1_len >> (8 * i)));
  v1.insert(v1.end(), v2.begin() + 4, v2.begin() + 12);     // seq
  v1.insert(v1.end(), v2.begin() + 20, v2.end());           // message
  FrameDecoder d;
  d.feed(v1.data(), v1.size());
  DecodedFrame f;
  EXPECT_THROW(d.next_frame(f), DecodeError);
}

// --- wire format v2: the hello epoch ------------------------------------

TEST(LiveService, HelloCarriesEpoch) {
  const auto hello = hello_frame(NodeId{3}, 0xdeadbeefULL);
  FrameDecoder d;
  d.feed(hello.data(), hello.size());
  DecodedFrame f;
  ASSERT_TRUE(d.next_frame(f));
  ASSERT_TRUE(f.control);
  EXPECT_EQ(f.op, ControlOp::kHello);
  EXPECT_EQ(f.hello_node, NodeId{3});
  EXPECT_EQ(f.hello_epoch, 0xdeadbeefULL);
}

TEST(LiveService, DecoderRejectsHelloWithoutEpoch) {
  // The v1 hello: control prefix, kHello, u32 NodeId, and no epoch.
  const std::uint8_t v1_hello[9] = {0x05, 0x00, 0x00, 0x80,
                                    static_cast<std::uint8_t>(ControlOp::kHello),
                                    0x04, 0x00, 0x00, 0x00};
  FrameDecoder d;
  d.feed(v1_hello, sizeof v1_hello);
  DecodedFrame f;
  EXPECT_THROW(d.next_frame(f), DecodeError);
}

TEST(LiveService, DecoderRejectsEpochZeroHello) {
  const auto hello = hello_frame(NodeId{4}, 0);
  FrameDecoder d;
  d.feed(hello.data(), hello.size());
  DecodedFrame f;
  EXPECT_THROW(d.next_frame(f), DecodeError);
}

TEST(LiveService, NodeEpochIsNonzeroAndStable) {
  TcpNode n(NodeId{0}, 0, fast_cfg());
  EXPECT_NE(n.epoch(), 0u);
  EXPECT_EQ(n.epoch(), n.epoch());
}

// --- coalesced decode: many frames in one TCP segment -------------------

TEST(LiveService, ManySmallFramesInOneSegmentAllDeliver) {
  TcpNode n(NodeId{0}, 0, fast_cfg());
  DeliveryLog log;
  n.set_handler(log.handler());
  std::thread t([&] { n.loop().run(); });

  // One send() call carrying hello + 32 frames back to back: exactly what
  // a coalescing sender produces. The decoder must split them all.
  constexpr std::uint32_t kCount = 32;
  std::vector<std::uint8_t> segment = hello_frame(NodeId{5}, 77);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    const auto f = frame(sample_message(i), i + 1, /*ack=*/0);
    segment.insert(segment.end(), f.begin(), f.end());
  }
  RawClient peer(n.listen_port());
  peer.send_bytes(segment);

  EXPECT_TRUE(spin_until([&] { return log.size() == kCount; }))
      << "got " << log.size() << " of " << kCount;
  EXPECT_TRUE(log.exactly_once(kCount));
  EXPECT_EQ(n.stats().decode_errors, 0u);

  n.loop().stop();
  t.join();
}

// --- frame coalescing: fewer writev syscalls at equal delivery ----------

/// Park `count` sends in the window of a node whose peer is not up yet,
/// then start the peer: resend_window queues the whole backlog at once,
/// which is the deterministic way to hand flush() a deep outbox.
TcpStats parked_burst_stats(std::size_t max_batch_bytes,
                            std::uint32_t count) {
  TcpConfig cfg = fast_cfg();
  cfg.max_batch_bytes = max_batch_bytes;
  const std::uint16_t port = reserve_port();
  TcpNode sender(NodeId{1}, 0, cfg);
  std::thread ts([&] { sender.loop().run(); });
  sender.set_peers({{NodeId{0}, PeerAddress{"127.0.0.1", port}}});
  for (std::uint32_t i = 0; i < count; ++i)
    sender.send(NodeId{0}, sample_message(i));
  EXPECT_TRUE(spin_until([&] { return sender.unacked() == count; }));

  TcpNode receiver(NodeId{0}, port, fast_cfg());
  DeliveryLog log;
  receiver.set_handler(log.handler());
  std::thread tr([&] { receiver.loop().run(); });
  EXPECT_TRUE(spin_until([&] { return log.size() == count; }, 10000));
  EXPECT_TRUE(log.exactly_once(count));
  EXPECT_TRUE(spin_until([&] { return sender.unacked() == 0; }));

  const TcpStats s = sender.stats();
  sender.loop().stop();
  receiver.loop().stop();
  ts.join();
  tr.join();
  return s;
}

TEST(LiveService, CoalescingWritesFewerBatchesThanFrames) {
  constexpr std::uint32_t kCount = 40;
  const TcpStats s = parked_burst_stats(/*max_batch_bytes=*/256 * 1024,
                                        kCount);
  // hello + 40 data frames fit one iovec batch (64 max): far fewer
  // syscalls than frames.
  EXPECT_GE(s.frames_out, kCount + 1);  // + hello
  EXPECT_LT(s.batches_written, s.frames_out / 4)
      << "coalescing should collapse the parked burst into few writevs";
  EXPECT_GE(s.frames_per_batch[3], 1u)
      << "at least one batch should gather >= 17 frames";
}

TEST(LiveService, BatchingDisabledWritesOneFramePerBatch) {
  constexpr std::uint32_t kCount = 40;
  const TcpStats s = parked_burst_stats(/*max_batch_bytes=*/0, kCount);
  EXPECT_GE(s.frames_out, kCount + 1);
  EXPECT_GE(s.batches_written, s.frames_out)
      << "baseline must spend at least one writev per frame";
  EXPECT_EQ(s.frames_per_batch[1] + s.frames_per_batch[2] +
                s.frames_per_batch[3],
            0u)
      << "no multi-frame batches with coalescing disabled";
}

// --- ack piggybacking: same delivery, cheaper acks ----------------------

/// Closed-loop request/response over two nodes: node 0 answers every
/// request with a reply, giving acks a data frame to ride. Returns
/// {requester stats, responder stats, delivered at requester}.
struct PingPongResult {
  TcpStats requester;
  TcpStats responder;
  std::uint64_t replies{0};
};

PingPongResult ping_pong(Duration piggyback_window, std::uint32_t rounds) {
  TcpConfig cfg = fast_cfg();
  cfg.ack_piggyback_window = piggyback_window;
  InProcessCluster cluster(2, cfg);
  std::atomic<std::uint64_t> replies{0};
  // Node 0: echo every request back (on its own loop thread, like an
  // engine would).
  cluster.node(0).set_handler([&](const Message& m) {
    cluster.node(0).send(NodeId{1}, m);
  });
  cluster.node(1).set_handler(
      [&](const Message&) { replies.fetch_add(1, std::memory_order_relaxed); });
  for (std::uint32_t i = 0; i < rounds; ++i) {
    cluster.node(1).send(NodeId{0}, sample_message(i));
    // Pace the loop: wait for the echo so every round is a fresh
    // read-burst -> ack decision on both sides.
    EXPECT_TRUE(spin_until([&] { return replies.load() > i; }));
  }
  EXPECT_TRUE(spin_until([&] {
    return cluster.node(0).unacked() == 0 && cluster.node(1).unacked() == 0;
  }));
  PingPongResult r;
  r.requester = cluster.node(1).stats();
  r.responder = cluster.node(0).stats();
  r.replies = replies.load();
  cluster.stop();
  return r;
}

TEST(LiveService, PiggybackedAcksMatchBaselineDeliveryWithFewerAckFrames) {
  constexpr std::uint32_t kRounds = 25;
  const PingPongResult base = ping_pong(/*piggyback_window=*/0, kRounds);
  const PingPongResult piggy = ping_pong(msec(50), kRounds);

  // Equivalence: same workload, same delivered/acked outcome.
  EXPECT_EQ(base.replies, kRounds);
  EXPECT_EQ(piggy.replies, kRounds);

  // Baseline pays a standalone kAck per read burst and never piggybacks.
  EXPECT_EQ(base.requester.acks_piggybacked, 0u);
  EXPECT_EQ(base.responder.acks_piggybacked, 0u);
  EXPECT_GE(base.responder.acks_standalone, kRounds / 2);

  // With the window on, the responder's acks ride its replies: its
  // echo send is always queued within the window of the request burst.
  EXPECT_GE(piggy.responder.acks_piggybacked, kRounds / 2)
      << "responder acks should ride the echo replies";
  EXPECT_LT(piggy.responder.acks_standalone,
            base.responder.acks_standalone)
      << "piggybacking must reduce standalone ack frames";
}

// --- peer restart: epoch change resets dedup, exactly-once resumes ------

TEST(LiveService, RestartedPeerEpochResetsSequencesExactlyOnce) {
  TcpNode receiver(NodeId{0}, 0, fast_cfg());
  DeliveryLog log;
  receiver.set_handler(log.handler());
  std::thread tr([&] { receiver.loop().run(); });

  // First incarnation delivers seqs 1..5.
  {
    TcpNode sender(NodeId{1}, 0, fast_cfg());
    std::thread ts([&] { sender.loop().run(); });
    sender.set_peers(
        {{NodeId{0}, PeerAddress{"127.0.0.1", receiver.listen_port()}}});
    for (std::uint32_t i = 0; i < 5; ++i)
      sender.send(NodeId{0}, sample_message(i));
    EXPECT_TRUE(spin_until([&] { return log.size() == 5; }));
    EXPECT_TRUE(spin_until([&] { return sender.unacked() == 0; }));
    sender.loop().stop();
    ts.join();
  }  // process "crash": the node object dies, its epoch with it

  // Second incarnation of the same node id: fresh epoch, sequences start
  // back at 1. Without the epoch reset the receiver would swallow all of
  // these as duplicates of seqs 1..5.
  TcpNode reborn(NodeId{1}, 0, fast_cfg());
  std::thread ts2([&] { reborn.loop().run(); });
  reborn.set_peers(
      {{NodeId{0}, PeerAddress{"127.0.0.1", receiver.listen_port()}}});
  for (std::uint32_t i = 0; i < 5; ++i)
    reborn.send(NodeId{0}, sample_message(100 + i));
  EXPECT_TRUE(spin_until([&] { return log.size() == 10; }))
      << "restarted peer's frames were deduplicated away (got "
      << log.size() << ")";
  EXPECT_TRUE(log.exactly_once(10))
      << "frames lost or duplicated across the restart";
  EXPECT_GE(receiver.stats().peer_restarts, 1u)
      << "epoch change must be detected and counted";

  reborn.loop().stop();
  receiver.loop().stop();
  ts2.join();
  tr.join();
}

// --- stats plumbing for the new counters --------------------------------

TEST(LiveService, StatsLineMentionsBatchingAndPiggybackCounters) {
  TcpStats s;
  s.batches_written = 11;
  s.peer_restarts = 2;
  const std::string line = to_string(s);
  for (const char* key :
       {"batches_written=", "fpb1=", "fpb2_4=", "fpb5_16=", "fpb17p=",
        "acks_piggybacked=", "acks_standalone=", "peer_restarts="}) {
    EXPECT_NE(line.find(key), std::string::npos) << key;
  }
  EXPECT_NE(line.find("batches_written=11"), std::string::npos);
  EXPECT_NE(line.find("peer_restarts=2"), std::string::npos);
}

// --- SessionMux: many logical sessions over live TCP --------------------

TEST(LiveService, SessionMuxRunsManySessionsOverLiveTcp) {
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kSessions = 4;
  constexpr std::uint32_t kOpsPerSession = 6;
  constexpr std::uint32_t kEntries = 4;

  TcpConfig cfg = fast_cfg();
  cfg.max_batch_bytes = 256 * 1024;
  cfg.ack_piggyback_window = msec(1);
  InProcessCluster cluster(kNodes, cfg);
  lockmgr::ResourceLayout layout(kEntries);

  struct Svc {
    std::unique_ptr<core::HlsNode> hls;
    std::unique_ptr<lockmgr::SessionMux> mux;
    std::vector<std::uint32_t> ops_left;
  };
  std::vector<Svc> svc(kNodes);
  std::atomic<std::uint64_t> completed{0};
  for (std::size_t i = 0; i < kNodes; ++i) {
    svc[i].hls = std::make_unique<core::HlsNode>(
        NodeId{static_cast<std::uint32_t>(i)},
        cluster.node(i).transport());
    for (std::uint32_t l = 0; l < layout.lock_count(); ++l)
      svc[i].hls->add_lock(LockId{l}, NodeId{l % kNodes});
    svc[i].mux = std::make_unique<lockmgr::SessionMux>(
        *svc[i].hls, layout, cluster.node(i).loop(), kSessions);
    svc[i].ops_left.assign(kSessions, kOpsPerSession);
    Svc* raw = &svc[i];
    cluster.node(i).set_handler(
        [raw](const Message& m) { raw->hls->handle(m); });
  }

  // Closed loop: a fixed op sequence cycling through the mix, so upgrades
  // and entry writes all get exercised without randomness.
  std::function<void(std::size_t, std::uint32_t)> pump =
      [&](std::size_t node, std::uint32_t sid) {
        Svc& s = svc[node];
        if (s.ops_left[sid] == 0) return;
        const std::uint32_t k = --s.ops_left[sid];
        lockmgr::Op op;
        switch (k % 5) {
          case 0: op.kind = lockmgr::OpKind::kEntryRead; break;
          case 1: op.kind = lockmgr::OpKind::kTableRead; break;
          case 2: op.kind = lockmgr::OpKind::kEntryWrite; break;
          case 3: op.kind = lockmgr::OpKind::kTableUpgrade; break;
          default: op.kind = lockmgr::OpKind::kEntryRead; break;
        }
        op.entry = (sid + k) % kEntries;
        s.mux->start(sid, op, [&, node, sid](const lockmgr::OpStats& st) {
          EXPECT_GE(st.lock_requests, 1u);
          completed.fetch_add(1, std::memory_order_relaxed);
          pump(node, sid);
        });
      };
  for (std::size_t i = 0; i < kNodes; ++i) {
    for (std::uint32_t sid = 0; sid < kSessions; ++sid)
      cluster.node(i).loop().post([&pump, i, sid] { pump(i, sid); });
  }

  const std::uint64_t total = kNodes * kSessions * kOpsPerSession;
  EXPECT_TRUE(spin_until([&] { return completed.load() == total; }, 30000))
      << "completed " << completed.load() << " of " << total;
  // Nothing may be lost in flight: every accepted send acked.
  EXPECT_TRUE(spin_until([&] {
    return cluster.node(0).unacked() == 0 && cluster.node(1).unacked() == 0;
  }));
  // The muxes are loop-confined: inspect them only once the loops stopped.
  cluster.stop();
  for (std::size_t i = 0; i < kNodes; ++i) {
    EXPECT_EQ(svc[i].mux->completed(), kSessions * kOpsPerSession);
    EXPECT_EQ(svc[i].mux->active(), 0u);
    for (std::uint32_t sid = 0; sid < kSessions; ++sid)
      EXPECT_FALSE(svc[i].mux->busy(sid));
  }
}

TEST(LiveService, SessionMuxRejectsDoubleStartOnBusySession) {
  InProcessCluster cluster(2, fast_cfg());
  lockmgr::ResourceLayout layout(2);
  auto hls = std::make_unique<core::HlsNode>(NodeId{0},
                                             cluster.node(0).transport());
  for (std::uint32_t l = 0; l < layout.lock_count(); ++l)
    hls->add_lock(LockId{l}, NodeId{1});  // all locks remote: ops stay busy
  lockmgr::SessionMux mux(*hls, layout, cluster.node(0).loop(), 1);
  cluster.node(0).set_handler(
      [&hls](const Message& m) { hls->handle(m); });

  std::atomic<bool> threw{false};
  std::atomic<bool> checked{false};
  cluster.node(0).loop().post([&] {
    lockmgr::Op op;
    op.kind = lockmgr::OpKind::kEntryRead;
    op.entry = 0;
    mux.start(0, op, [](const lockmgr::OpStats&) {});
    try {
      mux.start(0, op, [](const lockmgr::OpStats&) {});
    } catch (const std::logic_error&) {
      threw = true;
    }
    checked = true;
  });
  EXPECT_TRUE(spin_until([&] { return checked.load(); }));
  EXPECT_TRUE(threw) << "starting a busy session must throw";
  cluster.stop();
}

}  // namespace
}  // namespace hlock::net
