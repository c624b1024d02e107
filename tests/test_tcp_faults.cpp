// Fault-injection tests for the live TCP transport: startup races, refused
// dials, malformed frames, mid-frame resets, half-open peers, and
// connection churn under load. The invariant throughout: the process never
// dies, and no accepted send() is silently dropped while the process lives.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

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

/// Grab an ephemeral port the kernel just handed out, then release it so a
/// node can bind it shortly after (standard late-starter trick; the race
/// window is tiny on loopback).
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

/// A hand-driven peer: a plain blocking socket this test uses to speak (or
/// deliberately mis-speak) the wire protocol at a TcpNode.
class RawClient {
 public:
  /// Tag for wrapping a socket RawListener accepted.
  struct Adopt {};
  RawClient(Adopt, int fd) : fd_(fd) { EXPECT_GE(fd_, 0); }

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

  void send_prefix(const std::vector<std::uint8_t>& bytes, std::size_t n) {
    send_bytes({bytes.begin(),
                bytes.begin() + static_cast<std::ptrdiff_t>(n)});
  }

  /// Close with an RST instead of a FIN.
  void reset() {
    const linger lg{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    ::close(fd_);
    fd_ = -1;
  }

  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  /// Read until one whole frame has arrived; false on timeout or EOF.
  bool next_frame(DecodedFrame& out, int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    std::uint8_t buf[4096];
    while (!decoder_.next_frame(out)) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, 50) <= 0) continue;
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) return false;
      decoder_.feed(buf, static_cast<std::size_t>(n));
    }
    return true;
  }

  /// Drain inbound bytes (the node's hello/pings) until FIN or timeout;
  /// true if the peer closed the connection.
  bool closed_by_peer(int timeout_ms = 3000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    std::uint8_t buf[4096];
    while (std::chrono::steady_clock::now() < deadline) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, 50) <= 0) continue;
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n == 0) return true;
      if (n < 0 && errno != EAGAIN && errno != EINTR) return true;
    }
    return false;
  }

 private:
  int fd_{-1};
  FrameDecoder decoder_;
};

/// A listening socket standing in for a peer that dials nobody: the node
/// under test (with the higher id) dials it.
class RawListener {
 public:
  RawListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::listen(fd_, 4), 0);
    socklen_t len = sizeof addr;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  ~RawListener() { ::close(fd_); }
  RawListener(const RawListener&) = delete;
  RawListener& operator=(const RawListener&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// The node's next dial, accepted; -1 if none arrives in time.
  int accept_fd(int timeout_ms = 5000) {
    pollfd p{fd_, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return -1;
    return ::accept(fd_, nullptr, nullptr);
  }

 private:
  int fd_{-1};
  std::uint16_t port_{0};
};

/// Records per-(sender, seq) delivery counts so tests can assert both "no
/// message lost" and "no message duplicated" across connection churn.
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

// --- satellite 1: send() before the peer listens must retry, not crash ---

TEST(TcpFaults, SendBeforePeerListensRetriesThenDelivers) {
  const std::uint16_t port0 = reserve_port();
  TcpNode a(NodeId{1}, 0, fast_cfg());
  a.set_peers({{NodeId{0}, PeerAddress{"127.0.0.1", port0}}});
  std::thread ta([&] { a.loop().run(); });

  // Nobody listens on port0 yet: the old transport crashed the loop thread
  // here (blocking connect() -> uncaught std::system_error).
  a.send(NodeId{0}, sample_message(1));
  ASSERT_TRUE(
      spin_until([&] { return a.stats().connect_failures >= 2; }, 3000))
      << "dial should be refused and retried with backoff";

  // The late starter comes up; the parked send must arrive on its own.
  TcpNode b(NodeId{0}, port0, fast_cfg());
  DeliveryLog log;
  b.set_handler(log.handler());
  b.set_peers({{NodeId{1}, PeerAddress{"127.0.0.1", a.listen_port()}}});
  std::thread tb([&] { b.loop().run(); });

  EXPECT_TRUE(spin_until([&] { return log.size() == 1; }))
      << "parked send was not delivered after the peer came up";
  EXPECT_GE(a.stats().dials, 2u);
  EXPECT_EQ(a.stats().decode_errors, 0u);

  a.loop().stop();
  b.loop().stop();
  ta.join();
  tb.join();
}

// --- garbage bytes are contained to the offending connection ---

TEST(TcpFaults, GarbageBytesOnListenSocketAreContained) {
  TcpNode n(NodeId{0}, 0, fast_cfg());
  std::thread t([&] { n.loop().run(); });

  RawClient garbage(n.listen_port());
  garbage.send_bytes(std::vector<std::uint8_t>(64, 0xFF));
  ASSERT_TRUE(spin_until([&] { return n.stats().decode_errors >= 1; }))
      << "garbage must surface as a decode error, not a crash";
  EXPECT_TRUE(garbage.closed_by_peer())
      << "the offending connection must be dropped";

  // The node still accepts and serves a well-behaved peer.
  RawClient good(n.listen_port());
  good.send_bytes(hello_frame(NodeId{7}, /*epoch=*/1));
  good.send_bytes(frame(sample_message(42), 1));
  EXPECT_TRUE(spin_until([&] { return n.delivered() == 1; }));
  EXPECT_EQ(n.connected_peers(), 1u);

  n.loop().stop();
  t.join();
}

// --- satellite 4 tie-in: decoder failure closes the conn, peer recovers --

TEST(TcpFaults, MalformedFrameAfterHelloClosesConnAndPeerRecovers) {
  TcpNode n(NodeId{0}, 0, fast_cfg());
  std::thread t([&] { n.loop().run(); });

  {
    RawClient peer(n.listen_port());
    peer.send_bytes(hello_frame(NodeId{5}, /*epoch=*/1));
    ASSERT_TRUE(spin_until([&] { return n.connected_peers() == 1; }));
    peer.send_bytes(std::vector<std::uint8_t>(8, 0xFF));
    ASSERT_TRUE(spin_until([&] { return n.stats().decode_errors >= 1; }));
    ASSERT_TRUE(spin_until([&] { return n.connected_peers() == 0; }));
  }

  // Same peer id reconnects: the peer count must recover.
  RawClient again(n.listen_port());
  again.send_bytes(hello_frame(NodeId{5}, /*epoch=*/1));
  again.send_bytes(frame(sample_message(3), 1));
  EXPECT_TRUE(spin_until([&] { return n.connected_peers() == 1; }));
  EXPECT_TRUE(spin_until([&] { return n.delivered() == 1; }));
  EXPECT_GE(n.stats().reconnects, 1u);

  n.loop().stop();
  t.join();
}

// --- a mid-frame RST must not kill the node or deliver a partial frame --

TEST(TcpFaults, MidFrameResetIsContained) {
  TcpNode n(NodeId{0}, 0, fast_cfg());
  std::thread t([&] { n.loop().run(); });

  RawClient peer(n.listen_port());
  peer.send_bytes(hello_frame(NodeId{9}, /*epoch=*/1));
  ASSERT_TRUE(spin_until([&] { return n.connected_peers() == 1; }));
  const auto full = frame(sample_message(5), 1);
  peer.send_prefix(full, full.size() / 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  peer.reset();

  EXPECT_TRUE(spin_until([&] { return n.connected_peers() == 0; }));
  EXPECT_EQ(n.delivered(), 0u) << "a partial frame must never be delivered";

  // Node is still alive and serving.
  RawClient good(n.listen_port());
  good.send_bytes(hello_frame(NodeId{9}, /*epoch=*/1));
  good.send_bytes(frame(sample_message(6), 1));
  EXPECT_TRUE(spin_until([&] { return n.delivered() == 1; }));

  n.loop().stop();
  t.join();
}

// --- satellite 3: shutdown(SHUT_WR) must lead to close_conn, always -----

TEST(TcpFaults, ShutdownWrIsReapedNotLeaked) {
  TcpNode n(NodeId{0}, 0, fast_cfg());
  std::thread t([&] { n.loop().run(); });

  RawClient peer(n.listen_port());
  peer.send_bytes(hello_frame(NodeId{4}, /*epoch=*/1));
  ASSERT_TRUE(spin_until([&] { return n.connected_peers() == 1; }));
  peer.shutdown_write();

  // The node must observe the FIN and close rather than keeping a dead
  // watch forever (the old POLLHUP/EAGAIN path could leak the conn).
  EXPECT_TRUE(spin_until([&] { return n.connected_peers() == 0; }));
  EXPECT_TRUE(peer.closed_by_peer()) << "node should FIN back";

  n.loop().stop();
  t.join();
}

// --- one recv per readable event: bursts and send-then-close ------------

/// A hello plus `count` data frames numbered 1..count, as one byte stream.
std::vector<std::uint8_t> hello_and_frames(NodeId from, std::uint32_t count) {
  std::vector<std::uint8_t> bytes = hello_frame(from, /*epoch=*/1);
  for (std::uint32_t i = 1; i <= count; ++i) {
    const auto f = frame(sample_message(i), i);
    bytes.insert(bytes.end(), f.begin(), f.end());
  }
  return bytes;
}

TEST(TcpFaults, BurstLargerThanOneRecvIsFullyDelivered) {
  // Several 64 KiB recv buffers' worth in one write: the node stops after
  // a short read and must pick up the rest on later readiness events.
  constexpr std::uint32_t kFrames = 6000;
  const auto bytes = hello_and_frames(NodeId{6}, kFrames);
  ASSERT_GT(bytes.size(), 3u * 65536u);
  DeliveryLog log;
  TcpNode n(NodeId{0}, 0, fast_cfg());
  n.set_handler(log.handler());
  std::thread t([&] { n.loop().run(); });

  RawClient peer(n.listen_port());
  peer.send_bytes(bytes);
  EXPECT_TRUE(spin_until([&] { return log.size() == kFrames; }))
      << "delivered " << log.size() << " of " << kFrames;
  EXPECT_TRUE(log.exactly_once(kFrames));
  EXPECT_EQ(n.stats().decode_errors, 0u);

  n.loop().stop();
  t.join();
}

TEST(TcpFaults, PeerThatSendsThenClosesIsFullyDelivered) {
  // Data and FIN arrive together: every frame is still delivered before
  // the connection is closed, whether it fits one recv or needs several.
  for (const std::uint32_t frames : {3u, 3000u}) {
    DeliveryLog log;
    TcpNode n(NodeId{0}, 0, fast_cfg());
    n.set_handler(log.handler());
    std::thread t([&] { n.loop().run(); });

    RawClient peer(n.listen_port());
    peer.send_bytes(hello_and_frames(NodeId{8}, frames));
    peer.shutdown_write();
    EXPECT_TRUE(spin_until([&] { return log.size() == frames; }))
        << "delivered " << log.size() << " of " << frames;
    EXPECT_TRUE(log.exactly_once(frames));
    EXPECT_TRUE(spin_until([&] { return n.connected_peers() == 0; }))
        << "the FIN must still close the connection";

    n.loop().stop();
    t.join();
  }
}

// --- half-open peers (silent, no FIN) are detected by the idle timeout --

TEST(TcpFaults, HalfOpenPeerIsReapedByIdleTimeout) {
  TcpNode n(NodeId{0}, 0, fast_cfg());
  std::thread t([&] { n.loop().run(); });

  RawClient silent(n.listen_port());
  silent.send_bytes(hello_frame(NodeId{3}, /*epoch=*/1));
  ASSERT_TRUE(spin_until([&] { return n.connected_peers() == 1; }));
  // The client never answers pings; last_recv stalls past idle_timeout.
  EXPECT_TRUE(spin_until([&] { return n.stats().idle_closes >= 1; }, 3000));
  EXPECT_EQ(n.connected_peers(), 0u);
  EXPECT_GE(n.stats().heartbeats_sent, 1u);

  n.loop().stop();
  t.join();
}

// --- satellite 2: a real lock with the old reserved hello id flows ------

TEST(TcpFaults, LockIdThatMatchedLegacyHelloSentinelIsDelivered) {
  DeliveryLog log;  // outlives the cluster's loop threads
  InProcessCluster cluster(2, fast_cfg());
  cluster.node(1).set_handler(log.handler());
  // 0xFFFFFFFE was the reserved hello lock id when the handshake rode on
  // MsgKind::kRequest; with control-frame hellos it is just another lock.
  cluster.node(0).send(NodeId{1}, sample_message(0xFFFFFFFE));
  ASSERT_TRUE(spin_until([&] { return log.size() == 1; }));
  {
    const std::lock_guard<std::mutex> g(log.mu);
    EXPECT_EQ(log.counts.count(0xFFFFFFFE), 1u)
        << "message swallowed as a handshake";
  }
  cluster.stop();
}

// --- connection churn under load: nothing lost, nothing duplicated ------

TEST(TcpFaults, KilledConnectionsRequeueUnsentFramesExactlyOnce) {
  // The log outlives the cluster: a failed ASSERT returns early, and the
  // loop threads may still deliver until the cluster's destructor joins.
  DeliveryLog log;
  InProcessCluster cluster(2, fast_cfg());
  cluster.node(0).set_handler(log.handler());

  // Stall the receiver's loop so the sender's outbox backs up and the
  // kills below land while frames are queued (and likely mid-frame).
  cluster.node(0).loop().post(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(500)); });

  // ~380 KB per frame: far more than the kernel will buffer with a stalled
  // receiver, so the first kill is guaranteed to catch queued frames.
  constexpr std::uint32_t kCount = 60;
  Message big = sample_message(0);
  big.queue.resize(20000);
  std::uint32_t sent = 0;
  for (std::uint64_t batch = 0; batch < 3; ++batch) {
    for (std::uint32_t i = 0; i < kCount / 3; ++i) {
      big.lock = LockId{sent++};
      cluster.node(1).send(NodeId{0}, big);
    }
    // Kills only bite once the connection is up; wait for (re)establishment
    // before each one so none degenerates into a no-op.
    ASSERT_TRUE(spin_until(
        [&] { return cluster.node(1).stats().connects >= batch + 1; }))
        << "connection " << batch + 1 << " never established";
    cluster.node(1).close_peer_connection(NodeId{0});
  }
  // Mid-delivery churn: once frames start landing, kill whatever
  // connection is carrying them and let the window re-transmit.
  ASSERT_TRUE(spin_until([&] { return log.size() >= kCount / 3; }, 10000));
  cluster.node(1).close_peer_connection(NodeId{0});

  EXPECT_TRUE(spin_until([&] { return log.size() >= kCount; }, 10000))
      << "lost sends: got " << log.size() << " of " << kCount;
  EXPECT_TRUE(log.exactly_once(kCount))
      << "sends were lost or duplicated across reconnects";

  // The kills above may all land on connections the stalled receiver never
  // completed a handshake on, which reconnects (hello-gated) does not
  // count. Wait for the acks to drain — acks follow the hello on the same
  // stream, so unacked()==0 proves the live connection greeted — then kill
  // that one: its successor must re-greet, and that is a reconnect.
  ASSERT_TRUE(spin_until([&] { return cluster.node(1).unacked() == 0; }))
      << "acks never drained after full delivery";
  cluster.node(1).close_peer_connection(NodeId{0});
  EXPECT_TRUE(spin_until(
      [&] { return cluster.node(1).stats().reconnects >= 1; }, 10000))
      << "killed greeted connection never re-established";
  const TcpStats s = cluster.node(1).stats();
  EXPECT_GE(s.requeued_frames, 1u)
      << "kills should have caught frames in the outbox";
  cluster.stop();
}

// --- the acceptance scenario: 4-node mesh, late starter, garbage, kills --

TEST(TcpFaults, FourNodeMeshSurvivesLateStartGarbageAndResets) {
  const TcpConfig cfg = fast_cfg();
  constexpr std::uint32_t kNodes = 4;
  constexpr std::uint32_t kPerPair = 50;
  const std::uint16_t late_port = reserve_port();  // node 0 starts late

  std::map<NodeId, PeerAddress> book;
  std::vector<std::unique_ptr<TcpNode>> nodes(kNodes);
  std::vector<std::thread> threads;
  std::vector<DeliveryLog> logs(kNodes);

  for (std::uint32_t i = 1; i < kNodes; ++i) {
    nodes[i] = std::make_unique<TcpNode>(NodeId{i}, 0, cfg);
    book[NodeId{i}] = PeerAddress{"127.0.0.1", nodes[i]->listen_port()};
  }
  book[NodeId{0}] = PeerAddress{"127.0.0.1", late_port};
  for (std::uint32_t i = 1; i < kNodes; ++i) {
    auto peers = book;
    peers.erase(NodeId{i});
    nodes[i]->set_handler(logs[i].handler());
    nodes[i]->set_peers(peers);
    threads.emplace_back([n = nodes[i].get()] { n->loop().run(); });
  }

  // Early nodes start their workload immediately; sends to node 0 are
  // refused at dial time and must park + retry.
  auto send_burst = [&](std::uint32_t from) {
    for (std::uint32_t to = 0; to < kNodes; ++to) {
      if (to == from) continue;
      for (std::uint32_t seq = 0; seq < kPerPair; ++seq) {
        nodes[from]->send(NodeId{to},
                          sample_message(from * 100000 + to * 1000 + seq));
      }
    }
  };
  for (std::uint32_t i = 1; i < kNodes; ++i) send_burst(i);

  // One peer sends 64 garbage bytes at node 1 mid-run.
  RawClient garbage(nodes[1]->listen_port());
  garbage.send_bytes(std::vector<std::uint8_t>(64, 0xFF));

  // Kill two live connections mid-traffic; the transport must salvage any
  // queued frames and reconnect. Wait for the early mesh to form so the
  // kills hit established connections.
  ASSERT_TRUE(spin_until([&] {
    return nodes[2]->connected_peers() >= 2 && nodes[3]->connected_peers() >= 2;
  }));
  nodes[3]->close_peer_connection(NodeId{2});
  nodes[2]->close_peer_connection(NodeId{1});

  // The late starter appears ~2s of simulated tardiness compressed to
  // 300ms (the backoff schedule is scaled down by fast_cfg the same way).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_GE(nodes[1]->stats().connect_failures +
                nodes[2]->stats().connect_failures +
                nodes[3]->stats().connect_failures,
            1u)
      << "dials at the late starter should have been refused";
  nodes[0] = std::make_unique<TcpNode>(NodeId{0}, late_port, cfg);
  {
    auto peers = book;
    peers.erase(NodeId{0});
    nodes[0]->set_handler(logs[0].handler());
    nodes[0]->set_peers(peers);
  }
  threads.emplace_back([n = nodes[0].get()] { n->loop().run(); });
  send_burst(0);

  const std::size_t expected = (kNodes - 1) * kPerPair;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    EXPECT_TRUE(spin_until([&] { return logs[i].size() >= expected; }, 15000))
        << "node " << i << " got " << logs[i].size() << " of " << expected;
    EXPECT_TRUE(logs[i].exactly_once(expected))
        << "node " << i << ": sends lost or duplicated";
  }
  EXPECT_GE(nodes[1]->stats().decode_errors, 1u);
  std::uint64_t reconnects = 0;
  for (const auto& n : nodes) reconnects += n->stats().reconnects;
  EXPECT_GE(reconnects, 1u);

  for (auto& n : nodes) n->loop().stop();
  for (auto& t : threads) t.join();
}

// --- stale piggybacked acks ---------------------------------------------

// A data frame is queued with a piggybacked ack, and the connection dies
// before the frame is written. The peer then restarts with a new epoch and
// a fresh window. Nothing the node sends on the next connection before the
// new hello — the frame's resend, or a new send — may carry the old
// incarnation's ack: it would trim the new incarnation's window.
TEST(TcpFaults, ResendAfterPeerRestartCarriesNoStaleAck) {
  TcpConfig cfg = fast_cfg();
  cfg.heartbeat_interval = 0;  // the hand-driven peer never pings back
  cfg.idle_timeout = 0;
  cfg.ack_piggyback_window = sec(30);  // an owed ack waits for a data frame
  RawListener peer;  // plays node 0; node 1 dials it
  DeliveryLog log;
  TcpNode node(NodeId{1}, 0, cfg);
  node.set_handler(log.handler());
  node.set_peers({{NodeId{0}, {"127.0.0.1", peer.port()}}});
  std::thread loop([&] { node.loop().run(); });

  // The next data frame from the node: its sequence number, payload tag
  // and piggybacked ack.
  struct Data {
    std::uint64_t seq{0}, ack{0};
    std::uint32_t lock{0};
  };
  const auto next_data = [](RawClient& c) {
    DecodedFrame f;
    Data d;
    while (c.next_frame(f)) {
      if (f.control) continue;  // the node's hello
      d = {f.seq, f.ack_seq, f.msg.lock.value};
      break;
    }
    return d;
  };

  {
    // The first incarnation delivers seqs 1-3; their ack is owed.
    RawClient old_peer(RawClient::Adopt{}, peer.accept_fd());
    old_peer.send_bytes(hello_frame(NodeId{0}, /*epoch=*/111));
    for (std::uint32_t seq = 1; seq <= 3; ++seq)
      old_peer.send_bytes(frame(sample_message(seq), seq));
    ASSERT_TRUE(spin_until([&] { return node.delivered() == 3; }));
    // One loop task: the send queues its frame with ack 3 stamped in, and
    // the connection dies before the deferred flush can write it.
    node.loop().post([&] {
      node.send(NodeId{0}, sample_message(100));
      node.close_peer_connection(NodeId{0});
    });
    EXPECT_TRUE(old_peer.closed_by_peer());
  }
  {
    // The node re-dials the restarted peer and resends its window at
    // once, before the peer's hello can say it restarted.
    RawClient new_peer(RawClient::Adopt{}, peer.accept_fd());
    const Data resent = next_data(new_peer);
    EXPECT_EQ(resent.seq, 1u);
    EXPECT_EQ(resent.lock, 100u);
    EXPECT_EQ(resent.ack, 0u) << "the resend carried a stale ack";

    // The new incarnation's hello resets dedup: its seq 1 is delivered and
    // owed an ack. Then it drops the connection and restarts again.
    new_peer.send_bytes(hello_frame(NodeId{0}, /*epoch=*/222));
    new_peer.send_bytes(frame(sample_message(200), 1));
    EXPECT_TRUE(spin_until([&] { return node.delivered() == 4; }));
    EXPECT_EQ(node.stats().peer_restarts, 1u);
  }
  // A new send queued on the next connection before its hello.
  RawClient third(RawClient::Adopt{}, peer.accept_fd());
  EXPECT_EQ(next_data(third).ack, 0u);  // the resent window
  node.send(NodeId{0}, sample_message(101));
  const Data fresh = next_data(third);
  EXPECT_EQ(fresh.seq, 2u);
  EXPECT_EQ(fresh.lock, 101u);
  EXPECT_EQ(fresh.ack, 0u) << "a new send carried a stale ack";

  node.loop().stop();
  loop.join();
}

// --- pass-end flush ------------------------------------------------------

// Node 1's handler answers a trigger with K frames to node 0 and arms a
// zero-delay continuation that sends one more. The continuation runs in
// the same loop pass, and the pass ends with one flush of the dirty
// connection: one write carries all K + 1 frames (the first also carries
// the trigger's ack, so no standalone ack joins them).
TEST(TcpFaults, OnePassWritesEachDirtyConnectionOnce) {
  constexpr std::uint32_t kFrames = 5;
  TcpConfig cfg = fast_cfg();
  cfg.heartbeat_interval = 0;
  cfg.idle_timeout = 0;
  cfg.ack_piggyback_window = msec(1);
  std::atomic<std::uint32_t> got{0};  // outlives the loop threads
  InProcessCluster cluster(2, cfg);
  TcpNode& n0 = cluster.node(0);
  TcpNode& n1 = cluster.node(1);
  n0.set_handler([&](const Message&) { got.fetch_add(1); });
  n1.set_handler([&](const Message& m) {
    if (m.lock.value != 1) return;  // the warm-up
    for (std::uint32_t i = 0; i < kFrames; ++i)
      n1.send(NodeId{0}, sample_message(100 + i));
    n1.loop().schedule(0, [&] { n1.send(NodeId{0}, sample_message(200)); });
  });
  // Warm up until both links are quiet: the handshake is done and the
  // warm-up's ack has come back.
  n0.send(NodeId{1}, sample_message(0));
  ASSERT_TRUE(spin_until(
      [&] { return n1.delivered() == 1 && n0.unacked() == 0; }));
  const TcpStats before = n1.stats();

  n0.send(NodeId{1}, sample_message(1));
  ASSERT_TRUE(spin_until([&] {
    return got.load() == kFrames + 1 &&
           n1.stats().frames_out == before.frames_out + kFrames + 1;
  }));
  const TcpStats after = n1.stats();
  EXPECT_EQ(after.batches_written, before.batches_written + 1);
  EXPECT_EQ(after.frames_out, before.frames_out + kFrames + 1);
  EXPECT_EQ(after.acks_standalone, before.acks_standalone);
  cluster.stop();
}

// A send and a close of the same connection in one callback: the send
// leaves the connection on the pass's dirty list, and the close destroys
// it. The pass-end flush must skip the stale entry (nothing is written),
// and the frame must reach the peer exactly once over the next
// connection.
TEST(TcpFaults, SendThenCloseInOneCallbackResendsOnNextConnectionOnly) {
  TcpConfig cfg = fast_cfg();
  cfg.heartbeat_interval = 0;
  cfg.idle_timeout = 0;
  cfg.reconnect_min = msec(200);  // the re-dial waits until after the check
  cfg.reconnect_max = msec(400);
  DeliveryLog log;  // outlives the loop threads
  InProcessCluster cluster(2, cfg);
  cluster.node(0).set_handler(log.handler());
  TcpNode& n1 = cluster.node(1);  // the dialing side
  n1.send(NodeId{0}, sample_message(1));
  ASSERT_TRUE(spin_until([&] { return log.size() == 1 && n1.unacked() == 0; }));
  const TcpStats before = n1.stats();

  std::promise<TcpStats> later;
  n1.loop().post([&] {
    n1.send(NodeId{0}, sample_message(2));
    n1.close_peer_connection(NodeId{0});
    // A later pass, well before the re-dial timer.
    n1.loop().schedule(msec(20), [&] { later.set_value(n1.stats()); });
  });
  const TcpStats mid = later.get_future().get();
  EXPECT_EQ(mid.frames_out, before.frames_out);
  EXPECT_EQ(mid.bytes_out, before.bytes_out);
  EXPECT_EQ(mid.batches_written, before.batches_written);

  EXPECT_TRUE(spin_until([&] { return log.size() == 2 && n1.unacked() == 0; }));
  EXPECT_TRUE(log.exactly_once(2));
  EXPECT_EQ(n1.stats().requeued_frames, 1u);
  cluster.stop();
}

// --- send-window backpressure -------------------------------------------

TEST(TcpFaults, SendWindowCapRejectsThenDrainsOverLiveSocket) {
  TcpConfig cfg = fast_cfg();
  cfg.send_window_limit = 2;
  const std::uint16_t peer_port = reserve_port();

  TcpNode sender(NodeId{1}, 0, cfg);  // id 1 dials id 0
  std::thread sender_loop([&] { sender.loop().run(); });
  sender.set_peers({{NodeId{0}, {"127.0.0.1", peer_port}}});

  // The peer is down: nothing can be acked, so the third send must hit
  // the cap and be rejected without joining the window.
  EXPECT_TRUE(sender.send(NodeId{0}, sample_message(1)));
  EXPECT_TRUE(sender.send(NodeId{0}, sample_message(2)));
  EXPECT_FALSE(sender.send(NodeId{0}, sample_message(3)));
  EXPECT_FALSE(sender.send(NodeId{0}, sample_message(4)));
  EXPECT_EQ(sender.stats().sends_rejected, 2u);
  EXPECT_TRUE(spin_until([&] { return sender.unacked() == 2; }));

  // Bring the peer up on the reserved port: the backoff re-dial connects,
  // the two accepted frames deliver exactly once, their acks drain the
  // window, and send() admits traffic again.
  std::mutex mu;
  std::vector<std::uint32_t> got;
  TcpNode receiver(NodeId{0}, peer_port, fast_cfg());
  receiver.set_handler([&](const Message& m) {
    std::lock_guard<std::mutex> lk(mu);
    got.push_back(m.lock.value);
  });
  std::thread receiver_loop([&] { receiver.loop().run(); });

  EXPECT_TRUE(spin_until([&] { return sender.unacked() == 0; }, 10000));
  EXPECT_TRUE(sender.send(NodeId{0}, sample_message(5)));
  EXPECT_TRUE(spin_until([&] {
    std::lock_guard<std::mutex> lk(mu);
    return got.size() == 3;
  }));
  {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(got, (std::vector<std::uint32_t>{1, 2, 5}))
        << "rejected sends must not surface; accepted ones exactly once";
  }

  sender.loop().stop();
  receiver.loop().stop();
  sender_loop.join();
  receiver_loop.join();
}

TEST(TcpFaults, SendWindowUnlimitedByDefault) {
  TcpNode node(NodeId{1}, 0, fast_cfg());
  std::thread loop([&] { node.loop().run(); });
  node.set_peers({{NodeId{0}, {"127.0.0.1", reserve_port()}}});
  for (std::uint32_t i = 0; i < 64; ++i)
    EXPECT_TRUE(node.send(NodeId{0}, sample_message(i)));
  EXPECT_EQ(node.stats().sends_rejected, 0u);
  node.loop().stop();
  loop.join();
}

// --- stats plumbing -----------------------------------------------------

TEST(TcpFaults, StatsLineMentionsEveryCounter) {
  TcpStats s;
  s.dials = 3;
  s.requeued_frames = 7;
  const std::string line = to_string(s);
  for (const char* key :
       {"dials=", "connect_failures=", "connects=", "accepts=", "reconnects=",
        "frames_out=", "frames_in=", "bytes_out=", "bytes_in=",
        "decode_errors=", "requeued_frames=", "heartbeats_sent=",
        "idle_closes=", "sends_rejected=", "outbox_hw=", "pending_hw="}) {
    EXPECT_NE(line.find(key), std::string::npos) << key;
  }
  EXPECT_NE(line.find("dials=3"), std::string::npos);
  EXPECT_NE(line.find("requeued_frames=7"), std::string::npos);
}

}  // namespace
}  // namespace hlock::net
