// Live crash-recovery tests over real TCP sockets: the transport failure
// detector (TcpConfig::suspect_timeout), the two-phase view-change
// protocol (net::ViewService), transport hygiene on commit (forget_peer),
// and the end-to-end path — a killed token holder, a committed view, and
// a token regenerated at the new root with zero lost committed work.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "corba/concurrency.hpp"
#include "net/tcp_node.hpp"
#include "net/view_service.hpp"

namespace hlock::net {
namespace {

TcpConfig detect_cfg() {
  TcpConfig c;
  c.reconnect_min = msec(5);
  c.reconnect_max = msec(50);
  c.heartbeat_interval = msec(20);
  c.idle_timeout = msec(10000);  // suspicion, not idle-close, drives tests
  c.suspect_timeout = msec(150);
  return c;
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

Message sample_message(std::uint32_t lock) {
  Message m;
  m.kind = MsgKind::kRequest;
  m.lock = LockId{lock};
  m.req.requester = NodeId{7};
  m.req.mode = Mode::kIW;
  m.req.stamp = LamportStamp{42, NodeId{7}};
  return m;
}

/// A small live mesh where individual nodes can be killed mid-test (the
/// unique_ptr slots make destruction order explicit, unlike
/// InProcessCluster which only supports whole-cluster teardown).
struct Mesh {
  explicit Mesh(std::uint32_t n, TcpConfig cfg = detect_cfg()) {
    nodes.resize(n);
    threads.resize(n);
    std::map<NodeId, PeerAddress> book;
    for (std::uint32_t i = 0; i < n; ++i) {
      nodes[i] = std::make_unique<TcpNode>(NodeId{i}, 0, cfg);
      book[NodeId{i}] = PeerAddress{"127.0.0.1", nodes[i]->listen_port()};
      members.insert(NodeId{i});
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      auto peers = book;
      peers.erase(NodeId{i});
      nodes[i]->set_peers(peers);
      threads[i] = std::thread([n = nodes[i].get()] { n->loop().run(); });
    }
  }

  ~Mesh() {
    for (std::uint32_t i = 0; i < nodes.size(); ++i) kill(i);
  }

  /// Abrupt death: stop the loop and tear the node down. No FIN handshake
  /// matters here — survivors detect the ensuing silence.
  void kill(std::uint32_t i) {
    if (!nodes[i]) return;
    nodes[i]->loop().stop();
    if (threads[i].joinable()) threads[i].join();
    views_of[i].reset();   // loop stopped: detaches without posting
    nodes[i].reset();
  }

  /// Attach a ViewService to node i and record every committed view.
  ViewService& watch(std::uint32_t i, ViewConfig cfg = {msec(20)}) {
    views_of[i] = std::make_unique<ViewService>(*nodes[i], members, cfg);
    views_of[i]->set_on_view([this, i](std::uint32_t view, NodeId root,
                                       const std::set<NodeId>& survivors) {
      const std::lock_guard<std::mutex> g(mu);
      log[i].push_back({view, root, survivors});
    });
    views_of[i]->start();
    return *views_of[i];
  }

  struct Commit {
    std::uint32_t view;
    NodeId root;
    std::set<NodeId> survivors;
  };
  std::vector<Commit> commits(std::uint32_t i) {
    const std::lock_guard<std::mutex> g(mu);
    return log[i];
  }

  std::vector<std::unique_ptr<TcpNode>> nodes;
  std::vector<std::thread> threads;
  std::map<std::uint32_t, std::unique_ptr<ViewService>> views_of;
  std::set<NodeId> members;
  std::mutex mu;
  std::map<std::uint32_t, std::vector<Commit>> log;
};

// --- failure detector ----------------------------------------------------

TEST(FailureDetector, SilentPeerIsSuspectedThenClearedOnReturn) {
  TcpConfig cfg = detect_cfg();
  const std::uint16_t dead_port = [] {
    TcpNode probe(NodeId{9}, 0, TcpConfig{});
    return probe.listen_port();  // freed on destruction; nobody rebinds
  }();

  TcpNode a(NodeId{0}, 0, cfg);
  std::mutex mu;
  std::vector<std::pair<NodeId, bool>> events;
  a.set_on_peer_suspected([&](NodeId peer, bool suspected) {
    const std::lock_guard<std::mutex> g(mu);
    events.emplace_back(peer, suspected);
  });
  a.set_peers({{NodeId{1}, PeerAddress{"127.0.0.1", dead_port}}});
  std::thread ta([&] { a.loop().run(); });

  // Nothing listens at the peer: never heard from -> suspected once.
  ASSERT_TRUE(spin_until([&] { return a.stats().peers_suspected == 1; }));
  EXPECT_EQ(a.suspected_peers(), 1u);
  {
    const std::lock_guard<std::mutex> g(mu);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0], (std::pair<NodeId, bool>{NodeId{1}, true}));
  }

  // The peer comes back on the advertised port: traffic resumes and the
  // suspicion clears (eventually-perfect, not fail-stop).
  TcpNode b(NodeId{1}, dead_port, cfg);
  b.set_peers({{NodeId{0}, PeerAddress{"127.0.0.1", a.listen_port()}}});
  std::thread tb([&] { b.loop().run(); });

  ASSERT_TRUE(spin_until([&] { return a.stats().suspicions_cleared == 1; }));
  EXPECT_EQ(a.suspected_peers(), 0u);
  {
    const std::lock_guard<std::mutex> g(mu);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1], (std::pair<NodeId, bool>{NodeId{1}, false}));
  }

  a.loop().stop();
  b.loop().stop();
  ta.join();
  tb.join();
}

TEST(FailureDetector, DisabledByDefault) {
  TcpConfig cfg = detect_cfg();
  cfg.suspect_timeout = msec(0);
  TcpNode a(NodeId{0}, 0, cfg);
  std::atomic<int> fired{0};
  a.set_on_peer_suspected([&](NodeId, bool) { fired.fetch_add(1); });
  a.set_peers({{NodeId{1}, PeerAddress{"127.0.0.1", 1}}});  // nothing there
  std::thread ta([&] { a.loop().run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(fired.load(), 0);
  EXPECT_EQ(a.stats().peers_suspected, 0u);
  a.loop().stop();
  ta.join();
}

// --- transport hygiene ---------------------------------------------------

TEST(FailureDetector, ForgetPeerDropsWindowAndStopsDialing) {
  TcpNode a(NodeId{0}, 0, detect_cfg());
  a.set_peers({{NodeId{1}, PeerAddress{"127.0.0.1", 1}}});  // refused
  std::thread ta([&] { a.loop().run(); });

  a.send(NodeId{1}, sample_message(1));
  a.send(NodeId{1}, sample_message(2));
  ASSERT_TRUE(spin_until([&] { return a.unacked() == 2; }));

  // Forgetting the dead peer drains its send window — the exact guarantee
  // a survivor needs to report unacked()==0 after recovery.
  a.forget_peer(NodeId{1});
  ASSERT_TRUE(spin_until([&] { return a.unacked() == 0; }));

  // Re-dials stop too: the failure counter plateaus.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::uint64_t failures = a.stats().connect_failures;
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(a.stats().connect_failures, failures);

  a.loop().stop();
  ta.join();
}

TEST(FailureDetector, LoopThreadForgetThenSendKeepsProgramOrder) {
  // On the loop thread both calls run at once; from elsewhere they are
  // posted in order. Either way the forget erases the old window and the
  // send opens a fresh one: one frame stays unacked, the new one.
  TcpNode a(NodeId{0}, 0, detect_cfg());
  a.set_peers({{NodeId{1}, PeerAddress{"127.0.0.1", 1}}});  // refused
  std::thread ta([&] { a.loop().run(); });
  a.send(NodeId{1}, sample_message(1));
  a.send(NodeId{1}, sample_message(2));
  ASSERT_TRUE(spin_until([&] { return a.unacked() == 2; }));

  std::atomic<bool> done{false};
  std::size_t after_forget = 99;
  a.loop().post([&] {
    a.forget_peer(NodeId{1});
    after_forget = a.unacked();
    a.send(NodeId{1}, sample_message(3));
    done = true;
  });
  ASSERT_TRUE(spin_until([&] { return done.load(); }));
  EXPECT_EQ(after_forget, 0u);
  EXPECT_EQ(a.unacked(), 1u);

  a.loop().stop();
  ta.join();
}

TEST(FailureDetector, PeerDroppedFromBookIsNotSuspected) {
  TcpNode a(NodeId{0}, 0, detect_cfg());
  std::mutex mu;
  std::vector<std::chrono::steady_clock::time_point> suspicions;
  a.set_on_peer_suspected([&](NodeId, bool suspected) {
    const std::lock_guard<std::mutex> g(mu);
    if (suspected) suspicions.push_back(std::chrono::steady_clock::now());
  });
  const std::map<NodeId, PeerAddress> book{
      {NodeId{1}, PeerAddress{"127.0.0.1", 1}}};  // nothing there
  a.set_peers(book);
  a.set_peers({});
  std::thread ta([&] { a.loop().run(); });

  // Dropped from the book: no longer monitored, so its silence is not news.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_EQ(a.stats().peers_suspected, 0u);
  EXPECT_EQ(a.suspected_peers(), 0u);
  {
    const std::lock_guard<std::mutex> g(mu);
    EXPECT_TRUE(suspicions.empty()) << "fired=" << suspicions.size();
  }

  // Back in the book: a full suspect_timeout of grace from re-entry, then
  // the usual suspicion.
  const auto readded = std::chrono::steady_clock::now();
  a.set_peers(book);
  ASSERT_TRUE(spin_until([&] { return a.suspected_peers() == 1; }));
  {
    const std::lock_guard<std::mutex> g(mu);
    ASSERT_EQ(suspicions.size(), 1u);
    EXPECT_GE(suspicions[0] - readded, std::chrono::milliseconds(140));
  }

  a.loop().stop();
  ta.join();
}

TEST(FailureDetector, ForgottenPeerRejoinsAsFreshIncarnation) {
  TcpNode a(NodeId{0}, 0, detect_cfg());
  std::mutex mu;
  std::map<std::uint32_t, int> got;
  a.set_handler([&](const Message& m) {
    const std::lock_guard<std::mutex> g(mu);
    ++got[m.lock.value];
  });
  std::thread ta([&] { a.loop().run(); });
  const std::map<NodeId, PeerAddress> book{
      {NodeId{0}, PeerAddress{"127.0.0.1", a.listen_port()}}};

  {
    TcpNode old_b(NodeId{1}, 0, detect_cfg());
    old_b.set_peers(book);
    std::thread tb([&] { old_b.loop().run(); });
    for (std::uint32_t i = 0; i < 3; ++i)
      old_b.send(NodeId{0}, sample_message(i));
    ASSERT_TRUE(spin_until([&] {
      return a.delivered() == 3 && old_b.unacked() == 0;
    }));
    old_b.loop().stop();
    tb.join();
  }
  a.forget_peer(NodeId{1});
  // Posted tasks run in order: once this one has run, so has forget_peer.
  std::atomic<bool> forgotten{false};
  a.loop().post([&] { forgotten = true; });
  ASSERT_TRUE(spin_until([&] { return forgotten.load(); }));

  // A fresh incarnation of node 1 numbers its frames from 1 again. With
  // the old record erased they are new, not duplicates, and its first
  // connection is not a reconnect.
  TcpNode new_b(NodeId{1}, 0, detect_cfg());
  std::atomic<int> new_b_got{0};
  new_b.set_handler([&](const Message&) { new_b_got.fetch_add(1); });
  new_b.set_peers(book);
  std::thread tb([&] { new_b.loop().run(); });
  for (std::uint32_t i = 100; i < 105; ++i)
    new_b.send(NodeId{0}, sample_message(i));
  EXPECT_TRUE(spin_until([&] { return a.delivered() == 8; }))
      << "delivered " << a.delivered() << " of 8";
  EXPECT_TRUE(spin_until([&] { return new_b.unacked() == 0; }));
  a.send(NodeId{1}, sample_message(7));
  EXPECT_TRUE(spin_until([&] { return new_b_got.load() == 1; }));
  EXPECT_TRUE(spin_until([&] { return a.unacked() == 0; }));

  a.loop().stop();
  new_b.loop().stop();
  ta.join();
  tb.join();
  {
    const std::lock_guard<std::mutex> g(mu);
    EXPECT_EQ(got.size(), 8u);
    for (const auto& [lock, n] : got) EXPECT_EQ(n, 1) << "lock " << lock;
  }
  EXPECT_EQ(a.delivered(), 8u);
  EXPECT_EQ(a.stats().reconnects, 0u);
  EXPECT_EQ(a.stats().peer_restarts, 0u);
}

// --- view changes --------------------------------------------------------

TEST(ViewService, ThreeNodeMeshCommitsViewOnKill) {
  Mesh mesh(3);
  for (std::uint32_t i = 0; i < 3; ++i) mesh.watch(i);
  ASSERT_TRUE(spin_until([&] {
    return mesh.nodes[0]->connected_peers() == 2 &&
           mesh.nodes[1]->connected_peers() == 2 &&
           mesh.nodes[2]->connected_peers() == 2;
  }));

  mesh.kill(2);
  ASSERT_TRUE(spin_until([&] {
    return mesh.views_of[0]->view() >= 1 && mesh.views_of[1]->view() >= 1;
  }));

  // Both survivors committed the same view with the lowest id as root and
  // an identical survivor set — the begin_recovery contract.
  const auto c0 = mesh.commits(0);
  const auto c1 = mesh.commits(1);
  ASSERT_FALSE(c0.empty());
  ASSERT_FALSE(c1.empty());
  EXPECT_EQ(c0.back().view, c1.back().view);
  EXPECT_EQ(c0.back().root, NodeId{0});
  EXPECT_EQ(c1.back().root, NodeId{0});
  const std::set<NodeId> expect{NodeId{0}, NodeId{1}};
  EXPECT_EQ(c0.back().survivors, expect);
  EXPECT_EQ(c1.back().survivors, expect);
  EXPECT_GE(mesh.views_of[0]->view_frames_sent(), 2u);  // propose + commit
}

TEST(ViewService, CoordinatorDeathPromotesNextLowestSurvivor) {
  Mesh mesh(3);
  for (std::uint32_t i = 0; i < 3; ++i) mesh.watch(i);
  ASSERT_TRUE(spin_until([&] {
    return mesh.nodes[0]->connected_peers() == 2 &&
           mesh.nodes[1]->connected_peers() == 2;
  }));

  // The would-be coordinator dies: node 1 must take over as both
  // coordinator and new root.
  mesh.kill(0);
  ASSERT_TRUE(spin_until([&] {
    return mesh.views_of[1]->view() >= 1 && mesh.views_of[2]->view() >= 1;
  }));
  const auto c1 = mesh.commits(1);
  const auto c2 = mesh.commits(2);
  ASSERT_FALSE(c1.empty());
  ASSERT_FALSE(c2.empty());
  EXPECT_EQ(c1.back().root, NodeId{1});
  EXPECT_EQ(c2.back().root, NodeId{1});
  EXPECT_EQ(c1.back().view, c2.back().view);
}

TEST(ViewService, SuccessiveKillsCommitIncreasingViews) {
  Mesh mesh(4);
  for (std::uint32_t i = 0; i < 4; ++i) mesh.watch(i);
  ASSERT_TRUE(spin_until([&] {
    return mesh.nodes[0]->connected_peers() == 3 &&
           mesh.nodes[1]->connected_peers() == 3;
  }));

  mesh.kill(3);
  ASSERT_TRUE(spin_until([&] { return mesh.views_of[0]->view() >= 1; }));
  mesh.kill(2);
  ASSERT_TRUE(spin_until([&] {
    return mesh.views_of[0]->views_committed() >= 2 &&
           mesh.views_of[1]->views_committed() >= 2;
  }));

  const auto c0 = mesh.commits(0);
  ASSERT_GE(c0.size(), 2u);
  EXPECT_GT(c0.back().view, c0.front().view);  // strictly increasing
  EXPECT_EQ(c0.back().survivors, (std::set<NodeId>{NodeId{0}, NodeId{1}}));
  // Sole write path after the commits: the dead peers' windows were
  // forgotten, so nothing is parked forever.
  EXPECT_TRUE(spin_until([&] { return mesh.nodes[0]->unacked() == 0; }));
}

TEST(ViewService, SoleSurvivorCommitsFromTheDetectorCallback) {
  // With one peer left to die, the survivor decides the view inside the
  // failure detector's callback and forgets the dead peer there and then,
  // while the detector is still in its walk of the peer table.
  Mesh mesh(2);
  for (std::uint32_t i = 0; i < 2; ++i) mesh.watch(i);
  ASSERT_TRUE(spin_until([&] {
    return mesh.nodes[0]->connected_peers() == 1 &&
           mesh.nodes[1]->connected_peers() == 1;
  }));
  mesh.kill(1);
  ASSERT_TRUE(spin_until([&] { return mesh.views_of[0]->view() >= 1; }));
  const auto c0 = mesh.commits(0);
  ASSERT_FALSE(c0.empty());
  EXPECT_EQ(c0.back().survivors, (std::set<NodeId>{NodeId{0}}));
  EXPECT_EQ(c0.back().root, NodeId{0});
  EXPECT_TRUE(spin_until([&] { return mesh.nodes[0]->unacked() == 0; }));
  EXPECT_EQ(mesh.nodes[0]->suspected_peers(), 0u);
}

// --- end to end: kill the token holder, lock again -----------------------

TEST(ViewService, KilledTokenHolderIsRecoveredAndLockReacquired) {
  Mesh mesh(3);
  std::vector<std::unique_ptr<corba::ConcurrencyService>> services(3);
  const LockId kLock{0};
  for (std::uint32_t i = 0; i < 3; ++i) {
    services[i] = std::make_unique<corba::ConcurrencyService>(*mesh.nodes[i]);
    services[i]->create_lock_set(kLock, NodeId{2});  // rooted at the victim
  }
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto& views = mesh.watch(i);
    views.set_on_view([&, i](std::uint32_t view, NodeId root,
                             const std::set<NodeId>& survivors) {
      services[i]->recover_all(view, root, survivors);
    });
  }

  // The victim takes W (it owns the token) and "commits" one op; the
  // survivors each complete a W round so their state is live, not idle.
  {
    corba::LockSet set = services[2]->lock_set(kLock);
    const auto h = set.lock(corba::LockMode::kWrite);
    set.unlock(h);
  }
  for (std::uint32_t i = 0; i < 2; ++i) {
    corba::LockSet set = services[i]->lock_set(kLock);
    const auto h = set.lock(corba::LockMode::kWrite);
    set.unlock(h);
  }

  // Kill the token holder outright (services[2] dies with its node).
  {
    corba::LockSet set = services[2]->lock_set(kLock);
    const auto h = set.lock(corba::LockMode::kWrite);
    (void)h;  // dies holding W — the token is lost with the process
  }
  services[2].reset();
  mesh.kill(2);

  // Survivors commit a view and regenerate the token at node 0; a fresh
  // W acquisition on each survivor must complete.
  ASSERT_TRUE(spin_until([&] {
    return mesh.views_of[0]->view() >= 1 && mesh.views_of[1]->view() >= 1;
  }));
  for (std::uint32_t i = 0; i < 2; ++i) {
    corba::LockSet set = services[i]->lock_set(kLock);
    const auto h = set.try_lock_for(corba::LockMode::kWrite, msec(5000));
    ASSERT_TRUE(h.has_value()) << "survivor " << i
                               << " could not lock after recovery";
    set.unlock(*h);
  }
  // Destroy services before their nodes (Mesh dtor kills the nodes).
  services[0].reset();
  services[1].reset();
}

}  // namespace
}  // namespace hlock::net
