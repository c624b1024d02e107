// Heap traffic of the live TCP path in steady state: request/reply round
// trips between two TcpNodes on loopback must average under one heap
// allocation per frame. A frame is encoded straight into its
// connection's outbox, the loop reuses its task and timer storage, and
// cancelling a timer allocates nothing.
//
// This file overrides the global allocation functions to count heap
// traffic. Each test file builds into its own executable (see
// tests/CMakeLists.txt), so the override cannot leak into other tests.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <thread>

#include "net/cluster.hpp"

namespace {
// Atomic: both loop threads and the test thread allocate.
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hlock::net {
namespace {

Message request(std::uint32_t lock) {
  Message m;
  m.kind = MsgKind::kRequest;
  m.lock = LockId{lock};
  m.req.requester = NodeId{0};
  m.req.mode = Mode::kR;
  return m;
}

/// Node 0 sends a request, node 1 replies, node 0 sends the next request.
/// Both answers come from a zero-delay timer, as SessionMux's
/// continuations do, so each arrival first arms the piggyback ack timer
/// and the answer's data frame then cancels it.
struct PingPong {
  TcpNode* client{nullptr};
  TcpNode* server{nullptr};
  std::atomic<std::uint64_t> replies{0};
  std::atomic<std::uint64_t> until{0};  ///< stop after this many replies
  std::atomic<bool> idle{true};

  void on_client(const Message&) {
    if (replies.fetch_add(1) + 1 >= until.load()) {
      idle.store(true);
      return;
    }
    client->loop().schedule(0, [this] { client->send(NodeId{1}, request(1)); });
  }
  void on_server(const Message&) {
    server->loop().schedule(0, [this] {
      Message reply = request(2);
      reply.kind = MsgKind::kGrant;
      server->send(NodeId{0}, std::move(reply));
    });
  }
  /// Run `n` more round trips; false if the last reply is not back
  /// within a minute.
  bool run(std::uint64_t n) {
    idle.store(false);
    until.store(replies.load() + n);
    client->send(NodeId{1}, request(1));
    for (int ms = 0; ms < 60'000 && !idle.load(); ++ms)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return idle.load();
  }
};

std::uint64_t frames_out(InProcessCluster& c) {
  return c.node(0).stats().frames_out + c.node(1).stats().frames_out;
}

TEST(LiveAllocations, RoundTripsAverageUnderOneHeapAllocationPerFrame) {
  constexpr std::uint64_t kWarmUp = 1'000;
  constexpr std::uint64_t kRoundTrips = 10'000;
  TcpConfig cfg;
  cfg.ack_piggyback_window = msec(1);
  PingPong pp;  // outlives the cluster, whose loop threads call into it
  InProcessCluster cluster(2, cfg);
  pp.client = &cluster.node(0);
  pp.server = &cluster.node(1);
  cluster.node(0).set_handler([&pp](const Message& m) { pp.on_client(m); });
  cluster.node(1).set_handler([&pp](const Message& m) { pp.on_server(m); });

  // Warm-up grows every reused buffer (outboxes, decoders, timer heaps,
  // the send windows) to its working size.
  ASSERT_TRUE(pp.run(kWarmUp));
  const std::uint64_t frames_before = frames_out(cluster);
  const std::uint64_t allocs_before = g_allocs.load();
  ASSERT_TRUE(pp.run(kRoundTrips));
  const std::uint64_t allocs = g_allocs.load() - allocs_before;
  const std::uint64_t frames = frames_out(cluster) - frames_before;
  cluster.stop();

  ASSERT_GE(frames, 2 * kRoundTrips);
  const double per_frame =
      static_cast<double>(allocs) / static_cast<double>(frames);
  std::cout << "heap allocations: " << allocs << " over " << frames
            << " frames (" << per_frame << " per frame)\n";
  EXPECT_LT(per_frame, 1.0);
}

}  // namespace
}  // namespace hlock::net
