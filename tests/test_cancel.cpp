// Request-cancellation tests: backlog removal, in-flight absorption, and
// interaction with queue service and other waiters.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/hls_engine.hpp"
#include "test_util.hpp"

namespace hlock::core {
namespace {

NodeId id_of(char c) { return NodeId{static_cast<std::uint32_t>(c - 'A')}; }

struct Net {
  HlsEngine& add(char name, char root) {
    auto engine = factory.make(id_of(name), id_of(root),
                               bus.port(id_of(name)), EngineOptions{},
                               [this, name](RequestId id, Mode mode) {
                                 acquired[name].emplace_back(id, mode);
                               });
    HlsEngine* raw = engine.get();
    bus.register_handler(id_of(name),
                         [raw](const Message& m) { raw->handle(m); });
    engines[name] = std::move(engine);
    return *raw;
  }
  HlsEngine& operator[](char c) { return *engines.at(c); }
  void pump() { bus.deliver_all(); }

  testing::TestBus bus;
  testing::EngineFactory factory;
  std::map<char, std::unique_ptr<HlsEngine>> engines;
  std::map<char, std::vector<std::pair<RequestId, Mode>>> acquired;
};

TEST(Cancel, BacklogEntryIsRemoved) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  (void)net['B'].request_lock(Mode::kW);  // pending
  const RequestId second = net['B'].request_lock(Mode::kR);  // backlog
  EXPECT_EQ(net['B'].backlog_size(), 1u);
  EXPECT_TRUE(net['B'].cancel(second));
  EXPECT_EQ(net['B'].backlog_size(), 0u);
  net.pump();
  ASSERT_EQ(net.acquired['B'].size(), 1u);  // only the W came through
  EXPECT_EQ(net.acquired['B'][0].second, Mode::kW);
  net['B'].unlock(net.acquired['B'][0].first);
  net.pump();
}

TEST(Cancel, InFlightGrantIsAbsorbedSilently) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  const RequestId rid = net['B'].request_lock(Mode::kR);
  EXPECT_TRUE(net['B'].cancel(rid));  // request already on the wire
  net.pump();                          // grant arrives, absorbed
  EXPECT_TRUE(net.acquired['B'].empty());
  EXPECT_TRUE(net['B'].holds().empty());
  EXPECT_FALSE(net['B'].has_pending());
  // The lock is fully available again for everyone (the token moved to B
  // with the absorbed grant, so A's W travels there).
  (void)net['A'].request_lock(Mode::kW);
  net.pump();
  ASSERT_EQ(net.acquired['A'].size(), 1u);
  net['A'].unlock(net.acquired['A'][0].first);
  net.pump();
}

TEST(Cancel, CancelledQueuedWriterUnblocksNobodyButGetsAbsorbed) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A');
  const RequestId ra = net['A'].request_lock(Mode::kR);
  const RequestId wb = net['B'].request_lock(Mode::kW);  // queued at A
  net.pump();
  (void)net['C'].request_lock(Mode::kR);  // frozen behind the W
  net.pump();
  EXPECT_TRUE(net.acquired['C'].empty());
  EXPECT_TRUE(net['B'].cancel(wb));
  // Release A's R: the cancelled W is served first (token moves to B,
  // where the grant is absorbed and instantly released), then C's R.
  net['A'].unlock(ra);
  net.pump();
  EXPECT_TRUE(net.acquired['B'].empty());
  ASSERT_EQ(net.acquired['C'].size(), 1u);
  net['C'].unlock(net.acquired['C'][0].first);
  net.pump();
}

TEST(Cancel, GrantedRequestReturnsFalse) {
  Net net;
  net.add('A', 'A');
  const RequestId rid = net['A'].request_lock(Mode::kR);
  EXPECT_FALSE(net['A'].cancel(rid));  // already granted: caller unlocks
  net['A'].unlock(rid);
}

TEST(Cancel, UnknownOrReleasedThrows) {
  Net net;
  net.add('A', 'A');
  const RequestId rid = net['A'].request_lock(Mode::kR);
  net['A'].unlock(rid);
  EXPECT_THROW((void)net['A'].cancel(rid), std::logic_error);
}

TEST(Cancel, UpgradeCannotBeCancelled) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  const RequestId ua = net['A'].request_lock(Mode::kU);
  (void)net['B'].request_lock(Mode::kR);  // keeps the upgrade blocked
  net.pump();
  net['A'].upgrade(ua);
  EXPECT_THROW((void)net['A'].cancel(ua), std::logic_error);
  net['B'].unlock(net.acquired['B'][0].first);
  net.pump();
  EXPECT_EQ(net['A'].holds().at(ua), Mode::kW);
  net['A'].unlock(ua);
  net.pump();
}

TEST(Cancel, SelfQueuedAtTokenNodeIsAbsorbed) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  const RequestId rb = net['B'].request_lock(Mode::kIW);
  net.pump();  // B took the token with IW
  // A requests R -> incompatible with B's IW... A is non-token now; make
  // the TOKEN node self-queue: B requests R while holding IW (own modes
  // incompatible) -> self-queued.
  const RequestId rb2 = net['B'].request_lock(Mode::kR);
  EXPECT_TRUE(net['B'].has_pending());
  EXPECT_TRUE(net['B'].cancel(rb2));
  net['B'].unlock(rb);  // queue served: cancelled entry absorbed
  net.pump();
  EXPECT_EQ(net.acquired['B'].size(), 1u);  // only the IW was reported
  EXPECT_TRUE(net['B'].holds().empty());
  EXPECT_FALSE(net['B'].has_pending());
}

}  // namespace
}  // namespace hlock::core
