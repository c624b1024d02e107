// Priority-arbitration extension tests (EngineOptions::enable_priorities):
// queued requests are served highest-priority-first, FIFO within a level;
// upgrades still precede everything; default build keeps pure FIFO.
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
  explicit Net(EngineOptions opts_in) : opts(opts_in) {}

  HlsEngine& add(char name, char root) {
    auto engine = factory.make(id_of(name), id_of(root),
                               bus.port(id_of(name)), opts,
                               [this, name](RequestId, Mode mode) {
                                 grants.emplace_back(name, mode);
                               });
    HlsEngine* raw = engine.get();
    bus.register_handler(id_of(name),
                         [raw](const Message& m) { raw->handle(m); });
    engines[name] = std::move(engine);
    return *raw;
  }
  HlsEngine& operator[](char c) { return *engines.at(c); }
  void pump() { bus.deliver_all(); }

  EngineOptions opts;
  testing::TestBus bus;
  testing::EngineFactory factory;
  std::map<char, std::unique_ptr<HlsEngine>> engines;
  std::vector<std::pair<char, Mode>> grants;
};

EngineOptions with_priorities() {
  EngineOptions opts;
  opts.enable_priorities = true;
  return opts;
}

TEST(Priority, HigherPriorityServedFirstFromQueue) {
  Net net(with_priorities());
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A');
  net.add('D', 'A');
  // A holds W so every request queues at the root.
  const RequestId wa = net['A'].request_lock(Mode::kW);
  net.grants.clear();
  (void)net['B'].request_lock(Mode::kR, /*priority=*/0);
  net.pump();
  (void)net['C'].request_lock(Mode::kR, /*priority=*/5);
  net.pump();
  (void)net['D'].request_lock(Mode::kR, /*priority=*/3);
  net.pump();
  ASSERT_EQ(net['A'].queue().size(), 3u);
  EXPECT_EQ(net['A'].queue()[0].priority, 5);
  EXPECT_EQ(net['A'].queue()[1].priority, 3);
  EXPECT_EQ(net['A'].queue()[2].priority, 0);

  net['A'].unlock(wa);
  net.pump();
  // All three are compatible R's; service order must follow priority.
  ASSERT_EQ(net.grants.size(), 3u);
  EXPECT_EQ(net.grants[0].first, 'C');
  EXPECT_EQ(net.grants[1].first, 'D');
  EXPECT_EQ(net.grants[2].first, 'B');
}

TEST(Priority, FifoWithinSamePriorityLevel) {
  Net net(with_priorities());
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A');
  const RequestId wa = net['A'].request_lock(Mode::kW);
  net.grants.clear();
  (void)net['B'].request_lock(Mode::kR, 2);
  net.pump();
  (void)net['C'].request_lock(Mode::kR, 2);
  net.pump();
  net['A'].unlock(wa);
  net.pump();
  ASSERT_EQ(net.grants.size(), 2u);
  EXPECT_EQ(net.grants[0].first, 'B');  // earlier stamp wins the tie
  EXPECT_EQ(net.grants[1].first, 'C');
}

TEST(Priority, DisabledKeepsPureFifo) {
  Net net(EngineOptions{});
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A');
  const RequestId wa = net['A'].request_lock(Mode::kW);
  net.grants.clear();
  (void)net['B'].request_lock(Mode::kR, 0);
  net.pump();
  (void)net['C'].request_lock(Mode::kR, 9);  // ignored without the option
  net.pump();
  net['A'].unlock(wa);
  net.pump();
  ASSERT_EQ(net.grants.size(), 2u);
  EXPECT_EQ(net.grants[0].first, 'B');
  EXPECT_EQ(net.grants[1].first, 'C');
}

TEST(Priority, UpgradeStillPrecedesHighPriorityRequests) {
  Net net(with_priorities());
  net.add('A', 'A');
  net.add('B', 'A');
  const RequestId ua = net['A'].request_lock(Mode::kU);
  net.grants.clear();
  (void)net['B'].request_lock(Mode::kW, 200);  // queued behind the U
  net.pump();
  net['A'].upgrade(ua);
  net.pump();
  // The upgrade wins even against priority 200 (deadlock avoidance).
  EXPECT_EQ(net['A'].holds().at(ua), Mode::kW);
  EXPECT_TRUE(net.grants.empty());
  net['A'].unlock(ua);
  net.pump();
  ASSERT_EQ(net.grants.size(), 1u);
  EXPECT_EQ(net.grants[0].first, 'B');
}

TEST(Priority, PriorityOrderSurvivesTokenTransfer) {
  Net net(with_priorities());
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A');
  net.add('D', 'A');
  const RequestId ia = net['A'].request_lock(Mode::kIR);
  net.grants.clear();
  // W requests queue (incompatible with IR); different priorities.
  (void)net['C'].request_lock(Mode::kW, 1);
  net.pump();
  (void)net['D'].request_lock(Mode::kW, 7);
  net.pump();
  ASSERT_EQ(net['A'].queue().size(), 2u);
  EXPECT_EQ(net['A'].queue()[0].priority, 7);
  // A releases: token goes to D (head = highest priority), shipping C's
  // request along; C is served after D.
  net['A'].unlock(ia);
  net.pump();
  ASSERT_EQ(net.grants.size(), 1u);
  EXPECT_EQ(net.grants[0].first, 'D');
  net['D'].unlock(net['D'].holds().begin()->first);
  net.pump();
  ASSERT_EQ(net.grants.size(), 2u);
  EXPECT_EQ(net.grants[1].first, 'C');
}

TEST(Priority, CodecCarriesPriority) {
  Message m;
  m.kind = MsgKind::kRequest;
  m.req.priority = 42;
  const Message out = decode(encode(m));
  EXPECT_EQ(out.req.priority, 42);
}

}  // namespace
}  // namespace hlock::core
