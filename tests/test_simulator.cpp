// Discrete-event simulator and simulated-network tests.
#include <gtest/gtest.h>

#include <vector>

#include "sim/simnet.hpp"
#include "sim/simulator.hpp"

namespace hlock::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
  EXPECT_EQ(s.events_processed(), 3u);
}

TEST(Simulator, EqualTimesRunInInsertionOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  s.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, KeyedEventsRunAfterLocalsInKeyOrder) {
  // A local event and two keyed ones, all at t=100; the keyed ones are
  // scheduled later (from an event at t=10) and with their keys in
  // descending order. Locals (key 0) run first, then keyed events by
  // key, whatever the insertion order.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(100, [&] { order.push_back(0); });
  s.schedule_at(10, [&] {
    s.schedule_cross_at(100, /*key=*/2, [&] { order.push_back(2); });
    s.schedule_cross_at(100, /*key=*/1, [&] { order.push_back(1); });
  });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_THROW(s.schedule_cross_at(200, /*key=*/0, [] {}), std::logic_error);
  EXPECT_THROW(s.schedule_cross_at(50, /*key=*/3, [] {}), std::logic_error);
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator s;
  int hits = 0;
  std::function<void()> chain = [&] {
    ++hits;
    if (hits < 5) s.schedule_after(10, chain);
  };
  s.schedule_at(0, chain);
  s.run_all();
  EXPECT_EQ(hits, 5);
  EXPECT_EQ(s.now(), 40);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator s;
  s.schedule_at(100, [] {});
  s.run_all();
  EXPECT_THROW(s.schedule_at(50, [] {}), std::logic_error);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int hits = 0;
  s.schedule_at(10, [&] { ++hits; });
  s.schedule_at(100, [&] { ++hits; });
  s.run_until(50);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(s.now(), 50);
  s.run_all();
  EXPECT_EQ(hits, 2);
}

TEST(Simulator, PostEventHookFiresPerEvent) {
  Simulator s;
  int hooks = 0;
  s.post_event_hook = [&] { ++hooks; };
  s.schedule_at(1, [] {});
  s.schedule_at(2, [] {});
  s.run_all();
  EXPECT_EQ(hooks, 2);
}

TEST(Simulator, LivelockCapThrows) {
  Simulator s;
  std::function<void()> forever = [&] { s.schedule_after(1, forever); };
  s.schedule_at(0, forever);
  EXPECT_THROW(s.run_all(1000), std::runtime_error);
}

// ----------------------------------------------------------------- net --

struct NetFixture {
  NetFixture(Duration mean = msec(150),
             std::unique_ptr<LatencyModel> model = nullptr)
      : net(sim,
            model ? std::move(model)
                  : std::make_unique<UniformLatency>(mean),
            Rng(1)) {}
  Simulator sim;
  SimNetwork net;
};

TEST(SimNetwork, DeliversToRegisteredHandler) {
  NetFixture f;
  std::vector<std::uint32_t> got;
  f.net.register_node(NodeId{1}, [&](const Message& m) {
    got.push_back(m.lock.value);
  });
  f.net.register_node(NodeId{0}, [](const Message&) {});
  Message m;
  m.lock = LockId{5};
  f.net.send(NodeId{0}, NodeId{1}, m);
  f.sim.run_all();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 5u);
  EXPECT_EQ(f.net.messages_sent(), 1u);
}

TEST(SimNetwork, SetsFromField) {
  NetFixture f;
  NodeId seen_from;
  f.net.register_node(NodeId{2}, [&](const Message& m) { seen_from = m.from; });
  f.net.register_node(NodeId{7}, [](const Message&) {});
  Message m;
  f.net.send(NodeId{7}, NodeId{2}, m);
  f.sim.run_all();
  EXPECT_EQ(seen_from, NodeId{7});
}

TEST(SimNetwork, ChannelFifoEvenWithRandomLatency) {
  NetFixture f;
  std::vector<std::uint32_t> got;
  f.net.register_node(NodeId{1}, [&](const Message& m) {
    got.push_back(m.lock.value);
  });
  f.net.register_node(NodeId{0}, [](const Message&) {});
  for (std::uint32_t i = 0; i < 100; ++i) {
    Message m;
    m.lock = LockId{i};
    f.net.send(NodeId{0}, NodeId{1}, m);
  }
  f.sim.run_all();
  ASSERT_EQ(got.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(got[i], i);
}

TEST(SimNetwork, UnregisteredDestinationThrows) {
  NetFixture f;
  f.net.register_node(NodeId{0}, [](const Message&) {});
  Message m;
  EXPECT_THROW(f.net.send(NodeId{0}, NodeId{9}, m), std::logic_error);
}

TEST(SimNetwork, DoubleRegistrationThrows) {
  NetFixture f;
  f.net.register_node(NodeId{0}, [](const Message&) {});
  EXPECT_THROW(f.net.register_node(NodeId{0}, [](const Message&) {}),
               std::logic_error);
}

TEST(SimNetwork, CountsByKind) {
  NetFixture f;
  f.net.register_node(NodeId{0}, [](const Message&) {});
  f.net.register_node(NodeId{1}, [](const Message&) {});
  Message req;
  req.kind = MsgKind::kRequest;
  Message tok;
  tok.kind = MsgKind::kToken;
  f.net.send(NodeId{0}, NodeId{1}, req);
  f.net.send(NodeId{0}, NodeId{1}, req);
  f.net.send(NodeId{1}, NodeId{0}, tok);
  f.sim.run_all();
  EXPECT_EQ(f.net.message_counts().get("request"), 2u);
  EXPECT_EQ(f.net.message_counts().get("token"), 1u);
  EXPECT_EQ(f.net.message_counts().get("grant"), 0u);
}

TEST(SimNetwork, OnDeliverHookObservesTraffic) {
  NetFixture f;
  int seen = 0;
  f.net.register_node(NodeId{0}, [](const Message&) {});
  f.net.register_node(NodeId{1}, [](const Message&) {});
  f.net.on_deliver = [&](NodeId, NodeId, const Message&) { ++seen; };
  Message m;
  f.net.send(NodeId{0}, NodeId{1}, m);
  f.sim.run_all();
  EXPECT_EQ(seen, 1);
}

TEST(LatencyModels, RespectBoundsAndMeans) {
  Rng rng(3);
  UniformLatency uniform(msec(150));
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const Duration d = uniform.sample(rng);
    ASSERT_GE(d, msec(75));
    ASSERT_LE(d, msec(225));
    sum += static_cast<double>(d);
  }
  EXPECT_NEAR(sum / 20000, static_cast<double>(msec(150)),
              static_cast<double>(msec(2)));

  ConstantLatency constant(msec(10));
  EXPECT_EQ(constant.sample(rng), msec(10));

  ExponentialLatency expo(msec(150), msec(15));
  double esum = 0;
  for (int i = 0; i < 50000; ++i) {
    const Duration d = expo.sample(rng);
    ASSERT_GE(d, msec(15));
    esum += static_cast<double>(d);
  }
  EXPECT_NEAR(esum / 50000, static_cast<double>(msec(150)),
              static_cast<double>(msec(3)));
}

}  // namespace
}  // namespace hlock::sim
