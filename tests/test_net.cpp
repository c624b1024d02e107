// Real-socket substrate tests: framing, event loop, TcpNode mesh delivery.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "net/cluster.hpp"
#include "net/event_loop.hpp"
#include "net/framing.hpp"

namespace hlock::net {
namespace {

Message sample_message(std::uint32_t lock, MsgKind kind = MsgKind::kRequest) {
  Message m;
  m.kind = kind;
  m.lock = LockId{lock};
  m.req.requester = NodeId{7};
  m.req.mode = Mode::kIW;
  m.req.stamp = LamportStamp{42, NodeId{7}};
  m.mode = Mode::kR;
  m.frozen = ModeSet{Mode::kIW, Mode::kW};
  return m;
}

TEST(Framing, RoundTripSingleFrame) {
  const Message m = sample_message(3);
  const auto bytes = frame(m);
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Message out;
  ASSERT_TRUE(dec.next(out));
  EXPECT_EQ(out, m);
  EXPECT_FALSE(dec.next(out));
}

TEST(Framing, HandlesFragmentationAtEveryByteBoundary) {
  const Message m = sample_message(9, MsgKind::kToken);
  const auto bytes = frame(m);
  for (std::size_t split = 1; split < bytes.size(); ++split) {
    FrameDecoder dec;
    dec.feed(bytes.data(), split);
    Message out;
    const bool early = dec.next(out);
    dec.feed(bytes.data() + split, bytes.size() - split);
    if (!early) {
      ASSERT_TRUE(dec.next(out)) << "split at " << split;
    }
    EXPECT_EQ(out, m);
  }
}

TEST(Framing, HandlesCoalescedFrames) {
  FrameDecoder dec;
  std::vector<Message> sent;
  std::vector<std::uint8_t> stream;
  for (std::uint32_t i = 0; i < 20; ++i) {
    sent.push_back(sample_message(i));
    const auto f = frame(sent.back());
    stream.insert(stream.end(), f.begin(), f.end());
  }
  dec.feed(stream.data(), stream.size());
  Message out;
  for (std::uint32_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(dec.next(out));
    EXPECT_EQ(out.lock.value, i);
  }
  EXPECT_FALSE(dec.next(out));
}

TEST(Framing, RejectsOversizedFrame) {
  FrameDecoder dec;
  const std::uint8_t bogus[4] = {0xff, 0xff, 0xff, 0xff};
  dec.feed(bogus, 4);
  Message out;
  EXPECT_THROW(dec.next(out), DecodeError);
}

TEST(Framing, RejectsOversizedMessageLengthPrefix) {
  // 16 MB + 1, control bit clear: one past kMaxFrameBytes.
  FrameDecoder dec;
  const std::uint8_t bogus[4] = {0x01, 0x00, 0x00, 0x01};
  dec.feed(bogus, 4);
  DecodedFrame out;
  EXPECT_THROW(dec.next_frame(out), DecodeError);
}

TEST(Framing, OneByteFeedsAcrossCompactionThreshold) {
  // Enough frames that the decoder's internal compaction threshold is
  // crossed several times while bytes arrive one at a time.
  std::vector<std::uint8_t> stream;
  constexpr std::uint32_t kFrames = 200;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    const auto f = frame(sample_message(i));
    stream.insert(stream.end(), f.begin(), f.end());
  }
  ASSERT_GT(stream.size(), 8192u);
  FrameDecoder dec;
  std::uint32_t decoded = 0;
  Message out;
  for (const std::uint8_t byte : stream) {
    dec.feed(&byte, 1);
    while (dec.next(out)) {
      EXPECT_EQ(out.lock.value, decoded);
      ++decoded;
    }
  }
  EXPECT_EQ(decoded, kFrames);
}

TEST(Framing, GarbageAfterValidFrameDecodesFirstThenThrows) {
  const Message m = sample_message(11);
  auto stream = frame(m);
  stream.insert(stream.end(), 16, 0xFF);
  FrameDecoder dec;
  dec.feed(stream.data(), stream.size());
  Message out;
  ASSERT_TRUE(dec.next(out));
  EXPECT_EQ(out, m);
  EXPECT_THROW(dec.next(out), DecodeError);
}

TEST(Framing, ControlFramesRoundTripAndStayOffTheMessagePath) {
  FrameDecoder dec;
  const auto hello = hello_frame(NodeId{12}, /*epoch=*/1);
  const auto ping = ping_frame();
  dec.feed(hello.data(), hello.size());
  dec.feed(ping.data(), ping.size());
  DecodedFrame f;
  ASSERT_TRUE(dec.next_frame(f));
  EXPECT_TRUE(f.control);
  EXPECT_EQ(f.op, ControlOp::kHello);
  EXPECT_EQ(f.hello_node, NodeId{12});
  ASSERT_TRUE(dec.next_frame(f));
  EXPECT_TRUE(f.control);
  EXPECT_EQ(f.op, ControlOp::kPing);
  EXPECT_FALSE(dec.next_frame(f));

  // The Message-only accessor must refuse to hand a control frame to the
  // protocol layer.
  FrameDecoder strict;
  strict.feed(hello.data(), hello.size());
  Message out;
  EXPECT_THROW(strict.next(out), DecodeError);
}

TEST(Framing, RejectsUnknownControlOpAndBadControlLength) {
  {
    FrameDecoder dec;
    // Control bit set, length 1, op 0x7E: unknown.
    const std::uint8_t bogus[5] = {0x01, 0x00, 0x00, 0x80, 0x7E};
    dec.feed(bogus, 5);
    DecodedFrame f;
    EXPECT_THROW(dec.next_frame(f), DecodeError);
  }
  {
    FrameDecoder dec;
    // Control bit set, length 0: malformed.
    const std::uint8_t bogus[4] = {0x00, 0x00, 0x00, 0x80};
    dec.feed(bogus, 4);
    DecodedFrame f;
    EXPECT_THROW(dec.next_frame(f), DecodeError);
  }
}

TEST(Framing, MessageSurvivesInterleavedControlFrames) {
  const Message m = sample_message(77);
  std::vector<std::uint8_t> stream = hello_frame(NodeId{1}, /*epoch=*/1);
  const auto body = frame(m);
  stream.insert(stream.end(), body.begin(), body.end());
  const auto ping = ping_frame();
  stream.insert(stream.end(), ping.begin(), ping.end());

  FrameDecoder dec;
  dec.feed(stream.data(), stream.size());
  DecodedFrame f;
  ASSERT_TRUE(dec.next_frame(f));
  EXPECT_TRUE(f.control);
  ASSERT_TRUE(dec.next_frame(f));
  EXPECT_FALSE(f.control);
  EXPECT_EQ(f.msg, m);
  ASSERT_TRUE(dec.next_frame(f));
  EXPECT_TRUE(f.control);
  EXPECT_EQ(f.op, ControlOp::kPing);
}

TEST(EventLoop, RunsPostedTasksAndTimersInOrder) {
  EventLoop loop;
  std::vector<int> order;
  std::thread t([&] { loop.run(); });
  loop.post([&] {
    loop.schedule(msec(30), [&] {
      order.push_back(2);
      loop.stop();
    });
    loop.schedule(msec(5), [&] { order.push_back(1); });
    order.push_back(0);
  });
  t.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventLoop, CrossThreadPostIsDelivered) {
  EventLoop loop;
  std::atomic<int> hits{0};
  std::thread t([&] { loop.run(); });
  for (int i = 0; i < 100; ++i) {
    loop.post([&] { hits.fetch_add(1); });
  }
  loop.post([&] { loop.stop(); });
  t.join();
  EXPECT_EQ(hits.load(), 100);
}

TEST(EventLoop, CancellableTimersCanBeCancelledBeforeFiring) {
  EventLoop loop;
  std::vector<int> fired;
  std::thread t([&] { loop.run(); });
  loop.post([&] {
    const auto doomed =
        loop.schedule_cancellable(msec(5), [&] { fired.push_back(1); });
    loop.schedule_cancellable(msec(10), [&] { fired.push_back(2); });
    loop.cancel_timer(doomed);
    loop.schedule(msec(30), [&] { loop.stop(); });
  });
  t.join();
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST(EventLoop, SelfReArmingZeroDelayTimerDoesNotStarvePostedTasks) {
  // A closed-loop client whose grants are all local re-arms a zero-delay
  // timer from inside its own callback. Each pass must fire only the
  // timers already due, so a task posted before the chain began still
  // runs while the chain is going.
  constexpr std::uint64_t kRounds = 1'000'000;
  EventLoop loop;
  std::uint64_t rounds = 0;
  std::uint64_t seen_at = 0;
  std::function<void()> tick = [&] {
    if (++rounds < kRounds) {
      loop.schedule(0, tick);
    } else {
      loop.stop();
    }
  };
  std::thread t([&] { loop.run(); });
  loop.post([&] {
    loop.post([&] { seen_at = rounds; });
    loop.schedule(0, tick);
  });
  t.join();
  EXPECT_EQ(rounds, kRounds);
  EXPECT_GT(seen_at, 0u);
  EXPECT_LT(seen_at, kRounds);
}

TEST(EventLoop, PassRunsDueWorkToQuiescenceBeforePolling) {
  // A chain of loop-thread posts and zero-delay timers, each step arming
  // the next. A pass runs up to kMaxRoundsPerPass rounds of due work
  // before it polls again, so the chain costs one poll per cap's worth of
  // steps, not one per step. It starts from a timer armed before run(),
  // so nothing wakes the loop from outside.
  constexpr int kSteps = 1000;
  constexpr int kCap = EventLoop::kMaxRoundsPerPass;
  EventLoop loop;
  int ran = 0;
  std::uint64_t polls_at_end = 0;
  std::function<void(int)> step = [&](int i) {
    ++ran;
    if (i == kSteps) {
      polls_at_end = loop.polls();
      loop.stop();
    } else if (i % 3 == 0) {
      loop.schedule(0, [&, i] { step(i + 1); });
    } else {
      loop.post([&, i] { step(i + 1); });
    }
  };
  loop.schedule(0, [&] { step(1); });
  std::thread t([&] { loop.run(); });
  t.join();
  EXPECT_EQ(ran, kSteps);
  EXPECT_LE(polls_at_end, static_cast<std::uint64_t>((kSteps + kCap - 1) / kCap + 2));
  EXPECT_EQ(loop.wakeups_written(), 0u);
}

TEST(EventLoop, SelfReArmingZeroDelayTimerDoesNotStarveAReadableFd) {
  // The round cap ends a pass even while a zero-delay timer keeps
  // re-arming itself, so a socket the chain makes readable is dispatched
  // within about one pass's worth of rounds, long before the chain ends.
  constexpr std::uint64_t kRounds = 100'000;
  constexpr std::uint64_t kWriteAt = 10;
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  EventLoop loop;
  std::uint64_t rounds = 0;
  std::uint64_t seen_at = 0;
  loop.watch(sv[0], POLLIN, [&](std::uint32_t) {
    char byte = 0;
    EXPECT_EQ(::read(sv[0], &byte, 1), 1);
    seen_at = rounds;
    loop.unwatch(sv[0]);
  });
  std::function<void()> tick = [&] {
    if (++rounds == kWriteAt) {
      const char byte = 1;
      EXPECT_EQ(::write(sv[1], &byte, 1), 1);
    }
    if (rounds < kRounds) {
      loop.schedule(0, tick);
    } else {
      loop.stop();
    }
  };
  loop.schedule(0, tick);
  std::thread t([&] { loop.run(); });
  t.join();
  ::close(sv[0]);
  ::close(sv[1]);
  EXPECT_EQ(rounds, kRounds);
  EXPECT_GE(seen_at, kWriteAt);
  EXPECT_LE(seen_at, kWriteAt + 2 * EventLoop::kMaxRoundsPerPass);
}

TEST(EventLoop, TaskPostedBeforeAnFdEventRunsBeforeItIsDispatched) {
  // A poster often installs state and then causes traffic (set_handler,
  // then a send that the peer answers). The loop is held in its pass-end
  // hook while this thread posts and then makes a socket readable, so the
  // next poll reports both at once: the post must still run first.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  EventLoop loop;
  std::atomic<bool> holding{false};
  std::promise<void> release;
  std::future<void> released = release.get_future();
  bool held_once = false;
  loop.on_pass_end([&] {
    if (held_once) return;
    held_once = true;
    holding.store(true);
    released.wait();
  });
  bool installed = false;
  bool installed_at_dispatch = false;
  loop.watch(sv[0], POLLIN, [&](std::uint32_t) {
    char byte = 0;
    EXPECT_EQ(::read(sv[0], &byte, 1), 1);
    installed_at_dispatch = installed;
    loop.stop();
  });
  loop.schedule(0, [] {});  // the first pass polls without blocking
  std::thread t([&] { loop.run(); });
  while (!holding.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  loop.post([&] { installed = true; });
  const char byte = 1;
  ASSERT_EQ(::write(sv[1], &byte, 1), 1);
  release.set_value();
  t.join();
  ::close(sv[0]);
  ::close(sv[1]);
  EXPECT_TRUE(installed_at_dispatch);
}

TEST(EventLoop, LoopThreadPostsNeverWriteTheWakePipe) {
  // Half the posts come straight from one callback, half from a chain in
  // which each task posts the next; the chain's end stops the loop. The
  // loop is started by a timer armed before run(), so no post at all
  // comes from another thread. No timer or fd is pending while the chain
  // runs, so a post that failed to keep the loop awake would wait out the
  // 500 ms poll cap: ten such stalls overrun the bound below.
  constexpr int kPosts = 10'000;
  using Clock = std::chrono::steady_clock;
  EventLoop loop;
  int ran = 0;
  Clock::time_point chain_start;
  Clock::duration chain_took{};
  std::function<void(int)> chain = [&](int left) {
    ++ran;
    if (left > 1) {
      loop.post([&, left] { chain(left - 1); });
    } else {
      chain_took = Clock::now() - chain_start;
      loop.stop();
    }
  };
  loop.schedule(0, [&] {
    for (int i = 0; i < kPosts / 2; ++i) loop.post([&] { ++ran; });
    chain_start = Clock::now();
    loop.post([&] { chain(kPosts / 2); });
  });
  std::thread t([&] { loop.run(); });
  t.join();
  EXPECT_EQ(ran, kPosts);
  EXPECT_EQ(loop.wakeups_written(), 0u);
  EXPECT_LT(chain_took, std::chrono::seconds(5));
}

TEST(EventLoop, ConcurrentPostersNeverLoseAWakeup) {
  // Every post from another thread writes a wake byte once its task is
  // queued, so the loop cannot block on a task it has not seen. The
  // posters pause at random, so the loop often drains and blocks between
  // their posts. A sentinel posted after all of them must arrive with
  // every task already run.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  EventLoop loop;
  int ran = 0;
  std::thread t([&] { loop.run(); });
  std::vector<std::thread> posters;
  for (int p = 0; p < kThreads; ++p) {
    posters.emplace_back([&, p] {
      std::mt19937 rng(static_cast<std::uint32_t>(p) + 1);
      std::uniform_int_distribution<int> pause_us(0, 300);
      for (int i = 0; i < kPerThread; ++i) {
        // About a third of the posts come in a burst, the rest after a
        // pause long enough for the loop to drain and block again.
        const int us = pause_us(rng);
        if (us > 100)
          std::this_thread::sleep_for(std::chrono::microseconds(us));
        loop.post([&] { ++ran; });
      }
    });
  }
  for (auto& th : posters) th.join();
  std::promise<int> sentinel;
  std::future<int> seen = sentinel.get_future();
  loop.post([&] { sentinel.set_value(ran); });
  const bool arrived =
      seen.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  loop.stop();
  t.join();
  ASSERT_TRUE(arrived);
  EXPECT_EQ(seen.get(), kThreads * kPerThread);
  // One byte per cross-thread post, the sentinel's, and stop()'s.
  EXPECT_EQ(loop.wakeups_written(),
            static_cast<std::uint64_t>(kThreads * kPerThread) + 2);
}

TEST(TcpCluster, MeshDeliversMessagesBothDirections) {
  InProcessCluster cluster(3);
  std::atomic<int> received[3] = {{0}, {0}, {0}};
  for (std::size_t i = 0; i < 3; ++i) {
    cluster.node(i).set_handler(
        [&received, i](const Message&) { received[i].fetch_add(1); });
  }
  // Every node sends to every other node, both dial directions covered.
  for (std::size_t from = 0; from < 3; ++from) {
    for (std::size_t to = 0; to < 3; ++to) {
      if (from == to) continue;
      cluster.node(from).send(NodeId{static_cast<std::uint32_t>(to)},
                              sample_message(static_cast<std::uint32_t>(from)));
    }
  }
  for (int spin = 0; spin < 200; ++spin) {
    if (received[0] == 2 && received[1] == 2 && received[2] == 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(received[0].load(), 2);
  EXPECT_EQ(received[1].load(), 2);
  EXPECT_EQ(received[2].load(), 2);
  cluster.stop();
}

TEST(TcpCluster, ManyMessagesPreserveChannelFifo) {
  InProcessCluster cluster(2);
  std::vector<std::uint32_t> seen;
  std::mutex m;
  cluster.node(1).set_handler([&](const Message& msg) {
    const std::lock_guard<std::mutex> g(m);
    seen.push_back(msg.lock.value);
  });
  constexpr std::uint32_t kCount = 500;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    cluster.node(0).send(NodeId{1}, sample_message(i));
  }
  for (int spin = 0; spin < 300; ++spin) {
    {
      const std::lock_guard<std::mutex> g(m);
      if (seen.size() == kCount) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const std::lock_guard<std::mutex> g(m);
  ASSERT_EQ(seen.size(), kCount);
  for (std::uint32_t i = 0; i < kCount; ++i) EXPECT_EQ(seen[i], i);
  cluster.stop();
}

}  // namespace
}  // namespace hlock::net
