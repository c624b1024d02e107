// Interleaving fuzzer: random application ops against random cross-channel
// message interleavings (per-channel FIFO preserved, everything else
// adversarial). After every delivered message the global mutual-exclusion
// invariant is checked; at the end the system must quiesce with every
// issued request granted exactly once.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/hls_engine.hpp"
#include "test_util.hpp"

namespace hlock::core {
namespace {

struct FuzzParams {
  std::size_t nodes;
  std::uint64_t seed;
  int steps;
  bool priorities;
};

class EngineFuzz : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(EngineFuzz, MutualExclusionUnderRandomInterleavings) {
  const FuzzParams p = GetParam();
  Rng rng(p.seed);

  testing::TestBus bus;
  testing::EngineFactory factory;
  std::vector<std::unique_ptr<HlsEngine>> engines;
  // Per node: live holds and their modes (mirrors of on_acquired).
  std::vector<std::map<RequestId, Mode>> held(p.nodes);
  std::vector<std::set<RequestId>> upgradeable(p.nodes);
  std::uint64_t issued = 0, granted = 0, upgrades_done = 0;

  EngineOptions opts;
  opts.enable_priorities = p.priorities;
  for (std::size_t i = 0; i < p.nodes; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    engines.push_back(factory.make(
        id, NodeId{0}, bus.port(id), opts,
        [&, i](RequestId rid, Mode mode) {
          held[i][rid] = mode;
          if (mode == Mode::kU) upgradeable[i].insert(rid);
          ++granted;
        },
        [&, i](RequestId rid) {
          held[i][rid] = Mode::kW;
          ++upgrades_done;
        }));
    HlsEngine* raw = engines.back().get();
    bus.register_handler(id, [raw](const Message& m) { raw->handle(m); });
  }

  auto check_mutex = [&] {
    for (std::size_t a = 0; a < p.nodes; ++a) {
      for (const auto& [ra, ma] : held[a]) {
        for (std::size_t b = 0; b < p.nodes; ++b) {
          for (const auto& [rb, mb] : held[b]) {
            if (a == b && ra == rb) continue;
            ASSERT_TRUE(compatible(ma, mb))
                << "incompatible " << ma << "@" << a << " and " << mb << "@"
                << b << " seed " << p.seed;
          }
        }
      }
    }
  };

  for (int step = 0; step < p.steps; ++step) {
    const std::size_t i = rng.next_below(p.nodes);
    const double dice = rng.next_double();
    if (dice < 0.40) {
      // Issue a new request (bounded outstanding per node).
      if (engines[i]->backlog_size() < 3) {
        const Mode mode = kRealModes[rng.next_below(5)];
        const auto prio = static_cast<std::uint8_t>(rng.next_below(4));
        (void)engines[i]->request_lock(mode, prio);
        ++issued;
      }
    } else if (dice < 0.65) {
      // Release a random hold (not one with an upgrade pending).
      if (!held[i].empty()) {
        auto it = held[i].begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.next_below(held[i].size())));
        const RequestId rid = it->first;
        try {
          engines[i]->unlock(rid);
          held[i].erase(rid);
          upgradeable[i].erase(rid);
        } catch (const std::logic_error&) {
          // Upgrade in flight on this hold; fine.
        }
      }
    } else if (dice < 0.72) {
      // Upgrade a held U.
      if (!upgradeable[i].empty()) {
        const RequestId rid = *upgradeable[i].begin();
        upgradeable[i].erase(rid);
        try {
          engines[i]->upgrade(rid);
        } catch (const std::logic_error&) {
        }
      }
    } else {
      // Deliver 0-3 messages in random channel order.
      const std::size_t count = rng.next_below(4);
      for (std::size_t k = 0; k < count; ++k) {
        if (!bus.deliver_random(rng)) break;
        check_mutex();
      }
    }
  }

  // Drain: release everything, finish all deliveries, repeatedly — a
  // request may be granted only after other nodes release.
  for (int round = 0; round < 10000; ++round) {
    bool progress = false;
    while (bus.deliver_random(rng)) {
      check_mutex();
      progress = true;
    }
    for (std::size_t i = 0; i < p.nodes; ++i) {
      std::vector<RequestId> rids;
      for (const auto& [rid, mode] : held[i]) rids.push_back(rid);
      for (const RequestId rid : rids) {
        try {
          engines[i]->unlock(rid);
          held[i].erase(rid);
          upgradeable[i].erase(rid);
          progress = true;
        } catch (const std::logic_error&) {
        }
      }
    }
    bool quiet = bus.pending() == 0;
    for (std::size_t i = 0; i < p.nodes && quiet; ++i) {
      quiet = held[i].empty() && !engines[i]->has_pending() &&
              engines[i]->backlog_size() == 0;
    }
    if (quiet) break;
    if (!progress && bus.pending() == 0) break;
  }

  // Liveness: every issued request was eventually granted (upgrades keep
  // their original id, so they don't add to `granted`).
  EXPECT_EQ(granted, issued) << "seed " << p.seed;
  // Exactly one token at the end.
  std::size_t tokens = 0;
  for (const auto& e : engines) tokens += e->is_token_node() ? 1 : 0;
  EXPECT_EQ(tokens, 1u);
  for (std::size_t i = 0; i < p.nodes; ++i) {
    EXPECT_TRUE(engines[i]->queue().empty()) << "node " << i;
    EXPECT_EQ(engines[i]->copyset_size(), 0u) << "node " << i;
  }
}

// ---------------------------------------------------------------------------
// Fuzz with dynamic membership: nodes randomly leave mid-run.
// ---------------------------------------------------------------------------

class MembershipFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MembershipFuzz, LeavesDuringTrafficStaySafeAndLive) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  constexpr std::size_t kNodes = 6;

  testing::TestBus bus;
  testing::EngineFactory factory;
  std::vector<std::unique_ptr<HlsEngine>> engines;
  std::vector<std::map<RequestId, Mode>> held(kNodes);
  std::vector<bool> departed(kNodes, false);
  std::uint64_t issued = 0, granted = 0;

  for (std::size_t i = 0; i < kNodes; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    engines.push_back(factory.make(id, NodeId{0}, bus.port(id),
                                   EngineOptions{},
                                   [&, i](RequestId rid, Mode mode) {
                                     held[i][rid] = mode;
                                     ++granted;
                                   }));
    HlsEngine* raw = engines.back().get();
    bus.register_handler(id, [raw](const Message& m) { raw->handle(m); });
  }

  auto check_mutex = [&] {
    for (std::size_t a = 0; a < kNodes; ++a) {
      for (const auto& [ra, ma] : held[a]) {
        for (std::size_t b = 0; b < kNodes; ++b) {
          for (const auto& [rb, mb] : held[b]) {
            if (a == b && ra == rb) continue;
            ASSERT_TRUE(compatible(ma, mb)) << "seed " << seed;
          }
        }
      }
    }
  };
  auto live_count = [&] {
    std::size_t n = 0;
    for (std::size_t i = 0; i < kNodes; ++i) n += departed[i] ? 0 : 1;
    return n;
  };

  for (int step = 0; step < 1500; ++step) {
    const std::size_t i = rng.next_below(kNodes);
    const double dice = rng.next_double();
    if (departed[i]) continue;
    if (dice < 0.35) {
      if (engines[i]->backlog_size() < 2) {
        (void)engines[i]->request_lock(kRealModes[rng.next_below(5)]);
        ++issued;
      }
    } else if (dice < 0.60) {
      if (!held[i].empty()) {
        const RequestId rid = held[i].begin()->first;
        try {
          engines[i]->unlock(rid);
          held[i].erase(rid);
        } catch (const std::logic_error&) {
        }
      }
    } else if (dice < 0.66 && live_count() > 2) {
      // Try to leave: pick another live node as successor for the token
      // case. Refused (holds/pending) -> fine, try later.
      std::size_t succ = rng.next_below(kNodes);
      while (succ == i || departed[succ]) succ = rng.next_below(kNodes);
      try {
        engines[i]->leave(NodeId{static_cast<std::uint32_t>(succ)});
        departed[i] = true;
      } catch (const std::logic_error&) {
        // also covers invalid_argument (refused leave)
      }
    } else {
      for (std::size_t k = rng.next_below(4); k-- > 0;) {
        if (!bus.deliver_random(rng)) break;
        check_mutex();
      }
    }
  }

  // Drain.
  for (int round = 0; round < 10000; ++round) {
    while (bus.deliver_random(rng)) check_mutex();
    bool any = false;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (departed[i]) continue;
      std::vector<RequestId> rids;
      for (const auto& [rid, mode] : held[i]) rids.push_back(rid);
      for (const RequestId rid : rids) {
        engines[i]->unlock(rid);
        held[i].erase(rid);
        any = true;
      }
    }
    bool quiet = bus.pending() == 0 && !any;
    for (std::size_t i = 0; i < kNodes && quiet; ++i) {
      if (departed[i]) continue;
      quiet = held[i].empty() && !engines[i]->has_pending() &&
              engines[i]->backlog_size() == 0;
    }
    if (quiet) break;
  }

  EXPECT_EQ(granted, issued) << "seed " << seed;
  std::size_t tokens = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (!departed[i] && engines[i]->is_token_node()) ++tokens;
  }
  EXPECT_EQ(tokens, 1u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MembershipFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

std::vector<FuzzParams> fuzz_params() {
  std::vector<FuzzParams> out;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    out.push_back({4, seed, 800, false});
  }
  for (std::uint64_t seed = 21; seed <= 30; ++seed) {
    out.push_back({8, seed, 1200, false});
  }
  for (std::uint64_t seed = 31; seed <= 36; ++seed) {
    out.push_back({5, seed, 800, true});  // with priority arbitration
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz,
                         ::testing::ValuesIn(fuzz_params()),
                         [](const auto& pinfo) {
                           return "n" + std::to_string(pinfo.param.nodes) +
                                  "_s" + std::to_string(pinfo.param.seed) +
                                  (pinfo.param.priorities ? "_prio" : "");
                         });

}  // namespace
}  // namespace hlock::core
