// Behavioral coverage of Table 2(a): for EVERY (pending M1, incoming M2)
// cell, a non-token node with a pending M1 request receives an M2 request
// and must queue it locally or forward it exactly as the table says —
// verified by observing the actual message flow, not the lookup function.
// Each cell additionally checks liveness: once the root unblocks, both
// requests are eventually served.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/hls_engine.hpp"
#include "test_util.hpp"

namespace hlock::core {
namespace {

NodeId id_of(char c) { return NodeId{static_cast<std::uint32_t>(c - 'A')}; }

struct Cell {
  Mode pending;   // M1 at node B (kNone = no pending request)
  Mode incoming;  // M2 arriving from node D
};

class Table2aBehavior : public ::testing::TestWithParam<Cell> {};

TEST_P(Table2aBehavior, QueueOrForwardMatchesTheTable) {
  const Cell cell = GetParam();

  testing::TestBus bus;
  testing::EngineFactory factory;
  std::map<char, std::unique_ptr<HlsEngine>> engines;
  std::map<char, std::vector<std::pair<RequestId, Mode>>> acquired;
  auto add = [&](char name, char parent) {
    auto engine = factory.make(
        id_of(name), id_of('A'), bus.port(id_of(name)), EngineOptions{},
        [&acquired, name](RequestId id, Mode mode) {
          acquired[name].emplace_back(id, mode);
        },
        {}, parent == '\0' ? NodeId::invalid() : id_of(parent));
    HlsEngine* raw = engine.get();
    bus.register_handler(id_of(name),
                         [raw](const Message& m) { raw->handle(m); });
    engines[name] = std::move(engine);
  };
  add('A', '\0');  // root
  add('B', '\0');
  add('D', 'B');  // D's probable owner is B

  // Root holds W: every request stalls, so B's M1 stays pending.
  const RequestId wa = engines['A' ]->request_lock(Mode::kW);

  if (cell.pending != Mode::kNone) {
    (void)engines['B']->request_lock(cell.pending);
    bus.deliver_all();  // request travels to A and is queued there
    ASSERT_TRUE(engines['B']->has_pending());
  }

  // D's request reaches B (exactly one hop on the D->B channel).
  (void)engines['D']->request_lock(cell.incoming);
  ASSERT_GE(bus.pending(), 1u);
  // Deliver only D's request (it is the newest message; find it).
  bool delivered = false;
  for (std::size_t i = 0; i < bus.in_flight().size(); ++i) {
    const auto& f = bus.in_flight()[i];
    if (f.msg.kind == MsgKind::kRequest &&
        f.msg.req.requester == id_of('D') && f.to == id_of('B')) {
      bus.deliver_at(i);
      delivered = true;
      break;
    }
  }
  ASSERT_TRUE(delivered);

  const bool queued = !engines['B']->queue().empty();
  const bool expect_queue =
      queue_or_forward(cell.pending, cell.incoming) == PendingAction::kQueue;
  EXPECT_EQ(queued, expect_queue)
      << "pending " << cell.pending << ", incoming " << cell.incoming;

  // Liveness: release the root's W; every request must come through.
  bus.deliver_all();
  engines['A']->unlock(wa);
  bus.deliver_all();
  // Progress can need several unlock/serve rounds (e.g. incompatible
  // modes serve strictly one after another).
  for (int round = 0; round < 10; ++round) {
    const std::size_t want = cell.pending != Mode::kNone ? 2u : 1u;
    std::size_t got = acquired['B'].size() + acquired['D'].size();
    if (got >= want) break;
    // Release whatever is held to let the queue advance.
    for (const char n : {'B', 'D'}) {
      while (!engines[n]->holds().empty()) {
        engines[n]->unlock(engines[n]->holds().begin()->first);
        bus.deliver_all();
      }
    }
  }
  if (cell.pending != Mode::kNone) {
    EXPECT_EQ(acquired['B'].size(), 1u) << "B's pending was lost";
  }
  EXPECT_EQ(acquired['D'].size(), 1u) << "D's request was lost";
}

std::vector<Cell> all_cells() {
  std::vector<Cell> out;
  const Mode pendings[6] = {Mode::kNone, Mode::kIR, Mode::kR,
                            Mode::kU,    Mode::kIW, Mode::kW};
  for (const Mode m1 : pendings) {
    for (const Mode m2 : kRealModes) out.push_back({m1, m2});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllCells, Table2aBehavior,
                         ::testing::ValuesIn(all_cells()),
                         [](const auto& pinfo) {
                           std::string name = "p";
                           name += to_string(pinfo.param.pending);
                           name += "_r";
                           name += to_string(pinfo.param.incoming);
                           // '-' is not a valid gtest name char.
                           for (char& c : name) {
                             if (c == '-') c = '0';
                           }
                           return name;
                         });

}  // namespace
}  // namespace hlock::core
