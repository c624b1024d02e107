// EngineTable: the per-node index from lock id to engine that HlsNode and
// NaimiNode share. The index must find every engine it was given across
// any number of doublings (including ids that collide modulo the slot
// count), visit in ascending id order, refuse a second engine for a lock,
// and never move an engine: callers (SessionMux) keep engine pointers
// across later insertions. The same checks then run through both nodes,
// where find() must also never materialize a lazily-managed lock.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/engine_table.hpp"
#include "core/hls_node.hpp"
#include "naimi/naimi_node.hpp"
#include "test_util.hpp"

namespace hlock {
namespace {

struct Probe {
  explicit Probe(LockId id) : lock(id) {}
  LockId lock;
};

Probe& add(EngineTable<Probe>& table, std::uint32_t id) {
  return table.add(LockId{id}, std::make_unique<Probe>(LockId{id}));
}

std::vector<LockId> visit_order(const EngineTable<Probe>& table) {
  std::vector<LockId> out;
  table.for_each([&](LockId lock, const Probe& p) {
    EXPECT_EQ(p.lock, lock);
    out.push_back(lock);
  });
  return out;
}

const std::uint32_t kHighId = (1u << 20) + 1;
const std::uint32_t kMaxId = 0xffff'fffeu;  // 2^32 - 2; 2^32 - 1 is invalid

TEST(EngineTable, FindsLowAndHighIdsAndNothingElse) {
  EngineTable<Probe> table;
  EXPECT_EQ(table.find(LockId{0}), nullptr);
  EXPECT_EQ(table.index_bytes(), 0u);
  for (const std::uint32_t id : {7u, 3u, kHighId, kMaxId}) add(table, id);
  EXPECT_EQ(table.size(), 4u);
  for (const std::uint32_t id : {7u, 3u, kHighId, kMaxId}) {
    ASSERT_NE(table.find(LockId{id}), nullptr) << id;
    EXPECT_EQ(table.find(LockId{id})->lock, LockId{id});
  }
  for (const std::uint32_t id : {0u, 5u, 8u + 7u, kHighId + 1, kMaxId - 1})
    EXPECT_EQ(table.find(LockId{id}), nullptr) << id;
  EXPECT_EQ(visit_order(table),
            (std::vector<LockId>{LockId{3}, LockId{7}, LockId{kHighId},
                                 LockId{kMaxId}}));
}

TEST(EngineTable, IdsCollidingModuloTheSlotCountSurviveGrowth) {
  // Every id is 1 mod 1024, so all of them share a home slot at every
  // capacity up to 1024 and the table doubles several times under them.
  EngineTable<Probe> table;
  std::vector<std::uint32_t> ids;
  for (std::uint32_t k = 0; k < 200; ++k) {
    ids.push_back(k * 1024 + 1);
    add(table, ids.back());
    for (const std::uint32_t id : ids)
      ASSERT_NE(table.find(LockId{id}), nullptr) << id << " after " << k;
    EXPECT_EQ(table.find(LockId{(k + 1) * 1024 + 1}), nullptr);
  }
  EXPECT_EQ(table.size(), ids.size());
  EXPECT_EQ(visit_order(table).size(), ids.size());
}

TEST(EngineTable, VisitsInAscendingIdOrder) {
  EngineTable<Probe> table;
  std::vector<std::uint32_t> ids{kMaxId, 40, 9, 1, kHighId, 17, 0, 8, 33};
  for (const std::uint32_t id : ids) add(table, id);
  std::sort(ids.begin(), ids.end());
  std::vector<LockId> want;
  for (const std::uint32_t id : ids) want.push_back(LockId{id});
  EXPECT_EQ(visit_order(table), want);
}

TEST(EngineTable, DuplicateAddThrowsAndKeepsTheFirstEngine) {
  EngineTable<Probe> table;
  Probe& first = add(table, 7);
  Probe& high = add(table, kMaxId);
  EXPECT_THROW(add(table, 7), std::logic_error);
  EXPECT_THROW(add(table, kMaxId), std::logic_error);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.find(LockId{7}), &first);
  EXPECT_EQ(table.find(LockId{kMaxId}), &high);
}

TEST(EngineTable, ReferencesStayValidAcrossTenThousandInserts) {
  EngineTable<Probe> table;
  Probe& early = add(table, 42);
  for (std::uint32_t id = 100; id < 10'100; ++id) add(table, id);
  EXPECT_EQ(table.size(), 10'001u);
  EXPECT_EQ(table.find(LockId{42}), &early);
  EXPECT_EQ(early.lock, LockId{42});  // ASan flags a dangling reference
}

// ---- the same checks through both node types --------------------------

template <class Node>
std::vector<LockId> node_visit_order(const Node& node) {
  std::vector<LockId> out;
  node.for_each_engine([&](LockId lock, const auto& engine) {
    EXPECT_EQ(engine.lock(), lock);
    out.push_back(lock);
  });
  return out;
}

template <class Node>
void added_locks_act_as_one_index() {
  testing::TestBus bus;
  Node node(NodeId{1}, bus.port(NodeId{1}));
  for (const std::uint32_t id : {7u, 3u, kHighId, kMaxId})
    (void)node.add_lock(LockId{id}, NodeId{0});
  EXPECT_EQ(node_visit_order(node),
            (std::vector<LockId>{LockId{3}, LockId{7}, LockId{kHighId},
                                 LockId{kMaxId}}));
  EXPECT_EQ(node.lock_count(), 4u);
  EXPECT_EQ(node.engine(LockId{kMaxId}).lock(), LockId{kMaxId});
  EXPECT_EQ(node.find(LockId{5}), nullptr);
  EXPECT_EQ(node.find(LockId{kHighId + 1}), nullptr);
  EXPECT_THROW((void)node.engine(LockId{5}), std::logic_error);

  EXPECT_THROW(node.add_lock(LockId{7}, NodeId{0}), std::logic_error);
  EXPECT_THROW(node.add_lock(LockId{kMaxId}, NodeId{0}), std::logic_error);
  EXPECT_EQ(node.lock_count(), 4u);
}

template <class Node>
void find_never_materializes() {
  testing::TestBus bus;
  Node node(NodeId{1}, bus.port(NodeId{1}));
  node.set_lazy_holder([](LockId) { return NodeId{0}; });
  for (const std::uint32_t id : {0u, 3u, kHighId, kMaxId})
    EXPECT_EQ(node.find(LockId{id}), nullptr);
  EXPECT_EQ(node.lock_count(), 0u);
  auto& engine = node.engine(LockId{kMaxId});
  EXPECT_EQ(node.lock_count(), 1u);
  EXPECT_EQ(node.find(LockId{kMaxId}), &engine);
  EXPECT_EQ(node.find(LockId{3}), nullptr);
  EXPECT_EQ(node.lock_count(), 1u);
}

template <class Node>
void engine_reference_survives_ten_thousand_materializations() {
  testing::TestBus bus;
  Node node(NodeId{1}, bus.port(NodeId{1}));
  node.set_lazy_holder([](LockId) { return NodeId{0}; });
  auto& early = node.engine(LockId{42});
  for (std::uint32_t id = 100; id < 10'100; ++id) (void)node.engine(LockId{id});
  EXPECT_EQ(node.lock_count(), 10'001u);
  EXPECT_EQ(&node.engine(LockId{42}), &early);
  EXPECT_EQ(early.lock(), LockId{42});
}

TEST(HlsNodeIndex, AddedLocksActAsOneIndex) {
  added_locks_act_as_one_index<core::HlsNode>();
}
TEST(NaimiNodeIndex, AddedLocksActAsOneIndex) {
  added_locks_act_as_one_index<naimi::NaimiNode>();
}
TEST(HlsNodeIndex, FindNeverMaterializes) {
  find_never_materializes<core::HlsNode>();
}
TEST(NaimiNodeIndex, FindNeverMaterializes) {
  find_never_materializes<naimi::NaimiNode>();
}
TEST(HlsNodeIndex, EngineReferenceSurvivesTenThousandMaterializations) {
  engine_reference_survives_ten_thousand_materializations<core::HlsNode>();
}
TEST(NaimiNodeIndex, EngineReferenceSurvivesTenThousandMaterializations) {
  engine_reference_survives_ten_thousand_materializations<naimi::NaimiNode>();
}

TEST(HlsNodeIndex, RecoveryReachesEveryEngine) {
  testing::TestBus bus;
  core::HlsNode node(NodeId{1}, bus.port(NodeId{1}));
  for (const std::uint32_t id : {7u, 3u, kHighId, kMaxId})
    (void)node.add_lock(LockId{id}, NodeId{0});
  node.begin_recovery(1, NodeId{0}, std::set<NodeId>{NodeId{0}, NodeId{1}});
  node.for_each_engine([](LockId lock, const core::HlsEngine& engine) {
    EXPECT_EQ(engine.view(), 1u) << lock;
  });
}

}  // namespace
}  // namespace hlock
