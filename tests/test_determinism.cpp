// Bit-reproducibility of the simulator: the same seed must yield the same
// message counts, wire bytes, per-kind breakdown, and final virtual time —
// run-to-run within a build (Determinism.*) and across builds against
// constants recorded from the seed revision (SeedRegression.*). The
// regression half is the guard rail for hot-path optimizations: any
// allocation or ordering change that alters behavior trips it.
#include <gtest/gtest.h>

#include "harness/cluster.hpp"
#include "harness/many_locks_cluster.hpp"

namespace hlock {
namespace {

using harness::ClusterConfig;
using harness::ExperimentResult;
using harness::HlsCluster;
using harness::NaimiCluster;

ClusterConfig fig5_config() {
  ClusterConfig config;
  config.nodes = 24;
  config.spec.ops_per_node = 40;
  return config;  // default fig5 workload mix, default seed
}

template <typename Cluster, typename... Extra>
ExperimentResult run_once(const ClusterConfig& config, Extra... extra) {
  Cluster cluster(config, extra...);
  cluster.run();
  return cluster.result();
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.lock_requests, b.lock_requests);
  EXPECT_EQ(a.virtual_end, b.virtual_end);
  EXPECT_EQ(a.messages_by_kind.all(), b.messages_by_kind.all());
}

TEST(Determinism, HlsSameSeedSameRun) {
  const ClusterConfig config = fig5_config();
  expect_identical(run_once<HlsCluster>(config), run_once<HlsCluster>(config));
}

TEST(Determinism, NaimiSameSeedSameRun) {
  const ClusterConfig config = fig5_config();
  expect_identical(run_once<NaimiCluster>(config, true),
                   run_once<NaimiCluster>(config, true));
}

TEST(Determinism, DifferentSeedsDiverge) {
  ClusterConfig config = fig5_config();
  const ExperimentResult a = run_once<HlsCluster>(config);
  config.spec.seed ^= 1;
  const ExperimentResult b = run_once<HlsCluster>(config);
  // Virtual time depends on every sampled latency; a one-bit seed change
  // must perturb it (equal counts could coincide, time practically cannot).
  EXPECT_NE(a.virtual_end, b.virtual_end);
}

// Constants recorded from the seed build (pre-optimization revision) at
// n=24, ops_per_node=40, default seed; the Naimi same-work and forest
// constants were recorded later, before the session state machines were
// merged into SessionMux. A mismatch means an "optimization" changed
// observable behavior, not just speed.
TEST(SeedRegression, HlsFig5Counts) {
  const ExperimentResult r = run_once<HlsCluster>(fig5_config());
  EXPECT_EQ(r.messages, 5151u);
  EXPECT_EQ(r.wire_bytes, 322985u);
  EXPECT_EQ(r.virtual_end, 86894413);
  EXPECT_EQ(r.messages_by_kind.get("request"), 2252u);
  EXPECT_EQ(r.messages_by_kind.get("grant"), 778u);
  EXPECT_EQ(r.messages_by_kind.get("token"), 609u);
  EXPECT_EQ(r.messages_by_kind.get("release"), 839u);
  EXPECT_EQ(r.messages_by_kind.get("freeze"), 673u);
}

// The same workload at n=128, where the token node's local queue holds
// dozens of entries (at n=24 it stays short), so queue placement, merge
// order and Rule 6 freezing over long queues are pinned too. Recorded
// before the queue's per-mode counts and head index were introduced.
TEST(SeedRegression, HlsFig5CountsAt128) {
  ClusterConfig config = fig5_config();
  config.nodes = 128;
  const ExperimentResult r = run_once<HlsCluster>(config);
  EXPECT_EQ(r.messages, 31100u);
  EXPECT_EQ(r.wire_bytes, 2335949u);
  EXPECT_EQ(r.virtual_end, 425818760);
  EXPECT_EQ(r.lock_requests, 9435u);
  EXPECT_EQ(r.messages_by_kind.get("request"), 13724u);
  EXPECT_EQ(r.messages_by_kind.get("grant"), 4148u);
  EXPECT_EQ(r.messages_by_kind.get("token"), 3393u);
  EXPECT_EQ(r.messages_by_kind.get("release"), 4440u);
  EXPECT_EQ(r.messages_by_kind.get("freeze"), 5395u);
}

TEST(SeedRegression, NaimiFig5Counts) {
  const ExperimentResult r = run_once<NaimiCluster>(fig5_config(), true);
  EXPECT_EQ(r.messages, 3533u);
  EXPECT_EQ(r.wire_bytes, 208447u);
  EXPECT_EQ(r.virtual_end, 157215059);
  EXPECT_EQ(r.messages_by_kind.get("naimi_request"), 2573u);
  EXPECT_EQ(r.messages_by_kind.get("naimi_token"), 960u);
}

TEST(SeedRegression, NaimiSameWorkFig5Counts) {
  const ExperimentResult r = run_once<NaimiCluster>(fig5_config(), false);
  EXPECT_EQ(r.messages, 16400u);
  EXPECT_EQ(r.wire_bytes, 967600u);
  EXPECT_EQ(r.virtual_end, 2332056134);
  EXPECT_EQ(r.lock_requests, 4801u);
  EXPECT_EQ(r.messages_by_kind.get("naimi_request"), 12287u);
  EXPECT_EQ(r.messages_by_kind.get("naimi_token"), 4113u);
}

/// A small forest: 6 trees of 4 levels, 3 nodes each, Zipf-skewed pages.
harness::ManyLocksResult run_forest(double cross_tree_pct) {
  harness::ManyLocksConfig config;
  config.nodes = 3;
  config.trees = 6;
  config.levels = 4;
  config.spec.lock_count = 6 * 200;
  config.spec.zipf_theta = 0.9;
  config.spec.ops_per_node = 12;
  config.spec.seed = 0xf00d;
  config.cross_tree_pct = cross_tree_pct;
  harness::ManyLocksCluster cluster(config);
  cluster.run();
  return cluster.result();
}

TEST(SeedRegression, ForestCounts) {
  const harness::ManyLocksResult r = run_forest(0.0);
  EXPECT_EQ(r.ops, 216u);
  EXPECT_EQ(r.messages, 1323u);
  EXPECT_EQ(r.wire_bytes, 78057u);
  EXPECT_EQ(r.virtual_end, 14468453);
  EXPECT_EQ(r.lock_requests, 843u);
  EXPECT_EQ(r.messages_by_kind.get("request"), 620u);
  EXPECT_EQ(r.messages_by_kind.get("grant"), 158u);
  EXPECT_EQ(r.messages_by_kind.get("token"), 370u);
  EXPECT_EQ(r.messages_by_kind.get("release"), 175u);
  EXPECT_EQ(r.messages_by_kind.get("freeze"), 0u);
}

TEST(SeedRegression, CoupledForestCounts) {
  const harness::ManyLocksResult r = run_forest(10.0);
  EXPECT_EQ(r.ops, 216u);
  EXPECT_EQ(r.cross_tree_ops, 13u);
  EXPECT_EQ(r.messages, 1462u);
  EXPECT_EQ(r.wire_bytes, 86258u);
  EXPECT_EQ(r.virtual_end, 16670125);
  EXPECT_EQ(r.lock_requests, 889u);
  EXPECT_EQ(r.messages_by_kind.get("request"), 687u);
  EXPECT_EQ(r.messages_by_kind.get("grant"), 187u);
  EXPECT_EQ(r.messages_by_kind.get("token"), 386u);
  EXPECT_EQ(r.messages_by_kind.get("release"), 202u);
  EXPECT_EQ(r.messages_by_kind.get("freeze"), 0u);
}

}  // namespace
}  // namespace hlock
