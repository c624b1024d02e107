// Unit tests for the latency-model hierarchy (latency.hpp) and the
// ClusterMap placement table behind ClusteredLatency.
#include "sim/latency.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/cluster_map.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace hlock::sim {
namespace {

TEST(ConstantLatency, AlwaysExactlyMean) {
  ConstantLatency model(msec(150));
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(model.sample(rng), msec(150));
  EXPECT_EQ(model.mean(), msec(150));
}

TEST(UniformLatency, SupportIsHalfToThreeHalvesOfMean) {
  UniformLatency model(msec(150));
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    const Duration d = model.sample(rng);
    EXPECT_GE(d, msec(150) / 2);
    EXPECT_LE(d, msec(150) + msec(150) / 2);
    EXPECT_GT(d, 0);
  }
  EXPECT_EQ(model.mean(), msec(150));
}

TEST(UniformLatency, SampleMeanApproachesModelMean) {
  UniformLatency model(msec(150));
  Rng rng(3);
  double sum = 0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i)
    sum += static_cast<double>(model.sample(rng));
  const double mean = sum / kSamples;
  // Uniform on [75ms, 225ms]: the sample mean of 50k draws is within 1%.
  EXPECT_NEAR(mean, static_cast<double>(msec(150)), msec(150) * 0.01);
}

TEST(ExponentialLatency, RespectsMinimumAndStaysPositive) {
  ExponentialLatency model(msec(150), msec(15));
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const Duration d = model.sample(rng);
    EXPECT_GE(d, msec(15));
    EXPECT_GT(d, 0);
  }
  EXPECT_EQ(model.mean(), msec(150));
}

TEST(ExponentialLatency, SampleMeanApproachesModelMean) {
  ExponentialLatency model(msec(150), msec(15));
  Rng rng(5);
  double sum = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i)
    sum += static_cast<double>(model.sample(rng));
  // Exponential has a heavy tail: allow 2%.
  EXPECT_NEAR(sum / kSamples, static_cast<double>(msec(150)),
              msec(150) * 0.02);
}

TEST(LatencyModels, DeterministicUnderFixedSeed) {
  const auto draw = [](LatencyModel& model, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Duration> out;
    for (int i = 0; i < 64; ++i) out.push_back(model.sample(rng));
    return out;
  };
  UniformLatency u1(msec(150)), u2(msec(150));
  EXPECT_EQ(draw(u1, 42), draw(u2, 42));
  ExponentialLatency e1(msec(150), msec(15)), e2(msec(150), msec(15));
  EXPECT_EQ(draw(e1, 42), draw(e2, 42));
  // Different seeds diverge (the models don't ignore the stream).
  EXPECT_NE(draw(u1, 42), draw(u1, 43));
}

TEST(LatencyModels, SamplePairDefaultsToSampleSameStream) {
  // The byte-identity contract for flat topologies: sample_pair on a flat
  // model consumes exactly the stream sample() would.
  UniformLatency a(msec(150)), b(msec(150));
  Rng ra(7), rb(7);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(a.sample_pair(NodeId{0}, NodeId{1}, ra), b.sample(rb));
  }
  EXPECT_EQ(ra.next_u64(), rb.next_u64());
}

TEST(ClusterMap, BlockPlacementGroupsContiguousRuns) {
  const ClusterMap map = ClusterMap::make(8, 2, ClusterPlacement::kBlock);
  for (std::uint32_t i = 0; i < 4; ++i)
    EXPECT_EQ(map.cluster_of(NodeId{i}), 0u) << i;
  for (std::uint32_t i = 4; i < 8; ++i)
    EXPECT_EQ(map.cluster_of(NodeId{i}), 1u) << i;
  EXPECT_EQ(map.cluster_count(), 2u);
  EXPECT_EQ(map.node_count(), 8u);
}

TEST(ClusterMap, StripePlacementRoundRobins) {
  const ClusterMap map = ClusterMap::make(8, 3, ClusterPlacement::kStripe);
  for (std::uint32_t i = 0; i < 8; ++i)
    EXPECT_EQ(map.cluster_of(NodeId{i}), i % 3) << i;
}

TEST(ClusterMap, RaggedBlockShrinksLastCluster) {
  // 10 nodes over 4 clusters: ceil(10/4)=3 per block -> 3/3/3/1.
  const ClusterMap map = ClusterMap::make(10, 4, ClusterPlacement::kBlock);
  EXPECT_EQ(map.cluster_of(NodeId{0}), 0u);
  EXPECT_EQ(map.cluster_of(NodeId{8}), 2u);
  EXPECT_EQ(map.cluster_of(NodeId{9}), 3u);
  EXPECT_EQ(map.cluster_count(), 4u);
}

TEST(ClusterMap, OutOfRangeAndInvalidIdsFallIntoClusterZero) {
  const ClusterMap map = ClusterMap::make(4, 2, ClusterPlacement::kBlock);
  EXPECT_EQ(map.cluster_of(NodeId{99}), 0u);
  EXPECT_EQ(map.cluster_of(NodeId::invalid()), 0u);
  EXPECT_TRUE(map.same_cluster(NodeId{0}, NodeId{99}));
}

TEST(ClusterMap, ZeroClustersThrows) {
  EXPECT_THROW(ClusterMap::make(4, 0, ClusterPlacement::kBlock),
               std::invalid_argument);
}

TEST(ClusteredLatency, RoutesPairsByClusterMembership) {
  const ClusterMap map = ClusterMap::make(8, 2, ClusterPlacement::kBlock);
  ClusteredLatency model(&map, std::make_unique<ConstantLatency>(usec(50)),
                         std::make_unique<ConstantLatency>(msec(50)));
  Rng rng(8);
  EXPECT_EQ(model.sample_pair(NodeId{0}, NodeId{3}, rng), usec(50));
  EXPECT_EQ(model.sample_pair(NodeId{4}, NodeId{7}, rng), usec(50));
  EXPECT_EQ(model.sample_pair(NodeId{0}, NodeId{4}, rng), msec(50));
  EXPECT_EQ(model.sample_pair(NodeId{7}, NodeId{0}, rng), msec(50));
}

TEST(ClusteredLatency, PairlessSampleAndMeanAreInterCluster) {
  const ClusterMap map = ClusterMap::make(8, 2, ClusterPlacement::kBlock);
  ClusteredLatency model(&map, std::make_unique<ConstantLatency>(usec(50)),
                         std::make_unique<ConstantLatency>(msec(50)));
  Rng rng(9);
  EXPECT_EQ(model.sample(rng), msec(50));
  EXPECT_EQ(model.mean(), msec(50));
  EXPECT_EQ(model.intra_mean(), usec(50));
}

TEST(ClusteredLatency, NullPiecesThrow) {
  const ClusterMap map = ClusterMap::make(4, 2, ClusterPlacement::kBlock);
  EXPECT_THROW(ClusteredLatency(nullptr,
                                std::make_unique<ConstantLatency>(usec(50)),
                                std::make_unique<ConstantLatency>(msec(50))),
               std::invalid_argument);
  EXPECT_THROW(
      ClusteredLatency(&map, nullptr,
                       std::make_unique<ConstantLatency>(msec(50))),
      std::invalid_argument);
  EXPECT_THROW(ClusteredLatency(
                   &map, std::make_unique<ConstantLatency>(usec(50)),
                   nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace hlock::sim
