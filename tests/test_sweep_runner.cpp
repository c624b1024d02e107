// SweepRunner: parallel execution must be invisible in the results —
// bit-identical ExperimentResults in submission order at any thread
// count, duplicate points and repeats included.
#include <gtest/gtest.h>

#include <vector>

#include "harness/experiment.hpp"
#include "harness/sweep_runner.hpp"

using namespace hlock;
using namespace hlock::harness;

namespace {

workload::WorkloadSpec small_spec() {
  workload::WorkloadSpec spec;
  spec.ops_per_node = 20;
  return spec;
}

/// The fig5 point set, shrunk for test time: all three protocols at the
/// standard node counts up to 40.
std::vector<SweepPoint> fig5_points() {
  const workload::WorkloadSpec spec = small_spec();
  std::vector<SweepPoint> points;
  for (const std::size_t n : sweep_node_counts(40)) {
    points.push_back(make_point(Protocol::kHls, n, spec));
    points.push_back(make_point(Protocol::kNaimiPure, n, spec));
    points.push_back(make_point(Protocol::kNaimiSameWork, n, spec));
  }
  return points;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.app_ops, b.app_ops);
  EXPECT_EQ(a.lock_requests, b.lock_requests);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.virtual_end, b.virtual_end);
  EXPECT_EQ(a.messages_by_kind.all(), b.messages_by_kind.all());
  ASSERT_EQ(a.latency_factor.count(), b.latency_factor.count());
  EXPECT_EQ(a.latency_factor.mean(), b.latency_factor.mean());
  EXPECT_EQ(a.latency_factor.percentile(0.95),
            b.latency_factor.percentile(0.95));
  ASSERT_EQ(a.latency_by_kind.size(), b.latency_by_kind.size());
  for (const auto& [kind, summary] : a.latency_by_kind) {
    const auto it = b.latency_by_kind.find(kind);
    ASSERT_NE(it, b.latency_by_kind.end()) << kind;
    EXPECT_EQ(summary.count(), it->second.count()) << kind;
    EXPECT_EQ(summary.mean(), it->second.mean()) << kind;
  }
}

TEST(SweepRunner, MatchesSerialPathAtEveryThreadCount) {
  const auto points = fig5_points();

  // Ground truth: the plain serial path every bench used before.
  std::vector<ExperimentResult> serial;
  for (const SweepPoint& p : points)
    serial.push_back(run_experiment(p.protocol, p.config));

  for (const std::size_t threads : {1u, 2u, 8u}) {
    SweepOptions opts;
    opts.threads = threads;
    SweepRunner runner(opts);
    const auto parallel = runner.run(points);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " point=" + std::to_string(i));
      expect_identical(serial[i], parallel[i]);
    }
  }
}

TEST(SweepRunner, ResultsComeBackInSubmissionOrder) {
  // Mixed sizes so completion order differs from submission order.
  const workload::WorkloadSpec spec = small_spec();
  std::vector<SweepPoint> points;
  for (const std::size_t n : {40ul, 2ul, 20ul, 5ul, 10ul})
    points.push_back(make_point(Protocol::kHls, n, spec));

  SweepOptions opts;
  opts.threads = 4;
  SweepRunner runner(opts);
  const auto results = runner.run(points);
  ASSERT_EQ(results.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(results[i].nodes, points[i].config.nodes);
}

TEST(SweepRunner, DuplicatePointsGiveIdenticalResults) {
  const workload::WorkloadSpec spec = small_spec();
  const SweepPoint a = make_point(Protocol::kHls, 10, spec);
  const SweepPoint b = make_point(Protocol::kNaimiPure, 10, spec);

  SweepOptions opts;
  opts.threads = 2;
  SweepRunner runner(opts);
  const auto r = runner.run({a, b, a});
  ASSERT_EQ(r.size(), 3u);
  expect_identical(r[0], r[2]);
}

TEST(SweepRunner, RepeatReevaluates) {
  const SweepPoint a = make_point(Protocol::kHls, 5, small_spec());
  SweepOptions opts;
  opts.threads = 1;
  opts.repeat = 3;
  SweepRunner runner(opts);
  const auto repeated = runner.run({a, a});
  // Repetition must not perturb the (deterministic) result.
  const ExperimentResult once = run_experiment(a.protocol, a.config);
  expect_identical(once, repeated[0]);
  expect_identical(once, repeated[1]);
}

TEST(SweepRunner, ForEachIndexCoversAllIndicesOnce) {
  for (const std::size_t threads : {1u, 4u}) {
    SweepOptions opts;
    opts.threads = threads;
    SweepRunner runner(opts);
    std::vector<int> counts(100, 0);
    runner.for_each_index(counts.size(),
                          [&](std::size_t i) { counts[i]++; });
    for (std::size_t i = 0; i < counts.size(); ++i)
      EXPECT_EQ(counts[i], 1) << "i=" << i << " threads=" << threads;
  }
}

TEST(SweepRunner, PropagatesExceptionsFromPoints) {
  workload::WorkloadSpec bad = small_spec();
  bad.p_entry_read = 2.0;  // mode mix no longer sums to 1 -> validate throws
  SweepOptions opts;
  opts.threads = 2;
  SweepRunner runner(opts);
  EXPECT_THROW(runner.run({make_point(Protocol::kHls, 4, bad)}),
               std::invalid_argument);
}

}  // namespace
