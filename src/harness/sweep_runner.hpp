// Parallel sweep execution.
//
// Every figure in the paper is a sweep of independent deterministic
// simulations; each point owns its whole world (Simulator, SimNetwork,
// RNG streams), so points can run on any thread in any order. SweepRunner
// is the shared execution layer for the bench binaries and tools: a
// work-queue thread pool that evaluates points concurrently and hands the
// results back in submission order, so tables and JSON output are
// byte-identical at any `--threads` value. Every point handed to run()
// is evaluated; a caller that needs one configuration twice asks for it
// once and reuses the result.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/experiment.hpp"
#include "harness/metrics.hpp"

namespace hlock::harness {

/// One independent simulation run: a protocol plus the full cluster
/// configuration (nodes, workload spec, engine options, latency model,
/// loss rate).
struct SweepPoint {
  Protocol protocol{Protocol::kHls};
  ClusterConfig config{};
};

/// Convenience maker mirroring run_experiment()'s signature.
SweepPoint make_point(Protocol protocol, std::size_t nodes,
                      const workload::WorkloadSpec& spec,
                      const core::EngineOptions& opts = {});

struct SweepOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  std::size_t threads = 0;
  /// Evaluate each point this many times (fresh cluster each time; the
  /// runs are bit-identical, so this only matters for wall-clock
  /// timing).
  int repeat = 1;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Evaluate all points and return their results in submission order,
  /// regardless of the order the pool finishes them in.
  std::vector<ExperimentResult> run(const std::vector<SweepPoint>& points);

  /// Generic parallel map for benches with custom rigs (paper_figures'
  /// path_length, churn, recovery...): calls fn(i) for every i in
  /// [0, count) on the pool. fn must be self-contained per index — it
  /// builds its own simulator/rig and writes only to index-i slots of
  /// caller-owned storage.
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& fn);

 private:
  SweepOptions options_;
  std::size_t threads_;
};

}  // namespace hlock::harness
