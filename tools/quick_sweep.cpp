// Quick smoke sweep: the three protocols at a few node counts, one line
// per point. Runs on the shared SweepRunner (--threads N parallelism).
#include <iostream>

#include "bench/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep_runner.hpp"

using namespace hlock;
using namespace hlock::harness;

int main(int argc, char** argv) {
  const bench::CliOptions cli = bench::parse_cli(
      argc, argv,
      "usage: quick_sweep [--ops N] [--seed S] [--threads N] [--repeat N]\n");
  workload::WorkloadSpec spec;
  spec.ops_per_node = 60;
  bench::apply(cli, spec);

  const std::size_t node_counts[] = {10, 40, 120};
  const Protocol protocols[] = {Protocol::kHls, Protocol::kNaimiPure,
                                Protocol::kNaimiSameWork};
  std::vector<SweepPoint> points;
  for (const std::size_t n : node_counts)
    for (const Protocol p : protocols)
      points.push_back(make_point(p, n, spec));

  SweepRunner runner(bench::sweep_options(cli));
  const auto results = runner.run(points);

  std::size_t i = 0;
  for (const std::size_t n : node_counts) {
    for (const Protocol p : protocols) {
      const auto& r = results[i++];
      std::cout << to_string(p) << " n=" << n
                << " msgs/req=" << r.msgs_per_lock_request()
                << " msgs/op=" << r.msgs_per_op()
                << " latfactor=" << r.latency_factor.mean()
                << " vend=" << r.virtual_end / 1000000.0 << "s\n";
    }
  }
  return 0;
}
