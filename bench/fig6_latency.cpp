// Figure 6 — "Request Latency (as a factor of point-to-point latency)":
// mean acquisition latency divided by the 150 ms mean network latency, vs
// number of nodes, for the three configurations.
//
// Paper's reading: our protocol grows linearly (factor ~90 at 120 nodes),
// Naimi pure linearly with a worse constant (~160 at 120), Naimi same work
// superlinearly (~240 at 120 and climbing).
#include <iostream>

#include "bench/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/json.hpp"
#include "harness/sweep_runner.hpp"

int main(int argc, char** argv) {
  using namespace hlock;
  using namespace hlock::harness;

  const bench::CliOptions cli = bench::parse_cli(
      argc, argv,
      "usage: fig6_latency [--nodes N] [--ops N] [--seed S] [--threads N]\n"
      "         [--repeat N] [--json]\n");
  workload::WorkloadSpec spec;
  spec.ops_per_node = 60;
  bench::apply(cli, spec);

  std::vector<SweepPoint> points;
  const auto node_counts = bench::sweep_nodes(cli);
  for (const std::size_t n : node_counts) {
    points.push_back(make_point(Protocol::kHls, n, spec));
    points.push_back(make_point(Protocol::kNaimiPure, n, spec));
    points.push_back(make_point(Protocol::kNaimiSameWork, n, spec));
  }
  SweepRunner runner(bench::sweep_options(cli));
  const auto results = runner.run(points);

  if (cli.json) {
    write_json_array(std::cout, results);
    return 0;
  }

  std::cout << "Figure 6: request latency factor (mean acquire latency / "
               "150ms point-to-point latency)\n\n";

  TablePrinter table({"nodes", "our-protocol", "naimi-pure",
                      "naimi-same-work", "ours p95"});
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    const auto& ours = results[3 * i];
    const auto& pure = results[3 * i + 1];
    const auto& same = results[3 * i + 2];
    table.row({std::to_string(node_counts[i]),
               TablePrinter::num(ours.latency_factor.mean(), 1),
               TablePrinter::num(pure.latency_factor.mean(), 1),
               TablePrinter::num(same.latency_factor.mean(), 1),
               TablePrinter::num(ours.latency_factor.percentile(0.95), 1)});
  }
  table.print(std::cout);

  std::cout << "\npaper @120 nodes: ours ~90 | naimi pure ~160 | same work "
               "~240 (superlinear)\n";
  return 0;
}
