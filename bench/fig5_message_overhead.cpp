// Figure 5 — "Scalability Behavior": average number of messages per lock
// request vs number of nodes, for our protocol, Naimi pure and Naimi same
// work, under the paper's workload (IR/R/U/IW/W = 80/10/4/5/1 %, CS 15 ms,
// idle 150 ms, latency 150 ms).
//
// Paper's reading: our protocol flattens at ~3 messages, Naimi pure at ~4
// (ours ~20 % lower despite richer functionality), Naimi same work grows
// superlinearly.
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
      "usage: fig5_message_overhead [--nodes N] [--ops N] [--seed S]\n"
      "         [--threads N] [--repeat N] [--json]\n");
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

  std::cout << "Figure 5: message overhead (messages per lock request)\n"
            << "workload: IR/R/U/IW/W = 80/10/4/5/1%, cs=15ms, idle=150ms, "
               "net=150ms, seed=" << spec.seed << "\n\n";

  TablePrinter table({"nodes", "our-protocol", "naimi-pure",
                      "naimi-same-work", "same-work msgs/op"});
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    const auto& ours = results[3 * i];
    const auto& pure = results[3 * i + 1];
    const auto& same = results[3 * i + 2];
    table.row({std::to_string(node_counts[i]),
               TablePrinter::num(ours.msgs_per_lock_request()),
               TablePrinter::num(pure.msgs_per_lock_request()),
               TablePrinter::num(same.msgs_per_lock_request()),
               TablePrinter::num(same.msgs_per_op())});
  }
  table.print(std::cout);

  std::cout << "\npaper: ours -> ~3 asymptote | naimi pure -> ~4 (ours ~20% "
               "lower) | same work superlinear\n";
  return 0;
}
