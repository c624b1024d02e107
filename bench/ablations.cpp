// Ablations of the protocol's design choices (DESIGN.md §6), each a claim
// the paper makes in §3-§4:
//
//   child-grants off   — "most significantly, from allowing children to
//                         grant requests" (Fig. 5 discussion)
//   local-queues off   — Rule 4's queue-to-suppress-messages optimization
//   eager releases     — Rule 5.2: "one message suffices, irrespective of
//                         the number of grandchildren"
//   freezing off       — Rule 6 buys FIFO fairness; measure its price
#include <iostream>

#include "bench/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep_runner.hpp"

int main(int argc, char** argv) {
  using namespace hlock;
  using namespace hlock::harness;
  using core::EngineOptions;

  const bench::CliOptions cli = bench::parse_cli(
      argc, argv,
      "usage: ablations [--ops N] [--seed S] [--threads N] [--repeat N]\n");
  workload::WorkloadSpec spec;
  spec.ops_per_node = 60;
  bench::apply(cli, spec);

  struct Variant {
    const char* name;
    EngineOptions opts;
  };
  EngineOptions no_child;
  no_child.allow_child_grants = false;
  EngineOptions no_queue;
  no_queue.allow_local_queues = false;
  EngineOptions eager;
  eager.lazy_release = false;
  EngineOptions no_freeze;
  no_freeze.enable_freezing = false;
  const Variant variants[] = {
      {"full protocol", EngineOptions{}},
      {"no child grants", no_child},
      {"no local queues", no_queue},
      {"eager releases", eager},
      {"no freezing", no_freeze},
  };
  const std::size_t node_counts[] = {20, 60, 120};

  std::vector<SweepPoint> points;
  for (const std::size_t n : node_counts)
    for (const Variant& v : variants)
      points.push_back(make_point(Protocol::kHls, n, spec, v.opts));
  SweepRunner runner(bench::sweep_options(cli));
  const auto results = runner.run(points);

  std::size_t next = 0;
  for (const std::size_t n : node_counts) {
    std::cout << "=== " << n << " nodes ===\n";
    TablePrinter table(
        {"variant", "msgs/request", "latency factor", "p95 factor"});
    for (const Variant& v : variants) {
      const auto& r = results[next++];
      table.row({v.name, TablePrinter::num(r.msgs_per_lock_request()),
                 TablePrinter::num(r.latency_factor.mean(), 1),
                 TablePrinter::num(r.latency_factor.percentile(0.95), 1)});
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "expected: every ablation costs messages and/or latency "
               "relative to the full protocol; 'no freezing' trades "
               "fairness (p95) for throughput\n";
  return 0;
}
