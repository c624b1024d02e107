// Wire bandwidth: bytes per lock request for the three configurations.
// Message COUNT (Figure 5) is the paper's metric, but a token transfer
// ships a whole queue while a release is a few dozen bytes — this bench
// checks that the byte story matches the count story.
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
      "usage: bandwidth [--nodes N] [--ops N] [--seed S] [--threads N]\n"
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

  std::cout << "Wire bandwidth (bytes per lock request, serialized + "
               "framing)\n\n";
  TablePrinter table({"nodes", "ours B/req", "ours B/msg", "pure B/req",
                      "same-work B/req"});
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    const auto& ours = results[3 * i];
    const auto& pure = results[3 * i + 1];
    const auto& same = results[3 * i + 2];
    auto per_req = [](const ExperimentResult& r) {
      return static_cast<double>(r.wire_bytes) /
             static_cast<double>(r.lock_requests);
    };
    table.row({std::to_string(node_counts[i]),
               TablePrinter::num(per_req(ours), 1),
               TablePrinter::num(static_cast<double>(ours.wire_bytes) /
                                     static_cast<double>(ours.messages),
                                 1),
               TablePrinter::num(per_req(pure), 1),
               TablePrinter::num(per_req(same), 1)});
  }
  table.print(std::cout);
  std::cout << "\nobservation: ours wins on message COUNT but its messages "
               "grow with n (token transfers ship queues), so at scale the "
               "BYTE cost converges with Naimi pure — the paper's metric "
               "choice (count) matters on latency-bound networks where "
               "per-message overhead dominates size\n";
  return 0;
}
