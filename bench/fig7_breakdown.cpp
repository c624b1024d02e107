// Figure 7 — "Message Behavior": our protocol's message overhead broken
// down by message type (release, freeze, request, copy grant, token
// transfer), per lock request, vs number of nodes.
//
// Paper's reading: requests rise then flatten; token transfers fall from
// their initial level and flatten (freezing makes immediate transfer
// increasingly improbable); copy grants rise and stabilize (requests end
// as either transfers or grants); releases track grants; freezes rise
// then stay constant (at most five modes can be frozen).
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
      "usage: fig7_breakdown [--nodes N] [--ops N] [--seed S] [--threads N]\n"
      "         [--repeat N] [--json]\n");
  workload::WorkloadSpec spec;
  spec.ops_per_node = 60;
  bench::apply(cli, spec);

  std::vector<SweepPoint> points;
  const auto node_counts = bench::sweep_nodes(cli);
  for (const std::size_t n : node_counts)
    points.push_back(make_point(Protocol::kHls, n, spec));
  SweepRunner runner(bench::sweep_options(cli));
  const auto results = runner.run(points);

  if (cli.json) {
    write_json_array(std::cout, results);
    return 0;
  }

  std::cout << "Figure 7: message breakdown for our protocol "
               "(messages per lock request, by type)\n\n";

  TablePrinter table({"nodes", "request", "grant", "token", "release",
                      "freeze", "total"});
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    const auto& r = results[i];
    table.row({std::to_string(node_counts[i]),
               TablePrinter::num(r.kind_per_request("request")),
               TablePrinter::num(r.kind_per_request("grant")),
               TablePrinter::num(r.kind_per_request("token")),
               TablePrinter::num(r.kind_per_request("release")),
               TablePrinter::num(r.kind_per_request("freeze")),
               TablePrinter::num(r.msgs_per_lock_request())});
  }
  table.print(std::cout);

  std::cout << "\npaper: request rises then flattens; token transfer "
               "decreases to a constant; grant/release rise and stabilize; "
               "freeze small and constant\n";
  return 0;
}
