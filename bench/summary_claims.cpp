// §6 headline claims at the paper's largest configuration (120 nodes):
//   * message overhead: ~3 (ours) vs ~4 (Naimi pure) — ours ~20% lower
//   * latency factor:   ~90 (ours) vs ~160 (Naimi pure)
//   * logarithmic asymptote of message overhead is preserved despite the
//     hierarchical modes
//
// The headline table and the asymptote check share the full-size HLS run,
// so the binary asks the SweepRunner for its three distinct points
// {hls@N, pure@N, hls@N/2} in one run() and indexes the results.
#include <iostream>

#include "bench/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep_runner.hpp"

int main(int argc, char** argv) {
  using namespace hlock;
  using namespace hlock::harness;

  const bench::CliOptions cli = bench::parse_cli(
      argc, argv,
      "usage: summary_claims [--nodes N] [--ops N] [--seed S] [--threads N]\n"
      "         [--repeat N]\n");
  workload::WorkloadSpec spec;
  spec.ops_per_node = 80;
  bench::apply(cli, spec);
  const std::size_t kNodes = cli.nodes != 0 ? cli.nodes : 120;

  SweepRunner runner(bench::sweep_options(cli));

  const auto results =
      runner.run({make_point(Protocol::kHls, kNodes, spec),
                  make_point(Protocol::kNaimiPure, kNodes, spec),
                  make_point(Protocol::kHls, kNodes / 2, spec)});
  const auto& ours = results[0];
  const auto& pure = results[1];
  const auto& ours_half = results[2];

  std::cout << "Conclusion (§6) claims at " << kNodes << " nodes\n\n";
  TablePrinter table({"metric", "paper ours", "measured ours", "paper naimi",
                      "measured naimi"});
  table.row({"messages per lock request", "~3",
             TablePrinter::num(ours.msgs_per_lock_request()), "~4",
             TablePrinter::num(pure.msgs_per_lock_request())});
  table.row({"latency factor", "~90",
             TablePrinter::num(ours.latency_factor.mean(), 1), "~160",
             TablePrinter::num(pure.latency_factor.mean(), 1)});
  table.print(std::cout);

  const double savings =
      1.0 - ours.msgs_per_lock_request() / pure.msgs_per_lock_request();
  std::cout << "\nmessage-rate advantage of ours over naimi pure: "
            << TablePrinter::num(savings * 100, 1)
            << "% (paper: ~20% lower)\n";

  // Asymptote check: overhead growth from half to full node count should
  // be small (logarithmic flattening), not proportional to the node
  // count.
  const double growth =
      ours.msgs_per_lock_request() / ours_half.msgs_per_lock_request();
  std::cout << "overhead growth " << kNodes / 2 << " -> " << kNodes
            << " nodes: x" << TablePrinter::num(growth)
            << " (flat/logarithmic expected, 2.0 would be linear)\n";
  return 0;
}
