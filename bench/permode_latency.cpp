// Extension to Figure 6: the paper reports latency "averaged over all
// types of requests (IR, R, U, IW and W)". This bench shows the per-type
// breakdown behind that average for our protocol: intent/leaf entry ops
// are cheap and parallel, table-wide R/U ops pay for draining intent
// writers, and W pays the most.
#include <iostream>
#include <string>

#include "bench/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/json.hpp"
#include "harness/sweep_runner.hpp"

int main(int argc, char** argv) {
  using namespace hlock;
  using namespace hlock::harness;

  const bench::CliOptions cli = bench::parse_cli(
      argc, argv,
      "usage: permode_latency [--nodes N] [--ops N] [--seed S] [--threads N]\n"
      "         [--repeat N] [--json]\n");
  workload::WorkloadSpec spec;
  spec.ops_per_node = 80;
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

  std::cout << "Per-request-type latency factor for our protocol "
               "(breakdown of Figure 6's average)\n\n";
  TablePrinter table({"nodes", "entry_read(IR)", "table_read(R)",
                      "upgrade(U)", "entry_write(IW)", "table_write(W)",
                      "average"});
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    const auto& r = results[i];
    auto cell = [&](const char* kind) {
      const auto it = r.latency_by_kind.find(kind);
      return it == r.latency_by_kind.end()
                 ? std::string("-")
                 : TablePrinter::num(it->second.mean(), 1);
    };
    table.row({std::to_string(node_counts[i]), cell("entry_read"),
               cell("table_read"), cell("table_upgrade"),
               cell("entry_write"), cell("table_write"),
               TablePrinter::num(r.latency_factor.mean(), 1)});
  }
  table.print(std::cout);
  std::cout << "\nexpected: entry ops stay cheap (high parallelism via "
               "intent modes); table-wide ops dominate the average\n";
  return 0;
}
