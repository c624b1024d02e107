// Many-lock forest benchmark: 10^4..10^6 Zipf-skewed locks across a
// forest of 3/4-level hierarchies (harness::ManyLocksCluster). An
// uncoupled forest is drained on N shards in parallel
// (sim::ShardedSimulator); with --cross-tree-pct the forest runs on one
// simulator and --shards has no effect.
//
// Output discipline: everything on stdout is deterministic — identical
// bytes at any --shards / thread count, which is exactly what the CI
// oracle step checks (`cmp` of --shards 1/2/8 runs). Wall-clock timing
// (the only shard-dependent observable) goes to stderr:
//
//   [many-locks] shards=4 threads=4 wall_ms=93.1 ev/s=1.2e6
//
//   ./many_locks                                   # defaults, table
//   ./many_locks --shards 8 --lock-count 1000000   # big forest, 8 slabs
//   ./many_locks --zipf 0 --levels 3 --trees 8     # uniform, shallow
//   ./many_locks --json                            # machine-readable
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>

#include "bench/cli.hpp"
#include "common/parse.hpp"
#include "harness/experiment.hpp"
#include "harness/json.hpp"
#include "harness/many_locks_cluster.hpp"

using namespace hlock;
using namespace hlock::harness;

namespace {

constexpr const char* kUsage =
    "usage: many_locks [--nodes N] [--trees N] [--levels 3|4]\n"
    "         [--lock-count N] [--zipf T] [--shards N] [--ops N]\n"
    "         [--cross-tree-pct P] [--cross-tree-unordered]\n"
    "         [--clusters N] [--intra-latency-ms M]\n"
    "         [--seed S] [--repeat N] [--json]\n"
    "  --shards applies to uncoupled forests; with --cross-tree-pct > 0\n"
    "  every tree runs on one simulator.\n";

}  // namespace

int main(int argc, char** argv) {
  bench::CliOptions defaults;
  std::uint32_t trees = 16;
  std::uint32_t levels = 4;
  double cross_tree_pct = 0.0;
  bool cross_tree_unordered = false;
  const bench::CliOptions cli = bench::parse_cli(
      argc, argv, kUsage, defaults,
      [&](const std::string& arg, const std::function<std::string()>& value) {
        if (arg == "--cross-tree-pct") {
          const auto v = try_parse_double(value());
          if (!v || *v < 0.0 || *v > 100.0) {
            std::cerr << "error: --cross-tree-pct expects 0..100\n" << kUsage;
            std::exit(2);
          }
          cross_tree_pct = *v;
          return true;
        }
        if (arg == "--cross-tree-unordered") {
          cross_tree_unordered = true;
          return true;
        }
        if (arg == "--trees") {
          const auto v = try_parse_u32(value());
          if (!v || *v == 0) {
            std::cerr << "error: --trees expects an integer >= 1\n" << kUsage;
            std::exit(2);
          }
          trees = *v;
          return true;
        }
        if (arg == "--levels") {
          const auto v = try_parse_u32(value());
          if (!v || (*v != 3 && *v != 4)) {
            std::cerr << "error: --levels must be 3 or 4\n" << kUsage;
            std::exit(2);
          }
          levels = *v;
          return true;
        }
        return false;
      });
  if (cli.threads != 0) {
    std::cerr << "many_locks parallelizes over simulation shards, not "
                 "sweep workers — use --shards N\n";
    return 2;
  }

  ManyLocksConfig cfg;
  cfg.nodes = cli.nodes != 0 ? cli.nodes : 4;
  cfg.trees = trees;
  cfg.levels = levels;
  cfg.shards = cli.shards != 0 ? cli.shards : 1;
  cfg.cross_tree_pct = cross_tree_pct;
  cfg.cross_tree_unordered = cross_tree_unordered;
  cfg.clusters = cli.clusters;
  cfg.intra_latency_mean =
      cli.intra_latency_ms > 0.0
          ? static_cast<Duration>(cli.intra_latency_ms * 1000.0)
          : Duration{0};
  cfg.spec.lock_count = 50'000;
  cfg.spec.zipf_theta = 0.9;
  cfg.spec.ops_per_node = 40;
  bench::apply(cli, cfg.spec);

  ManyLocksResult r;
  double best_ms = 0;
  for (int i = 0; i < cli.repeat; ++i) {
    ManyLocksCluster cluster(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    cluster.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (i == 0 || ms < best_ms) best_ms = ms;
    r = cluster.result();
  }

  // Wall-clock facts are shard- and machine-dependent: stderr only.
  std::cerr << "[many-locks] shards=" << cfg.shards << " threads="
            << (cfg.run_threads == 0 ? cfg.shards : cfg.run_threads)
            << " wall_ms=" << best_ms << " ev/s="
            << static_cast<double>(r.events) / (best_ms / 1000.0) << "\n";

  if (cli.json) {
    std::cout << "{\"nodes\":" << cfg.nodes << ",\"trees\":" << cfg.trees
              << ",\"levels\":" << cfg.levels
              << ",\"lock_count\":" << cfg.spec.lock_count
              << ",\"locks_total\":" << r.locks_total
              << ",\"zipf\":" << json_double(cfg.spec.zipf_theta)
              << ",\"ops\":" << r.ops
              << ",\"lock_requests\":" << r.lock_requests
              << ",\"messages\":" << r.messages
              << ",\"wire_bytes\":" << r.wire_bytes
              << ",\"events\":" << r.events
              << ",\"virtual_end\":" << r.virtual_end
              << ",\"engines_materialized\":" << r.engines_materialized
              << ",\"cross_tree_pct\":" << json_double(cfg.cross_tree_pct)
              << ",\"cross_tree_ops\":" << r.cross_tree_ops
              << ",\"deadlock_cycles\":" << r.deadlock_cycles
              << ",\"msgs_per_lock_request\":"
              << json_double(r.msgs_per_lock_request())
              << ",\"latency_factor_mean\":"
              << json_double(r.latency_factor.mean())
              << ",\"latency_factor_p50\":"
              << json_double(r.latency_factor.percentile(0.5))
              << ",\"latency_factor_p99\":"
              << json_double(r.latency_factor.percentile(0.99)) << "}\n";
    return 0;
  }

  std::cout << "Many-lock forest (trees=" << cfg.trees << " levels="
            << cfg.levels << " nodes/tree=" << cfg.nodes
            << " locks=" << r.locks_total << " zipf="
            << json_double(cfg.spec.zipf_theta) << " seed=" << cfg.spec.seed
            << ")\n\n";
  TablePrinter table({"metric", "value"});
  table.row({"app ops", std::to_string(r.ops)});
  table.row({"lock requests", std::to_string(r.lock_requests)});
  table.row({"messages", std::to_string(r.messages)});
  table.row({"msgs/request", TablePrinter::num(r.msgs_per_lock_request())});
  table.row({"wire bytes", std::to_string(r.wire_bytes)});
  table.row({"latency factor mean", TablePrinter::num(r.latency_factor.mean())});
  table.row({"latency factor p50",
             TablePrinter::num(r.latency_factor.percentile(0.5))});
  table.row({"latency factor p99",
             TablePrinter::num(r.latency_factor.percentile(0.99))});
  table.row({"cross-tree ops", std::to_string(r.cross_tree_ops)});
  table.row({"deadlock cycles", std::to_string(r.deadlock_cycles)});
  table.row({"sim events", std::to_string(r.events)});
  table.row({"virtual end", std::to_string(r.virtual_end)});
  table.row({"engines materialized", std::to_string(r.engines_materialized)});
  table.row({"locks total", std::to_string(r.locks_total)});
  table.print(std::cout);
  return 0;
}
