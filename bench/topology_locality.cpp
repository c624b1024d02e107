// Topology locality — a figure family the paper never had: the same
// workload on a flat network vs a clustered one (cheap intra-cluster
// hops, expensive inter-cluster hops), with the locality-biased token
// hand-off off and on.
//
// Four points, one workload:
//   flat/bias-off        today's simulator, unchanged
//   flat/bias-on         must be IDENTICAL to flat/bias-off — the bias is
//                        inert without a cluster map (checked, exit 1)
//   clustered/bias-off   FIFO token service pays the boundary cost blindly
//   clustered/bias-on    token batches same-cluster waiters under the
//                        fairness cap before crossing the boundary
//
// The headline claim — clustered/bias-on has a strictly lower
// cross-cluster message fraction and mean latency factor than
// clustered/bias-off, at identical app_ops and lock_requests — is
// asserted by the binary itself (exit 1 on regression), so CI enforces
// it on every run.
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "bench/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/json.hpp"
#include "harness/sweep_runner.hpp"

namespace {

struct Point {
  const char* label;
  hlock::harness::SweepPoint sweep;
};

std::string point_json(const Point& p,
                       const hlock::harness::ExperimentResult& r) {
  using hlock::harness::json_double;
  const hlock::harness::ClusterConfig& c = p.sweep.config;
  std::ostringstream os;
  os << "{\"label\":\"" << p.label << "\",\"nodes\":" << c.nodes
     << ",\"clusters\":" << c.clusters << ",\"locality_bias\":"
     << (c.engine_opts.locality_bias ? "true" : "false")
     << ",\"fairness_cap\":"
     << static_cast<unsigned>(c.engine_opts.locality_fairness_cap)
     << ",\"intra_latency_us\":" << c.intra_latency_mean
     << ",\"inter_latency_us\":" << c.inter_latency_mean
     << ",\"cross_cluster_fraction\":" << json_double(r.cross_cluster_fraction())
     << ",\"result\":" << to_json(r) << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hlock;
  using namespace hlock::harness;

  bench::CliOptions defaults;
  defaults.nodes = 32;
  const bench::CliOptions cli = bench::parse_cli(
      argc, argv,
      "usage: topology_locality [--nodes N] [--ops N] [--seed S]\n"
      "         [--clusters N] [--intra-latency-ms M] [--inter-latency-ms M]\n"
      "         [--fairness-cap N] [--threads N] [--repeat N] [--json]\n",
      defaults);

  workload::WorkloadSpec spec;
  spec.ops_per_node = 40;
  bench::apply(cli, spec);

  const std::size_t clusters = cli.clusters != 0 ? cli.clusters : 4;
  ClusterConfig flat;
  flat.nodes = cli.nodes;
  flat.spec = spec;

  ClusterConfig clustered = flat;
  clustered.clusters = clusters;
  clustered.intra_latency_mean = cli.intra_latency_ms > 0.0
                                     ? static_cast<Duration>(
                                           cli.intra_latency_ms * 1000.0)
                                     : usec(50);
  clustered.inter_latency_mean = cli.inter_latency_ms > 0.0
                                     ? static_cast<Duration>(
                                           cli.inter_latency_ms * 1000.0)
                                     : msec(50);

  const auto biased = [&](ClusterConfig c) {
    c.engine_opts.locality_bias = true;
    if (cli.fairness_cap != 0)
      c.engine_opts.locality_fairness_cap =
          static_cast<std::uint8_t>(cli.fairness_cap);
    return c;
  };

  std::vector<Point> points = {
      {"flat/bias-off", {Protocol::kHls, flat}},
      {"flat/bias-on", {Protocol::kHls, biased(flat)}},
      {"clustered/bias-off", {Protocol::kHls, clustered}},
      {"clustered/bias-on", {Protocol::kHls, biased(clustered)}},
  };

  SweepRunner runner(bench::sweep_options(cli));
  std::vector<SweepPoint> sweep;
  sweep.reserve(points.size());
  for (const Point& p : points) sweep.push_back(p.sweep);
  const std::vector<ExperimentResult> results = runner.run(sweep);

  const ExperimentResult& flat_off = results[0];
  const ExperimentResult& flat_on = results[1];
  const ExperimentResult& clu_off = results[2];
  const ExperimentResult& clu_on = results[3];

  // Self-checks (the PR's acceptance criteria, enforced on every run).
  if (!(flat_on == flat_off)) {
    std::cerr << "FAIL: locality bias changed a flat-topology run — it "
                 "must be inert without a cluster map\n";
    return 1;
  }
  if (clu_on.app_ops != clu_off.app_ops ||
      clu_on.lock_requests != clu_off.lock_requests) {
    std::cerr << "FAIL: bias changed the work done (app_ops "
              << clu_on.app_ops << " vs " << clu_off.app_ops
              << ", lock_requests " << clu_on.lock_requests << " vs "
              << clu_off.lock_requests << ")\n";
    return 1;
  }
  if (!(clu_on.cross_cluster_fraction() < clu_off.cross_cluster_fraction())) {
    std::cerr << "FAIL: bias-on cross-cluster fraction "
              << clu_on.cross_cluster_fraction()
              << " not strictly below bias-off "
              << clu_off.cross_cluster_fraction() << "\n";
    return 1;
  }
  if (!(clu_on.latency_factor.mean() < clu_off.latency_factor.mean())) {
    std::cerr << "FAIL: bias-on mean latency factor "
              << clu_on.latency_factor.mean()
              << " not strictly below bias-off "
              << clu_off.latency_factor.mean() << "\n";
    return 1;
  }

  if (cli.json) {
    std::cout << "[\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::cout << "  " << point_json(points[i], results[i]);
      if (i + 1 < points.size()) std::cout << ",";
      std::cout << "\n";
    }
    std::cout << "]\n";
    return 0;
  }

  std::cout << "Topology locality: flat vs clustered x locality bias\n"
            << "nodes=" << flat.nodes << " clusters=" << clusters
            << " intra=" << clustered.intra_latency_mean / 1000.0
            << "ms inter=" << clustered.inter_latency_mean / 1000.0
            << "ms ops=" << spec.ops_per_node << " seed=" << spec.seed
            << "\n\n";

  TablePrinter table({"config", "msgs/req", "cross-frac", "latency-mean",
                      "latency-p95"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ExperimentResult& r = results[i];
    table.row({points[i].label, TablePrinter::num(r.msgs_per_lock_request()),
               TablePrinter::num(r.cross_cluster_fraction()),
               TablePrinter::num(r.latency_factor.mean()),
               TablePrinter::num(r.latency_factor.percentile(0.95))});
  }
  table.print(std::cout);

  std::cout << "\nbias batches same-cluster hand-offs (fairness cap "
            << static_cast<unsigned>(
                   biased(clustered).engine_opts.locality_fairness_cap)
            << "): cross-cluster fraction "
            << TablePrinter::num(clu_off.cross_cluster_fraction()) << " -> "
            << TablePrinter::num(clu_on.cross_cluster_fraction())
            << ", mean latency factor "
            << TablePrinter::num(clu_off.latency_factor.mean()) << " -> "
            << TablePrinter::num(clu_on.latency_factor.mean()) << "\n";
  return 0;
}
