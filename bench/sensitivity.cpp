// Sensitivity analysis: how the headline metrics respond when the paper's
// workload parameters move — read/write mix, critical-section length,
// think time, access locality, and table size. Fixed at 60 nodes.
//
// All rows across all sections are submitted to one SweepRunner: they
// evaluate in parallel under --threads. Every section has a row for the
// unmodified baseline spec; that point is submitted once and its result
// shared by those rows.
#include <iostream>
#include <string>
#include <vector>

#include "bench/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep_runner.hpp"

using namespace hlock;
using namespace hlock::harness;

namespace {

struct Section {
  std::string title;
  std::string key_header;
  std::vector<std::string> labels;
  std::vector<workload::WorkloadSpec> specs;

  void row(const std::string& label, const workload::WorkloadSpec& spec) {
    labels.push_back(label);
    specs.push_back(spec);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const bench::CliOptions cli = bench::parse_cli(
      argc, argv,
      "usage: sensitivity [--nodes N] [--ops N] [--seed S] [--threads N]\n"
      "         [--repeat N]\n");
  workload::WorkloadSpec base;
  base.ops_per_node = 40;
  bench::apply(cli, base);
  const std::size_t nodes = cli.nodes != 0 ? cli.nodes : 60;

  std::vector<Section> sections;
  {
    Section s;
    s.title = "mode mix (entry_read/table_read/upgrade/entry_write/"
              "table_write)";
    s.key_header = "mix";
    s.row("paper 80/10/4/5/1", base);
    workload::WorkloadSpec reads = base;
    reads.p_entry_read = 0.95;
    reads.p_table_read = 0.05;
    reads.p_upgrade = reads.p_entry_write = reads.p_table_write = 0.0;
    s.row("read-only 95/5/0/0/0", reads);
    workload::WorkloadSpec writes = base;
    writes.p_entry_read = 0.40;
    writes.p_table_read = 0.05;
    writes.p_upgrade = 0.10;
    writes.p_entry_write = 0.35;
    writes.p_table_write = 0.10;
    s.row("write-heavy 40/5/10/35/10", writes);
    sections.push_back(std::move(s));
  }
  {
    Section s;
    s.title = "critical-section length";
    s.key_header = "cs mean";
    for (const auto cs : {msec(5), msec(15), msec(50), msec(150)}) {
      workload::WorkloadSpec spec = base;
      spec.cs_mean = cs;
      s.row(std::to_string(cs / 1000) + " ms", spec);
    }
    sections.push_back(std::move(s));
  }
  {
    Section s;
    s.title = "inter-request idle time";
    s.key_header = "idle mean";
    for (const auto idle : {msec(50), msec(150), msec(500), msec(1500)}) {
      workload::WorkloadSpec spec = base;
      spec.idle_mean = idle;
      s.row(std::to_string(idle / 1000) + " ms", spec);
    }
    sections.push_back(std::move(s));
  }
  {
    Section s;
    s.title = "access locality (home bias of entry ops)";
    s.key_header = "home bias";
    for (const double bias : {0.0, 0.5, 0.9, 1.0}) {
      workload::WorkloadSpec spec = base;
      spec.home_bias = bias;
      s.row(TablePrinter::num(bias, 1), spec);
    }
    sections.push_back(std::move(s));
  }
  {
    Section s;
    s.title = "table size (rows per airline)";
    s.key_header = "entries/node";
    for (const std::uint32_t e : {1u, 2u, 4u, 8u}) {
      workload::WorkloadSpec spec = base;
      spec.entries_per_node = e;
      s.row(std::to_string(e), spec);
    }
    sections.push_back(std::move(s));
  }

  std::vector<SweepPoint> points = {make_point(Protocol::kHls, nodes, base)};
  std::vector<std::size_t> row_point;  // index into points, per row
  for (const Section& s : sections) {
    for (const auto& spec : s.specs) {
      if (spec == base) {
        row_point.push_back(0);
        continue;
      }
      row_point.push_back(points.size());
      points.push_back(make_point(Protocol::kHls, nodes, spec));
    }
  }
  SweepRunner runner(bench::sweep_options(cli));
  const auto results = runner.run(points);

  std::size_t next = 0;
  bool first = true;
  for (const Section& s : sections) {
    std::cout << (first ? "" : "\n") << "=== " << s.title << " ===\n";
    first = false;
    TablePrinter table({s.key_header, "msgs/req", "latency", "p95"});
    for (const std::string& label : s.labels) {
      const auto& r = results[row_point[next++]];
      table.row({label, TablePrinter::num(r.msgs_per_lock_request()),
                 TablePrinter::num(r.latency_factor.mean(), 1),
                 TablePrinter::num(r.latency_factor.percentile(0.95), 1)});
    }
    table.print(std::cout);
  }
  std::cout << "\nexpected: locality cuts entry-lock traffic; longer CS or "
               "shorter idle raises contention (latency), message count "
               "stays near the ~3 asymptote throughout\n";
  return 0;
}
