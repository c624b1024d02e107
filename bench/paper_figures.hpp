// What bench/paper_figures.cpp (the paper's figures, the kFigures table
// and main) shares with bench/studies.cpp (the extension studies): the
// context a row runs in, and the studies' point builders and printers.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "bench/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep_runner.hpp"
#include "workload/spec.hpp"

namespace hlock::bench {

/// The flags, the workload with the row's ops default and --ops/--seed
/// applied, and --nodes or the row's default (a sweep's cap, or the size
/// of the one cluster a row simulates).
struct Ctx {
  CliOptions cli;
  workload::WorkloadSpec spec;
  std::size_t nodes;
};

using Results = std::vector<harness::ExperimentResult>;

/// A table cell: `v` with `precision` decimals.
inline std::string num(double v, int precision = 2) {
  return harness::TablePrinter::num(v, precision);
}

// A row's points builder returns the cluster points main runs on one
// SweepRunner; its printer gets their results in order and returns the
// exit status. Rows without a points builder drive their own rig from
// the printer, on the sweep runner's parallel map.
std::vector<harness::SweepPoint> ablations_points(const Ctx& c);
int ablations(const Ctx& c, const Results& r);
std::vector<harness::SweepPoint> sensitivity_points(const Ctx& c);
int sensitivity(const Ctx& c, const Results& r);
std::vector<harness::SweepPoint> loss_points(const Ctx& c);
int loss_resilience(const Ctx& c, const Results& r);
std::vector<harness::SweepPoint> topology_points(const Ctx& c);
int topology_locality(const Ctx& c, const Results& r);
int topology_json(const Ctx& c, const Results& r);
int priority_arbitration(const Ctx& c, const Results& r);
int granularity(const Ctx& c, const Results& r);
int churn(const Ctx& c, const Results& r);
int recovery(const Ctx& c, const Results& r);

}  // namespace hlock::bench
