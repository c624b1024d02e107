// hlock_experiment — run any single experiment configuration from the
// command line, printing a summary table and optionally machine-readable
// JSON. The scripting companion to the fixed-figure bench binaries.
//
//   ./hlock_experiment --protocol hls --nodes 64 --ops 100 --seed 7
//   ./hlock_experiment --protocol naimi-pure --nodes 120 --json
//   ./hlock_experiment --sweep --protocol hls --json   # node-count sweep
//
// Options:
//   --protocol hls|naimi-pure|naimi-same-work   (default hls)
//   --nodes N          (default 24)           --ops N      (default 60)
//   --seed N           (default 0x5eed)       --loss P     (default 0)
//   --cs MS / --idle MS / --latency MS        workload timings
//   --mix a,b,c,d,e    entry_read,table_read,upgrade,entry_write,table_write
//   --home-bias P      entry-op locality      --entries N  rows per node
//   --no-child-grants --no-local-queues --no-freezing --eager-releases
//   --priorities       enable priority arbitration
//   --sweep            run the standard node-count sweep instead of one n
//   --threads N        sweep worker threads (0 = hardware concurrency)
//   --json             emit JSON instead of the ASCII table
//
// Numeric values are validated strictly; `--nodes abc` is a usage error
// (exit 2), not a silently defaulted run.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "harness/experiment.hpp"
#include "harness/json.hpp"
#include "harness/sweep_runner.hpp"

using namespace hlock;
using namespace hlock::harness;

namespace {

struct Options {
  Protocol protocol = Protocol::kHls;
  std::size_t nodes = 24;
  workload::WorkloadSpec spec;
  core::EngineOptions engine;
  double loss = 0.0;
  bool sweep = false;
  bool json = false;
  std::size_t threads = 0;
};

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << "error: " << what << " (see the header of this tool's "
            << "source for options)\n";
  std::exit(2);
}

// Strict parses: the whole token must be a number, or it's a usage error
// — std::stoul would throw uncaught on garbage and terminate, and
// silently accept trailing junk ("12x" -> 12).
std::size_t parse_size(const std::string& flag, const std::string& text) {
  const auto v = try_parse_size(text);
  if (!v)
    usage_error(flag + " expects an unsigned integer, got '" + text + "'");
  return *v;
}

std::uint32_t parse_u32(const std::string& flag, const std::string& text) {
  const auto v = try_parse_u32(text);
  if (!v)
    usage_error(flag + " expects an unsigned 32-bit integer, got '" + text +
                "'");
  return *v;
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text,
                        int base = 10) {
  const auto v = try_parse_u64(text, base);
  if (!v)
    usage_error(flag + " expects an unsigned integer, got '" + text + "'");
  return *v;
}

double parse_double(const std::string& flag, const std::string& text) {
  const auto v = try_parse_double(text);
  if (!v) usage_error(flag + " expects a number, got '" + text + "'");
  return *v;
}

Options parse(int argc, char** argv) {
  Options opt;
  opt.spec.ops_per_node = 60;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (++i >= argc) usage_error("missing value for " + arg);
      return argv[i];
    };
    if (arg == "--protocol") {
      const std::string p = value();
      if (p == "hls") opt.protocol = Protocol::kHls;
      else if (p == "naimi-pure") opt.protocol = Protocol::kNaimiPure;
      else if (p == "naimi-same-work")
        opt.protocol = Protocol::kNaimiSameWork;
      else usage_error("unknown protocol " + p);
    } else if (arg == "--nodes") {
      opt.nodes = parse_size(arg, value());
    } else if (arg == "--ops") {
      opt.spec.ops_per_node = parse_u32(arg, value());
    } else if (arg == "--seed") {
      opt.spec.seed = parse_u64(arg, value(), 0);
    } else if (arg == "--loss") {
      opt.loss = parse_double(arg, value());
    } else if (arg == "--cs") {
      opt.spec.cs_mean = msec(static_cast<std::int64_t>(
          parse_u64(arg, value())));
    } else if (arg == "--idle") {
      opt.spec.idle_mean = msec(static_cast<std::int64_t>(
          parse_u64(arg, value())));
    } else if (arg == "--latency") {
      opt.spec.net_latency_mean = msec(static_cast<std::int64_t>(
          parse_u64(arg, value())));
    } else if (arg == "--home-bias") {
      opt.spec.home_bias = parse_double(arg, value());
    } else if (arg == "--entries") {
      opt.spec.entries_per_node = parse_u32(arg, value());
    } else if (arg == "--mix") {
      std::istringstream in(value());
      std::string part;
      std::vector<double> parts;
      while (std::getline(in, part, ','))
        parts.push_back(parse_double("--mix", part));
      if (parts.size() != 5) usage_error("--mix expects 5 comma values");
      opt.spec.p_entry_read = parts[0];
      opt.spec.p_table_read = parts[1];
      opt.spec.p_upgrade = parts[2];
      opt.spec.p_entry_write = parts[3];
      opt.spec.p_table_write = parts[4];
    } else if (arg == "--no-child-grants") {
      opt.engine.allow_child_grants = false;
    } else if (arg == "--no-local-queues") {
      opt.engine.allow_local_queues = false;
    } else if (arg == "--no-freezing") {
      opt.engine.enable_freezing = false;
    } else if (arg == "--eager-releases") {
      opt.engine.lazy_release = false;
    } else if (arg == "--priorities") {
      opt.engine.enable_priorities = true;
    } else if (arg == "--sweep") {
      opt.sweep = true;
    } else if (arg == "--threads") {
      opt.threads = parse_size(arg, value());
    } else if (arg == "--json") {
      opt.json = true;
    } else {
      usage_error("unknown argument " + arg);
    }
  }
  opt.spec.validate();
  return opt;
}

SweepPoint point_for(const Options& opt, std::size_t nodes) {
  SweepPoint p;
  p.protocol = opt.protocol;
  p.config.nodes = nodes;
  p.config.spec = opt.spec;
  p.config.engine_opts = opt.engine;
  p.config.loss_rate = opt.loss;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  std::vector<SweepPoint> points;
  if (opt.sweep) {
    for (const std::size_t n : sweep_node_counts())
      points.push_back(point_for(opt, n));
  } else {
    points.push_back(point_for(opt, opt.nodes));
  }
  SweepOptions sweep_opts;
  sweep_opts.threads = opt.threads;
  SweepRunner runner(sweep_opts);
  const std::vector<ExperimentResult> results = runner.run(points);

  if (opt.json) {
    write_json_array(std::cout, results);
    return 0;
  }
  TablePrinter table({"nodes", "ops", "lock reqs", "messages", "msgs/req",
                      "latency factor", "p95"});
  for (const auto& r : results) {
    table.row({std::to_string(r.nodes), std::to_string(r.app_ops),
               std::to_string(r.lock_requests), std::to_string(r.messages),
               TablePrinter::num(r.msgs_per_lock_request()),
               TablePrinter::num(r.latency_factor.mean(), 1),
               TablePrinter::num(r.latency_factor.percentile(0.95), 1)});
  }
  std::cout << to_string(opt.protocol) << ", seed " << opt.spec.seed
            << (opt.loss > 0 ? ", loss " + std::to_string(opt.loss) : "")
            << "\n\n";
  table.print(std::cout);
  return 0;
}
