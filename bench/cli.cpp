#include "bench/cli.hpp"

#include <cctype>
#include <cstdlib>
#include <iostream>

#include "common/parse.hpp"
#include "harness/experiment.hpp"

namespace hlock::bench {

namespace {

[[noreturn]] void usage_error(const std::string& what, const char* usage) {
  std::cerr << "error: " << what << "\n" << usage;
  std::exit(2);
}

bool all_digits(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s)
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  return true;
}

// Strict flag-value parsing: the whole token must be a number, otherwise
// it is a usage error — never a silent 0/truncation like the strtoul
// calls these replaced ("--nodes abc" used to run the binary-default
// sweep, "--seed 12x" the wrong seed).
std::size_t parse_size(const std::string& flag, const std::string& text,
                       const char* usage) {
  const auto v = try_parse_size(text);
  if (!v) usage_error(flag + " expects an unsigned integer, got '" + text +
                      "'", usage);
  return *v;
}

std::uint32_t parse_u32(const std::string& flag, const std::string& text,
                        const char* usage) {
  const auto v = try_parse_u32(text);
  if (!v) usage_error(flag + " expects an unsigned 32-bit integer, got '" +
                      text + "'", usage);
  return *v;
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text,
                        const char* usage, int base) {
  const auto v = try_parse_u64(text, base);
  if (!v) usage_error(flag + " expects an unsigned integer, got '" + text +
                      "'", usage);
  return *v;
}

int parse_int(const std::string& flag, const std::string& text,
              const char* usage) {
  const auto v = try_parse_int(text);
  if (!v) usage_error(flag + " expects an integer, got '" + text + "'",
                      usage);
  return *v;
}

}  // namespace

CliOptions parse_cli(int argc, char** argv, const char* usage,
                     CliOptions defaults, const ExtraFlag& extra) {
  CliOptions opt = defaults;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (++i >= argc) usage_error("missing value for " + arg, usage);
      return argv[i];
    };
    if (arg == "--nodes") {
      opt.nodes = parse_size(arg, value(), usage);
    } else if (all_digits(arg)) {
      opt.nodes = parse_size("--nodes", arg, usage);
    } else if (arg == "--ops") {
      opt.ops = parse_u32(arg, value(), usage);
    } else if (arg == "--seed") {
      // base 0: decimal or 0x-prefixed hex.
      opt.seed = parse_u64(arg, value(), usage, 0);
      opt.seed_set = true;
    } else if (arg == "--threads") {
      opt.threads = parse_size(arg, value(), usage);
    } else if (arg == "--repeat") {
      opt.repeat = parse_int(arg, value(), usage);
      if (opt.repeat < 1) usage_error("--repeat must be >= 1", usage);
    } else if (arg == "--shards") {
      opt.shards = parse_size(arg, value(), usage);
      if (opt.shards == 0) usage_error("--shards must be >= 1", usage);
    } else if (arg == "--lock-count") {
      opt.lock_count = parse_u32(arg, value(), usage);
      if (opt.lock_count == 0)
        usage_error("--lock-count must be >= 1", usage);
    } else if (arg == "--zipf") {
      const std::string text = value();
      const auto z = try_parse_double(text);
      if (!z || !(*z >= 0.0))
        usage_error("--zipf expects a number >= 0, got '" + text + "'",
                    usage);
      opt.zipf = *z;
      opt.zipf_set = true;
    } else if (arg == "--clusters") {
      opt.clusters = parse_size(arg, value(), usage);
      if (opt.clusters == 0) usage_error("--clusters must be >= 1", usage);
    } else if (arg == "--intra-latency-ms" || arg == "--inter-latency-ms") {
      const std::string text = value();
      const auto ms = try_parse_double(text);
      if (!ms || !(*ms > 0.0))
        usage_error(arg + " expects a number > 0, got '" + text + "'",
                    usage);
      (arg == "--intra-latency-ms" ? opt.intra_latency_ms
                                   : opt.inter_latency_ms) = *ms;
    } else if (arg == "--locality-bias") {
      opt.locality_bias = true;
    } else if (arg == "--fairness-cap") {
      opt.fairness_cap = parse_u32(arg, value(), usage);
      if (opt.fairness_cap == 0 || opt.fairness_cap > 255)
        usage_error("--fairness-cap must be in 1..255", usage);
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << usage;
      std::exit(0);
    } else if (extra && extra(arg, value)) {
      // consumed by the binary-specific handler
    } else {
      usage_error("unknown argument " + arg, usage);
    }
  }
  return opt;
}

void apply(const CliOptions& cli, workload::WorkloadSpec& spec) {
  if (cli.ops != 0) spec.ops_per_node = cli.ops;
  if (cli.seed_set) spec.seed = cli.seed;
  if (cli.lock_count != 0) spec.lock_count = cli.lock_count;
  if (cli.zipf_set) spec.zipf_theta = cli.zipf;
}

harness::SweepOptions sweep_options(const CliOptions& cli) {
  harness::SweepOptions opts;
  opts.threads = cli.threads;
  opts.repeat = cli.repeat;
  return opts;
}

std::vector<std::size_t> sweep_nodes(const CliOptions& cli) {
  return harness::sweep_node_counts(cli.nodes != 0 ? cli.nodes : 120);
}

}  // namespace hlock::bench
