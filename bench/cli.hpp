// Shared flag parsing for the bench binaries and sweep tools.
//
// Every sweep binary accepts the same core flags with the same defaults:
//
//   --nodes N      cap the node-count sweep at N (or, for single-point
//                  binaries, run that one size), >= 1
//   --ops N        workload ops per node
//   --seed S       workload seed (decimal or 0x hex)
//   --threads N    sweep worker threads (0 = hardware concurrency)
//   --repeat N     evaluate every point N times (wall-clock timing)
//   --json         machine-readable output where the binary supports it
//   --shards N     simulation shards (bench/many_locks)
//   --lock-count N total locks across the forest (bench/many_locks)
//   --zipf T       Zipf skew of page selection, >= 0 (bench/many_locks)
//   --clusters N   cluster count of the simulated topology, >= 1
//                  (1 = flat; paper_figures --figure topology_locality)
//   --intra-latency-ms M   mean intra-cluster latency in ms, > 0
//   --inter-latency-ms M   mean inter-cluster latency in ms, > 0
//   --fairness-cap N       locality bypass cap, 1..255
//
// Numeric values are parsed strictly: `--nodes abc` or `--seed 12x` is a
// usage error (exit 2), never a silently mis-parsed sweep.
//
// Binary-specific flags are handled via the `extra` callback.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/sweep_runner.hpp"
#include "workload/spec.hpp"

namespace hlock::bench {

struct CliOptions {
  std::size_t nodes = 0;      ///< 0 = binary default
  std::uint32_t ops = 0;      ///< 0 = binary default
  std::uint64_t seed = 0;
  bool seed_set = false;
  std::size_t threads = 0;    ///< 0 = hardware concurrency
  int repeat = 1;
  bool json = false;
  // Many-lock workload flags (bench/many_locks; ignored elsewhere).
  std::size_t shards = 0;      ///< 0 = binary default
  std::uint32_t lock_count = 0;  ///< 0 = binary default
  double zipf = 0.0;
  bool zipf_set = false;
  // Topology flags (--figure topology_locality; ignored elsewhere).
  std::size_t clusters = 0;       ///< 0 = binary default
  double intra_latency_ms = 0.0;  ///< 0 = binary default
  double inter_latency_ms = 0.0;  ///< 0 = binary default
  std::uint32_t fairness_cap = 0;  ///< 0 = engine default
};

/// Offered each flag the common parser does not recognize; return true
/// if consumed. `value` fetches the flag's argument (exits with a usage
/// error if missing).
using ExtraFlag =
    std::function<bool(const std::string& arg,
                       const std::function<std::string()>& value)>;

/// Parse argv. On an unknown flag or missing value, prints `usage` to
/// stderr and exits with status 2.
CliOptions parse_cli(int argc, char** argv, const char* usage,
                     CliOptions defaults = {},
                     const ExtraFlag& extra = nullptr);

/// Print "error: <what>" and `usage` to stderr, then exit with status 2.
[[noreturn]] void usage_error(const std::string& what, const char* usage);

/// Strict parses of one flag value: a value that is not wholly a number
/// of the type is a usage error (see usage_error). `base` as in
/// try_parse_u64: 0 also accepts 0x-prefixed hex.
std::size_t parse_size(const std::string& flag, const std::string& text,
                       const char* usage);
std::uint32_t parse_u32(const std::string& flag, const std::string& text,
                        const char* usage);
std::uint64_t parse_u64(const std::string& flag, const std::string& text,
                        const char* usage, int base = 10);
double parse_double(const std::string& flag, const std::string& text,
                    const char* usage);

/// Overlay --ops / --seed onto a spec whose fields hold the binary's
/// defaults.
void apply(const CliOptions& cli, workload::WorkloadSpec& spec);

/// Runner configuration from --threads / --repeat.
harness::SweepOptions sweep_options(const CliOptions& cli);

}  // namespace hlock::bench
