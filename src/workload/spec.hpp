// Workload specification — defaults are the paper's §4 parameters:
// critical section 15 ms mean, inter-request idle 150 ms mean, network
// latency 150 ms mean, mode mix IR/R/U/IW/W = 80/10/4/5/1 %.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "common/types.hpp"

namespace hlock::workload {

struct WorkloadSpec {
  // --- timing (means of randomized distributions) ---
  Duration cs_mean = msec(15);
  Duration idle_mean = msec(150);
  Duration net_latency_mean = msec(150);

  // --- the table-lock mode mix (must sum to 1) ---
  double p_entry_read = 0.80;   ///< IR + entry R
  double p_table_read = 0.10;   ///< R
  double p_upgrade = 0.04;      ///< U, then upgrade to W
  double p_entry_write = 0.05;  ///< IW + entry W
  double p_table_write = 0.01;  ///< W

  /// Table rows per node: one airline's fares live with its node, so the
  /// shared table grows with the system (E = nodes * entries_per_node).
  std::uint32_t entries_per_node = 1;

  /// Probability that an entry op targets one of the node's own rows
  /// (an airline mostly updating its own fares); the rest are uniform.
  double home_bias = 0.5;

  /// Ops issued per node before it stops.
  std::uint32_t ops_per_node = 100;

  /// Many-lock forest workloads only: total locks across the whole forest
  /// (0 = classic single-table layout) and the Zipf skew of page
  /// selection (0 = uniform). Both are part of the cache key.
  std::uint32_t lock_count = 0;
  double zipf_theta = 0.0;

  std::uint64_t seed = 0x5eed;

  /// Field-wise equality (bench/sensitivity finds its baseline rows
  /// through this).
  bool operator==(const WorkloadSpec&) const = default;

  void validate() const {
    const double sum = p_entry_read + p_table_read + p_upgrade +
                       p_entry_write + p_table_write;
    if (sum < 0.999 || sum > 1.001)
      throw std::invalid_argument("mode mix must sum to 1");
    if (home_bias < 0 || home_bias > 1)
      throw std::invalid_argument("home_bias must be in [0,1]");
    if (cs_mean <= 0 || idle_mean <= 0 || net_latency_mean <= 0)
      throw std::invalid_argument("timing means must be positive");
    if (entries_per_node == 0)
      throw std::invalid_argument("entries_per_node must be >= 1");
    if (!(zipf_theta >= 0.0))
      throw std::invalid_argument("zipf_theta must be >= 0");
  }
};

}  // namespace hlock::workload
