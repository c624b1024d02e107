// Aggregate results of one simulated experiment run.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace hlock::harness {

struct ExperimentResult {
  std::size_t nodes{0};
  std::uint64_t app_ops{0};         ///< application-level operations
  std::uint64_t lock_requests{0};   ///< protocol lock requests issued
  std::uint64_t messages{0};        ///< total protocol messages sent
  std::uint64_t wire_bytes{0};      ///< serialized bytes incl. framing
  std::uint64_t messages_dropped{0};  ///< network drops (lossy runs only)
  /// Topology split of `messages`/`wire_bytes`. Only clustered runs
  /// accumulate these; a flat run (no ClusterMap) leaves all four zero
  /// and the JSON emitters then omit the split entirely.
  std::uint64_t intra_cluster_messages{0};
  std::uint64_t cross_cluster_messages{0};
  std::uint64_t intra_cluster_bytes{0};
  std::uint64_t cross_cluster_bytes{0};
  CounterMap messages_by_kind;      ///< the Figure 7 breakdown
  /// Per-op acquisition latency divided by the mean point-to-point
  /// latency — the paper's Figure 6 "latency factor".
  Summary latency_factor;
  /// Figure 6 says the latency is "averaged over all types of requests";
  /// this is the per-type breakdown behind that average, keyed by op kind.
  std::map<std::string, Summary> latency_by_kind;
  TimePoint virtual_end{0};         ///< virtual time when the run drained

  /// Figure 5 y-axis: average messages per lock request.
  [[nodiscard]] double msgs_per_lock_request() const {
    return lock_requests == 0
               ? 0.0
               : static_cast<double>(messages) /
                     static_cast<double>(lock_requests);
  }
  [[nodiscard]] double msgs_per_op() const {
    return app_ops == 0 ? 0.0
                        : static_cast<double>(messages) /
                              static_cast<double>(app_ops);
  }
  /// Fraction of protocol messages that crossed a cluster boundary — the
  /// quantity locality-biased hand-off exists to shrink.
  [[nodiscard]] double cross_cluster_fraction() const {
    return messages == 0 ? 0.0
                         : static_cast<double>(cross_cluster_messages) /
                               static_cast<double>(messages);
  }
  /// Per-kind messages per lock request (Figure 7 y-axis).
  [[nodiscard]] double kind_per_request(const char* kind) const {
    return lock_requests == 0
               ? 0.0
               : static_cast<double>(messages_by_kind.get(kind)) /
                     static_cast<double>(lock_requests);
  }

  /// Exact field-wise equality, down to Summary internal state —
  /// topology_locality checks through this that the locality bias leaves
  /// a flat run unchanged.
  bool operator==(const ExperimentResult&) const = default;
};

}  // namespace hlock::harness
