// Simulated clusters: N nodes, a shared SimNetwork, per-node protocol
// stacks and workload drivers. One class per protocol configuration.
//
// A cluster owns everything needed to reproduce one data point of the
// paper's evaluation: build -> run() -> result().
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/cluster_map.hpp"
#include "common/rng.hpp"
#include "core/hls_node.hpp"
#include "harness/metrics.hpp"
#include "harness/sim_executor.hpp"
#include "lockmgr/resource.hpp"
#include "lockmgr/session_mux.hpp"
#include "naimi/naimi_node.hpp"
#include "sim/simnet.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"
#include "workload/spec.hpp"

namespace hlock::harness {

/// Which latency distribution the simulated network uses.
enum class LatencyKind { kUniform, kConstant, kExponential };

struct ClusterConfig {
  std::size_t nodes{8};
  workload::WorkloadSpec spec{};
  core::EngineOptions engine_opts{};  ///< ignored by the Naimi clusters
  LatencyKind latency = LatencyKind::kUniform;
  /// > 0 switches the network to the TCP failure model: each send resets
  /// its node pair's connection with this probability, and every node
  /// runs the live transport's delivery layer (SimNetwork::set_lossy).
  double loss_rate{0.0};

  /// Cluster topology. clusters > 1 switches the network to the
  /// ClusteredLatency model (intra_latency_mean inside a cluster,
  /// inter_latency_mean across the boundary, same LatencyKind shape for
  /// both), turns on intra/cross boundary accounting, and hands the
  /// ClusterMap to every HLS node so engine_opts.locality_bias can act.
  /// clusters == 1 is the flat topology and is bit-for-bit identical to
  /// the pre-topology harness (same latency model, same RNG stream).
  std::size_t clusters{1};
  ClusterPlacement placement = ClusterPlacement::kBlock;
  Duration intra_latency_mean = usec(50);
  Duration inter_latency_mean = msec(50);
};

namespace detail {
/// Pieces shared by both cluster types: simulator, network, executor,
/// workload bookkeeping and the per-node op driver loop.
class ClusterBase {
 public:
  explicit ClusterBase(const ClusterConfig& config);
  virtual ~ClusterBase() = default;

  /// Run every node's op stream to completion and drain the network.
  void run();

  [[nodiscard]] ExperimentResult result() const;
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] sim::SimNetwork& network() { return *net_; }
  [[nodiscard]] std::size_t node_count() const { return config_.nodes; }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t completed_ops() const { return completed_; }
  /// Initial token holder of `lock`, the same on every node: the table
  /// lock starts at node 0, entry e at node e / entries_per_node (the
  /// airline that owns the row). Throws std::out_of_range for an id
  /// outside the layout.
  [[nodiscard]] NodeId home_of(LockId lock) const;

  /// Observation hook called after every completed op (tests).
  std::function<void(NodeId, const lockmgr::OpStats&)> on_op_done;

 protected:
  /// Execute `op` on node `i`'s single session; `done` fires after every
  /// lock has been released.
  virtual void start_op(std::size_t i, const lockmgr::Op& op,
                        lockmgr::DoneFn done) = 0;

  ClusterConfig config_;
  sim::Simulator sim_;
  /// Topology ground truth (null when config.clusters <= 1). Declared
  /// before net_: the network's latency model borrows it.
  std::unique_ptr<ClusterMap> cluster_map_;
  std::unique_ptr<sim::SimNetwork> net_;
  SimExecutor exec_;
  lockmgr::ResourceLayout layout_;
  std::vector<std::unique_ptr<sim::SimTransport>> transports_;
  std::vector<std::unique_ptr<workload::OpGenerator>> generators_;

 private:
  void kick_node(std::size_t i);
  void run_one_op(std::size_t i);

  std::vector<std::uint32_t> remaining_;
  std::uint64_t completed_{0};
  std::uint64_t lock_requests_{0};
  Summary latency_factor_;
  std::map<std::string, Summary> latency_by_kind_;
};
}  // namespace detail

/// The paper's protocol over the two-level hierarchy.
class HlsCluster final : public detail::ClusterBase {
 public:
  explicit HlsCluster(const ClusterConfig& config);

  [[nodiscard]] core::HlsNode& node(std::size_t i) { return *nodes_[i]; }
  [[nodiscard]] const core::HlsNode& node(std::size_t i) const {
    return *nodes_[i];
  }
  [[nodiscard]] const lockmgr::ResourceLayout& layout() const {
    return layout_;
  }

 private:
  void start_op(std::size_t i, const lockmgr::Op& op,
                lockmgr::DoneFn done) override;

  std::vector<std::unique_ptr<core::HlsNode>> nodes_;
  std::vector<std::unique_ptr<lockmgr::SessionMux>> muxes_;
};

/// Naimi baseline, "same work" (ordered entry-lock acquisition) or "pure"
/// (one global lock) per the flag.
class NaimiCluster final : public detail::ClusterBase {
 public:
  NaimiCluster(const ClusterConfig& config, bool pure);

  [[nodiscard]] naimi::NaimiNode& node(std::size_t i) { return *nodes_[i]; }

 private:
  void start_op(std::size_t i, const lockmgr::Op& op,
                lockmgr::DoneFn done) override;

  std::vector<std::unique_ptr<naimi::NaimiNode>> nodes_;
  std::vector<std::unique_ptr<lockmgr::NaimiSessionMux>> muxes_;
};

}  // namespace hlock::harness
