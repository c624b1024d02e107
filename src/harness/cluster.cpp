#include "harness/cluster.hpp"

#include <stdexcept>

namespace hlock::harness {
namespace detail {

namespace {
std::unique_ptr<sim::LatencyModel> make_latency(LatencyKind kind,
                                                Duration mean) {
  switch (kind) {
    case LatencyKind::kUniform:
      return std::make_unique<sim::UniformLatency>(mean);
    case LatencyKind::kConstant:
      return std::make_unique<sim::ConstantLatency>(mean);
    case LatencyKind::kExponential:
      return std::make_unique<sim::ExponentialLatency>(mean, mean / 10);
  }
  throw std::logic_error("bad latency kind");
}

std::unique_ptr<ClusterMap> make_cluster_map(const ClusterConfig& c) {
  if (c.clusters <= 1) return nullptr;  // flat topology
  return std::make_unique<ClusterMap>(
      ClusterMap::make(c.nodes, c.clusters, c.placement));
}

/// Flat configs keep the exact pre-topology model (identical RNG stream,
/// byte-identical outputs); clustered configs wrap two of them — same
/// distribution shape, intra vs inter mean — in a ClusteredLatency.
std::unique_ptr<sim::LatencyModel> make_net_latency(const ClusterConfig& c,
                                                    const ClusterMap* map) {
  if (map == nullptr)
    return make_latency(c.latency, c.spec.net_latency_mean);
  return std::make_unique<sim::ClusteredLatency>(
      map, make_latency(c.latency, c.intra_latency_mean),
      make_latency(c.latency, c.inter_latency_mean));
}
}  // namespace

ClusterBase::ClusterBase(const ClusterConfig& config)
    : config_(config),
      cluster_map_(make_cluster_map(config)),
      net_(std::make_unique<sim::SimNetwork>(
          sim_, make_net_latency(config, cluster_map_.get()),
          Rng(config.spec.seed ^ 0x6e65745f726e67ULL))),
      exec_(sim_),
      layout_(static_cast<std::uint32_t>(config.nodes) *
              config.spec.entries_per_node) {
  if (config.nodes == 0) throw std::invalid_argument("need >= 1 node");
  config.spec.validate();
  if (config.intra_latency_mean <= 0 || config.inter_latency_mean <= 0)
    throw std::invalid_argument("cluster latency means must be positive");

  net_->set_topology(cluster_map_.get());
  if (config.loss_rate > 0.0) net_->set_lossy(config.loss_rate);

  Rng master(config.spec.seed);
  generators_.reserve(config.nodes);
  transports_.reserve(config.nodes);
  for (std::size_t i = 0; i < config.nodes; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    generators_.push_back(std::make_unique<workload::OpGenerator>(
        config.spec, static_cast<std::uint32_t>(i),
        static_cast<std::uint32_t>(config.nodes), master.split()));
    transports_.push_back(std::make_unique<sim::SimTransport>(*net_, id));
  }
  remaining_.assign(config.nodes, config.spec.ops_per_node);
}

NodeId ClusterBase::home_of(LockId lock) const {
  if (lock.value >= layout_.lock_count())
    throw std::out_of_range("lock outside the cluster's layout");
  if (lock == layout_.table_lock()) return NodeId{0};
  return NodeId{(lock.value - 1) / config_.spec.entries_per_node};
}

void ClusterBase::run() {
  for (std::size_t i = 0; i < config_.nodes; ++i) kick_node(i);
  sim_.run_all();

  const std::uint64_t expected =
      static_cast<std::uint64_t>(config_.nodes) * config_.spec.ops_per_node;
  if (completed_ != expected) {
    throw std::runtime_error(
        "cluster drained with incomplete ops (deadlock or lost request): " +
        std::to_string(completed_) + "/" + std::to_string(expected));
  }
}

void ClusterBase::kick_node(std::size_t i) {
  if (remaining_[i] == 0) return;
  sim_.schedule_after(generators_[i]->next_idle(),
                      [this, i] { run_one_op(i); });
}

void ClusterBase::run_one_op(std::size_t i) {
  const lockmgr::Op op = generators_[i]->next();
  start_op(i, op, [this, i](const lockmgr::OpStats& stats) {
    ++completed_;
    --remaining_[i];
    lock_requests_ += stats.lock_requests;
    // Clustered runs normalize by the expensive boundary hop — the latency
    // factor then reads "how many inter-cluster round trips did this op
    // cost". Flat runs keep the historical normalizer (identical output).
    const Duration norm = config_.clusters > 1 ? config_.inter_latency_mean
                                               : config_.spec.net_latency_mean;
    const double factor = static_cast<double>(stats.acquire_latency) /
                          static_cast<double>(norm);
    latency_factor_.add(factor);
    latency_by_kind_[lockmgr::to_string(stats.op.kind)].add(factor);
    if (on_op_done) on_op_done(NodeId{static_cast<std::uint32_t>(i)}, stats);
    kick_node(i);
  });
}

ExperimentResult ClusterBase::result() const {
  ExperimentResult r;
  r.nodes = config_.nodes;
  r.app_ops = completed_;
  r.lock_requests = lock_requests_;
  r.messages = net_->messages_sent();
  r.wire_bytes = net_->bytes_sent();
  r.messages_dropped = net_->messages_dropped();
  r.intra_cluster_messages = net_->intra_cluster_messages();
  r.cross_cluster_messages = net_->cross_cluster_messages();
  r.intra_cluster_bytes = net_->intra_cluster_bytes();
  r.cross_cluster_bytes = net_->cross_cluster_bytes();
  r.messages_by_kind = net_->message_counts();
  r.latency_factor = latency_factor_;
  r.latency_by_kind = latency_by_kind_;
  // Seal at collection end, so every accessor on the result is read-only
  // and safe to call from any thread.
  r.latency_factor.seal();
  for (auto& [kind, summary] : r.latency_by_kind) summary.seal();
  r.virtual_end = sim_.now();
  return r;
}

}  // namespace detail

// ---------------------------------------------------------------------------

HlsCluster::HlsCluster(const ClusterConfig& config)
    : detail::ClusterBase(config) {
  nodes_.reserve(config.nodes);
  for (std::size_t i = 0; i < config.nodes; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    auto node = std::make_unique<core::HlsNode>(id, *transports_[i],
                                                config.engine_opts);
    node->set_cluster_map(cluster_map_.get());
    // Engines materialize on first touch: at n = 256 most (node, entry)
    // pairs never see a message.
    node->set_lazy_holder([this](LockId lock) { return home_of(lock); });
    net_->register_node(id,
                        [n = node.get()](const Message& m) { n->handle(m); });
    nodes_.push_back(std::move(node));
  }
  for (std::size_t i = 0; i < config.nodes; ++i) {
    muxes_.push_back(
        std::make_unique<lockmgr::SessionMux>(*nodes_[i], layout_, exec_, 1));
  }
}

void HlsCluster::start_op(std::size_t i, const lockmgr::Op& op,
                          lockmgr::DoneFn done) {
  muxes_[i]->start(0, op, std::move(done));
}

NaimiCluster::NaimiCluster(const ClusterConfig& config, bool pure)
    : detail::ClusterBase(config) {
  nodes_.reserve(config.nodes);
  for (std::size_t i = 0; i < config.nodes; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    auto node = std::make_unique<naimi::NaimiNode>(id, *transports_[i]);
    if (pure) {
      node->add_lock(LockId{0}, NodeId{0});
    } else {
      for (const LockId lock : layout_.entry_locks_in_order())
        node->add_lock(lock, home_of(lock));
    }
    net_->register_node(id,
                        [n = node.get()](const Message& m) { n->handle(m); });
    nodes_.push_back(std::move(node));
  }
  lockmgr::NaimiSessionMux::Planner planner;
  if (pure) {
    planner = [](const lockmgr::Op&, lockmgr::Plan& out) {
      lockmgr::naimi_pure_plan(LockId{0}, out);
    };
  } else {
    planner = [this](const lockmgr::Op& op, lockmgr::Plan& out) {
      lockmgr::naimi_same_work_plan(layout_, op, out);
    };
  }
  for (std::size_t i = 0; i < config.nodes; ++i) {
    muxes_.push_back(std::make_unique<lockmgr::NaimiSessionMux>(
        *nodes_[i], exec_, 1, planner));
  }
}

void NaimiCluster::start_op(std::size_t i, const lockmgr::Op& op,
                            lockmgr::DoneFn done) {
  muxes_[i]->start(0, op, std::move(done));
}

}  // namespace hlock::harness
