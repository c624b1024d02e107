#include "sim/simnet.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "sim/links.hpp"

namespace hlock::sim {

SimNetwork::SimNetwork(Simulator& simulator,
                       std::unique_ptr<LatencyModel> latency, Rng rng)
    : sim_(simulator), latency_(std::move(latency)), rng_(rng) {
  if (!latency_) throw std::invalid_argument("latency model required");
}

SimNetwork::~SimNetwork() = default;

void SimNetwork::register_node(NodeId node,
                               std::function<void(const Message&)> handler) {
  if (!node.valid()) throw std::invalid_argument("invalid node id");
  const std::size_t idx = node.value;
  if (idx >= handlers_.size()) handlers_.resize(idx + 1);
  if (handlers_[idx]) throw std::logic_error("node registered twice");
  handlers_[idx] = std::move(handler);
  // Doubling keeps registering n nodes O(n^2) in copied entries; growing
  // to idx + 1 would recopy the whole table on every registration.
  if (idx >= stride_) grow_stride(std::max(idx + 1, 2 * stride_));
}

void SimNetwork::grow_stride(std::size_t n) {
  std::vector<TimePoint> fresh(n * n, TimePoint{0});
  for (std::size_t f = 0; f < stride_; ++f) {
    for (std::size_t t = 0; t < stride_; ++t) {
      fresh[f * n + t] = channel_clear_[f * stride_ + t];
    }
  }
  channel_clear_ = std::move(fresh);
  stride_ = n;
}

void SimNetwork::set_lossy(double rate) {
  if (rate < 0.0 || rate >= 1.0)
    throw std::invalid_argument("loss rate must be in [0, 1)");
  loss_rate_ = rate;
  if (!links_) links_ = std::make_unique<LinkLayer>(*this);
}

CounterMap SimNetwork::message_counts() const {
  CounterMap out;
  for (std::size_t k = 0; k < kMsgKindCount; ++k) {
    if (counts_[k] != 0)
      out.inc(to_string(static_cast<MsgKind>(k)), counts_[k]);
  }
  return out;
}

void SimNetwork::send(NodeId from, NodeId to, Message m) {
  if (links_) {
    links_->send(from, to, std::move(m));
    return;
  }
  transmit(from, to, std::move(m));
}

bool SimNetwork::transmit(NodeId from, NodeId to, Message m) {
  if (to.value >= handlers_.size() || !handlers_[to.value])
    throw std::logic_error("send to unregistered node");
  if (!from.valid()) throw std::invalid_argument("invalid sender id");
  const auto kind_idx = static_cast<std::size_t>(m.kind);
  if (kind_idx < kMsgKindCount) ++counts_[kind_idx];
  ++sent_;
  const std::uint64_t wire = encoded_size(m) + 4;  // + TCP framing prefix
  bytes_ += wire;
  if (topology_ != nullptr) {
    const std::size_t crossing = topology_->same_cluster(from, to) ? 0 : 1;
    ++boundary_counts_[crossing];
    boundary_bytes_[crossing] += wire;
  }

  const bool dropped =
      loss_rate_ > 0.0 && rng_.next_double() < loss_rate_;
  if (on_send) on_send(from, to, m, dropped);
  if (dropped) {
    ++dropped_;
    return false;
  }

  const Duration flight = latency_->sample_pair(from, to, rng_);
  // The sharded runner's conservative window is derived from this bound;
  // a sample below it would silently corrupt cross-shard causality.
  assert(flight >= latency_->min_latency() &&
         "latency sample below the model's declared min_latency()");
  TimePoint arrive = sim_.now() + flight;
  // Per-channel FIFO: a message may not overtake an earlier one on the
  // same (from, to) pair. Senders need not be registered receivers (tests
  // inject from outside ids), so grow on demand.
  if (from.value >= stride_) grow_stride(from.value + 1);
  TimePoint& clear_at = channel_clear_[from.value * stride_ + to.value];
  if (arrive < clear_at) arrive = clear_at;
  clear_at = arrive;

  m.from = from;
  sim_.schedule_deliver_at(arrive, &SimNetwork::deliver_event, this, from, to,
                           std::move(m));
  return true;
}

void SimNetwork::deliver_event(void* ctx, NodeId from, NodeId to, Message& m) {
  auto* net = static_cast<SimNetwork*>(ctx);
  if (net->on_deliver) net->on_deliver(from, to, m);
  if (net->links_) {
    net->links_->receive(to, m);
  } else {
    net->handlers_[to.value](m);
  }
}

}  // namespace hlock::sim
