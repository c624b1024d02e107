#include "msg/peer_link.hpp"

#include <utility>

namespace hlock {

const PeerLink::Pending& PeerLink::accept(Message m, bool transmitted) {
  const std::uint64_t seq = next_seq_++;
  if (transmitted) transmitted_seq_ = seq;
  window_.push_back(Pending{seq, std::move(m)});
  return window_.back();
}

std::size_t PeerLink::connection_up() {
  ack_due_ = false;
  std::size_t requeued = 0;
  for (const Pending& p : window_) {
    if (p.seq > transmitted_seq_) break;
    ++requeued;
  }
  transmitted_seq_ = next_seq_ - 1;
  return requeued;
}

std::size_t PeerLink::on_ack(std::uint64_t ack) {
  std::size_t trimmed = 0;
  while (!window_.empty() && window_.front().seq <= ack) {
    window_.pop_front();
    ++trimmed;
  }
  return trimmed;
}

PeerLink::Arrival PeerLink::on_data(std::uint64_t seq) {
  ack_due_ = true;
  if (seq <= delivered_seq_) return Arrival::kDuplicate;
  const bool gap = seq != delivered_seq_ + 1;
  delivered_seq_ = seq;
  return gap ? Arrival::kGap : Arrival::kDeliver;
}

bool PeerLink::on_hello(std::uint64_t epoch) {
  const bool restarted = epoch_ != 0 && epoch_ != epoch;
  epoch_ = epoch;
  if (restarted) {
    delivered_seq_ = 0;
    ack_due_ = false;
  }
  return restarted;
}

}  // namespace hlock
