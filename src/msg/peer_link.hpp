// PeerLink — reliable, in-order, exactly-once delivery to one peer over
// connections that may die, as a sans-IO state machine: no sockets, clocks
// or threads. TcpNode runs one per peer over real sockets; the simulator's
// LinkLayer runs one per node pair over a network whose drops reset
// connections.
//
// Every accepted send gets the next sequence number (from 1) and stays in
// the window until a cumulative ack covers it. The window holds the
// Message, so each (re)send is encoded fresh and an ack stamped into one
// transmission never rides along into another. When a connection comes
// up the whole window is sent again: a dying connection may destroy data
// on both ends, so "written once" is not "delivered". The receiver
// delivers each sequence number once and acks every arrival, duplicates
// included — a resent window made only of duplicates must still drain.
// A hello with a new boot epoch resets the receive side once, so a
// restarted peer's numbering (from 1 again) is not taken for duplicates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

#include "msg/message.hpp"

namespace hlock {

class PeerLink {
 public:
  /// One accepted send awaiting its cumulative ack.
  struct Pending {
    std::uint64_t seq{0};
    Message msg;
  };

  /// What data received with a sequence number means. Each leaves an ack
  /// due.
  enum class Arrival : std::uint8_t {
    kDeliver,    ///< the next in sequence: hand it up
    kGap,        ///< ahead of sequence (the peer kept numbering across
                 ///< this node's restart): hand it up
    kDuplicate,  ///< delivered before: drop it
  };

  /// Send accepted: number `m` and keep it until acked. `transmitted` says
  /// the caller sends it on a live connection now. The entry stays valid
  /// until an ack trims it.
  const Pending& accept(Message m, bool transmitted);

  /// Connection up: the caller sends window() again, oldest first. Returns
  /// how many of its entries went out before (requeues). Voids an ack owed
  /// on the old connection — the peer's resent duplicates re-arm it, and
  /// the peer's hello, still to come on an outbound connection, may
  /// announce a restart that would make that ack trim the wrong window.
  std::size_t connection_up();

  /// Unacked sends, oldest first.
  [[nodiscard]] const std::deque<Pending>& window() const { return window_; }
  [[nodiscard]] std::size_t unacked() const { return window_.size(); }

  /// Drop every entry with seq <= `ack`; returns how many.
  std::size_t on_ack(std::uint64_t ack);

  Arrival on_data(std::uint64_t seq);

  /// True, after resetting the receive side, when `epoch` differs from the
  /// peer's last hello (it restarted); the first hello only records it.
  bool on_hello(std::uint64_t epoch);

  [[nodiscard]] bool ack_due() const { return ack_due_; }
  /// The cumulative ack to send now; clears ack_due().
  std::uint64_t take_ack() {
    ack_due_ = false;
    return delivered_seq_;
  }
  /// Highest sequence number delivered from the peer (0 = none).
  [[nodiscard]] std::uint64_t delivered_seq() const { return delivered_seq_; }
  /// Last hello epoch; 0 until the first hello.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

 private:
  std::uint64_t next_seq_{1};
  std::uint64_t transmitted_seq_{0};  ///< highest seq handed to a connection
  std::deque<Pending> window_;
  std::uint64_t delivered_seq_{0};
  std::uint64_t epoch_{0};
  bool ack_due_{false};
};

}  // namespace hlock
