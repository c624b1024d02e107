// Lamport logical clock.
//
// Lock requests carry (lamport, node) timestamps so local queues can be
// merged on token transfer while preserving the global FIFO order the
// paper inherits from Mueller's prioritized token protocol [11].
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.hpp"

namespace hlock {

/// Totally ordered logical timestamp: ties broken by node id.
struct LamportStamp {
  std::uint64_t counter{0};
  NodeId node{};

  friend constexpr bool operator==(const LamportStamp& a,
                                   const LamportStamp& b) {
    return a.counter == b.counter && a.node == b.node;
  }
  friend constexpr bool operator<(const LamportStamp& a,
                                  const LamportStamp& b) {
    if (a.counter != b.counter) return a.counter < b.counter;
    return a.node < b.node;
  }
  friend constexpr bool operator>(const LamportStamp& a,
                                  const LamportStamp& b) {
    return b < a;
  }
};

/// Lamport clock. It keeps only the counter; the owner passes its node id
/// when stamping, so a clock per lock costs 8 bytes.
class LamportClock {
 public:
  /// Stamp an event originated by `self`.
  LamportStamp tick(NodeId self) { return LamportStamp{++counter_, self}; }

  /// Fold in a timestamp observed on an incoming message.
  void observe(const LamportStamp& remote) {
    counter_ = std::max(counter_, remote.counter);
  }

  [[nodiscard]] std::uint64_t counter() const { return counter_; }

 private:
  std::uint64_t counter_{0};
};

}  // namespace hlock
