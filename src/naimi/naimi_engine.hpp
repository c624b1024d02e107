// Naimi/Trehel/Arnold path-reversal token algorithm [14] — the baseline
// the paper compares against (§4), one instance per (node, lock).
//
// Every node keeps a probable-owner pointer (`father`); requests chase the
// chain of probable owners toward the current root while reversing the
// path (each relay re-points its father at the requester). Waiters form a
// distributed FIFO queue through `next` pointers originating at the token
// holder. Average message complexity is O(log n) per request.
//
// The lock is exclusive-only; hierarchical modes do not exist here, which
// is exactly what the "Naimi same work" configuration has to compensate
// for by acquiring all entry locks in order.
//
// Threading contract matches HlsEngine: single-threaded, callbacks must
// not re-enter the engine.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "msg/message.hpp"

namespace hlock::naimi {

struct NaimiCallbacks {
  /// The critical section may be entered (possibly synchronously from
  /// request() or handle()).
  std::function<void(RequestId)> on_acquired;
};

class NaimiEngine {
 public:
  NaimiEngine(LockId lock, NodeId self, NodeId initial_token_holder,
              Transport& transport, NaimiCallbacks callbacks = {});

  NaimiEngine(const NaimiEngine&) = delete;
  NaimiEngine& operator=(const NaimiEngine&) = delete;

  /// Request the (exclusive) lock. Multiple outstanding local requests are
  /// served in issue order.
  RequestId request();

  /// Leave the critical section entered for `id`.
  void release(RequestId id);

  /// Feed one incoming kNaimiRequest / kNaimiToken message.
  void handle(const Message& m);

  // ---- introspection ----
  [[nodiscard]] LockId lock() const { return lock_; }
  [[nodiscard]] bool has_token() const { return has_token_; }
  [[nodiscard]] bool in_cs() const { return current_.has_value(); }
  [[nodiscard]] bool requesting() const { return requesting_; }
  [[nodiscard]] NodeId father() const { return father_; }
  [[nodiscard]] NodeId next() const { return next_; }
  [[nodiscard]] std::size_t backlog_size() const { return backlog_.size(); }

 private:
  void start_request(RequestId id);
  void enter_cs(RequestId id);
  void pump_backlog();
  void send(NodeId to, Message m);

  const LockId lock_;
  const NodeId self_;
  Transport& transport_;
  NaimiCallbacks callbacks_;

  /// Probable owner; invalid means "I am the root / last requester".
  NodeId father_;
  /// Successor in the distributed waiting queue.
  NodeId next_{};
  bool has_token_;
  /// True from the moment a request leaves until the CS is released.
  bool requesting_{false};

  std::optional<RequestId> current_;   ///< hold currently in the CS
  std::optional<RequestId> waiting_;   ///< local request in the protocol
  /// Local requests waiting their turn, oldest first (a vector: an empty
  /// std::deque allocates ~576 B per engine).
  std::vector<RequestId> backlog_;
  std::uint64_t next_request_{1};
};

}  // namespace hlock::naimi
