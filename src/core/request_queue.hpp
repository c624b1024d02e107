// RequestQueue — an HlsEngine's local queue of waiting requests (Figure
// 4's "queue": Rule 4.2 at the token node, Table 2(a) elsewhere), with
// the bookkeeping Rule 6 needs kept up to date on every mutation.
//
// Table 2(b) freezes the union of frozen_for(owned, q.mode) over the
// queued requests, so the union depends only on *which* modes are
// queued. The queue therefore keeps one count per real mode, updated by
// every mutator below (the only way to change the entries, so the counts
// cannot drift), and the engine folds frozen_for over the modes with a
// nonzero count instead of rescanning a queue that grows with n.
//
// Storage is one vector plus a head index: a head pop advances the index
// instead of shifting the whole queue down. The dead prefix is reclaimed
// when an insert or a merge compacts it, and an append compacts only once
// the dead prefix is at least as long as the live part, so appends stay
// amortized O(1). Entries of mode kNone (a decoder accepts them) freeze
// nothing and are not counted.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "core/mode.hpp"
#include "msg/message.hpp"

namespace hlock::core {

class RequestQueue {
 public:
  [[nodiscard]] bool empty() const { return head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const { return items_.size() - head_; }
  /// The live entries, head first.
  [[nodiscard]] std::span<const QueuedRequest> entries() const {
    return {items_.data() + head_, size()};
  }
  [[nodiscard]] const QueuedRequest& front() const { return items_[head_]; }
  [[nodiscard]] const QueuedRequest& operator[](std::size_t i) const {
    return items_[head_ + i];
  }
  /// Queued requests for real mode `m` (kNone entries are not counted).
  [[nodiscard]] std::uint32_t count(Mode m) const {
    return m == Mode::kNone ? 0 : counts_[slot(m)];
  }

  /// Insert `q`: upgrades cluster at the front (Rule 7 precedence), FIFO
  /// among themselves; the rest is FIFO, or (priority desc, stamp) when
  /// `by_priority`.
  void enqueue(const QueuedRequest& q, bool by_priority);
  void pop_front();
  /// Remove and return the entry at live index `i`.
  QueuedRequest take(std::size_t i);
  /// Token arrival: fold `shipped` into the local entries in global FIFO
  /// order (footnote c of Figure 4: by Lamport stamp, or priority then
  /// stamp when `by_priority`), shipped entries first on stamp ties,
  /// upgrades ahead of everything.
  void merge_shipped(std::span<const QueuedRequest> shipped, bool by_priority);
  /// Drop every entry from `requester` (a token arrival's self-echo).
  void erase_requester(NodeId requester);
  /// Visit the entries head first, keeping those `keep(q)` accepts in
  /// order. `keep` gets a copy and must not touch this queue.
  template <typename Keep>
  void retain_if(Keep&& keep);
  /// Move the live entries into `out` (replacing its contents) and clear.
  void ship_into(std::vector<QueuedRequest>& out);
  void clear();

  /// True iff the per-mode counts match the entries (debug checks, tests).
  [[nodiscard]] bool counts_consistent() const;

 private:
  static std::size_t slot(Mode m) { return static_cast<std::size_t>(m) - 1; }
  void add(Mode m) {
    if (m != Mode::kNone) ++counts_[slot(m)];
  }
  void remove(Mode m) {
    if (m != Mode::kNone) --counts_[slot(m)];
  }
  /// Drop the dead prefix left by head pops.
  void compact();

  std::vector<QueuedRequest> items_;
  /// Index of the live head in items_; everything before it is dead.
  std::uint32_t head_{0};
  /// Live entries per real mode (IR, R, U, IW, W).
  std::array<std::uint32_t, 5> counts_{};
};

template <typename Keep>
void RequestQueue::retain_if(Keep&& keep) {
  // Kept entries slide down over the dead prefix too, so this compacts.
  std::size_t kept = 0;
  for (std::size_t i = head_; i < items_.size(); ++i) {
    const QueuedRequest q = items_[i];
    if (!keep(q)) {
      remove(q.mode);
      continue;
    }
    if (kept != i) items_[kept] = q;
    ++kept;
  }
  items_.resize(kept);
  head_ = 0;
  assert(counts_consistent());
}

}  // namespace hlock::core
