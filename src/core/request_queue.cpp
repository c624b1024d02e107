#include "core/request_queue.hpp"

#include <algorithm>
#include <cassert>

namespace hlock::core {

void RequestQueue::compact() {
  if (head_ == 0) return;
  items_.erase(items_.begin(), items_.begin() + head_);
  head_ = 0;
}

void RequestQueue::enqueue(const QueuedRequest& q, bool by_priority) {
  add(q.mode);
  const auto live = items_.begin() + head_;
  auto it = live;
  while (it != items_.end() && it->upgrade) ++it;
  if (!q.upgrade) {
    if (by_priority) {
      while (it != items_.end() && !priority_before(q, *it)) ++it;
    } else {
      it = items_.end();
    }
  }
  if (it == items_.end()) {
    // An append: compacting only once the dead prefix outgrows the live
    // part keeps each entry's share of the moves constant.
    if (head_ >= size()) compact();
    items_.push_back(q);
    return;
  }
  // A placement inside the queue shifts its tail anyway; shift the dead
  // prefix out with it.
  const auto at = it - live;
  compact();
  items_.insert(items_.begin() + at, q);
}

void RequestQueue::pop_front() {
  remove(items_[head_].mode);
  if (++head_ == items_.size()) clear();
}

QueuedRequest RequestQueue::take(std::size_t i) {
  const QueuedRequest q = (*this)[i];
  if (i == 0) {
    pop_front();
  } else {
    remove(q.mode);
    items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(head_ + i));
  }
  return q;
}

void RequestQueue::merge_shipped(std::span<const QueuedRequest> shipped,
                                 bool by_priority) {
  // Shipped entries go first, so a stable order breaks stamp ties in their
  // favour. Two sorted runs merge in linear time; an unsorted run falls
  // back to a stable sort of the whole, which yields the same order. Each
  // step is skipped when it would not move anything, which spares its
  // temporary buffer.
  compact();
  items_.insert(items_.begin(), shipped.begin(), shipped.end());
  for (const QueuedRequest& q : shipped) add(q.mode);
  const auto before = [by_priority](const QueuedRequest& a,
                                    const QueuedRequest& b) {
    if (by_priority) return priority_before(a, b);
    return a.stamp < b.stamp;
  };
  const auto mid = items_.begin() + static_cast<std::ptrdiff_t>(shipped.size());
  if (!std::is_sorted(items_.begin(), mid, before) ||
      !std::is_sorted(mid, items_.end(), before)) {
    std::stable_sort(items_.begin(), items_.end(), before);
  } else if (mid != items_.begin() && mid != items_.end() &&
             before(*mid, *(mid - 1))) {
    std::inplace_merge(items_.begin(), mid, items_.end(), before);
  }
  // Upgrades keep their Rule 7 priority across transfers.
  const auto is_upgrade = [](const QueuedRequest& r) { return r.upgrade; };
  if (!std::is_partitioned(items_.begin(), items_.end(), is_upgrade))
    std::stable_partition(items_.begin(), items_.end(), is_upgrade);
  assert(counts_consistent());
}

void RequestQueue::erase_requester(NodeId requester) {
  retain_if([requester](const QueuedRequest& q) {
    return q.requester != requester;
  });
}

void RequestQueue::ship_into(std::vector<QueuedRequest>& out) {
  const std::span<const QueuedRequest> live = entries();
  out.assign(live.begin(), live.end());
  clear();
}

void RequestQueue::clear() {
  items_.clear();
  head_ = 0;
  counts_.fill(0);
}

bool RequestQueue::counts_consistent() const {
  std::array<std::uint32_t, 5> expect{};
  for (const QueuedRequest& q : entries()) {
    if (q.mode != Mode::kNone) ++expect[slot(q.mode)];
  }
  return expect == counts_;
}

}  // namespace hlock::core
