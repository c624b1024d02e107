// EngineTable — a node's index from lock id to that lock's protocol
// engine, shared by core::HlsNode and naimi::NaimiNode.
//
// A node builds engines only for the locks it touches. At 10^6 locks most
// ids never get one, so the index grows with the number of engines, not
// with the id space: an untouched lock costs nothing.
//
// The index is open addressing over a power-of-two slot array. Lock id
// `id` starts at slot `id & mask` and probes linearly; the load stays at
// or below 1/2 and the array doubles to keep it there. Nothing is ever
// erased: an engine lives as long as its node. Masking the id itself
// (no hash mix) keeps adjacent ids in adjacent slots, and adjacent ids
// are what the workloads touch hardest: the table and entry locks of the
// Figure 5 layout and the hot Zipf pages of a forest tree are low,
// contiguous ids.
//
// Engines are allocated one by one and never move, so a reference from
// add() or find() stays valid for the table's lifetime, across growth.
// for_each() visits in ascending id order by collecting and sorting; it
// serves rare paths (recovery, deadlock scans), not the per-message
// lookup.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace hlock {

template <class Engine>
class EngineTable {
 public:
  EngineTable() = default;
  EngineTable(const EngineTable&) = delete;
  EngineTable& operator=(const EngineTable&) = delete;

  /// The engine for `lock`, or null; never inserts.
  [[nodiscard]] Engine* find(LockId lock) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = lock.value & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (!s.engine) return nullptr;
      if (s.id == lock.value) return s.engine.get();
    }
  }

  /// Take ownership of `engine` as the engine for `lock`; throws
  /// std::logic_error if `lock` already has one.
  Engine& add(LockId lock, std::unique_ptr<Engine> engine) {
    if (find(lock) != nullptr) throw std::logic_error("lock added twice");
    if (2 * (size_ + 1) > slots_.size()) grow();
    Engine& added = *engine;
    place(lock.value, std::move(engine));
    ++size_;
    return added;
  }

  /// Engines held.
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Heap bytes of the index itself (the slot array), engines excluded.
  [[nodiscard]] std::size_t index_bytes() const {
    return slots_.capacity() * sizeof(Slot);
  }

  /// Visit every engine as fn(LockId, Engine&), in ascending id order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::vector<std::pair<std::uint32_t, Engine*>> sorted;
    sorted.reserve(size_);
    for (const Slot& s : slots_)
      if (s.engine) sorted.emplace_back(s.id, s.engine.get());
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [id, engine] : sorted) fn(LockId{id}, *engine);
  }

 private:
  struct Slot {
    std::uint32_t id{0};
    std::unique_ptr<Engine> engine;  ///< null = empty slot
  };
  static constexpr std::size_t kMinSlots = 8;

  void place(std::uint32_t id, std::unique_ptr<Engine> engine) {
    std::size_t i = id & mask_;
    while (slots_[i].engine) i = (i + 1) & mask_;
    slots_[i] = Slot{id, std::move(engine)};
  }

  void grow() {
    std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(std::max(kMinSlots, 2 * slots_.size())));
    mask_ = slots_.size() - 1;
    for (Slot& s : old)
      if (s.engine) place(s.id, std::move(s.engine));
  }

  std::vector<Slot> slots_;
  std::size_t mask_{0};
  std::size_t size_{0};
};

}  // namespace hlock
