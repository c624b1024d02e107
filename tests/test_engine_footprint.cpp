// Heap footprint of the per-lock engines: a materialized engine costs one
// allocation (its own object) of at most 280 bytes; in HlsNode an
// untouched lock costs nothing, a first touch costs that one allocation
// plus at most one doubling of the engine index, and the index stays
// within 64 bytes per engine; a first copy grant to a new child grows one
// table, a token arriving at a warm engine builds no temporary container,
// and the side record for cancels and recovery stays unallocated on paths
// that use neither. Forests hold 10^5+ materialized engines, so these
// counts set both their memory and their speed. Decoding a frame whose
// queue count overstates its length fails before it allocates the queue.
//
// This file overrides the global allocation functions to count heap
// traffic (allocations and bytes). Each test file builds into its own
// executable (see tests/CMakeLists.txt), so the override cannot leak into
// other tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "core/hls_engine.hpp"
#include "core/hls_node.hpp"
#include "naimi/naimi_engine.hpp"

namespace {
// Not atomic: the engines and these tests are single-threaded.
std::uint64_t g_allocs = 0;
std::uint64_t g_bytes = 0;
std::size_t g_largest = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  g_bytes += n;
  if (n > g_largest) g_largest = n;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// Not inlined: GCC would otherwise see free() applied to the result of an
// out-of-line operator new and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace hlock::core {
namespace {

/// Heap allocations made while running `fn`.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = g_allocs;
  fn();
  return g_allocs - before;
}

/// Heap bytes requested while running `fn`.
template <typename Fn>
std::uint64_t bytes_during(Fn&& fn) {
  const std::uint64_t before = g_bytes;
  fn();
  return g_bytes - before;
}

/// Largest single heap allocation made while running `fn`.
template <typename Fn>
std::size_t largest_allocation_during(Fn&& fn) {
  g_largest = 0;
  fn();
  return g_largest;
}

/// Records sends into pre-reserved storage, so sending allocates nothing
/// and the counts below see only the engine's own heap traffic.
class Outbox final : public Transport {
 public:
  Outbox() { sent_.reserve(16); }
  void send(NodeId to, Message m) override {
    sent_.emplace_back(to, std::move(m));
  }
  /// Remove and return the single queued message.
  Message take() {
    EXPECT_EQ(sent_.size(), 1u);
    Message m = std::move(sent_.back().second);
    sent_.pop_back();
    return m;
  }
  [[nodiscard]] bool empty() const { return sent_.empty(); }

 private:
  std::vector<std::pair<NodeId, Message>> sent_;
};

const NodeId kA{0};
const NodeId kB{1};

TEST(EngineFootprint, IdleHlsEngineIsOneAllocation) {
  Outbox out;
  const EngineContext ctx(kB, out);
  std::unique_ptr<HlsEngine> engine;
  EXPECT_EQ(allocations_during([&] {
              engine = std::make_unique<HlsEngine>(ctx, LockId{0}, kA);
            }),
            1u);
  EXPECT_TRUE(engine->queue().empty());
  EXPECT_EQ(engine->backlog_size(), 0u);
}

// 280 B is the x86-64 / libstdc++ size with per-node state in the shared
// EngineContext, one table of per-child records, and the cancel / recovery
// sets in a side record allocated on first use. The per-lock budget is
// 320 B; a growing engine multiplies across 10^5-engine forests.
TEST(EngineFootprint, IdleHlsEngineIsAtMost280Bytes) {
  Outbox out;
  const EngineContext ctx(kB, out);
  std::unique_ptr<HlsEngine> engine;
  EXPECT_LE(bytes_during([&] {
              engine = std::make_unique<HlsEngine>(ctx, LockId{0}, kA);
            }),
            280u);
  EXPECT_LE(sizeof(HlsEngine), 320u);
}

// A copy grant records the child's mode, the frozen set sent to it and its
// grant count in one ChildRecord, so a new child costs at most one
// allocation (the table growing), not one per table.
TEST(EngineFootprint, FirstCopyGrantToNewChildAllocatesAtMostOnce) {
  Outbox out;
  const EngineContext ctx_a(kA, out);
  const EngineContext ctx_b(kB, out);
  HlsEngine a(ctx_a, LockId{0}, kA);
  HlsEngine b(ctx_b, LockId{0}, kA);
  // The root holds R, so B's R request is answered with a copy grant.
  (void)a.request_lock(Mode::kR);
  (void)b.request_lock(Mode::kR);
  const Message request = out.take();
  ASSERT_EQ(request.kind, MsgKind::kRequest);
  EXPECT_LE(allocations_during([&] { a.handle(request); }), 1u);
  EXPECT_EQ(out.take().kind, MsgKind::kGrant);
  EXPECT_EQ(a.child_mode(kB), Mode::kR);
}

TEST(EngineFootprint, TokenRoundTripNeverAllocatesTheSideRecord) {
  Outbox out;
  const EngineContext ctx_a(kA, out);
  const EngineContext ctx_b(kB, out);
  HlsEngine a(ctx_a, LockId{0}, kA);
  HlsEngine b(ctx_b, LockId{0}, kA);
  // B takes the token from A, then A takes it back.
  (void)b.request_lock(Mode::kW);
  a.handle(out.take());
  b.handle(out.take());
  ASSERT_TRUE(b.is_token_node());
  b.unlock(b.holds().begin()->first);
  (void)a.request_lock(Mode::kW);
  b.handle(out.take());
  a.handle(out.take());
  ASSERT_TRUE(a.is_token_node());
  a.unlock(a.holds().begin()->first);
  EXPECT_FALSE(a.has_side_record());
  EXPECT_FALSE(b.has_side_record());
  // A cancel is what needs it.
  const RequestId rid = b.request_lock(Mode::kW);
  EXPECT_TRUE(b.cancel(rid));
  EXPECT_TRUE(b.has_side_record());
}

TEST(EngineFootprint, IdleNaimiEngineIsOneAllocation) {
  Outbox out;
  std::unique_ptr<naimi::NaimiEngine> engine;
  EXPECT_EQ(allocations_during([&] {
              engine =
                  std::make_unique<naimi::NaimiEngine>(LockId{0}, kB, kA, out);
            }),
            1u);
  EXPECT_EQ(engine->backlog_size(), 0u);
}

// A lazily-managed lock that nothing touched has no engine and no index
// slot: looking it up allocates nothing, and touching the highest id costs
// what touching a low one does (no table sized by the id space).
TEST(EngineFootprint, UntouchedLockCostsNoAllocation) {
  Outbox out;
  HlsNode node(kB, out);
  std::size_t found = 0;
  EXPECT_EQ(allocations_during([&] {
              node.set_lazy_holder([](LockId) { return kA; });
              for (std::uint32_t id = 0; id < 100'000; ++id)
                found += node.find(LockId{id}) != nullptr;
              found += node.find(LockId{0xffff'fffeu}) != nullptr;
            }),
            0u);
  EXPECT_EQ(found, 0u);
  EXPECT_EQ(node.lock_count(), 0u);
  EXPECT_EQ(node.index_bytes(), 0u);
  const std::uint64_t low = bytes_during([&] { (void)node.engine(LockId{7}); });
  const std::uint64_t high =
      bytes_during([&] { (void)node.engine(LockId{0xffff'fffeu}); });
  EXPECT_LE(high, low);
}

// Each materialization is the engine's one allocation plus, when the load
// would pass 1/2, one doubling of the index; the very first touch builds
// the index.
TEST(EngineFootprint, FirstTouchIsOneEnginePlusAtMostOneIndexGrowth) {
  Outbox out;
  HlsNode node(kB, out);
  node.set_lazy_holder([](LockId) { return kA; });
  HlsEngine* engine = nullptr;
  EXPECT_EQ(allocations_during([&] { engine = &node.engine(LockId{7}); }),
            2u);
  EXPECT_EQ(engine->lock(), LockId{7});
  for (std::uint32_t k = 1; k < 1'000; ++k) {
    const std::uint64_t n =
        allocations_during([&] { (void)node.engine(LockId{k * 7'919}); });
    EXPECT_GE(n, 1u) << k;
    EXPECT_LE(n, 2u) << k;
  }
  EXPECT_EQ(node.lock_count(), 1'000u);
}

TEST(EngineFootprint, IndexCostsAtMost64BytesPerEngine) {
  Outbox out;
  HlsNode node(kB, out);
  node.set_lazy_holder([](LockId) { return kA; });
  for (std::uint32_t k = 0; k < 1'000; ++k) (void)node.engine(LockId{k * 13});
  ASSERT_EQ(node.lock_count(), 1'000u);
  EXPECT_LE(node.index_bytes() / node.lock_count(), 64u);
}

TEST(EngineFootprint, SecondTouchAllocatesNothing) {
  Outbox out;
  HlsNode node(kB, out);
  node.set_lazy_holder([](LockId) { return kA; });
  for (std::uint32_t id = 0; id < 100; ++id) (void)node.engine(LockId{id});
  EXPECT_EQ(allocations_during([&] {
              for (std::uint32_t id = 0; id < 100; ++id)
                (void)node.engine(LockId{id});
            }),
            0u);
}

TEST(EngineFootprint, TokenArrivalAtWarmEngineAllocatesNothing) {
  Outbox out;
  int acquired = 0;
  const EngineContext ctx_a(kA, out);
  EngineContext ctx_b(kB, out);
  ctx_b.on_acquired = [&acquired](LockId, RequestId, Mode) { ++acquired; };
  HlsEngine a(ctx_a, LockId{0}, kA);
  HlsEngine b(ctx_b, LockId{0}, kA);

  // B asks for W; A (idle root) answers with the token and its empty
  // queue. Returns the token message, undelivered.
  const auto token_to_b = [&] {
    (void)b.request_lock(Mode::kW);
    a.handle(out.take());
    return out.take();
  };

  // Warm up: one full round trip of the token sizes B's tables.
  b.handle(token_to_b());
  ASSERT_EQ(acquired, 1);
  b.unlock(b.holds().begin()->first);
  (void)a.request_lock(Mode::kW);
  b.handle(out.take());
  a.handle(out.take());
  ASSERT_TRUE(a.is_token_node());
  a.unlock(a.holds().begin()->first);
  ASSERT_TRUE(out.empty());

  const Message token = token_to_b();
  ASSERT_EQ(token.kind, MsgKind::kToken);
  ASSERT_TRUE(token.queue.empty());
  ASSERT_TRUE(b.queue().empty());
  EXPECT_EQ(allocations_during([&] { b.handle(token); }), 0u)
      << "merging an empty shipped queue into an empty local queue must "
         "not build a temporary container";
  EXPECT_EQ(acquired, 2);
  EXPECT_TRUE(b.is_token_node());
}

TEST(EngineFootprint, OverstatedQueueCountFailsBeforeAllocating) {
  // A token frame with no queue entries whose count field claims the
  // 1,000,000 the decoder accepts at most: it must throw the truncation
  // error without first reserving room for a million entries (~32 MB).
  Message token;
  token.kind = MsgKind::kToken;
  std::vector<std::uint8_t> frame = encode(token);
  ASSERT_EQ(frame.size(), kMessageFixedBytes);
  // The u32 count sits just before grant_seq, rel_seq and view.
  const std::size_t count_at = frame.size() - (8 + 8 + 4) - 4;
  const std::uint32_t count = 1'000'000;
  for (std::size_t i = 0; i < 4; ++i)
    frame[count_at + i] = static_cast<std::uint8_t>(count >> (8 * i));
  const std::size_t largest = largest_allocation_during([&] {
    EXPECT_THROW((void)decode(frame.data(), frame.size()), DecodeError);
  });
  EXPECT_LT(largest, 4096u);
}

}  // namespace
}  // namespace hlock::core
