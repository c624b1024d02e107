// Unit tests for the common substrate: strong ids, deterministic RNG,
// serialization buffers, statistics, Lamport clocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/bytes.hpp"
#include "common/lamport.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace hlock {
namespace {

// ---------------------------------------------------------------- types --

TEST(StrongId, DefaultIsInvalidAndDistinctFromRealIds) {
  NodeId none;
  EXPECT_FALSE(none.valid());
  EXPECT_EQ(none, NodeId::invalid());
  NodeId a{0};
  EXPECT_TRUE(a.valid());
  EXPECT_NE(a, none);
}

TEST(StrongId, OrderingAndHash) {
  NodeId a{1}, b{2}, b2{2};
  EXPECT_LT(a, b);
  EXPECT_LE(a, b);
  EXPECT_GT(b, a);
  EXPECT_EQ(b, b2);
  EXPECT_EQ(std::hash<NodeId>{}(b), std::hash<NodeId>{}(b2));
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(msec(15), 15'000);
  EXPECT_EQ(sec(2), 2'000'000);
  EXPECT_DOUBLE_EQ(to_ms(msec(150)), 150.0);
}

// ------------------------------------------------------------------ rng --

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    EXPECT_EQ(rng.next_below(1), 0u);
  }
}

TEST(Rng, UniformCoversInclusiveRange) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(13);
  double sum = 0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(150.0);
  EXPECT_NEAR(sum / kSamples, 150.0, 5.0);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(21);
  Rng c1 = parent.split();
  Rng c2 = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (c1.next_u64() == c2.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

// ---------------------------------------------------------------- bytes --

TEST(Bytes, ScalarRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.str("hello");
  w.str("");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, TruncatedReadThrows) {
  ByteWriter w;
  w.u32(7);
  ByteReader r(w.bytes());
  (void)r.u16();
  EXPECT_THROW(r.u32(), DecodeError);
}

TEST(Bytes, BogusStringLengthThrows) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes follow
  w.u8('x');
  ByteReader r(w.bytes());
  EXPECT_THROW(r.str(), DecodeError);
}

TEST(Bytes, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  ASSERT_EQ(w.bytes().size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

// ---------------------------------------------------------------- stats --

TEST(Summary, MeanMinMaxStd) {
  Summary s;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(1.25), 1e-9);
}

TEST(Summary, Percentiles) {
  Summary s;
  for (int i = 100; i >= 1; --i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_NEAR(s.percentile(0.5), 50.0, 1.0);
  EXPECT_NEAR(s.percentile(0.95), 95.0, 1.0);
}

TEST(Summary, SealMakesAccessorsReadOnlyAndStable) {
  Summary s;
  for (int i = 100; i >= 1; --i) s.add(i);
  EXPECT_FALSE(s.sealed());
  // Unsealed percentile() must answer without mutating internal state.
  EXPECT_NEAR(s.percentile(0.5), 50.0, 1.0);
  EXPECT_FALSE(s.sealed());

  s.seal();
  EXPECT_TRUE(s.sealed());
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.percentile(0.95), 95.0, 1.0);
  s.seal();  // idempotent
  EXPECT_TRUE(s.sealed());

  // Adding after a seal unseals; answers stay exact either way.
  s.add(1000.0);
  EXPECT_FALSE(s.sealed());
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 1000.0);
}

TEST(Summary, EmptyIsZero) {
  const Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.percentile(0.5), 0.0);
}

TEST(CounterMap, IncrementGetTotalMerge) {
  CounterMap a;
  a.inc("x");
  a.inc("x", 2);
  a.inc("y");
  EXPECT_EQ(a.get("x"), 3u);
  EXPECT_EQ(a.get("missing"), 0u);
  EXPECT_EQ(a.total(), 4u);

  CounterMap b;
  b.inc("x", 10);
  b.inc("z");
  a.merge(b);
  EXPECT_EQ(a.get("x"), 13u);
  EXPECT_EQ(a.get("z"), 1u);
}

// -------------------------------------------------------------- lamport --

TEST(Lamport, TickIsMonotone) {
  LamportClock c;
  const auto s1 = c.tick(NodeId{1});
  const auto s2 = c.tick(NodeId{1});
  EXPECT_LT(s1, s2);
}

TEST(Lamport, ObserveAdvancesPastRemote) {
  LamportClock c;
  (void)c.tick(NodeId{1});
  c.observe(LamportStamp{100, NodeId{2}});
  EXPECT_GT(c.tick(NodeId{1}), (LamportStamp{100, NodeId{2}}));
}

TEST(Lamport, TotalOrderBreaksTiesByNode) {
  const LamportStamp a{5, NodeId{1}};
  const LamportStamp b{5, NodeId{2}};
  EXPECT_LT(a, b);
  EXPECT_FALSE(b < a);
  EXPECT_TRUE(a < b || b < a || a == b);
}

}  // namespace
}  // namespace hlock
