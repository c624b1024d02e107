// JSON layer regressions: doubles must be emitted at round-trip
// precision (the old default-precision stream output truncated every
// metric to 6 significant digits), non-finite values must become `null`
// (bare `nan`/`inf` tokens are invalid JSON), and the reader must parse
// back exactly what the writers emit — including integers beyond 2^53.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/stats.hpp"
#include "harness/json.hpp"
#include "harness/metrics.hpp"

using namespace hlock;
using namespace hlock::harness;

namespace {

TEST(JsonDouble, RoundTripsExactly) {
  for (const double v :
       {0.0, 1.0, 0.1, 1.0 / 3.0, 2.0 / 3.0, 1e-300, 1e300, 123456.789,
        0.30000000000000004, -5.5, 3.0609375314898458}) {
    const std::string text = json_double(v);
    const auto parsed = parse_json(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    const auto back = parsed->as_double();
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(v, *back) << text;  // bit-exact, not approximate
  }
}

TEST(JsonDouble, ShortestFormStaysHuman) {
  // to_chars emits the shortest text that parses back exactly; simple
  // values must not turn into 17-digit monsters.
  EXPECT_EQ(json_double(0.1), "0.1");
  EXPECT_EQ(json_double(3.0), "3");
  EXPECT_EQ(json_double(0.5), "0.5");
}

TEST(JsonDouble, NonFiniteBecomesNull) {
  EXPECT_EQ(json_double(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_double(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriter, ResultJsonIsValidAndExact) {
  ExperimentResult r;
  r.nodes = 7;
  r.app_ops = 140;
  r.lock_requests = 3;  // msgs_per_lock_request becomes a long fraction
  r.messages = 1000;
  r.wire_bytes = 0xFFFFFFFFFFFFull;
  r.messages_by_kind.inc("request", 600);
  r.messages_by_kind.inc("grant", 400);
  r.latency_factor.add(1.1);
  r.latency_factor.add(2.2);
  r.latency_factor.add(2.2000000000000002);  // adjacent double
  r.latency_factor.seal();
  r.virtual_end = 123456789;

  const std::string json = to_json(r);
  const auto doc = parse_json(json);
  ASSERT_TRUE(doc.has_value()) << json;

  // The derived ratio must round-trip through the emitted text exactly.
  const JsonValue* ratio = doc->find("msgs_per_lock_request");
  ASSERT_NE(ratio, nullptr);
  EXPECT_EQ(ratio->as_double(), r.msgs_per_lock_request());

  const JsonValue* factor = doc->find("latency_factor");
  ASSERT_NE(factor, nullptr);
  EXPECT_EQ(factor->find("mean")->as_double(), r.latency_factor.mean());
  EXPECT_EQ(factor->find("p95")->as_double(), r.latency_factor.percentile(0.95));
}

TEST(JsonWriter, TopologySplitEmittedOnlyForClusteredRuns) {
  ExperimentResult flat;
  flat.messages = 10;
  // Flat run: counters all zero -> the split is omitted entirely, keeping
  // flat output byte-identical to the pre-topology emitter.
  const std::string flat_json = to_json(flat);
  EXPECT_EQ(flat_json.find("cross_cluster"), std::string::npos) << flat_json;

  ExperimentResult clustered;
  clustered.messages = 10;
  clustered.intra_cluster_messages = 7;
  clustered.cross_cluster_messages = 3;
  clustered.intra_cluster_bytes = 700;
  clustered.cross_cluster_bytes = 300;
  const std::string json = to_json(clustered);
  const auto doc = parse_json(json);
  ASSERT_TRUE(doc.has_value()) << json;
  EXPECT_EQ(doc->find("intra_cluster_messages")->as_u64(), 7u);
  EXPECT_EQ(doc->find("cross_cluster_messages")->as_u64(), 3u);
  EXPECT_EQ(doc->find("intra_cluster_bytes")->as_u64(), 700u);
  EXPECT_EQ(doc->find("cross_cluster_bytes")->as_u64(), 300u);
  EXPECT_EQ(doc->find("cross_cluster_fraction")->as_double(), 0.3);
}

TEST(JsonWriter, NonFiniteSummaryStaysValidJson) {
  // Infinite samples poison the Summary (min/max infinite, mean NaN from
  // inf + -inf) and exercise the writer's null mapping end to end: the
  // document must still parse.
  ExperimentResult r;
  r.latency_factor.add(std::numeric_limits<double>::infinity());
  r.latency_factor.add(-std::numeric_limits<double>::infinity());
  const std::string json = to_json(r);
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  const auto doc = parse_json(json);
  ASSERT_TRUE(doc.has_value()) << json;
  EXPECT_EQ(doc->find("latency_factor")->find("mean")->kind,
            JsonValue::Kind::kNull);
}

TEST(JsonParser, ParsesScalarsObjectsArrays) {
  const auto doc = parse_json(
      R"({"a":1,"b":[true,false,null],"c":{"nested":"va\"lue"},"d":-2.5e3})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("a")->as_u64(), 1u);
  ASSERT_EQ(doc->find("b")->elements.size(), 3u);
  EXPECT_EQ(doc->find("b")->elements[0].as_bool(), true);
  EXPECT_EQ(doc->find("b")->elements[2].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(doc->find("c")->find("nested")->text, "va\"lue");
  EXPECT_EQ(doc->find("d")->as_double(), -2500.0);
}

TEST(JsonParser, FullWidthIntegersSurvive) {
  // 2^64 - 1 cannot round-trip through a double; the parser keeps the
  // raw token so counters stay exact.
  const auto doc = parse_json(R"({"v":18446744073709551615})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("v")->as_u64(), 18446744073709551615ull);
}

TEST(JsonParser, RejectsMalformedInput) {
  EXPECT_FALSE(parse_json("").has_value());
  EXPECT_FALSE(parse_json("{").has_value());
  EXPECT_FALSE(parse_json("{\"a\":}").has_value());
  EXPECT_FALSE(parse_json("[1,2,]").has_value());
  EXPECT_FALSE(parse_json("nan").has_value());
  EXPECT_FALSE(parse_json("{} trailing").has_value());
  EXPECT_FALSE(parse_json("\"unterminated").has_value());
}

TEST(SummaryStddev, NearConstantSamplesNeverGoNaN) {
  // Catastrophic cancellation: E[x^2] - E[x]^2 for near-identical large
  // samples can come out a hair negative; sqrt of that is NaN unless the
  // variance is clamped at zero.
  Summary s;
  for (int i = 0; i < 3; ++i) s.add(1e8 + 0.1);
  EXPECT_FALSE(std::isnan(s.stddev()));
  EXPECT_GE(s.stddev(), 0.0);

  // Deterministic worst case: three samples of 0.1 make the raw variance
  // expression exactly negative (the same arithmetic, replayed here).
  Summary poisoned;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < 3; ++i) {
    poisoned.add(0.1);
    sum += 0.1;
    sum_sq += 0.1 * 0.1;
  }
  ASSERT_LT(sum_sq / 3 - (sum / 3) * (sum / 3), 0.0);
  EXPECT_FALSE(std::isnan(poisoned.stddev()));
  EXPECT_EQ(poisoned.stddev(), 0.0);

  // And the JSON it feeds stays valid (this was the source of the
  // invalid `nan` tokens).
  EXPECT_NE(json_double(poisoned.stddev()), "null");
}

}  // namespace
