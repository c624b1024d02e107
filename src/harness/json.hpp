// Minimal JSON emission and parsing for experiment results (no external
// deps) — the machine-readable counterpart of the ASCII tables, for
// plotting pipelines and the on-disk result cache.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/metrics.hpp"

namespace hlock::harness {

/// Render a double as a JSON token: shortest round-trip-exact decimal
/// (std::to_chars — parsing it back yields the identical bits), and
/// `null` for NaN/inf, which bare stream output would print as invalid
/// JSON (`nan`/`inf`).
std::string json_double(double v);

/// Serialize one result as a JSON object (single line).
std::string to_json(const ExperimentResult& result);

/// Write an array of results (e.g. one per node-count of a sweep).
void write_json_array(std::ostream& os,
                      const std::vector<ExperimentResult>& results);

/// One wall-clock timing sample: how fast the simulator executed a
/// point, plus the (seed-invariant) virtual-behavior counts that let a
/// reader verify two runs simulated the same thing. Produced by
/// bench/throughput; any future bench needing per-repetition timing
/// output shares this writer instead of hand-rolling an emitter.
struct TimingSample {
  std::string protocol;
  std::size_t nodes{0};
  double wall_ms{0};       ///< best wall time across repetitions
  std::uint64_t events{0};  ///< simulator events in one run
  ExperimentResult result;

  [[nodiscard]] double events_per_sec() const {
    return static_cast<double>(events) / (wall_ms / 1000.0);
  }
  [[nodiscard]] double acquires_per_sec() const {
    return static_cast<double>(result.lock_requests) / (wall_ms / 1000.0);
  }
};

/// Serialize one timing sample as a JSON object (single line); the format
/// of the `samples` entries in BENCH_throughput.json.
std::string to_json(const TimingSample& sample);

/// Write an array of timing samples (one per swept point).
void write_json_array(std::ostream& os,
                      const std::vector<TimingSample>& samples);

// --- parsing -------------------------------------------------------------
//
// A small recursive-descent JSON reader, just enough to read back what
// the writers above emit. Numbers keep their raw source text so integer
// fields round-trip at full std::uint64_t width — going through a double
// would corrupt counters above 2^53.

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind{Kind::kNull};
  bool boolean{false};
  /// Raw number token for kNumber (e.g. "1.5e-3"), decoded text for
  /// kString.
  std::string text;
  /// Insertion-ordered members for kObject.
  std::vector<std::pair<std::string, JsonValue>> members;
  std::vector<JsonValue> elements;  ///< kArray

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Typed accessors: nullopt unless the value is a number that parses
  /// exactly (whole token, in range) as the requested type.
  [[nodiscard]] std::optional<std::uint64_t> as_u64() const;
  [[nodiscard]] std::optional<std::int64_t> as_i64() const;
  [[nodiscard]] std::optional<double> as_double() const;
  [[nodiscard]] std::optional<bool> as_bool() const;
};

/// Parse one JSON document; nullopt on any syntax error or trailing
/// garbage. Tolerates surrounding whitespace.
std::optional<JsonValue> parse_json(std::string_view json);

}  // namespace hlock::harness
