// Lightweight metric primitives used by the experiment harness:
// named counters and a streaming summary (count/mean/min/max/percentiles).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hlock {

/// Streaming numeric summary. Keeps all samples so exact percentiles are
/// available; experiment scales here are small enough (<1e7 samples).
///
/// Call seal() once at collection end: it sorts the sample vector in
/// place, after which every accessor is genuinely read-only — a sealed
/// Summary is safe to read from any number of threads.
/// Accessors on an unsealed Summary still give exact answers, paying for
/// a sort of a local copy per percentile() call instead of mutating
/// shared state under a const method.
class Summary {
 public:
  void add(double v);

  /// Sort the samples; idempotent. add() after seal() un-seals.
  void seal();
  [[nodiscard]] bool sealed() const { return sorted_; }

  [[nodiscard]] std::uint64_t count() const { return samples_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Exact percentile, q in [0, 1]. Returns 0 for an empty summary.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double stddev() const;

  /// The raw samples (sorted once sealed).
  [[nodiscard]] const std::vector<double>& samples() const {
    return samples_;
  }

  /// Exact state equality (whole-result comparisons).
  bool operator==(const Summary&) const = default;

 private:
  std::vector<double> samples_;
  bool sorted_{true};
  double sum_{0};
  double sum_sq_{0};
};

/// Named monotonically increasing counters (message type counts etc.).
class CounterMap {
 public:
  void inc(const std::string& name, std::uint64_t delta = 1);
  [[nodiscard]] std::uint64_t get(const std::string& name) const;
  [[nodiscard]] std::uint64_t total() const;
  [[nodiscard]] const std::map<std::string, std::uint64_t>& all() const {
    return counters_;
  }
  void merge(const CounterMap& other);

  bool operator==(const CounterMap&) const = default;

 private:
  std::map<std::string, std::uint64_t> counters_;
};

}  // namespace hlock
