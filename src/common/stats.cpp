#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace hlock {

void Summary::add(double v) {
  samples_.push_back(v);
  sorted_ = false;
  sum_ += v;
  sum_sq_ += v * v;
}

void Summary::seal() {
  if (sorted_) return;
  std::sort(samples_.begin(), samples_.end());
  sorted_ = true;
}

double Summary::mean() const {
  if (samples_.empty()) return 0.0;
  return sum_ / static_cast<double>(samples_.size());
}

double Summary::min() const {
  if (samples_.empty()) return 0.0;
  if (sorted_) return samples_.front();
  return *std::min_element(samples_.begin(), samples_.end());
}

double Summary::max() const {
  if (samples_.empty()) return 0.0;
  if (sorted_) return samples_.back();
  return *std::max_element(samples_.begin(), samples_.end());
}

double Summary::percentile(double q) const {
  if (samples_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(samples_.size() - 1) + 0.5);
  if (sorted_) return samples_[idx];
  // Unsealed: stay read-only by selecting on a local copy. Exact, just
  // slower — collection-end code paths seal() so this is the cold path.
  std::vector<double> copy(samples_);
  std::nth_element(copy.begin(), copy.begin() + static_cast<std::ptrdiff_t>(idx),
                   copy.end());
  return copy[idx];
}

double Summary::stddev() const {
  const auto n = static_cast<double>(samples_.size());
  if (n < 2) return 0.0;
  const double m = mean();
  // E[x^2] - E[x]^2 suffers catastrophic cancellation for near-constant
  // samples and can come out a hair negative; unclamped, sqrt would turn
  // that into NaN (and NaN leaks into JSON as an invalid token).
  const double var = std::max(0.0, sum_sq_ / n - m * m);
  return std::sqrt(var);
}

void CounterMap::inc(const std::string& name, std::uint64_t delta) {
  counters_[name] += delta;
}

std::uint64_t CounterMap::get(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::uint64_t CounterMap::total() const {
  std::uint64_t sum = 0;
  for (const auto& [name, v] : counters_) sum += v;
  return sum;
}

void CounterMap::merge(const CounterMap& other) {
  for (const auto& [name, v] : other.counters_) counters_[name] += v;
}

}  // namespace hlock
