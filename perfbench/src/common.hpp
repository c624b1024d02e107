// Shared pieces of the benchmark driver: options, the result record every
// workload fills, and the clock/resource-usage/percentile helpers.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  /// Tiny inputs for the benchmark's own smoke tests; never timed.
  bool tiny{false};
  /// Off-by-one the pinned expected counts, to prove the gate trips.
  bool tamper_expected{false};
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every untraced run reports all of these (BENCHMARK.json end_to_end).
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"acquire_p50_us", "us"},
    {"acquire_p99_us", "us"},
    {"msgs_per_request", "msgs/req"},
    {"cpu_us_per_op", "us"},
    {"peak_rss_mb", "MB"},
};

/// Every traced run reports all of these (BENCHMARK.json per_layer). A
/// layer the workload bypasses reads 0: the sim workloads send no frames,
/// the live ones run no simulator.
inline constexpr MetricSpec kPerLayer[] = {
    {"net.send_us", "us"},
    {"net.frames_per_batch", "frames/batch"},
    {"net.standalone_acks_per_op", "acks/op"},
    {"net.bytes_per_frame", "B/frame"},
    {"net.loop_busy_frac", "frac"},
    {"net.loop_lag_p50_us", "us"},
    {"net.loop_lag_p99_us", "us"},
    {"net.requeued_frames", "count"},
    {"net.reconnects", "count"},
    {"core.handle_us", "us"},
    {"core.msgs_per_request.request", "msgs/req"},
    {"core.msgs_per_request.grant", "msgs/req"},
    {"core.msgs_per_request.token", "msgs/req"},
    {"core.msgs_per_request.release", "msgs/req"},
    {"core.msgs_per_request.freeze", "msgs/req"},
    {"lockmgr.start_us", "us"},
    {"lockmgr.active_frac", "frac"},
    {"lockmgr.acquire_p50_us.entry_read", "us"},
    {"lockmgr.acquire_p50_us.table_read", "us"},
    {"lockmgr.acquire_p50_us.table_upgrade", "us"},
    {"lockmgr.acquire_p50_us.entry_write", "us"},
    {"lockmgr.acquire_p50_us.table_write", "us"},
    {"sim.ns_per_event", "ns"},
    {"sim.ns_per_event_n16", "ns"},
    {"sim.events_per_op", "events/op"},
    {"sim.bytes_per_msg", "B/msg"},
    {"sim.sharded.rounds", "count"},
    {"sim.sharded.us_per_round", "us"},
    {"sim.sharded.parallelism", "cores"},
    {"sim.sharded.mailbox_events", "count"},
    {"sim.sharded.window_revalidations", "count"},
    {"harness.build_s", "s"},
    {"harness.run_s", "s"},
    {"harness.engines_materialized", "count"},
    {"trace.ops_per_s_untraced", "1/s"},
    {"trace.ops_per_s_traced", "1/s"},
    {"trace.overhead_pct", "%"},
};

/// What one run reports: the correctness verdict, the op accounting, the
/// metric values of the requested mode (end-to-end, or per-layer when
/// traced) and informational notes such as sample counts.
struct Report {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> problems;
  std::map<std::string, double> values;
  std::vector<std::pair<std::string, std::string>> notes;

  [[nodiscard]] bool correct() const { return problems.empty(); }
  void set(const std::string& name, double value) { values[name] = value; }
  void note(std::string key, std::string value) {
    notes.emplace_back(std::move(key), std::move(value));
  }
  void check(bool ok, std::string what) {
    if (!ok) problems.push_back(std::move(what));
  }
};

Report run_live(const Options& opt);
Report run_sim(const Options& opt);
bool is_live_workload(const std::string& name);
bool is_sim_workload(const std::string& name);
/// Draw `count` ops from a live workload's generator and print the share
/// of each op kind as one JSON object (the mix-proportion self-check).
void print_mix_sample(const std::string& workload, std::uint64_t seed,
                      std::uint64_t count);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of the calling process (who = RUSAGE_SELF)
/// or the calling thread (who = RUSAGE_THREAD).
inline double cpu_seconds(int who = RUSAGE_SELF) {
  rusage ru{};
  getrusage(who, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Host-wide CPU ticks from /proc/stat: time this machine's CPUs ran
/// anything, and time the hypervisor gave their slots to other guests
/// (steal). Both zero where /proc/stat is unavailable.
struct HostTicks {
  std::uint64_t busy{0};
  std::uint64_t steal{0};
};

inline HostTicks host_ticks() {
  HostTicks t;
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8] = {};  // user nice system idle iowait irq softirq steal
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                    &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      t.busy = v[0] + v[1] + v[2] + v[5] + v[6];
      t.steal = v[7];
    }
    std::fclose(f);
  }
  return t;
}

/// Share of the CPU time wanted between two readings that the hypervisor
/// withheld (0 when nothing ran or nothing was stolen).
inline double steal_share(const HostTicks& a, const HostTicks& b) {
  const double steal = static_cast<double>(b.steal - a.steal);
  const double busy = static_cast<double>(b.busy - a.busy);
  return steal + busy > 0 ? steal / (steal + busy) : 0;
}

/// Host-speed probe. On a shared virtual machine this process runs the
/// same code up to ~30% slower for minutes at a time, whatever it does
/// and with no steal time: other tenants share the physical cores,
/// caches and memory. No statistic inside one run can average out a
/// phase that outlasts the run. So every run also times this fixed
/// reference code, which runs none of the lock service's code, while
/// nothing else of the benchmark runs, and scales its timings to a host
/// on which one probe takes kNominalS.
class HostProbe {
 public:
  /// Median probe on the 4-vCPU host the benchmark was tuned on.
  static constexpr double kNominalS = 2.5e-3;
  /// Resident size of the probe's buffer, which peak_rss_mb leaves out.
  static constexpr double kBufferMb = 32;

  HostProbe() : next_(kSlots) {
    // A full-period linear congruential map (Hull-Dobell): one cycle
    // through every slot, in an order no prefetcher follows.
    for (std::uint64_t i = 0; i < kSlots; ++i) {
      next_[i] = static_cast<std::uint32_t>(
          (6364136223846793005ULL * i + 1442695040888963407ULL) & (kSlots - 1));
    }
  }

  /// Seconds for the fastest of three passes of dependent multiply-xor
  /// steps followed by dependent loads around the buffer.
  double probe_s() {
    double best = 0;
    for (int pass = 0; pass < 3; ++pass) {
      const auto t0 = Clock::now();
      std::uint64_t h = sink_ | 1;
      for (std::uint64_t i = 0; i < kHashSteps; ++i) {
        h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ULL + i;
        asm volatile("" : "+r"(h));  // keep the chain from being folded
      }
      std::uint32_t p = static_cast<std::uint32_t>(h & (kSlots - 1));
      for (std::uint32_t i = 0; i < kChaseSteps; ++i) {
        p = next_[p];
        asm volatile("" : "+r"(p));
      }
      sink_ += p;
      const double s = seconds_since(t0);
      if (pass == 0 || s < best) best = s;
    }
    return best;
  }

  /// How much slower than the reference host a probe time says this host
  /// runs: divide times by it, multiply rates by it.
  static double slowness(double seconds) { return seconds / kNominalS; }

 private:
  static constexpr std::uint64_t kSlots = 1u << 23;  // 32 MiB of uint32_t
  static constexpr std::uint64_t kHashSteps = 400'000;
  static constexpr std::uint32_t kChaseSteps = 10'000;
  std::vector<std::uint32_t> next_;
  std::uint64_t sink_{0};
};

/// Peak resident memory of the workload: the process's peak less the
/// probe's buffer (every run holds one HostProbe from its start).
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0 - HostProbe::kBufferMb;  // KiB
}

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Increment for a counter with a single writer thread and any number of
/// readers: a plain load/store pair, no locked read-modify-write.
inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t by = 1) {
  c.store(c.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
}

/// Log-linear microsecond histogram: exact 1 us buckets below 1024 us,
/// then 64 buckets per power of two (under 1.6% wide) up to ~67 s. Fixed,
/// small memory whatever the throughput, so peak RSS does not grow with
/// the number of samples a faster build records.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr std::uint64_t kLinear = 1024;  // 2^(kSubBits + 4)
  static constexpr int kOctaves = 16;             // 2^10 .. 2^26 us

  LatencyHistogram() : buckets_(kLinear + (kOctaves << kSubBits), 0) {}

  void add(std::int64_t us) {
    ++buckets_[bucket(us < 0 ? 0 : static_cast<std::uint64_t>(us))];
    ++count_;
  }

  void merge(const LatencyHistogram& o) {
    for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }

  /// Quantile in microseconds, interpolated linearly inside its bucket.
  [[nodiscard]] double quantile_us(double q) const {
    if (count_ == 0) return 0;
    const double rank = q * static_cast<double>(count_ - 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] == 0) continue;
      if (static_cast<double>(seen + buckets_[i]) > rank) {
        const auto [lo, width] = bounds(i);
        const double frac = (rank - static_cast<double>(seen) + 0.5) /
                            static_cast<double>(buckets_[i]);
        return lo + width * std::min(1.0, frac);
      }
      seen += buckets_[i];
    }
    return bounds(buckets_.size() - 1).first;
  }

 private:
  static std::size_t bucket(std::uint64_t us) {
    if (us < kLinear) return static_cast<std::size_t>(us);
    int octave = 63 - __builtin_clzll(us) - 10;  // 0 for [1024, 2048)
    if (octave >= kOctaves) return kLinear + (kOctaves << kSubBits) - 1;
    const std::uint64_t sub = (us >> (octave + 10 - kSubBits)) & ((1u << kSubBits) - 1);
    return kLinear + (static_cast<std::size_t>(octave) << kSubBits) + sub;
  }

  /// Lower bound and width of bucket `i`, in microseconds.
  static std::pair<double, double> bounds(std::size_t i) {
    if (i < kLinear) return {static_cast<double>(i), 1.0};
    const std::size_t j = i - kLinear;
    const int octave = static_cast<int>(j >> kSubBits);
    const double width = static_cast<double>(1ull << (octave + 10 - kSubBits));
    const double lo = static_cast<double>(1ull << (octave + 10)) +
                      width * static_cast<double>(j & ((1u << kSubBits) - 1));
    return {lo, width};
  }

  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_{0};
};

}  // namespace perfbench
