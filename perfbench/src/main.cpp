// perfbench — the benchmark driver. One run of one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// prints an informational JSON line (host, build, sample counts) and, as
// its last line, {"correct", "attempted", "failed", "metrics"} with every
// end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
// Exits 1 when the run's correctness gate fails, 2 on bad arguments.
//
//   perfbench --mix-sample N --workload live_write_mix --seed S
//
// prints the op-kind shares of N ops drawn from a live workload's mix.
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "common/parse.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

constexpr const char* kUsage =
    "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
    "                 [--tiny] [--tamper-expected] [--mix-sample N]\n"
    "workloads: live_paper_mix live_write_mix sim_hls_256 sim_forest\n";

[[noreturn]] void usage_error(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n" << kUsage;
  std::exit(2);
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

constexpr bool kOptimized =
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    true;
#else
    false;
#endif

void print_info(const Options& opt, const Report& rep) {
  std::cout << "{\"info\": {\"workload\": " << quoted(opt.workload)
            << ", \"seed\": " << opt.seed << ", \"seconds\": " << number(opt.seconds)
            << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
            << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
            << ", \"optimized\": " << (kOptimized ? "true" : "false");
  for (const auto& [k, v] : rep.notes) std::cout << ", " << quoted(k) << ": " << quoted(v);
  std::cout << ", \"problems\": [";
  for (std::size_t i = 0; i < rep.problems.size(); ++i)
    std::cout << (i ? ", " : "") << quoted(rep.problems[i]);
  std::cout << "]}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::uint64_t mix_sample = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      const auto v = hlock::try_parse_u64(value());
      if (!v) usage_error("--seed expects an unsigned integer");
      opt.seed = *v;
    } else if (arg == "--seconds") {
      const auto v = hlock::try_parse_double(value());
      if (!v || !(*v > 0) || *v > 600) usage_error("--seconds expects 0 < S <= 600");
      opt.seconds = *v;
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage_error("--trace expects 0 or 1");
      opt.trace = v == "1";
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--tamper-expected") {
      opt.tamper_expected = true;
    } else if (arg == "--mix-sample") {
      const auto v = hlock::try_parse_u64(value());
      if (!v || *v == 0) usage_error("--mix-sample expects a positive integer");
      mix_sample = *v;
    } else {
      usage_error("unknown argument " + arg);
    }
  }
  const bool live = perfbench::is_live_workload(opt.workload);
  if (!live && !perfbench::is_sim_workload(opt.workload))
    usage_error("unknown workload '" + opt.workload + "'");
  if (mix_sample != 0) {
    if (!live) usage_error("--mix-sample needs a live workload");
    perfbench::print_mix_sample(opt.workload, opt.seed, mix_sample);
    return 0;
  }
  if (!kOptimized)
    std::cerr << "perfbench: WARNING: not an optimized build; timings are not comparable\n";

  Report rep;
  try {
    rep = live ? perfbench::run_live(opt) : perfbench::run_sim(opt);
  } catch (const std::exception& e) {
    rep.check(false, std::string("run aborted: ") + e.what());
  }

  std::string metrics;
  const auto emit = [&](const perfbench::MetricSpec& spec, bool required) {
    const auto it = rep.values.find(spec.name);
    double v = it == rep.values.end() ? 0 : it->second;
    if ((required && it == rep.values.end()) || !std::isfinite(v)) {
      rep.check(false, std::string("metric ") + spec.name + " was not measured");
      v = 0;
    }
    metrics += std::string(metrics.empty() ? "" : ", ") + quoted(spec.name) +
               ": {\"value\": " + number(v) + ", \"unit\": " + quoted(spec.unit) + "}";
  };
  if (opt.trace) {
    for (const auto& spec : perfbench::kPerLayer) emit(spec, false);
  } else {
    for (const auto& spec : perfbench::kEndToEnd) emit(spec, true);
  }
  if (rep.attempted == 0) {  // aborted before any op: report it as failed
    rep.attempted = 1;
    rep.failed = 1;
  }

  print_info(opt, rep);
  for (const auto& p : rep.problems) std::cerr << "perfbench: FAILED: " << p << "\n";
  std::cout << "{\"correct\": " << (rep.correct() ? "true" : "false")
            << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return rep.correct() ? 0 : 1;
}
