// Crash-recovery bench: how long a view change disrupts lock service.
// Nodes hammer one lock; at a fixed point the current TOKEN HOLDER
// crashes, the view service recovers the survivors, and we measure the
// gap in successful acquisitions plus the recovery message cost.
#include <deque>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench/cli.hpp"
#include "common/stats.hpp"
#include "harness/sweep_runner.hpp"
#include "core/hls_engine.hpp"
#include "harness/experiment.hpp"
#include "sim/simnet.hpp"
#include "sim/simulator.hpp"

using namespace hlock;

namespace {

struct Rig {
  explicit Rig(std::size_t n)
      : net(sim, std::make_unique<sim::UniformLatency>(msec(15)), Rng(31)) {
    alive.assign(n, true);
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id{static_cast<std::uint32_t>(i)};
      transports.push_back(std::make_unique<sim::SimTransport>(net, id));
      core::EngineContext& ctx = contexts.emplace_back(id, *transports.back());
      ctx.on_acquired = [this, i](LockId, RequestId rid, Mode) {
        grant_times.push_back(sim.now());
        sim.schedule_after(msec(3), [this, i, rid] {
          if (!alive[i]) return;
          engines[i]->unlock(rid);
          request_later(i);
        });
      };
      engines.push_back(
          std::make_unique<core::HlsEngine>(ctx, LockId{0}, NodeId{0}));
      core::HlsEngine* raw = engines.back().get();
      net.register_node(id, [this, i, raw](const Message& m) {
        if (alive[i]) raw->handle(m);
      });
    }
  }

  void request_later(std::size_t i) {
    sim.schedule_after(msec(8), [this, i] {
      if (!alive[i] || remaining[i]-- <= 0) return;
      (void)engines[i]->request_lock(Mode::kW);
    });
  }

  void run(int ops_per_node, TimePoint crash_at) {
    remaining.assign(engines.size(), ops_per_node);
    for (std::size_t i = 0; i < engines.size(); ++i) request_later(i);

    sim.schedule_at(crash_at, [this] {
      // Kill the current token holder (worst case).
      std::size_t victim = 0;
      for (std::size_t i = 0; i < engines.size(); ++i) {
        if (alive[i] && engines[i]->is_token_node()) victim = i;
      }
      alive[victim] = false;
      crash_time = sim.now();
      msgs_at_crash = net.messages_sent();
      // Detection delay (failure detector), then the view change.
      sim.schedule_after(msec(100), [this] {
        std::size_t root = 0;
        while (!alive[root]) ++root;
        std::set<NodeId> survivors;
        for (std::size_t i = 0; i < engines.size(); ++i) {
          if (alive[i]) survivors.insert(NodeId{
              static_cast<std::uint32_t>(i)});
        }
        for (std::size_t i = 0; i < engines.size(); ++i) {
          if (alive[i]) {
            engines[i]->begin_recovery(
                1, NodeId{static_cast<std::uint32_t>(root)}, survivors);
          }
        }
        recovered_time = sim.now();
        msgs_after_recovery = net.messages_sent();
      });
    });
    sim.run_all();
  }

  sim::Simulator sim;
  sim::SimNetwork net;
  std::vector<std::unique_ptr<sim::SimTransport>> transports;
  /// Per-node engine contexts; declared before the engines they outlive.
  std::deque<core::EngineContext> contexts;
  std::vector<std::unique_ptr<core::HlsEngine>> engines;
  std::vector<bool> alive;
  std::vector<int> remaining;
  std::vector<TimePoint> grant_times;
  TimePoint crash_time{0};
  TimePoint recovered_time{0};
  std::uint64_t msgs_at_crash{0};
  std::uint64_t msgs_after_recovery{0};
};

}  // namespace

int main(int argc, char** argv) {
  const bench::CliOptions cli = bench::parse_cli(
      argc, argv, "usage: recovery [--threads N]\n");
  const std::size_t node_counts[] = {4, 8, 16, 32};
  const std::size_t count = std::size(node_counts);

  std::vector<std::vector<std::string>> rows(count);
  harness::SweepRunner runner(bench::sweep_options(cli));
  runner.for_each_index(count, [&](std::size_t idx) {
    const std::size_t n = node_counts[idx];
    Rig rig(n);
    rig.run(/*ops_per_node=*/25, /*crash_at=*/msec(400));
    // Service gap: last grant before the crash to first grant after the
    // view change.
    TimePoint last_before = 0;
    std::optional<TimePoint> first_after;
    for (const TimePoint t : rig.grant_times) {
      if (t <= rig.crash_time) last_before = std::max(last_before, t);
      if (t >= rig.recovered_time && !first_after) first_after = t;
    }
    std::uint64_t after = 0;
    for (const TimePoint t : rig.grant_times) {
      if (t > rig.crash_time) ++after;
    }
    rows[idx] = {std::to_string(n), std::to_string(rig.grant_times.size()),
                 first_after ? harness::TablePrinter::num(
                                   to_ms(*first_after - last_before), 1)
                             : "-",
                 std::to_string(rig.msgs_after_recovery - rig.msgs_at_crash),
                 std::to_string(after)};
  });

  std::cout << "Crash recovery: token holder dies mid-run, view service "
               "recovers after a 100 ms detection delay\n\n";
  harness::TablePrinter table({"nodes", "grants total", "service gap ms",
                               "recovery msgs", "grants after crash"});
  for (const auto& row : rows) table.row(row);
  table.print(std::cout);
  std::cout << "\nexpected: the gap is dominated by the detection delay "
               "(100 ms) plus one round trip; survivors keep acquiring "
               "afterwards\n";
  return 0;
}
