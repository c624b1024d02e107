// Extension bench: priority arbitration (intro's "strict priority
// ordering", following Mueller's prioritized token protocols [11,12]).
// Measures acquisition latency of a high-priority request class vs a
// low-priority background class under write contention, with and without
// the extension.
#include <deque>
#include <iostream>
#include <memory>
#include <optional>
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
  explicit Rig(core::EngineOptions opts, std::size_t n)
      : net(sim, std::make_unique<sim::UniformLatency>(msec(20)), Rng(11)) {
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id{static_cast<std::uint32_t>(i)};
      transports.push_back(std::make_unique<sim::SimTransport>(net, id));
      core::EngineContext& ctx =
          contexts.emplace_back(id, *transports.back(), opts);
      ctx.on_acquired = [this, i](LockId, RequestId rid, Mode) {
        on_acquired(i, rid);
      };
      engines.push_back(
          std::make_unique<core::HlsEngine>(ctx, LockId{0}, NodeId{0}));
      core::HlsEngine* raw = engines.back().get();
      net.register_node(id, [raw](const Message& m) { raw->handle(m); });
    }
  }

  void on_acquired(std::size_t node, RequestId rid) {
    const double wait = static_cast<double>(sim.now() - issued[node]);
    (priority_of[node] > 0 ? high : low).add(wait / 1000.0);  // ms
    sim.schedule_after(msec(5), [this, node, rid] {
      engines[node]->unlock(rid);
      maybe_request_again(node);
    });
  }

  void maybe_request_again(std::size_t node) {
    if (rounds[node] == 0) return;
    --rounds[node];
    sim.schedule_after(msec(5), [this, node] {
      issued[node] = sim.now();
      (void)engines[node]->request_lock(Mode::kW, priority_of[node]);
    });
  }

  void run(int rounds_per_node) {
    rounds.assign(engines.size(), rounds_per_node);
    issued.assign(engines.size(), 0);
    priority_of.assign(engines.size(), 0);
    priority_of[1] = 10;  // node 1 is the high-priority client
    for (std::size_t i = 0; i < engines.size(); ++i) maybe_request_again(i);
    sim.run_all();
  }

  sim::Simulator sim;
  sim::SimNetwork net;
  std::vector<std::unique_ptr<sim::SimTransport>> transports;
  /// Per-node engine contexts; declared before the engines they outlive.
  std::deque<core::EngineContext> contexts;
  std::vector<std::unique_ptr<core::HlsEngine>> engines;
  std::vector<int> rounds;
  std::vector<TimePoint> issued;
  std::vector<std::uint8_t> priority_of;
  Summary high, low;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::CliOptions cli = bench::parse_cli(
      argc, argv, "usage: priority_arbitration [--threads N]\n");
  std::vector<std::vector<std::string>> rows(2);
  harness::SweepRunner runner(bench::sweep_options(cli));
  runner.for_each_index(2, [&](std::size_t i) {
    const bool enabled = i == 1;
    core::EngineOptions opts;
    opts.enable_priorities = enabled;
    Rig rig(opts, 10);
    rig.run(40);
    rows[i] = {enabled ? "priorities on" : "priorities off (FIFO)",
               harness::TablePrinter::num(rig.high.mean(), 1),
               harness::TablePrinter::num(rig.high.percentile(0.95), 1),
               harness::TablePrinter::num(rig.low.mean(), 1),
               harness::TablePrinter::num(rig.low.percentile(0.95), 1)};
  });

  std::cout << "Priority arbitration extension: W-contended lock, node 1 at "
               "priority 10, others at 0 (latency in ms)\n\n";
  harness::TablePrinter table({"config", "high-prio mean", "high-prio p95",
                               "background mean", "background p95"});
  for (const auto& row : rows) table.row(row);
  table.print(std::cout);
  std::cout << "\nexpected: enabling priorities cuts the high-priority "
               "client's wait sharply at modest background cost\n";
  return 0;
}
