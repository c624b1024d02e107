// Granularity study — why hierarchical locking exists (§3.1, Gray [5]):
// the same document-store workload under three lock granularities on the
// same protocol:
//
//   flat    one global lock (modes still apply: readers share)
//   coarse  database -> collection locks (documents share their
//           collection's lock)
//   fine    database -> collection -> document locks (full 3-level
//           multi-granularity plans)
//
// Workload per node: 70% doc reads, 15% doc writes, 10% collection scans,
// 5% collection rebuilds. Expected: finer granularity buys concurrency
// (lower latency, shorter makespan) at the price of more lock requests
// per op — and intent modes keep that price to ~1 extra message per
// level. Parameters put the system in the contention-dominated regime
// (10 ms LAN latency, 50 ms critical sections) where granularity is the
// bottleneck; with long WAN latencies the extra sequential acquisitions
// of deep plans dominate instead (see the paper's latency model).
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/cli.hpp"
#include "common/rng.hpp"
#include "harness/sweep_runner.hpp"
#include "harness/experiment.hpp"
#include "harness/sim_executor.hpp"
#include "lockmgr/hierarchy.hpp"
#include "lockmgr/session_mux.hpp"
#include "sim/simnet.hpp"
#include "sim/simulator.hpp"

using namespace hlock;

namespace {

constexpr std::size_t kNodes = 16;
constexpr std::uint32_t kCollections = 4;
constexpr std::uint32_t kDocsPerCollection = 8;
constexpr int kOpsPerNode = 30;

enum class Grain { kFlat, kCoarse, kFine };

struct DocStore {
  DocStore() : hierarchy("db") {
    for (std::uint32_t c = 0; c < kCollections; ++c) {
      const ResourceId col =
          hierarchy.add_child(hierarchy.root(), "col" + std::to_string(c));
      collections.push_back(col);
      for (std::uint32_t d = 0; d < kDocsPerCollection; ++d) {
        docs.push_back(hierarchy.add_child(col, "doc" + std::to_string(d)));
      }
    }
  }
  lockmgr::Hierarchy hierarchy;
  std::vector<ResourceId> collections;
  std::vector<ResourceId> docs;
};

struct RunStats {
  Summary latency_ms;
  std::uint64_t lock_requests{0};
  std::uint64_t messages{0};
  TimePoint makespan{0};
};

RunStats run_grain(Grain grain) {
  DocStore store;
  sim::Simulator sim;
  sim::SimNetwork net(sim, std::make_unique<sim::UniformLatency>(msec(10)),
                      Rng(17));
  harness::SimExecutor exec(sim);

  std::vector<std::unique_ptr<sim::SimTransport>> transports;
  std::vector<std::unique_ptr<core::HlsNode>> nodes;
  std::vector<std::unique_ptr<lockmgr::SessionMux>> sessions;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    transports.push_back(std::make_unique<sim::SimTransport>(net, id));
    nodes.push_back(std::make_unique<core::HlsNode>(id, *transports.back()));
    for (std::uint32_t l = 0; l < store.hierarchy.resource_count(); ++l) {
      nodes.back()->add_lock(LockId{l}, NodeId{l % kNodes});
    }
    net.register_node(id, [n = nodes.back().get()](const Message& m) {
      n->handle(m);
    });
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    sessions.push_back(
        std::make_unique<lockmgr::SessionMux>(*nodes[i], exec, 1));
  }

  RunStats stats;
  Rng rng(99);
  std::vector<Rng> node_rng;
  for (std::size_t i = 0; i < kNodes; ++i) node_rng.push_back(rng.split());

  // Build the lock plan for an op under the chosen granularity.
  auto plan_for = [&](Rng& r) -> std::vector<lockmgr::PlanStep> {
    const double dice = r.next_double();
    const auto col = store.collections[r.next_below(kCollections)];
    const auto doc = store.docs[r.next_below(
        kCollections * kDocsPerCollection)];
    const Mode doc_mode = dice < 0.70 ? Mode::kR
                          : dice < 0.85 ? Mode::kW
                                        : Mode::kNone;
    const Mode col_mode = dice < 0.95 ? Mode::kR : Mode::kW;  // scan/rebuild
    switch (grain) {
      case Grain::kFlat: {
        const Mode m = doc_mode != Mode::kNone ? doc_mode : col_mode;
        return {{store.hierarchy.lock_of(store.hierarchy.root()), m}};
      }
      case Grain::kCoarse: {
        if (doc_mode != Mode::kNone) {
          // Document ops lock the document's collection.
          return lock_plan(store.hierarchy, store.hierarchy.parent_of(doc),
                           doc_mode);
        }
        return lock_plan(store.hierarchy, col, col_mode);
      }
      case Grain::kFine: {
        if (doc_mode != Mode::kNone) {
          return lock_plan(store.hierarchy, doc, doc_mode);
        }
        return lock_plan(store.hierarchy, col, col_mode);
      }
    }
    return {};
  };

  std::vector<int> remaining(kNodes, kOpsPerNode);
  std::function<void(std::size_t)> next_op = [&](std::size_t i) {
    if (remaining[i]-- == 0) return;
    sim.schedule_after(
        std::max<Duration>(usec(100),
                           static_cast<Duration>(node_rng[i].exponential(
                               static_cast<double>(msec(100))))),
        [&, i] {
          lockmgr::Plan plan{plan_for(node_rng[i])};
          const Duration cs = std::max<Duration>(
              usec(100), static_cast<Duration>(node_rng[i].exponential(
                             static_cast<double>(msec(50)))));
          sessions[i]->run(0, std::move(plan), lockmgr::Op{.cs = cs},
                           [&, i](const lockmgr::OpStats& r) {
                             stats.latency_ms.add(to_ms(r.acquire_latency));
                             stats.lock_requests += r.lock_requests;
                             next_op(i);
                           });
        });
  };
  for (std::size_t i = 0; i < kNodes; ++i) next_op(i);
  sim.run_all();
  stats.messages = net.messages_sent();
  stats.makespan = sim.now();
  return stats;
}

const char* grain_name(Grain g) {
  switch (g) {
    case Grain::kFlat: return "flat (1 lock)";
    case Grain::kCoarse: return "coarse (db+collections)";
    case Grain::kFine: return "fine (3-level)";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliOptions cli = bench::parse_cli(
      argc, argv, "usage: granularity [--threads N]\n");
  const Grain grains[] = {Grain::kFlat, Grain::kCoarse, Grain::kFine};
  std::vector<std::vector<std::string>> rows(std::size(grains));
  harness::SweepRunner runner(bench::sweep_options(cli));
  runner.for_each_index(std::size(grains), [&](std::size_t i) {
    const Grain g = grains[i];
    const RunStats s = run_grain(g);
    const double ops = static_cast<double>(kNodes * kOpsPerNode);
    rows[i] = {grain_name(g),
               harness::TablePrinter::num(s.latency_ms.mean(), 1),
               harness::TablePrinter::num(s.latency_ms.percentile(0.95), 1),
               harness::TablePrinter::num(
                   static_cast<double>(s.lock_requests) / ops, 2),
               harness::TablePrinter::num(
                   static_cast<double>(s.messages) / ops, 2),
               harness::TablePrinter::num(
                   static_cast<double>(s.makespan) / 1e6, 1)};
  });

  std::cout << "Lock granularity study: " << kNodes << " nodes, "
            << kCollections << " collections x " << kDocsPerCollection
            << " docs, 70/15/10/5% doc-read/doc-write/scan/rebuild\n\n";
  harness::TablePrinter table({"granularity", "mean acquire ms", "p95 ms",
                               "locks/op", "msgs/op", "makespan s"});
  for (const auto& row : rows) table.row(row);
  table.print(std::cout);
  std::cout << "\nexpected: finer granularity cuts acquire latency and "
               "makespan (parallel disjoint writers) while intent modes "
               "keep the per-op message cost modest\n";
  return 0;
}
