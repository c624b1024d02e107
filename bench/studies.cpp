// The extension studies, rows of paper_figures' kFigures table next to
// the paper's figures (`paper_figures --figure NAME`). ablations,
// sensitivity, loss_resilience and topology_locality simulate cluster
// points on the sweep runner; priority_arbitration, granularity, churn
// and recovery drive their own rig.
#include <algorithm>
#include <deque>
#include <functional>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/paper_figures.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/hls_engine.hpp"
#include "harness/json.hpp"
#include "harness/sim_executor.hpp"
#include "lockmgr/hierarchy.hpp"
#include "lockmgr/session_mux.hpp"
#include "sim/simnet.hpp"
#include "sim/simulator.hpp"

namespace hlock::bench {

namespace {

using harness::ClusterConfig;
using harness::ExperimentResult;
using harness::Protocol;
using harness::SweepPoint;
using harness::TablePrinter;
using harness::make_point;

// ---------------------------------------------------------------------
// Ablations of the protocol's design choices (DESIGN.md §6), each a claim
// the paper makes in §3-§4:
//
//   child-grants off   — "most significantly, from allowing children to
//                         grant requests" (Fig. 5 discussion)
//   local-queues off   — Rule 4's queue-to-suppress-messages optimization
//   eager releases     — Rule 5.2: "one message suffices, irrespective of
//                         the number of grandchildren"
//   freezing off       — Rule 6 buys FIFO fairness; measure its price

struct Variant {
  const char* name;
  core::EngineOptions opts;
};

core::EngineOptions without(bool core::EngineOptions::*choice) {
  core::EngineOptions opts;
  opts.*choice = false;
  return opts;
}

const Variant kVariants[] = {
    {"full protocol", {}},
    {"no child grants", without(&core::EngineOptions::allow_child_grants)},
    {"no local queues", without(&core::EngineOptions::allow_local_queues)},
    {"eager releases", without(&core::EngineOptions::lazy_release)},
    {"no freezing", without(&core::EngineOptions::enable_freezing)},
};
constexpr std::size_t kAblationNodes[] = {20, 60, 120};

}  // namespace

std::vector<SweepPoint> ablations_points(const Ctx& c) {
  std::vector<SweepPoint> points;
  for (const std::size_t n : kAblationNodes)
    for (const Variant& v : kVariants)
      points.push_back(make_point(Protocol::kHls, n, c.spec, v.opts));
  return points;
}

int ablations(const Ctx&, const Results& r) {
  std::size_t next = 0;
  for (const std::size_t n : kAblationNodes) {
    std::cout << "=== " << n << " nodes ===\n";
    TablePrinter table(
        {"variant", "msgs/request", "latency factor", "p95 factor"});
    for (const Variant& v : kVariants) {
      const ExperimentResult& x = r[next++];
      table.row({v.name, num(x.msgs_per_lock_request()),
                 num(x.latency_factor.mean(), 1),
                 num(x.latency_factor.percentile(0.95), 1)});
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "expected: every ablation costs messages and/or latency "
               "relative to the full protocol; 'no freezing' trades "
               "fairness (p95) for throughput\n";
  return 0;
}

// ---------------------------------------------------------------------
// Sensitivity analysis: how the headline metrics respond when the paper's
// workload parameters move — read/write mix, critical-section length,
// think time, access locality, and table size. Fixed at --nodes (60).
//
// All rows across all sections are submitted to one SweepRunner: they
// evaluate in parallel under --threads. Every section has a row for the
// unmodified baseline spec; that point is submitted once, first, and its
// result shared by those rows.

namespace {

struct Section {
  std::string title;
  std::string key_header;
  std::vector<std::pair<std::string, workload::WorkloadSpec>> rows;
};

std::vector<Section> sensitivity_sections(const workload::WorkloadSpec& base) {
  using workload::WorkloadSpec;
  const auto vary = [&](auto field, auto value) {
    WorkloadSpec spec = base;
    spec.*field = value;
    return spec;
  };
  WorkloadSpec reads = base;
  reads.p_entry_read = 0.95;
  reads.p_table_read = 0.05;
  reads.p_upgrade = reads.p_entry_write = reads.p_table_write = 0.0;
  WorkloadSpec writes = base;
  writes.p_entry_read = 0.40;
  writes.p_table_read = 0.05;
  writes.p_upgrade = 0.10;
  writes.p_entry_write = 0.35;
  writes.p_table_write = 0.10;
  Section mix{"mode mix (entry_read/table_read/upgrade/entry_write/"
              "table_write)",
              "mix",
              {{"paper 80/10/4/5/1", base},
               {"read-only 95/5/0/0/0", reads},
               {"write-heavy 40/5/10/35/10", writes}}};
  Section cs{"critical-section length", "cs mean", {}};
  for (const Duration v : {msec(5), msec(15), msec(50), msec(150)})
    cs.rows.emplace_back(std::to_string(v / 1000) + " ms",
                         vary(&WorkloadSpec::cs_mean, v));
  Section idle{"inter-request idle time", "idle mean", {}};
  for (const Duration v : {msec(50), msec(150), msec(500), msec(1500)})
    idle.rows.emplace_back(std::to_string(v / 1000) + " ms",
                           vary(&WorkloadSpec::idle_mean, v));
  Section bias{"access locality (home bias of entry ops)", "home bias", {}};
  for (const double v : {0.0, 0.5, 0.9, 1.0})
    bias.rows.emplace_back(num(v, 1), vary(&WorkloadSpec::home_bias, v));
  Section entries{"table size (rows per airline)", "entries/node", {}};
  for (const std::uint32_t v : {1u, 2u, 4u, 8u})
    entries.rows.emplace_back(std::to_string(v),
                              vary(&WorkloadSpec::entries_per_node, v));
  return {mix, cs, idle, bias, entries};
}

}  // namespace

std::vector<SweepPoint> sensitivity_points(const Ctx& c) {
  std::vector<SweepPoint> points = {
      make_point(Protocol::kHls, c.nodes, c.spec)};
  for (const Section& s : sensitivity_sections(c.spec))
    for (const auto& [label, spec] : s.rows)
      if (!(spec == c.spec))
        points.push_back(make_point(Protocol::kHls, c.nodes, spec));
  return points;
}

int sensitivity(const Ctx& c, const Results& r) {
  std::size_t next = 1;  // r[0] is the baseline
  bool first = true;
  for (const Section& s : sensitivity_sections(c.spec)) {
    std::cout << (first ? "" : "\n") << "=== " << s.title << " ===\n";
    first = false;
    TablePrinter table({s.key_header, "msgs/req", "latency", "p95"});
    for (const auto& [label, spec] : s.rows) {
      const ExperimentResult& x = r[spec == c.spec ? 0 : next++];
      table.row({label, num(x.msgs_per_lock_request()),
                 num(x.latency_factor.mean(), 1),
                 num(x.latency_factor.percentile(0.95), 1)});
    }
    table.print(std::cout);
  }
  std::cout << "\nexpected: locality cuts entry-lock traffic; longer CS or "
               "shorter idle raises contention (latency), message count "
               "stays near the ~3 asymptote throughout\n";
  return 0;
}

// ---------------------------------------------------------------------
// Substrate robustness: the protocol over a network whose connections
// reset, sweeping the loss rate — each send resets its node pair's
// connection with that probability. Delivery runs on the live transport's
// layer (PeerLink, bound to the simulator by sim::LinkLayer): windows are
// resent on reconnect, duplicates dropped and acked. Reports total wire
// traffic (including resends and acks), drop counts and the latency
// penalty.
//
// The paper's testbed ran over TCP; this study quantifies what surviving
// connection loss costs the middleware's own delivery layer.

namespace {
constexpr double kLossRates[] = {0.0, 0.02, 0.05, 0.10, 0.20};
}  // namespace

std::vector<SweepPoint> loss_points(const Ctx& c) {
  std::vector<SweepPoint> points;
  for (const double loss : kLossRates) {
    points.push_back(make_point(Protocol::kHls, c.nodes, c.spec));
    points.back().config.loss_rate = loss;
  }
  return points;
}

int loss_resilience(const Ctx& c, const Results& r) {
  std::cout << "Loss resilience: " << c.nodes
            << " nodes, paper workload, each drop resets a connection\n\n";
  TablePrinter table({"loss %", "wire msgs", "dropped", "acks",
                      "protocol msgs/req", "latency factor"});
  for (std::size_t i = 0; i < r.size(); ++i) {
    const ExperimentResult& x = r[i];
    const auto acks = x.messages_by_kind.get("ack");
    // Protocol traffic excludes the delivery layer's acks.
    const double proto_per_req = static_cast<double>(x.messages - acks) /
                                 static_cast<double>(x.lock_requests);
    table.row({num(kLossRates[i] * 100, 0), std::to_string(x.messages),
               std::to_string(x.messages_dropped), std::to_string(acks),
               num(proto_per_req), num(x.latency_factor.mean(), 1)});
  }
  table.print(std::cout);
  std::cout << "\nexpected: protocol msgs/request degrades gracefully "
               "(window resends); latency grows with the loss rate but "
               "every run completes safely\n";
  return 0;
}

// ---------------------------------------------------------------------
// Topology locality — a figure family the paper never had: the same
// workload on a flat network vs a clustered one (cheap intra-cluster
// hops, expensive inter-cluster hops), with the locality-biased token
// hand-off off and on.
//
// Four points, one workload:
//   flat/bias-off        today's simulator, unchanged
//   flat/bias-on         must be IDENTICAL to flat/bias-off — the bias is
//                        inert without a cluster map (checked, exit 1)
//   clustered/bias-off   FIFO token service pays the boundary cost blindly
//   clustered/bias-on    token batches same-cluster waiters under the
//                        fairness cap before crossing the boundary
//
// The headline claim — clustered/bias-on has a strictly lower
// cross-cluster message fraction and mean latency factor than
// clustered/bias-off, at identical app_ops and lock_requests — is
// asserted on every run, text or --json (exit 1 on regression), so CI
// enforces it.

namespace {

constexpr const char* kTopologyLabels[] = {
    "flat/bias-off", "flat/bias-on", "clustered/bias-off",
    "clustered/bias-on"};

/// The four claims above; prints the first that fails to stderr.
int topology_check(const Results& r) {
  const ExperimentResult& flat_off = r[0];
  const ExperimentResult& flat_on = r[1];
  const ExperimentResult& clu_off = r[2];
  const ExperimentResult& clu_on = r[3];
  if (!(flat_on == flat_off)) {
    std::cerr << "FAIL: locality bias changed a flat-topology run — it "
                 "must be inert without a cluster map\n";
    return 1;
  }
  if (clu_on.app_ops != clu_off.app_ops ||
      clu_on.lock_requests != clu_off.lock_requests) {
    std::cerr << "FAIL: bias changed the work done (app_ops "
              << clu_on.app_ops << " vs " << clu_off.app_ops
              << ", lock_requests " << clu_on.lock_requests << " vs "
              << clu_off.lock_requests << ")\n";
    return 1;
  }
  if (!(clu_on.cross_cluster_fraction() < clu_off.cross_cluster_fraction())) {
    std::cerr << "FAIL: bias-on cross-cluster fraction "
              << clu_on.cross_cluster_fraction()
              << " not strictly below bias-off "
              << clu_off.cross_cluster_fraction() << "\n";
    return 1;
  }
  if (!(clu_on.latency_factor.mean() < clu_off.latency_factor.mean())) {
    std::cerr << "FAIL: bias-on mean latency factor "
              << clu_on.latency_factor.mean()
              << " not strictly below bias-off "
              << clu_off.latency_factor.mean() << "\n";
    return 1;
  }
  return 0;
}

std::string point_json(const char* label, const ClusterConfig& c,
                       const ExperimentResult& r) {
  using harness::json_double;
  std::ostringstream os;
  os << "{\"label\":\"" << label << "\",\"nodes\":" << c.nodes
     << ",\"clusters\":" << c.clusters << ",\"locality_bias\":"
     << (c.engine_opts.locality_bias ? "true" : "false")
     << ",\"fairness_cap\":"
     << static_cast<unsigned>(c.engine_opts.locality_fairness_cap)
     << ",\"intra_latency_us\":" << c.intra_latency_mean
     << ",\"inter_latency_us\":" << c.inter_latency_mean
     << ",\"cross_cluster_fraction\":" << json_double(r.cross_cluster_fraction())
     << ",\"result\":" << to_json(r) << "}";
  return os.str();
}

}  // namespace

/// In kTopologyLabels order.
std::vector<SweepPoint> topology_points(const Ctx& c) {
  const CliOptions& cli = c.cli;
  ClusterConfig flat;
  flat.nodes = c.nodes;
  flat.spec = c.spec;

  ClusterConfig clustered = flat;
  clustered.clusters = cli.clusters != 0 ? cli.clusters : 4;
  clustered.intra_latency_mean =
      cli.intra_latency_ms > 0.0
          ? static_cast<Duration>(cli.intra_latency_ms * 1000.0)
          : usec(50);
  clustered.inter_latency_mean =
      cli.inter_latency_ms > 0.0
          ? static_cast<Duration>(cli.inter_latency_ms * 1000.0)
          : msec(50);

  const auto biased = [&](ClusterConfig config) {
    config.engine_opts.locality_bias = true;
    if (cli.fairness_cap != 0)
      config.engine_opts.locality_fairness_cap =
          static_cast<std::uint8_t>(cli.fairness_cap);
    return config;
  };
  return {{Protocol::kHls, flat},
          {Protocol::kHls, biased(flat)},
          {Protocol::kHls, clustered},
          {Protocol::kHls, biased(clustered)}};
}

int topology_locality(const Ctx& c, const Results& r) {
  if (const int status = topology_check(r)) return status;
  const ClusterConfig biased = topology_points(c)[3].config;
  std::cout << "Topology locality: flat vs clustered x locality bias\n"
            << "nodes=" << biased.nodes << " clusters=" << biased.clusters
            << " intra=" << biased.intra_latency_mean / 1000.0
            << "ms inter=" << biased.inter_latency_mean / 1000.0
            << "ms ops=" << c.spec.ops_per_node << " seed=" << c.spec.seed
            << "\n\n";

  TablePrinter table({"config", "msgs/req", "cross-frac", "latency-mean",
                      "latency-p95"});
  for (std::size_t i = 0; i < r.size(); ++i)
    table.row({kTopologyLabels[i], num(r[i].msgs_per_lock_request()),
               num(r[i].cross_cluster_fraction()),
               num(r[i].latency_factor.mean()),
               num(r[i].latency_factor.percentile(0.95))});
  table.print(std::cout);

  std::cout << "\nbias batches same-cluster hand-offs (fairness cap "
            << static_cast<unsigned>(
                   biased.engine_opts.locality_fairness_cap)
            << "): cross-cluster fraction "
            << num(r[2].cross_cluster_fraction()) << " -> "
            << num(r[3].cross_cluster_fraction()) << ", mean latency factor "
            << num(r[2].latency_factor.mean()) << " -> "
            << num(r[3].latency_factor.mean()) << "\n";
  return 0;
}

int topology_json(const Ctx& c, const Results& r) {
  if (const int status = topology_check(r)) return status;
  const std::vector<SweepPoint> points = topology_points(c);
  std::cout << "[\n";
  for (std::size_t i = 0; i < points.size(); ++i)
    std::cout << "  " << point_json(kTopologyLabels[i], points[i].config, r[i])
              << (i + 1 < points.size() ? ",\n" : "\n");
  std::cout << "]\n";
  return 0;
}

// ---------------------------------------------------------------------
// The single-lock rigs of the priority, churn and recovery studies.

namespace {

/// One HLS lock (LockId 0, token at node 0) shared by n simulated nodes
/// at uniform network latency. A node whose `alive` flag is cleared drops
/// what it receives (the recovery study's crash). The engines' callbacks
/// hold `this`, so a rig never moves.
struct OneLockRig {
  OneLockRig(std::size_t n, Duration latency, std::uint64_t net_seed,
             const core::EngineOptions& opts = {})
      : net(sim, std::make_unique<sim::UniformLatency>(latency),
            Rng(net_seed)) {
    alive.assign(n, true);
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
      net.register_node(id, [this, i](const Message& m) {
        if (alive[i]) engines[i]->handle(m);
      });
    }
  }
  OneLockRig(const OneLockRig&) = delete;
  OneLockRig& operator=(const OneLockRig&) = delete;
  virtual ~OneLockRig() = default;

  virtual void on_acquired(std::size_t node, RequestId rid) = 0;

  sim::Simulator sim;
  sim::SimNetwork net;
  std::vector<std::unique_ptr<sim::SimTransport>> transports;
  /// Per-node engine contexts; declared before the engines they outlive.
  std::deque<core::EngineContext> contexts;
  std::vector<std::unique_ptr<core::HlsEngine>> engines;
  std::vector<bool> alive;
};

/// Runs one rig per index on the sweep runner's parallel map; `row`
/// returns index i's table row.
std::vector<std::vector<std::string>> rows_of(
    const Ctx& c, std::size_t count,
    const std::function<std::vector<std::string>(std::size_t)>& row) {
  std::vector<std::vector<std::string>> rows(count);
  harness::SweepRunner(sweep_options(c.cli))
      .for_each_index(count, [&](std::size_t i) { rows[i] = row(i); });
  return rows;
}

void print_table(std::vector<std::string> headers,
                 const std::vector<std::vector<std::string>>& rows) {
  TablePrinter table(std::move(headers));
  for (const auto& row : rows) table.row(row);
  table.print(std::cout);
}

// Priority arbitration (intro's "strict priority ordering", following
// Mueller's prioritized token protocols [11,12]): acquisition latency of
// a high-priority request class vs a low-priority background class under
// write contention, with and without the extension.
struct PriorityRig : OneLockRig {
  PriorityRig(core::EngineOptions opts, std::size_t n)
      : OneLockRig(n, msec(20), 11, opts) {}

  void on_acquired(std::size_t node, RequestId rid) override {
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

  std::vector<int> rounds;
  std::vector<TimePoint> issued;
  std::vector<std::uint8_t> priority_of;
  Summary high, low;
};

// Membership churn: a write-contended lock while nodes keep departing
// gracefully. Measures how a departure wave affects acquisition latency
// and what the handover costs in messages.
struct ChurnRig : OneLockRig {
  explicit ChurnRig(std::size_t n) : OneLockRig(n, msec(15), 23) {
    departed.assign(n, false);
    rounds.assign(n, 0);
    issued_at.assign(n, 0);
  }

  void on_acquired(std::size_t i, RequestId rid) override {
    latency.add(to_ms(sim.now() - issued_at[i]));
    sim.schedule_after(msec(3), [this, i, rid] {
      engines[i]->unlock(rid);
      next(i);
    });
  }

  void next(std::size_t i) {
    if (departed[i]) return;
    if (rounds[i]-- <= 0) {
      // Attempt to depart: pick the lowest live survivor as successor.
      std::size_t succ = 0;
      while (succ < engines.size() && (departed[succ] || succ == i)) ++succ;
      if (succ < engines.size() && live() > 1) {
        try {
          engines[i]->leave(NodeId{static_cast<std::uint32_t>(succ)});
          departed[i] = true;
          ++departures;
          return;
        } catch (const std::logic_error&) {
          rounds[i] = 1;  // retry after one more round
        }
      } else {
        return;  // last node stops requesting
      }
    }
    sim.schedule_after(msec(10), [this, i] {
      if (departed[i]) return;
      issued_at[i] = sim.now();
      (void)engines[i]->request_lock(Mode::kW);
    });
  }

  [[nodiscard]] std::size_t live() const {
    std::size_t n = 0;
    for (const bool d : departed) n += d ? 0 : 1;
    return n;
  }

  void run(int rounds_per_node) {
    for (std::size_t i = 0; i < engines.size(); ++i) {
      // Stagger departures: node i leaves after (i+1)*rounds ops.
      rounds[i] = static_cast<int>(i + 1) * rounds_per_node;
      next(i);
    }
    sim.run_all();
  }

  std::vector<bool> departed;
  std::vector<int> rounds;
  std::vector<TimePoint> issued_at;
  Summary latency;
  int departures{0};
};

// Crash recovery: how long a view change disrupts lock service. Nodes
// hammer one lock; at a fixed point the current TOKEN HOLDER crashes,
// the view service recovers the survivors, and we measure the gap in
// successful acquisitions plus the recovery message cost.
struct RecoveryRig : OneLockRig {
  explicit RecoveryRig(std::size_t n) : OneLockRig(n, msec(15), 31) {}

  void on_acquired(std::size_t i, RequestId rid) override {
    grant_times.push_back(sim.now());
    sim.schedule_after(msec(3), [this, i, rid] {
      if (!alive[i]) return;
      engines[i]->unlock(rid);
      request_later(i);
    });
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

  std::vector<int> remaining;
  std::vector<TimePoint> grant_times;
  TimePoint crash_time{0};
  TimePoint recovered_time{0};
  std::uint64_t msgs_at_crash{0};
  std::uint64_t msgs_after_recovery{0};
};

constexpr std::size_t kRigNodes[] = {4, 8, 16, 32};

}  // namespace

int priority_arbitration(const Ctx& c, const Results&) {
  const auto rows = rows_of(c, 2, [](std::size_t i) {
    const bool enabled = i == 1;
    core::EngineOptions opts;
    opts.enable_priorities = enabled;
    PriorityRig rig(opts, 10);
    rig.run(40);
    return std::vector<std::string>{
        enabled ? "priorities on" : "priorities off (FIFO)",
        num(rig.high.mean(), 1), num(rig.high.percentile(0.95), 1),
        num(rig.low.mean(), 1), num(rig.low.percentile(0.95), 1)};
  });
  std::cout << "Priority arbitration extension: W-contended lock, node 1 at "
               "priority 10, others at 0 (latency in ms)\n\n";
  print_table({"config", "high-prio mean", "high-prio p95",
               "background mean", "background p95"},
              rows);
  std::cout << "\nexpected: enabling priorities cuts the high-priority "
               "client's wait sharply at modest background cost\n";
  return 0;
}

int churn(const Ctx& c, const Results&) {
  const auto rows = rows_of(c, std::size(kRigNodes), [](std::size_t i) {
    const std::size_t n = kRigNodes[i];
    ChurnRig rig(n);
    rig.run(4);
    return std::vector<std::string>{
        std::to_string(n), std::to_string(rig.departures),
        std::to_string(rig.latency.count()), num(rig.latency.mean(), 1),
        num(rig.latency.percentile(0.95), 1),
        std::to_string(rig.net.messages_sent())};
  });
  std::cout << "Membership churn: W-contended lock, staggered graceful "
               "departures until one node remains\n\n";
  print_table({"nodes", "departures", "acquisitions", "mean wait ms",
               "p95 ms", "total msgs"},
              rows);
  std::cout << "\nexpected: every node but one departs; acquisitions keep "
               "flowing throughout (no token loss, no stalls)\n";
  return 0;
}

int recovery(const Ctx& c, const Results&) {
  const auto rows = rows_of(c, std::size(kRigNodes), [](std::size_t i) {
    const std::size_t n = kRigNodes[i];
    RecoveryRig rig(n);
    rig.run(/*ops_per_node=*/25, /*crash_at=*/msec(400));
    // Service gap: last grant before the crash to first grant after the
    // view change.
    TimePoint last_before = 0;
    std::optional<TimePoint> first_after;
    std::uint64_t after = 0;
    for (const TimePoint t : rig.grant_times) {
      if (t <= rig.crash_time) last_before = std::max(last_before, t);
      if (t >= rig.recovered_time && !first_after) first_after = t;
      if (t > rig.crash_time) ++after;
    }
    return std::vector<std::string>{
        std::to_string(n), std::to_string(rig.grant_times.size()),
        first_after ? num(to_ms(*first_after - last_before), 1) : "-",
        std::to_string(rig.msgs_after_recovery - rig.msgs_at_crash),
        std::to_string(after)};
  });
  std::cout << "Crash recovery: token holder dies mid-run, view service "
               "recovers after a 100 ms detection delay\n\n";
  print_table({"nodes", "grants total", "service gap ms", "recovery msgs",
               "grants after crash"},
              rows);
  std::cout << "\nexpected: the gap is dominated by the detection delay "
               "(100 ms) plus one round trip; survivors keep acquiring "
               "afterwards\n";
  return 0;
}

// ---------------------------------------------------------------------
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

namespace {

constexpr std::size_t kDocNodes = 16;
constexpr std::uint32_t kCollections = 4;
constexpr std::uint32_t kDocsPerCollection = 8;
constexpr int kDocOpsPerNode = 30;

enum class Grain { kFlat, kCoarse, kFine };
constexpr Grain kGrains[] = {Grain::kFlat, Grain::kCoarse, Grain::kFine};

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
  for (std::size_t i = 0; i < kDocNodes; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    transports.push_back(std::make_unique<sim::SimTransport>(net, id));
    nodes.push_back(std::make_unique<core::HlsNode>(id, *transports.back()));
    for (std::uint32_t l = 0; l < store.hierarchy.resource_count(); ++l) {
      nodes.back()->add_lock(
          LockId{l}, NodeId{static_cast<std::uint32_t>(l % kDocNodes)});
    }
    net.register_node(id, [n = nodes.back().get()](const Message& m) {
      n->handle(m);
    });
  }
  for (std::size_t i = 0; i < kDocNodes; ++i) {
    sessions.push_back(
        std::make_unique<lockmgr::SessionMux>(*nodes[i], exec, 1));
  }

  RunStats stats;
  Rng rng(99);
  std::vector<Rng> node_rng;
  for (std::size_t i = 0; i < kDocNodes; ++i) node_rng.push_back(rng.split());

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

  std::vector<int> remaining(kDocNodes, kDocOpsPerNode);
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
  for (std::size_t i = 0; i < kDocNodes; ++i) next_op(i);
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

int granularity(const Ctx& c, const Results&) {
  const auto rows = rows_of(c, std::size(kGrains), [](std::size_t i) {
    const Grain g = kGrains[i];
    const RunStats s = run_grain(g);
    const double ops = static_cast<double>(kDocNodes * kDocOpsPerNode);
    return std::vector<std::string>{
        grain_name(g), num(s.latency_ms.mean(), 1),
        num(s.latency_ms.percentile(0.95), 1),
        num(static_cast<double>(s.lock_requests) / ops),
        num(static_cast<double>(s.messages) / ops),
        num(static_cast<double>(s.makespan) / 1e6, 1)};
  });
  std::cout << "Lock granularity study: " << kDocNodes << " nodes, "
            << kCollections << " collections x " << kDocsPerCollection
            << " docs, 70/15/10/5% doc-read/doc-write/scan/rebuild\n\n";
  print_table({"granularity", "mean acquire ms", "p95 ms", "locks/op",
               "msgs/op", "makespan s"},
              rows);
  std::cout << "\nexpected: finer granularity cuts acquire latency and "
               "makespan (parallel disjoint writers) while intent modes "
               "keep the per-op message cost modest\n";
  return 0;
}

}  // namespace hlock::bench
