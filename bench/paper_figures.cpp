// The paper's Figures 5-7, its §6 claims, the extensions over the same
// simulated sweep and the extension studies (bench/studies.cpp), one per
// run. A row of kFigures holds a figure's defaults, the points it
// simulates and its printers (--json prints the results).
#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <tuple>

#include "bench/paper_figures.hpp"
#include "harness/json.hpp"

namespace {

using namespace hlock;
using namespace hlock::harness;
using bench::Ctx;
using bench::Results;
using bench::num;

constexpr const char* kUsage =
    "usage: paper_figures --figure NAME [--nodes N] [--ops N] [--seed S]\n"
    "         [--threads N] [--repeat N] [--json]\n"
    "         [--clusters N] [--intra-latency-ms M] [--inter-latency-ms M]\n"
    "         [--fairness-cap N]   (topology_locality)\n"
    "NAME: fig5_message_overhead fig6_latency fig7_breakdown summary_claims\n"
    "      bandwidth permode_latency path_length\n"
    "      ablations sensitivity loss_resilience topology_locality\n"
    "      priority_arbitration granularity churn recovery\n";

/// Protocols Ps at every swept node count: one group of results per count.
template <Protocol... Ps>
std::vector<SweepPoint> sweep(const Ctx& c) {
  std::vector<SweepPoint> points;
  for (const std::size_t n : sweep_node_counts(c.nodes))
    for (const Protocol p : {Ps...}) points.push_back(make_point(p, n, c.spec));
  return points;
}
constexpr auto three_protocol_sweep =
    &sweep<Protocol::kHls, Protocol::kNaimiPure, Protocol::kNaimiSameWork>;
constexpr auto hls_sweep = &sweep<Protocol::kHls>;

// Figure 5 — "Scalability Behavior": average number of messages per lock
// request vs number of nodes, for our protocol, Naimi pure and Naimi same
// work, under the paper's workload (IR/R/U/IW/W = 80/10/4/5/1 %, CS 15 ms,
// idle 150 ms, latency 150 ms).
//
// Paper's reading: our protocol flattens at ~3 messages, Naimi pure at ~4
// (ours ~20 % lower despite richer functionality), Naimi same work grows
// superlinearly.
int fig5(const Ctx& c, const Results& r) {
  std::cout << "Figure 5: message overhead (messages per lock request)\n"
            << "workload: IR/R/U/IW/W = 80/10/4/5/1%, cs=15ms, idle=150ms, "
               "net=150ms, seed=" << c.spec.seed << "\n\n";
  TablePrinter table({"nodes", "our-protocol", "naimi-pure",
                      "naimi-same-work", "same-work msgs/op"});
  for (std::size_t i = 0; i < r.size(); i += 3)
    table.row({std::to_string(r[i].nodes), num(r[i].msgs_per_lock_request()),
               num(r[i + 1].msgs_per_lock_request()),
               num(r[i + 2].msgs_per_lock_request()),
               num(r[i + 2].msgs_per_op())});
  table.print(std::cout);
  std::cout << "\npaper: ours -> ~3 asymptote | naimi pure -> ~4 (ours ~20% "
               "lower) | same work superlinear\n";
  return 0;
}

// Figure 6 — "Request Latency (as a factor of point-to-point latency)":
// mean acquisition latency divided by the 150 ms mean network latency, vs
// number of nodes, for the three configurations.
//
// Paper's reading: our protocol grows linearly (factor ~90 at 120 nodes),
// Naimi pure linearly with a worse constant (~160 at 120), Naimi same work
// superlinearly (~240 at 120 and climbing).
int fig6(const Ctx&, const Results& r) {
  std::cout << "Figure 6: request latency factor (mean acquire latency / "
               "150ms point-to-point latency)\n\n";
  TablePrinter table({"nodes", "our-protocol", "naimi-pure",
                      "naimi-same-work", "ours p95"});
  for (std::size_t i = 0; i < r.size(); i += 3)
    table.row({std::to_string(r[i].nodes), num(r[i].latency_factor.mean(), 1),
               num(r[i + 1].latency_factor.mean(), 1),
               num(r[i + 2].latency_factor.mean(), 1),
               num(r[i].latency_factor.percentile(0.95), 1)});
  table.print(std::cout);
  std::cout << "\npaper @120 nodes: ours ~90 | naimi pure ~160 | same work "
               "~240 (superlinear)\n";
  return 0;
}

// Figure 7 — "Message Behavior": our protocol's message overhead broken
// down by message type (release, freeze, request, copy grant, token
// transfer), per lock request, vs number of nodes.
//
// Paper's reading: requests rise then flatten; token transfers fall from
// their initial level and flatten (freezing makes immediate transfer
// increasingly improbable); copy grants rise and stabilize (requests end
// as either transfers or grants); releases track grants; freezes rise
// then stay constant (at most five modes can be frozen).
int fig7(const Ctx&, const Results& r) {
  std::cout << "Figure 7: message breakdown for our protocol "
               "(messages per lock request, by type)\n\n";
  TablePrinter table({"nodes", "request", "grant", "token", "release",
                      "freeze", "total"});
  for (const ExperimentResult& x : r) {
    const auto k = [&](const char* m) { return num(x.kind_per_request(m)); };
    table.row({std::to_string(x.nodes), k("request"), k("grant"), k("token"),
               k("release"), k("freeze"), num(x.msgs_per_lock_request())});
  }
  table.print(std::cout);
  std::cout << "\npaper: request rises then flattens; token transfer "
               "decreases to a constant; grant/release rise and stabilize; "
               "freeze small and constant\n";
  return 0;
}

// §6 headline claims at the paper's largest configuration (120 nodes):
//   * message overhead: ~3 (ours) vs ~4 (Naimi pure) — ours ~20% lower
//   * latency factor:   ~90 (ours) vs ~160 (Naimi pure)
//   * logarithmic asymptote of message overhead is preserved despite the
//     hierarchical modes
//
// The headline table and the asymptote check share the full-size HLS run,
// so the figure asks the SweepRunner for its three distinct points
// {hls@N, pure@N, hls@N/2} in one run() and indexes the results. N is
// --nodes, at least 4 so that the half-size run has traffic.
std::vector<SweepPoint> claims_points(const Ctx& c) {
  const std::size_t n = c.nodes;
  return {make_point(Protocol::kHls, n, c.spec),
          make_point(Protocol::kNaimiPure, n, c.spec),
          make_point(Protocol::kHls, n / 2, c.spec)};
}

int summary_claims(const Ctx&, const Results& r) {
  const auto& ours = r[0];
  const auto& pure = r[1];
  std::cout << "Conclusion (§6) claims at " << ours.nodes << " nodes\n\n";
  TablePrinter table({"metric", "paper ours", "measured ours", "paper naimi",
                      "measured naimi"});
  table.row({"messages per lock request", "~3",
             num(ours.msgs_per_lock_request()), "~4",
             num(pure.msgs_per_lock_request())});
  table.row({"latency factor", "~90", num(ours.latency_factor.mean(), 1),
             "~160", num(pure.latency_factor.mean(), 1)});
  table.print(std::cout);
  const double savings =
      1.0 - ours.msgs_per_lock_request() / pure.msgs_per_lock_request();
  std::cout << "\nmessage-rate advantage of ours over naimi pure: "
            << num(savings * 100, 1) << "% (paper: ~20% lower)\n";
  // Asymptote check: overhead growth from half to full node count should
  // be small (logarithmic flattening), not proportional to the node count.
  const double growth =
      ours.msgs_per_lock_request() / r[2].msgs_per_lock_request();
  std::cout << "overhead growth " << r[2].nodes << " -> " << ours.nodes
            << " nodes: x" << num(growth)
            << " (flat/logarithmic expected, 2.0 would be linear)\n";
  return 0;
}

// Wire bandwidth: bytes per lock request for the three configurations.
// Message COUNT (Figure 5) is the paper's metric, but a token transfer
// ships a whole queue while a release is a few dozen bytes — this figure
// checks that the byte story matches the count story.
int bandwidth(const Ctx&, const Results& r) {
  const auto per = [](double bytes, double n) { return num(bytes / n, 1); };
  std::cout << "Wire bandwidth (bytes per lock request, serialized + "
               "framing)\n\n";
  TablePrinter table({"nodes", "ours B/req", "ours B/msg", "pure B/req",
                      "same-work B/req"});
  for (std::size_t i = 0; i < r.size(); i += 3)
    table.row({std::to_string(r[i].nodes),
               per(r[i].wire_bytes, r[i].lock_requests),
               per(r[i].wire_bytes, r[i].messages),
               per(r[i + 1].wire_bytes, r[i + 1].lock_requests),
               per(r[i + 2].wire_bytes, r[i + 2].lock_requests)});
  table.print(std::cout);
  std::cout << "\nobservation: ours wins on message COUNT but its messages "
               "grow with n (token transfers ship queues), so at scale the "
               "BYTE cost converges with Naimi pure — the paper's metric "
               "choice (count) matters on latency-bound networks where "
               "per-message overhead dominates size\n";
  return 0;
}

// Extension to Figure 6: the paper reports latency "averaged over all
// types of requests (IR, R, U, IW and W)". This figure shows the per-type
// breakdown behind that average for our protocol: intent/leaf entry ops
// are cheap and parallel, table-wide R/U ops pay for draining intent
// writers, and W pays the most.
int permode_latency(const Ctx&, const Results& r) {
  std::cout << "Per-request-type latency factor for our protocol "
               "(breakdown of Figure 6's average)\n\n";
  TablePrinter table({"nodes", "entry_read(IR)", "table_read(R)", "upgrade(U)",
                      "entry_write(IW)", "table_write(W)", "average"});
  for (const ExperimentResult& x : r) {
    const auto cell = [&](const char* kind) {
      const auto it = x.latency_by_kind.find(kind);
      return it == x.latency_by_kind.end() ? "-" : num(it->second.mean(), 1);
    };
    table.row({std::to_string(x.nodes), cell("entry_read"),
               cell("table_read"), cell("table_upgrade"),
               cell("entry_write"), cell("table_write"),
               num(x.latency_factor.mean(), 1)});
  }
  table.print(std::cout);
  std::cout << "\nexpected: entry ops stay cheap (high parallelism via "
               "intent modes); table-wide ops dominate the average\n";
  return 0;
}

// Request-propagation path length — direct measurement of the O(log n)
// claim (§2/§4): how many hops a REQUEST travels before some node serves
// it. Observed from the network (messages are correlated by their
// (requester, Lamport stamp) identity), no protocol instrumentation.
//
// Each HLS sweep point needs a per-run network hook, so this figure runs
// the clusters itself on the sweep runner's generic parallel map: every
// index builds its own cluster and writes only its own result slot.
int path_length(const Ctx& c, const Results&) {
  const std::vector<SweepPoint> points = hls_sweep(c);
  std::vector<Summary> hops(points.size());
  SweepRunner(bench::sweep_options(c.cli))
      .for_each_index(points.size(), [&](std::size_t i) {
        HlsCluster cluster(points[i].config);
        // Key: (lock, requester, stamp counter) -> hops so far.
        std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>,
                 std::uint32_t>
            in_flight;
        cluster.network().on_deliver = [&](NodeId, NodeId, const Message& m) {
          if (m.kind != MsgKind::kRequest) return;
          ++in_flight[{m.lock.value, m.req.requester.value,
                       m.req.stamp.counter}];
        };
        cluster.run();
        // The map holds each request's final hop count.
        for (const auto& [key, count] : in_flight)
          hops[i].add(static_cast<double>(count));
      });
  std::cout << "Request path length (hops per REQUEST until served) — the "
               "O(log n) propagation claim\n\n";
  TablePrinter table({"nodes", "mean hops", "p95 hops", "max", "log2(n)"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::size_t n = points[i].config.nodes;
    table.row({std::to_string(n), num(hops[i].mean()),
               num(hops[i].percentile(0.95), 0), num(hops[i].max(), 0),
               num(std::log2(static_cast<double>(n)))});
  }
  table.print(std::cout);
  std::cout << "\nexpected: mean hops grows much slower than n and stays "
               "at or below log2(n) thanks to path compression\n";
  return 0;
}

/// --json for the sweep figures: every point's result, in order.
int json_array(const Ctx&, const Results& r) {
  write_json_array(std::cout, r);
  return 0;
}

using Printer = int (*)(const Ctx&, const Results&);

struct Figure {
  const char* name;
  std::uint32_t ops_per_node;  ///< 0: the row does not read --ops
  /// Default --nodes: the sweep's cap or the cluster size (0: not read).
  std::size_t nodes;
  std::size_t min_nodes;  ///< smallest --nodes with something to print
  std::vector<SweepPoint> (*points)(const Ctx&);  ///< null: own rig
  Printer print;          ///< returns the exit status
  Printer json;           ///< null: no --json output
};

constexpr Figure kFigures[] = {
    {"fig5_message_overhead", 60, 120, 2, three_protocol_sweep, fig5,
     json_array},
    {"fig6_latency", 60, 120, 2, three_protocol_sweep, fig6, json_array},
    {"fig7_breakdown", 60, 120, 2, hls_sweep, fig7, json_array},
    {"summary_claims", 80, 120, 4, claims_points, summary_claims, nullptr},
    {"bandwidth", 60, 120, 2, three_protocol_sweep, bandwidth, json_array},
    {"permode_latency", 80, 120, 2, hls_sweep, permode_latency, json_array},
    {"path_length", 60, 120, 2, nullptr, path_length, nullptr},
    {"ablations", 60, 0, 1, bench::ablations_points, bench::ablations,
     nullptr},
    {"sensitivity", 40, 60, 1, bench::sensitivity_points, bench::sensitivity,
     nullptr},
    {"loss_resilience", 40, 24, 1, bench::loss_points, bench::loss_resilience,
     nullptr},
    {"topology_locality", 40, 32, 1, bench::topology_points,
     bench::topology_locality, bench::topology_json},
    {"priority_arbitration", 0, 0, 1, nullptr, bench::priority_arbitration,
     nullptr},
    {"granularity", 0, 0, 1, nullptr, bench::granularity, nullptr},
    {"churn", 0, 0, 1, nullptr, bench::churn, nullptr},
    {"recovery", 0, 0, 1, nullptr, bench::recovery, nullptr},
};

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  const bench::CliOptions cli = bench::parse_cli(
      argc, argv, kUsage, {},
      [&](const std::string& arg, const auto& value) {
        return arg == "--figure" && (name = value(), true);
      });
  const Figure* fig = nullptr;
  for (const Figure& f : kFigures)
    if (name == f.name) fig = &f;
  if (fig == nullptr)
    bench::usage_error("--figure NAME required, got '" + name + "'", kUsage);
  if (cli.nodes != 0 && cli.nodes < fig->min_nodes)
    bench::usage_error("--figure " + name + " needs --nodes >= " +
                           std::to_string(fig->min_nodes), kUsage);
  if (cli.json && fig->json == nullptr)
    bench::usage_error("--figure " + name + " has no --json output", kUsage);
  Ctx c{cli, {}, cli.nodes != 0 ? cli.nodes : fig->nodes};
  c.spec.ops_per_node = fig->ops_per_node;
  bench::apply(cli, c.spec);
  const Results results =
      fig->points ? SweepRunner(bench::sweep_options(cli)).run(fig->points(c))
                  : Results{};
  return (cli.json ? fig->json : fig->print)(c, results);
}
