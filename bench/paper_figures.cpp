// The paper's Figures 5-7, its §6 claims and the extensions over the same
// simulated sweep, one per run. A row of kFigures holds a figure's default
// ops, the points it simulates and its table (--json prints the results).
#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <tuple>

#include "bench/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/json.hpp"
#include "harness/sweep_runner.hpp"

namespace {

using namespace hlock;
using namespace hlock::harness;

constexpr const char* kUsage =
    "usage: paper_figures --figure NAME [--nodes N] [--ops N] [--seed S]\n"
    "         [--threads N] [--repeat N] [--json]\n"
    "NAME: fig5_message_overhead fig6_latency fig7_breakdown summary_claims\n"
    "      bandwidth permode_latency path_length\n";

/// The flags, the workload with the figure's ops default and the sweep.
struct Ctx {
  bench::CliOptions cli;
  workload::WorkloadSpec spec;
  std::vector<std::size_t> nodes;
};

using Results = std::vector<ExperimentResult>;

std::string num(double v, int p = 2) { return TablePrinter::num(v, p); }

/// Protocols Ps at every swept node count: one group of results per count.
template <Protocol... Ps>
std::vector<SweepPoint> sweep(const Ctx& c) {
  std::vector<SweepPoint> points;
  for (const std::size_t n : c.nodes)
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
void fig5(const Ctx& c, const Results& r) {
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
}

// Figure 6 — "Request Latency (as a factor of point-to-point latency)":
// mean acquisition latency divided by the 150 ms mean network latency, vs
// number of nodes, for the three configurations.
//
// Paper's reading: our protocol grows linearly (factor ~90 at 120 nodes),
// Naimi pure linearly with a worse constant (~160 at 120), Naimi same work
// superlinearly (~240 at 120 and climbing).
void fig6(const Ctx&, const Results& r) {
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
void fig7(const Ctx&, const Results& r) {
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
  const std::size_t n = c.cli.nodes != 0 ? c.cli.nodes : 120;
  return {make_point(Protocol::kHls, n, c.spec),
          make_point(Protocol::kNaimiPure, n, c.spec),
          make_point(Protocol::kHls, n / 2, c.spec)};
}

void summary_claims(const Ctx&, const Results& r) {
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
}

// Wire bandwidth: bytes per lock request for the three configurations.
// Message COUNT (Figure 5) is the paper's metric, but a token transfer
// ships a whole queue while a release is a few dozen bytes — this figure
// checks that the byte story matches the count story.
void bandwidth(const Ctx&, const Results& r) {
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
}

// Extension to Figure 6: the paper reports latency "averaged over all
// types of requests (IR, R, U, IW and W)". This figure shows the per-type
// breakdown behind that average for our protocol: intent/leaf entry ops
// are cheap and parallel, table-wide R/U ops pay for draining intent
// writers, and W pays the most.
void permode_latency(const Ctx&, const Results& r) {
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
}

// Request-propagation path length — direct measurement of the O(log n)
// claim (§2/§4): how many hops a REQUEST travels before some node serves
// it. Observed from the network (messages are correlated by their
// (requester, Lamport stamp) identity), no protocol instrumentation.
//
// Each HLS sweep point needs a per-run network hook, so this figure runs
// the clusters itself on the sweep runner's generic parallel map: every
// index builds its own cluster and writes only its own result slot.
void path_length(const Ctx& c, const Results&) {
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
  for (std::size_t i = 0; i < c.nodes.size(); ++i)
    table.row({std::to_string(c.nodes[i]), num(hops[i].mean()),
               num(hops[i].percentile(0.95), 0), num(hops[i].max(), 0),
               num(std::log2(static_cast<double>(c.nodes[i])))});
  table.print(std::cout);
  std::cout << "\nexpected: mean hops grows much slower than n and stays "
               "at or below log2(n) thanks to path compression\n";
}

struct Figure {
  const char* name;
  std::uint32_t ops_per_node;
  std::size_t min_nodes;  ///< smallest --nodes with something to print
  bool json;              ///< --json prints the points' results
  std::vector<SweepPoint> (*points)(const Ctx&);  ///< null: own rig
  void (*print)(const Ctx&, const Results&);
};

constexpr Figure kFigures[] = {
    {"fig5_message_overhead", 60, 2, true, three_protocol_sweep, fig5},
    {"fig6_latency", 60, 2, true, three_protocol_sweep, fig6},
    {"fig7_breakdown", 60, 2, true, hls_sweep, fig7},
    {"summary_claims", 80, 4, false, claims_points, summary_claims},
    {"bandwidth", 60, 2, true, three_protocol_sweep, bandwidth},
    {"permode_latency", 80, 2, true, hls_sweep, permode_latency},
    {"path_length", 60, 2, false, nullptr, path_length},
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
  if (cli.json && !fig->json)
    bench::usage_error("--figure " + name + " has no --json output", kUsage);
  Ctx c{cli, {}, bench::sweep_nodes(cli)};
  c.spec.ops_per_node = fig->ops_per_node;
  bench::apply(cli, c.spec);
  const Results results =
      fig->points ? SweepRunner(bench::sweep_options(cli)).run(fig->points(c))
                  : Results{};
  if (cli.json)
    write_json_array(std::cout, results);
  else
    fig->print(c, results);
  return 0;
}
