// live_bench — the repo's first end-to-end performance figure over real
// sockets: a small in-process mesh of TcpNodes, each fronting many
// logical client sessions (lockmgr::SessionMux over one HlsNode), under
// sustained closed-loop lock/unlock traffic on loopback TCP.
//
// Two phases, each run twice — batching + ack piggybacking ON
// (max_batch_bytes = 256 KiB, piggyback window = 1 ms) vs OFF (the
// write-per-frame, standalone-ack baseline):
//
//   wire   A 2-node bidirectional message exchange with a FIXED frame
//          count per direction, run to full delivery and a fully drained
//          send window. Delivered and acked counts are therefore equal
//          across configurations BY CONSTRUCTION, which makes the
//          syscall and ack counters directly comparable: coalescing must
//          show fewer write batches per delivered frame, piggybacking
//          fewer standalone kAck frames.
//   locks  An N-node mesh, S sessions per node, each executing K ops of
//          the paper's workload mix closed-loop through the full
//          hierarchical protocol. Reports sustained ops/s and the
//          acquire-latency percentiles (p50/p95/p99).
//
// --json emits the BENCH_live.json document; the CI smoke job asserts
// completed ops > 0 and zero lost sends (unacked == 0 after drain).
//
// Latency numbers are wall-clock and machine-dependent; the counter
// comparisons (batches vs frames, standalone vs piggybacked acks) are
// structural and stable.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/cli.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/hls_node.hpp"
#include "harness/json.hpp"
#include "lockmgr/resource.hpp"
#include "lockmgr/session_mux.hpp"
#include "net/cluster.hpp"

using namespace hlock;

namespace {

struct BenchConfig {
  std::size_t nodes = 3;
  std::uint32_t sessions = 8;        ///< logical clients per node
  std::uint32_t ops_per_session = 40;
  std::uint32_t entries = 16;
  Duration cs = 0;                   ///< critical-section dwell
  std::uint32_t wire_msgs = 2000;    ///< per direction, wire phase
  std::uint64_t seed = 42;
  bool json = false;
};

net::TcpConfig tcp_config(bool optimized) {
  net::TcpConfig cfg;
  cfg.reconnect_min = msec(5);
  cfg.reconnect_max = msec(100);
  cfg.heartbeat_interval = msec(200);
  cfg.idle_timeout = sec(10);
  cfg.max_batch_bytes = optimized ? 256 * 1024 : 0;
  cfg.ack_piggyback_window = optimized ? msec(1) : 0;
  return cfg;
}

/// Spin until `done` holds or `limit_s` elapses; true on success.
template <typename Pred>
bool wait_for(Pred done, double limit_s) {
  const auto t0 = std::chrono::steady_clock::now();
  while (!done()) {
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() > limit_s)
      return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Phase 1: raw wire exchange with equal delivered/acked counts.
// ---------------------------------------------------------------------------

struct WireResult {
  net::TcpStats stats;
  std::uint64_t delivered{0};
  std::uint64_t unacked{0};
  double wall_s{0};
  /// Batch-write syscalls per delivered frame — the coalescing figure of
  /// merit (1.0 means one syscall per frame; lower is better).
  [[nodiscard]] double batches_per_frame() const {
    return stats.frames_out == 0
               ? 0
               : static_cast<double>(stats.batches_written) /
                     static_cast<double>(stats.frames_out);
  }
};

WireResult run_wire_phase(const BenchConfig& cfg, bool optimized) {
  net::InProcessCluster cluster(2, tcp_config(optimized));
  // No handler: delivery just counts. The payload is a plausible small
  // protocol frame (a kRequest), ~75 wire bytes.
  Message m;
  m.kind = MsgKind::kRequest;
  m.lock = LockId{1};
  m.req.requester = NodeId{0};
  m.req.mode = Mode::kR;

  const auto t0 = std::chrono::steady_clock::now();
  // Chunked bidirectional load: bursts small enough that the receiver
  // acks many times over the run (the baseline's standalone-ack cost),
  // paced under the piggyback window so data frames are around to carry
  // acks in the optimized configuration.
  constexpr std::uint32_t kChunk = 50;
  for (std::uint32_t sent = 0; sent < cfg.wire_msgs;) {
    const std::uint32_t n = std::min(kChunk, cfg.wire_msgs - sent);
    for (std::uint32_t k = 0; k < n; ++k) {
      m.req.requester = NodeId{0};
      (void)cluster.node(0).send(NodeId{1}, m);
      m.req.requester = NodeId{1};
      (void)cluster.node(1).send(NodeId{0}, m);
    }
    sent += n;
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  const bool ok = wait_for(
      [&] {
        return cluster.node(0).delivered() == cfg.wire_msgs &&
               cluster.node(1).delivered() == cfg.wire_msgs &&
               cluster.node(0).unacked() == 0 && cluster.node(1).unacked() == 0;
      },
      60.0);
  WireResult r;
  r.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.delivered = cluster.node(0).delivered() + cluster.node(1).delivered();
  r.unacked = cluster.node(0).unacked() + cluster.node(1).unacked();
  r.stats = cluster.total_stats();
  cluster.stop();
  if (!ok) {
    std::cerr << "live_bench: wire phase did not drain (delivered="
              << r.delivered << " unacked=" << r.unacked << ")\n";
    std::exit(1);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Phase 2: the lock service under closed-loop session traffic.
// ---------------------------------------------------------------------------

/// The paper's op mix (§4): IR/R/U/IW/W = 80/10/4/5/1.
lockmgr::Op draw_op(Rng& rng, const BenchConfig& cfg) {
  lockmgr::Op op;
  const std::uint64_t r = rng.next_below(100);
  if (r < 80) op.kind = lockmgr::OpKind::kEntryRead;
  else if (r < 90) op.kind = lockmgr::OpKind::kTableRead;
  else if (r < 94) op.kind = lockmgr::OpKind::kTableUpgrade;
  else if (r < 99) op.kind = lockmgr::OpKind::kEntryWrite;
  else op.kind = lockmgr::OpKind::kTableWrite;
  op.entry = static_cast<std::uint32_t>(rng.next_below(cfg.entries));
  op.cs = cfg.cs;
  return op;
}

struct ServiceNode {
  net::TcpNode* tcp{nullptr};
  std::unique_ptr<core::HlsNode> hls;
  std::unique_ptr<lockmgr::SessionMux> mux;
  std::vector<std::uint32_t> ops_left;  ///< per session, loop thread only
  std::vector<double> latencies_us;     ///< loop thread writes
  Rng rng{0};
};

struct LockPhase {
  const BenchConfig& cfg;
  std::vector<ServiceNode> svc;
  std::atomic<std::uint64_t> completed{0};

  explicit LockPhase(const BenchConfig& c) : cfg(c), svc(c.nodes) {}

  /// Closed loop, one logical session: finish an op, start the next.
  /// Runs on the owning node's loop thread throughout.
  void pump(std::size_t node, std::uint32_t sid) {
    ServiceNode& sn = svc[node];
    if (sn.ops_left[sid] == 0) return;
    --sn.ops_left[sid];
    const lockmgr::Op op = draw_op(sn.rng, cfg);
    sn.mux->start(sid, op, [this, node, sid](const lockmgr::OpStats& st) {
      svc[node].latencies_us.push_back(
          static_cast<double>(st.acquire_latency));
      completed.fetch_add(1, std::memory_order_relaxed);
      pump(node, sid);
    });
  }
};

struct LockResult {
  net::TcpStats stats;
  std::uint64_t ops{0};
  std::uint64_t delivered{0};
  std::uint64_t unacked{0};
  double wall_s{0};
  Summary latency;
  [[nodiscard]] double ops_per_sec() const {
    return wall_s > 0 ? static_cast<double>(ops) / wall_s : 0;
  }
};

LockResult run_lock_phase(const BenchConfig& cfg, bool optimized) {
  net::InProcessCluster cluster(cfg.nodes, tcp_config(optimized));
  lockmgr::ResourceLayout layout(cfg.entries);
  LockPhase phase(cfg);
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    ServiceNode& sn = phase.svc[i];
    sn.tcp = &cluster.node(i);
    sn.hls = std::make_unique<core::HlsNode>(
        NodeId{static_cast<std::uint32_t>(i)}, sn.tcp->transport());
    // Deterministic layout, identical on every node: lock l starts
    // rooted at node l % N.
    for (std::uint32_t l = 0; l < layout.lock_count(); ++l) {
      sn.hls->add_lock(LockId{l},
                       NodeId{l % static_cast<std::uint32_t>(cfg.nodes)});
    }
    sn.mux = std::make_unique<lockmgr::SessionMux>(*sn.hls, layout,
                                                   sn.tcp->loop(),
                                                   cfg.sessions);
    sn.ops_left.assign(cfg.sessions, cfg.ops_per_session);
    sn.latencies_us.reserve(
        static_cast<std::size_t>(cfg.sessions) * cfg.ops_per_session);
    sn.rng = Rng(cfg.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    // All protocol traffic flows through the node's loop thread, which
    // keeps the engines' single-threaded contract.
    ServiceNode* raw = &sn;
    sn.tcp->set_handler([raw](const Message& m) { raw->hls->handle(m); });
  }

  const std::uint64_t total = static_cast<std::uint64_t>(cfg.nodes) *
                              cfg.sessions * cfg.ops_per_session;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    for (std::uint32_t sid = 0; sid < cfg.sessions; ++sid) {
      cluster.node(i).loop().post([&phase, i, sid] { phase.pump(i, sid); });
    }
  }
  const bool ops_done =
      wait_for([&] { return phase.completed.load() == total; }, 120.0);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Ack drain: every accepted send provably delivered before we read the
  // counters ("zero lost sends").
  const bool drained = wait_for(
      [&] {
        for (std::size_t i = 0; i < cfg.nodes; ++i)
          if (cluster.node(i).unacked() != 0) return false;
        return true;
      },
      30.0);

  LockResult r;
  r.wall_s = wall_s;
  r.ops = phase.completed.load();
  r.stats = cluster.total_stats();
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    r.delivered += cluster.node(i).delivered();
    r.unacked += cluster.node(i).unacked();
  }
  cluster.stop();
  for (const ServiceNode& sn : phase.svc)
    for (const double v : sn.latencies_us) r.latency.add(v);
  r.latency.seal();
  if (!ops_done || !drained) {
    std::cerr << "live_bench: lock phase stalled (completed=" << r.ops << "/"
              << total << " unacked=" << r.unacked << ")\n";
    std::exit(1);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

std::string wire_json(const WireResult& r) {
  using harness::json_double;
  std::ostringstream os;
  os << "{\"delivered\": " << r.delivered << ", \"unacked\": " << r.unacked
     << ", \"frames_out\": " << r.stats.frames_out
     << ", \"batches_written\": " << r.stats.batches_written
     << ", \"batches_per_frame\": " << json_double(r.batches_per_frame())
     << ", \"acks_standalone\": " << r.stats.acks_standalone
     << ", \"acks_piggybacked\": " << r.stats.acks_piggybacked
     << ", \"bytes_out\": " << r.stats.bytes_out
     << ", \"frames_per_batch_hist\": [" << r.stats.frames_per_batch[0]
     << ", " << r.stats.frames_per_batch[1] << ", "
     << r.stats.frames_per_batch[2] << ", " << r.stats.frames_per_batch[3]
     << "], \"wall_s\": " << json_double(r.wall_s) << "}";
  return os.str();
}

std::string lock_json(const LockResult& r) {
  using harness::json_double;
  std::ostringstream os;
  os << "{\"ops\": " << r.ops
     << ", \"ops_per_sec\": " << json_double(r.ops_per_sec())
     << ", \"acquire_latency_us\": {\"p50\": "
     << json_double(r.latency.percentile(0.50))
     << ", \"p95\": " << json_double(r.latency.percentile(0.95))
     << ", \"p99\": " << json_double(r.latency.percentile(0.99))
     << ", \"mean\": " << json_double(r.latency.mean())
     << ", \"max\": " << json_double(r.latency.max()) << "}"
     << ", \"delivered\": " << r.delivered << ", \"unacked\": " << r.unacked
     << ", \"frames_out\": " << r.stats.frames_out
     << ", \"batches_written\": " << r.stats.batches_written
     << ", \"acks_standalone\": " << r.stats.acks_standalone
     << ", \"acks_piggybacked\": " << r.stats.acks_piggybacked
     << ", \"wall_s\": " << json_double(r.wall_s) << "}";
  return os.str();
}

void print_human(const char* name, const WireResult& base,
                 const WireResult& opt) {
  std::cout << name << ":\n"
            << "  baseline : frames_out=" << base.stats.frames_out
            << " batches=" << base.stats.batches_written
            << " batches/frame=" << base.batches_per_frame()
            << " acks_standalone=" << base.stats.acks_standalone
            << " acks_piggybacked=" << base.stats.acks_piggybacked << "\n"
            << "  optimized: frames_out=" << opt.stats.frames_out
            << " batches=" << opt.stats.batches_written
            << " batches/frame=" << opt.batches_per_frame()
            << " acks_standalone=" << opt.stats.acks_standalone
            << " acks_piggybacked=" << opt.stats.acks_piggybacked << "\n";
}

void print_human(const char* name, const LockResult& r) {
  std::cout << name << ": ops=" << r.ops << " ops/s=" << r.ops_per_sec()
            << " p50=" << r.latency.percentile(0.50)
            << "us p95=" << r.latency.percentile(0.95)
            << "us p99=" << r.latency.percentile(0.99)
            << "us delivered=" << r.delivered << " unacked=" << r.unacked
            << " batches=" << r.stats.batches_written
            << " frames_out=" << r.stats.frames_out
            << " acks_standalone=" << r.stats.acks_standalone
            << " acks_piggybacked=" << r.stats.acks_piggybacked << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  const char* usage =
      "usage: live_bench [--nodes N] [--ops K] [--seed S] [--json]\n"
      "                  [--sessions S] [--entries E] [--cs-us U]\n"
      "                  [--wire-msgs M]\n"
      "  --nodes N      mesh size (default 3)\n"
      "  --ops K        ops per logical session (default 40)\n"
      "  --sessions S   logical client sessions per node (default 8)\n"
      "  --entries E    entry locks under the table lock (default 16)\n"
      "  --cs-us U      critical-section dwell per op (default 0)\n"
      "  --wire-msgs M  messages per direction, wire phase (default 2000)\n";
  bench::CliOptions defaults;
  defaults.nodes = cfg.nodes;
  defaults.ops = cfg.ops_per_session;
  defaults.seed = cfg.seed;
  std::uint32_t cs_us = 0;
  const bench::CliOptions cli = bench::parse_cli(
      argc, argv, usage, defaults,
      [&](const std::string& arg, const std::function<std::string()>& value) {
        const auto u32 = [&](const char* flag) {
          const auto v = try_parse_u32(value());
          if (!v) {
            std::cerr << flag << " expects an unsigned integer\n" << usage;
            std::exit(2);
          }
          return *v;
        };
        if (arg == "--sessions") { cfg.sessions = u32("--sessions"); return true; }
        if (arg == "--entries") { cfg.entries = u32("--entries"); return true; }
        if (arg == "--cs-us") { cs_us = u32("--cs-us"); return true; }
        if (arg == "--wire-msgs") { cfg.wire_msgs = u32("--wire-msgs"); return true; }
        return false;
      });
  cfg.nodes = cli.nodes;
  cfg.ops_per_session = cli.ops;
  cfg.seed = cli.seed;
  cfg.json = cli.json;
  cfg.cs = usec(cs_us);
  if (cfg.nodes < 2 || cfg.sessions == 0 || cfg.entries == 0 ||
      cfg.ops_per_session == 0) {
    std::cerr << "live_bench: need >= 2 nodes and nonzero sessions/entries/"
                 "ops\n";
    return 2;
  }

  const WireResult wire_base = run_wire_phase(cfg, /*optimized=*/false);
  const WireResult wire_opt = run_wire_phase(cfg, /*optimized=*/true);
  const LockResult lock_base = run_lock_phase(cfg, /*optimized=*/false);
  const LockResult lock_opt = run_lock_phase(cfg, /*optimized=*/true);

  // The structural wins the wire phase must show at equal delivered and
  // acked counts (the ISSUE's acceptance comparison).
  const bool coalescing_win =
      wire_opt.batches_per_frame() < wire_base.batches_per_frame();
  const bool piggyback_win =
      wire_opt.stats.acks_standalone < wire_base.stats.acks_standalone;

  if (cfg.json) {
    std::ostringstream os;
    os << "{\n  \"bench\": \"live_bench\",\n  \"config\": {\"nodes\": "
       << cfg.nodes << ", \"sessions\": " << cfg.sessions
       << ", \"ops_per_session\": " << cfg.ops_per_session
       << ", \"entries\": " << cfg.entries << ", \"cs_us\": " << cs_us
       << ", \"wire_msgs\": " << cfg.wire_msgs << ", \"seed\": " << cfg.seed
       << "},\n"
       << "  \"wire\": {\n    \"baseline\": " << wire_json(wire_base)
       << ",\n    \"optimized\": " << wire_json(wire_opt)
       << ",\n    \"coalescing_win\": " << (coalescing_win ? "true" : "false")
       << ",\n    \"piggyback_win\": " << (piggyback_win ? "true" : "false")
       << "\n  },\n"
       << "  \"lock_service\": {\n    \"baseline\": " << lock_json(lock_base)
       << ",\n    \"optimized\": " << lock_json(lock_opt) << "\n  },\n"
       << "  \"completed_ops\": " << lock_base.ops + lock_opt.ops
       << ",\n  \"lost_sends\": "
       << wire_base.unacked + wire_opt.unacked + lock_base.unacked +
              lock_opt.unacked
       << "\n}\n";
    std::cout << os.str();
  } else {
    print_human("wire", wire_base, wire_opt);
    print_human("locks baseline ", lock_base);
    print_human("locks optimized", lock_opt);
    std::cout << "coalescing_win=" << coalescing_win
              << " piggyback_win=" << piggyback_win << "\n";
  }
  return 0;
}
