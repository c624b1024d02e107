// Live workloads: an in-process 3-node loopback mesh (net::InProcessCluster)
// with one core::HlsNode and one lockmgr::SessionMux per node, driven by
// closed-loop sessions. Each run builds the mesh several times to time
// set-up, warms the last one up, then measures a fixed-length window of
// half-second slices and reports medians; a fixed op count from a cold
// start was what made earlier live figures swing by 10% and more.
//
// Layers are timed from outside, at the calls into them: a Transport
// decorator around TcpNode::transport() (net), the TcpNode handler around
// HlsNode::handle (core) and the call to SessionMux::start (lockmgr).
// Timers read the clock only in traced slices; the per-kind message
// counters behind msgs_per_request are always on and read no clock.
// Every timing is scaled by the host-speed probe (see HostProbe), which
// runs only before the first mesh is built and after the last is gone.
#include <algorithm>
#include <array>
#include <cstdint>
#include <future>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "core/hls_node.hpp"
#include "lockmgr/resource.hpp"
#include "lockmgr/session_mux.hpp"
#include "msg/message.hpp"
#include "net/cluster.hpp"

using namespace hlock;

namespace perfbench {
namespace {

constexpr std::size_t kNodes = 3;
constexpr std::uint32_t kSessions = 8;  // closed-loop clients per node
constexpr std::uint32_t kEntries = 16;
constexpr std::size_t kKinds = 5;       // lockmgr::OpKind values

/// Percent of each op kind, in OpKind order: entry read (IR+R), table
/// read (R), table upgrade (U->W), entry write (IW+W), table write (W).
struct Mix {
  const char* workload;
  std::array<int, kKinds> pct;
};

constexpr Mix kMixes[] = {
    // The paper's mix (§4): read-dominated, the upgrade gate rarely hit.
    {"live_paper_mix", {80, 10, 4, 5, 1}},
    // Write-heavy: token transfers, freezes, queue shipping and the
    // SessionMux upgrade gate dominate.
    {"live_write_mix", {40, 5, 15, 30, 10}},
};

const Mix& mix_for(const std::string& workload) {
  for (const Mix& m : kMixes)
    if (workload == m.workload) return m;
  throw std::invalid_argument("not a live workload: " + workload);
}

lockmgr::Op draw_op(Rng& rng, const Mix& mix) {
  lockmgr::Op op;
  int r = static_cast<int>(rng.next_below(100));
  std::size_t k = 0;
  while (k + 1 < kKinds && r >= mix.pct[k]) r -= mix.pct[k++];
  op.kind = static_cast<lockmgr::OpKind>(k);
  op.entry = static_cast<std::uint32_t>(rng.next_below(kEntries));
  op.cs = 0;  // zero dwell: the service itself is the bottleneck
  return op;
}

net::TcpConfig tcp_config() {
  net::TcpConfig cfg;
  cfg.reconnect_min = msec(5);
  cfg.reconnect_max = msec(100);
  cfg.heartbeat_interval = msec(200);
  cfg.idle_timeout = sec(10);
  cfg.max_batch_bytes = 256 * 1024;
  cfg.ack_piggyback_window = msec(1);
  return cfg;
}

/// Run-phase flags: the driver thread writes, loop threads read.
struct Control {
  std::atomic<int> slice{-1};  ///< measurement slice, -1 outside the window
  std::atomic<bool> tracing{false};
  std::atomic<bool> stopping{false};

  [[nodiscard]] bool traced() const {
    return tracing.load(std::memory_order_relaxed);
  }
};

/// Calls and inclusive time spent in one layer entry point (loop-confined).
struct LayerTimer {
  std::uint64_t calls{0};
  double ns{0};
  void add(Clock::time_point t0) {
    ++calls;
    ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  }
  void merge(const LayerTimer& o) {
    calls += o.calls;
    ns += o.ns;
  }
  [[nodiscard]] double mean_us() const { return ratio(ns, static_cast<double>(calls)) / 1e3; }
};

/// Transport decorator: counts protocol messages by kind (always on, no
/// clock reads) and times Transport::send while tracing. TcpNode acks and
/// heartbeats are control frames below this interface, so they are not
/// counted.
class CountingTransport final : public Transport {
 public:
  CountingTransport(Transport& inner, const Control& ctl)
      : inner_(inner), ctl_(ctl) {}

  void send(NodeId to, Message m) override {
    bump(sent_[static_cast<std::size_t>(m.kind)]);
    if (!ctl_.traced()) {
      inner_.send(to, std::move(m));
      return;
    }
    const auto t0 = Clock::now();
    inner_.send(to, std::move(m));
    timer.add(t0);
  }

  [[nodiscard]] std::array<std::uint64_t, kMsgKindCount> counts() const {
    std::array<std::uint64_t, kMsgKindCount> out{};
    for (std::size_t k = 0; k < kMsgKindCount; ++k)
      out[k] = sent_[k].load(std::memory_order_relaxed);
    return out;
  }

  LayerTimer timer;  ///< loop-confined

 private:
  Transport& inner_;
  const Control& ctl_;
  std::array<std::atomic<std::uint64_t>, kMsgKindCount> sent_{};
};

/// One service node: protocol engine, session multiplexer, closed-loop
/// clients and the loop-confined measurement state. The driver thread
/// reads the plain fields only after the loops have been joined.
struct Service {
  Service(net::TcpNode& node, const lockmgr::ResourceLayout& layout,
          const Control& control, const Mix& op_mix, std::uint64_t seed,
          std::size_t max_slices)
      : tcp(node),
        ctl(control),
        mix(op_mix),
        transport(node.transport(), control),
        hls(node.self(), transport),
        mux(hls, layout, node.loop(), kSessions),
        rng(seed),
        slice_ops(max_slices, 0),
        slice_latency(max_slices),
        latency(kKinds) {
    // Identical on every node: lock l starts rooted at node l % N.
    for (std::uint32_t l = 0; l < layout.lock_count(); ++l)
      hls.add_lock(LockId{l}, NodeId{static_cast<std::uint32_t>(l % kNodes)});
    node.set_handler([this](const Message& m) { on_message(m); });
  }

  void on_message(const Message& m) {
    if (!ctl.traced()) {
      hls.handle(m);
      return;
    }
    const auto t0 = Clock::now();
    hls.handle(m);
    handle_timer.add(t0);
  }

  /// Closed loop: start the next op on `sid` unless the run is draining.
  void pump(std::uint32_t sid) {
    if (ctl.stopping.load(std::memory_order_relaxed)) return;
    const lockmgr::Op op = draw_op(rng, mix);
    bump(started);
    auto done = [this, sid](const lockmgr::OpStats& st) { on_done(sid, st); };
    if (!ctl.traced()) {
      mux.start(sid, op, std::move(done));
      return;
    }
    const auto t0 = Clock::now();
    mux.start(sid, op, std::move(done));
    start_timer.add(t0);
  }

  void on_done(std::uint32_t sid, const lockmgr::OpStats& st) {
    bump(completed);
    const int s = ctl.slice.load(std::memory_order_relaxed);
    if (s >= 0) {
      ++slice_ops[static_cast<std::size_t>(s)];
      slice_latency[static_cast<std::size_t>(s)].add(st.acquire_latency);
      window_lock_requests += st.lock_requests;
      latency[static_cast<std::size_t>(st.op.kind)].add(st.acquire_latency);
    }
    // Restart through post(), never directly: this callback runs inside
    // EventLoop::fire_due_timers, which keeps firing timers while any is
    // due. An op whose grants are all local schedules its release with
    // zero delay, so a direct restart chains due timers without end and
    // the loop never polls its sockets again (the remote nodes stall).
    tcp.loop().post([this, sid] { pump(sid); });
  }

  /// Loop-lag probe body: runs on the loop, `posted` stamped by the driver.
  void on_probe(Clock::time_point posted) {
    lag_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - posted).count());
    active_sum += static_cast<double>(mux.active()) / mux.session_count();
    ++active_samples;
  }

  net::TcpNode& tcp;
  const Control& ctl;
  const Mix& mix;
  CountingTransport transport;
  core::HlsNode hls;
  lockmgr::SessionMux mux;
  Rng rng;
  std::atomic<std::uint64_t> started{0};
  std::atomic<std::uint64_t> completed{0};
  // Loop-confined measurement state.
  std::vector<std::uint64_t> slice_ops;
  std::vector<LatencyHistogram> slice_latency;  ///< acquire latency by slice
  std::uint64_t window_lock_requests{0};
  std::vector<LatencyHistogram> latency;  ///< window acquire latency by kind
  LayerTimer handle_timer;
  LayerTimer start_timer;
  std::vector<double> lag_us;
  double active_sum{0};
  std::uint64_t active_samples{0};
};

/// A connected mesh with its services. Loops stop before the services
/// they call into are destroyed.
class Mesh {
 public:
  Mesh(const Control& ctl, const Mix& mix, std::uint64_t seed,
       std::size_t max_slices)
      : cluster_(kNodes, tcp_config()), layout_(kEntries) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      services_.push_back(std::make_unique<Service>(
          cluster_.node(i), layout_, ctl, mix,
          seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)), max_slices));
    }
    const auto t0 = Clock::now();
    while (!connected()) {
      if (seconds_since(t0) > 10) throw std::runtime_error("mesh did not connect");
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  ~Mesh() { cluster_.stop(); }
  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

  [[nodiscard]] bool connected() {
    for (std::size_t i = 0; i < kNodes; ++i)
      if (cluster_.node(i).connected_peers() != kNodes - 1) return false;
    return true;
  }

  net::InProcessCluster& cluster() { return cluster_; }
  Service& service(std::size_t i) { return *services_[i]; }

  /// Run `fn` on every loop thread and wait for the results.
  template <typename Fn>
  std::vector<double> on_each_loop(Fn fn) {
    std::vector<std::promise<double>> promises(kNodes);
    std::vector<std::future<double>> futures;
    for (std::size_t i = 0; i < kNodes; ++i) {
      futures.push_back(promises[i].get_future());
      cluster_.node(i).loop().post([&p = promises[i], fn] { p.set_value(fn()); });
    }
    std::vector<double> out;
    for (auto& f : futures) out.push_back(f.get());
    return out;
  }

 private:
  net::InProcessCluster cluster_;
  lockmgr::ResourceLayout layout_;
  std::vector<std::unique_ptr<Service>> services_;
};

template <typename Pred>
bool wait_until(Pred done, double limit_s) {
  const auto t0 = Clock::now();
  while (!done()) {
    if (seconds_since(t0) > limit_s) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return true;
}

struct Snapshot {
  net::TcpStats tcp;
  std::array<std::uint64_t, kMsgKindCount> msgs{};
  double cpu_s{0};
  std::vector<double> loop_cpu_s;
  Clock::time_point at;
};

Snapshot snapshot(Mesh& mesh) {
  Snapshot s;
  s.loop_cpu_s = mesh.on_each_loop([] { return cpu_seconds(RUSAGE_THREAD); });
  s.tcp = mesh.cluster().total_stats();
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto c = mesh.service(i).transport.counts();
    for (std::size_t k = 0; k < kMsgKindCount; ++k) s.msgs[k] += c[k];
  }
  s.cpu_s = cpu_seconds();
  s.at = Clock::now();
  return s;
}

/// One measurement slice, as seen by the driver thread.
struct Slice {
  double seconds{0};
  double cpu_s{0};   ///< process CPU time used during the slice
  double steal{0};   ///< host steal share during the slice
  std::uint64_t ops{0};
  LatencyHistogram latency;
};

struct Quiet {
  std::size_t slices{0};
  double max_steal{0};
  double ops_per_s{0};
  double cpu_us_per_op{0};
  LatencyHistogram latency;
};

/// Aggregate the quietest 1/`fraction` of the candidate slices, and any
/// slice as quiet as the loudest of those: the slices in which the
/// hypervisor withheld the smallest share of the CPU time the machine
/// wanted. On a shared host that share swings from ~0 to over 25% within
/// seconds, and live throughput drops almost in proportion, because every
/// hop waits on a wakeup of another virtual CPU. On a quiet host (or
/// without steal accounting) every slice ties, and all of them are used.
Quiet quiet(const std::vector<Slice>& slice, std::vector<std::size_t> candidates,
            std::size_t fraction) {
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t a, std::size_t b) { return slice[a].steal < slice[b].steal; });
  const std::size_t keep = std::max<std::size_t>(1, candidates.size() / fraction);
  Quiet q;
  q.max_steal = slice[candidates[keep - 1]].steal;
  std::vector<double> rates;
  double cpu = 0;
  std::uint64_t ops = 0;
  for (const std::size_t k : candidates) {
    const Slice& sl = slice[k];
    if (sl.steal > q.max_steal) break;
    ++q.slices;
    rates.push_back(static_cast<double>(sl.ops) / sl.seconds);
    cpu += sl.cpu_s;
    ops += sl.ops;
    q.latency.merge(sl.latency);
  }
  q.ops_per_s = median(rates);
  q.cpu_us_per_op = ratio(cpu, static_cast<double>(ops)) * 1e6;
  return q;
}

}  // namespace

bool is_live_workload(const std::string& name) {
  for (const Mix& m : kMixes)
    if (name == m.workload) return true;
  return false;
}

void print_mix_sample(const std::string& workload, std::uint64_t seed,
                      std::uint64_t count) {
  const Mix& mix = mix_for(workload);
  Rng rng(seed);
  std::array<std::uint64_t, kKinds> seen{};
  for (std::uint64_t i = 0; i < count; ++i)
    ++seen[static_cast<std::size_t>(draw_op(rng, mix).kind)];
  std::cout << "{";
  for (std::size_t k = 0; k < kKinds; ++k) {
    std::cout << (k ? ", " : "") << "\""
              << lockmgr::to_string(static_cast<lockmgr::OpKind>(k))
              << "\": {\"share\": "
              << ratio(static_cast<double>(seen[k]), static_cast<double>(count))
              << ", \"pct\": " << mix.pct[k] << "}";
  }
  std::cout << "}\n";
}

Report run_live(const Options& opt) {
  const Mix& mix = mix_for(opt.workload);
  Report rep;
  Control ctl;
  HostProbe probe;  // first, so the peak RSS always holds its buffer
  std::vector<double> probe_s;
  const auto take_probes = [&] {
    for (int i = 0; i < (opt.tiny ? 1 : 5); ++i) probe_s.push_back(probe.probe_s());
  };
  take_probes();

  // Half-second slices. Untraced runs report the quiet ones (see quiet());
  // traced runs alternate untraced and traced slices, so the tracing
  // overhead is measured on the same mesh in the same run.
  const std::size_t slices =
      opt.trace ? 2 * std::max<std::size_t>(1, static_cast<std::size_t>(opt.seconds))
                : std::max<std::size_t>(1, static_cast<std::size_t>(opt.seconds * 2));
  const double slice_s = opt.seconds / static_cast<double>(slices);

  // Set-up: build and connect the mesh several times, half before the
  // window and half after it, so one moment of host contention does not
  // set the median; the first batch's last mesh is the one measured.
  const int builds = opt.tiny ? 1 : 16;
  std::vector<double> setup_s;
  std::unique_ptr<Mesh> mesh;
  const auto time_builds = [&] {
    for (int b = 0; b < builds; ++b) {
      mesh.reset();
      const auto t0 = Clock::now();
      mesh = std::make_unique<Mesh>(ctl, mix, opt.seed, slices);
      setup_s.push_back(seconds_since(t0));
    }
  };
  time_builds();

  for (std::size_t i = 0; i < kNodes; ++i) {
    Service* s = &mesh->service(i);
    for (std::uint32_t sid = 0; sid < kSessions; ++sid)
      s->tcp.loop().post([s, sid] { s->pump(sid); });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(opt.tiny ? 0.2 : 2.0));

  const Snapshot before = snapshot(*mesh);
  std::vector<Slice> slice(slices);
  for (std::size_t k = 0; k < slices; ++k) {
    const bool traced = opt.trace && (k % 2 == 1);
    ctl.tracing.store(traced, std::memory_order_relaxed);
    const HostTicks h0 = host_ticks();
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    ctl.slice.store(static_cast<int>(k), std::memory_order_relaxed);
    if (traced) {
      // Loop-lag probes: a timestamped no-op posted to every loop per ms.
      while (seconds_since(t0) < slice_s) {
        for (std::size_t i = 0; i < kNodes; ++i) {
          Service* s = &mesh->service(i);
          s->tcp.loop().post([s, posted = Clock::now()] { s->on_probe(posted); });
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double>(slice_s));
    }
    slice[k].seconds = seconds_since(t0);
    slice[k].cpu_s = cpu_seconds() - cpu0;
    slice[k].steal = steal_share(h0, host_ticks());
  }
  ctl.slice.store(-1, std::memory_order_relaxed);
  ctl.tracing.store(false, std::memory_order_relaxed);
  const Snapshot after = snapshot(*mesh);
  const double window_s = std::chrono::duration<double>(after.at - before.at).count();

  // Drain: stop issuing, let every started op finish, then every accepted
  // send be acked.
  ctl.stopping.store(true, std::memory_order_relaxed);
  const bool ops_done = wait_until(
      [&] {
        for (std::size_t i = 0; i < kNodes; ++i) {
          const Service& s = mesh->service(i);
          if (s.completed.load() != s.started.load()) return false;
        }
        return true;
      },
      30);
  const bool acked = wait_until(
      [&] {
        for (std::size_t i = 0; i < kNodes; ++i)
          if (mesh->cluster().node(i).unacked() != 0) return false;
        return true;
      },
      30);
  mesh->cluster().stop();
  const net::TcpStats total = mesh->cluster().total_stats();

  // Loops are joined: loop-confined state is safe to read from here on.
  std::uint64_t window_ops = 0;
  std::uint64_t lock_requests = 0;
  std::vector<LatencyHistogram> by_kind(kKinds);
  LayerTimer send_t;
  LayerTimer handle_t;
  LayerTimer start_t;
  std::vector<double> lag;
  double active_sum = 0;
  std::uint64_t active_n = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const Service& s = mesh->service(i);
    rep.attempted += s.started.load();
    rep.failed += s.started.load() - s.completed.load();
    for (std::size_t k = 0; k < slices; ++k) {
      slice[k].ops += s.slice_ops[k];
      slice[k].latency.merge(s.slice_latency[k]);
      window_ops += s.slice_ops[k];
    }
    lock_requests += s.window_lock_requests;
    for (std::size_t k = 0; k < kKinds; ++k) by_kind[k].merge(s.latency[k]);
    send_t.merge(s.transport.timer);
    handle_t.merge(s.handle_timer);
    start_t.merge(s.start_timer);
    lag.insert(lag.end(), s.lag_us.begin(), s.lag_us.end());
    active_sum += s.active_sum;
    active_n += s.active_samples;
  }

  rep.check(ops_done, "started ops did not all complete after drain");
  rep.check(acked, "unacked sends remained after drain");
  rep.check(total.requeued_frames == 0, "frames were requeued");
  rep.check(total.reconnects == 0, "a peer reconnected");
  rep.check(total.decode_errors == 0, "malformed frames were received");
  rep.check(total.sends_rejected == 0, "sends were rejected");
  rep.check(window_ops > 0, "no op completed inside the window");

  std::uint64_t protocol_msgs = 0;
  std::array<std::uint64_t, kMsgKindCount> msgs{};
  for (std::size_t k = 0; k < kMsgKindCount; ++k) {
    msgs[k] = after.msgs[k] - before.msgs[k];
    protocol_msgs += msgs[k];
  }
  time_builds();
  mesh.reset();
  take_probes();
  const double slow = HostProbe::slowness(median(probe_s));
  rep.note("host_slowness", std::to_string(slow));

  const double reqs = static_cast<double>(lock_requests);
  std::vector<double> steal;
  for (const Slice& sl : slice) steal.push_back(sl.steal);

  rep.note("window_s", std::to_string(window_s));
  rep.note("window_ops", std::to_string(window_ops));
  rep.note("lock_requests", std::to_string(lock_requests));
  rep.note("slices", std::to_string(slices));
  rep.note("steal_share_median", std::to_string(median(steal)));

  if (!opt.trace) {
    std::vector<std::size_t> all(slices);
    for (std::size_t k = 0; k < slices; ++k) all[k] = k;
    const Quiet q = quiet(slice, all, 4);
    rep.note("acquire_samples", std::to_string(q.latency.count()));
    rep.note("quiet_slices", std::to_string(q.slices));
    rep.note("quiet_steal_share_max", std::to_string(q.max_steal));
    rep.note("raw_ops_per_s", std::to_string(q.ops_per_s));
    rep.set("setup_s", median(setup_s) / slow);
    rep.set("ops_per_s", q.ops_per_s * slow);
    rep.set("acquire_p50_us", q.latency.quantile_us(0.50) / slow);
    rep.set("acquire_p99_us", q.latency.quantile_us(0.99) / slow);
    rep.set("msgs_per_request", ratio(static_cast<double>(protocol_msgs), reqs));
    rep.set("cpu_us_per_op", q.cpu_us_per_op / slow);
    rep.set("peak_rss_mb", peak_rss_mb());
    return rep;
  }

  std::vector<std::size_t> untraced, traced;
  for (std::size_t k = 0; k < slices; ++k) (k % 2 ? traced : untraced).push_back(k);
  const double rate_u = quiet(slice, untraced, 2).ops_per_s * slow;
  const double rate_t = quiet(slice, traced, 2).ops_per_s * slow;
  rep.set("trace.ops_per_s_untraced", rate_u);
  rep.set("trace.ops_per_s_traced", rate_t);
  rep.set("trace.overhead_pct", 100 * ratio(rate_u - rate_t, rate_u));

  const double frames = static_cast<double>(after.tcp.frames_out - before.tcp.frames_out);
  rep.set("net.send_us", send_t.mean_us() / slow);
  rep.set("net.frames_per_batch",
          ratio(frames, static_cast<double>(after.tcp.batches_written -
                                            before.tcp.batches_written)));
  rep.set("net.standalone_acks_per_op",
          ratio(static_cast<double>(after.tcp.acks_standalone -
                                    before.tcp.acks_standalone),
                static_cast<double>(window_ops)));
  rep.set("net.bytes_per_frame",
          ratio(static_cast<double>(after.tcp.bytes_out - before.tcp.bytes_out), frames));
  double busy = 0;
  for (std::size_t i = 0; i < kNodes; ++i)
    busy += (after.loop_cpu_s[i] - before.loop_cpu_s[i]) / window_s;
  rep.set("net.loop_busy_frac", busy / kNodes);
  rep.set("net.loop_lag_p50_us", quantile(lag, 0.50) / slow);
  rep.set("net.loop_lag_p99_us", quantile(lag, 0.99) / slow);
  rep.set("net.requeued_frames", static_cast<double>(total.requeued_frames));
  rep.set("net.reconnects", static_cast<double>(total.reconnects));
  rep.set("core.handle_us", handle_t.mean_us() / slow);
  for (const MsgKind k : {MsgKind::kRequest, MsgKind::kGrant, MsgKind::kToken,
                          MsgKind::kRelease, MsgKind::kFreeze}) {
    rep.set(std::string("core.msgs_per_request.") + to_string(k),
            ratio(static_cast<double>(msgs[static_cast<std::size_t>(k)]), reqs));
  }
  rep.set("lockmgr.start_us", start_t.mean_us() / slow);
  rep.set("lockmgr.active_frac", ratio(active_sum, static_cast<double>(active_n)));
  for (std::size_t k = 0; k < kKinds; ++k) {
    rep.set(std::string("lockmgr.acquire_p50_us.") +
                lockmgr::to_string(static_cast<lockmgr::OpKind>(k)),
            by_kind[k].quantile_us(0.50) / slow);
  }
  rep.note("lag_samples", std::to_string(lag.size()));
  return rep;
}

}  // namespace perfbench
