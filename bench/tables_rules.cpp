// Tables 1(a), 1(b), 2(a), 2(b) — regenerates the paper's four rule tables
// from the implementation, then microbenchmarks the protocol hot paths
// with google-benchmark (table lookups, message codec, a full local
// grant/release cycle, and a simulated 8-node request round-trip).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/hls_engine.hpp"
#include "core/mode.hpp"
#include "harness/cluster.hpp"
#include "msg/message.hpp"

namespace {

using namespace hlock;

void print_tables() {
  const Mode all[] = {Mode::kNone, Mode::kIR, Mode::kR,
                      Mode::kU,    Mode::kIW, Mode::kW};

  std::printf("Table 1(a) incompatibility (X = conflict):\n      ");
  for (const Mode m2 : kRealModes) std::printf("%4s", to_string(m2));
  std::printf("\n");
  for (const Mode m1 : kRealModes) {
    std::printf("%4s  ", to_string(m1));
    for (const Mode m2 : kRealModes)
      std::printf("%4s", compatible(m1, m2) ? "." : "X");
    std::printf("\n");
  }

  std::printf("\nTable 1(b) no-child-grant (X = cannot grant):\n      ");
  for (const Mode m2 : kRealModes) std::printf("%4s", to_string(m2));
  std::printf("\n");
  for (const Mode m1 : all) {
    std::printf("%4s  ", to_string(m1));
    for (const Mode m2 : kRealModes)
      std::printf("%4s", child_grantable(m1, m2) ? "." : "X");
    std::printf("\n");
  }

  std::printf("\nTable 2(a) queue (Q) / forward (F):\n      ");
  for (const Mode m2 : kRealModes) std::printf("%4s", to_string(m2));
  std::printf("\n");
  for (const Mode m1 : all) {
    std::printf("%4s  ", to_string(m1));
    for (const Mode m2 : kRealModes) {
      std::printf("%4s", queue_or_forward(m1, m2) == PendingAction::kQueue
                             ? "Q"
                             : "F");
    }
    std::printf("\n");
  }

  std::printf("\nTable 2(b) frozen modes at the token node:\n      ");
  for (const Mode m2 : kRealModes) std::printf("%14s", to_string(m2));
  std::printf("\n");
  for (const Mode m1 : kRealModes) {
    std::printf("%4s  ", to_string(m1));
    for (const Mode m2 : kRealModes) {
      const ModeSet f = frozen_for(m1, m2);
      std::printf("%14s", compatible(m1, m2) ? "-" : f.to_string().c_str());
    }
    std::printf("\n");
  }
  std::printf("\n");
}

void BM_CompatibilityLookup(benchmark::State& state) {
  int i = 0;
  for (auto _ : state) {
    const Mode a = kRealModes[i % 5];
    const Mode b = kRealModes[(i / 5) % 5];
    benchmark::DoNotOptimize(compatible(a, b));
    ++i;
  }
}
BENCHMARK(BM_CompatibilityLookup);

void BM_FrozenForLookup(benchmark::State& state) {
  int i = 0;
  for (auto _ : state) {
    const Mode a = kRealModes[i % 5];
    const Mode b = kRealModes[(i / 5) % 5];
    benchmark::DoNotOptimize(frozen_for(a, b));
    ++i;
  }
}
BENCHMARK(BM_FrozenForLookup);

void BM_MessageCodecRoundTrip(benchmark::State& state) {
  Message m;
  m.kind = MsgKind::kToken;
  m.lock = LockId{17};
  m.mode = Mode::kU;
  for (int i = 0; i < 16; ++i) {
    m.queue.push_back(QueuedRequest{
        NodeId{static_cast<std::uint32_t>(i)}, Mode::kIR,
        LamportStamp{static_cast<std::uint64_t>(i), NodeId{1}}, false});
  }
  for (auto _ : state) {
    const auto bytes = encode(m);
    benchmark::DoNotOptimize(decode(bytes));
  }
}
BENCHMARK(BM_MessageCodecRoundTrip);

/// Rule 2 fast path: re-acquiring a compatible weaker mode must be
/// message-free and cheap.
void BM_LocalReacquire(benchmark::State& state) {
  struct NullTransport final : Transport {
    void send(NodeId, Message) override {}
  } transport;
  const core::EngineContext ctx(NodeId{0}, transport);
  core::HlsEngine engine(ctx, LockId{0}, NodeId{0});
  const RequestId base = engine.request_lock(Mode::kR);
  (void)base;
  for (auto _ : state) {
    const RequestId id = engine.request_lock(Mode::kIR);
    engine.unlock(id);
  }
}
BENCHMARK(BM_LocalReacquire);

/// Full simulated experiment throughput: how many virtual-cluster events
/// the harness machine processes per second (8 nodes, paper workload).
void BM_SimulatedClusterRun(benchmark::State& state) {
  using namespace hlock::harness;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    ClusterConfig config;
    config.nodes = 8;
    config.spec.ops_per_node = 20;
    config.spec.seed = seed++;
    HlsCluster cluster(config);
    cluster.run();
    benchmark::DoNotOptimize(cluster.result().messages);
  }
}
BENCHMARK(BM_SimulatedClusterRun)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
