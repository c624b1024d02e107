// Substrate-robustness bench: the protocol over a lossy datagram network
// with the retransmission sublayer (sim::ReliableTransport), sweeping the
// loss rate. Reports total wire traffic (including retransmissions and
// acks), drop counts and the latency penalty.
//
// The paper's testbed ran over TCP (loss handled by the kernel); this
// bench quantifies what that reliability costs when provided in the
// middleware itself.
#include <iostream>

#include "bench/cli.hpp"
#include "harness/cluster.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep_runner.hpp"

int main(int argc, char** argv) {
  using namespace hlock;
  using namespace hlock::harness;

  const bench::CliOptions cli = bench::parse_cli(
      argc, argv,
      "usage: loss_resilience [--nodes N] [--ops N] [--seed S]\n"
      "         [--threads N] [--repeat N]\n");
  const double loss_rates[] = {0.0, 0.02, 0.05, 0.10, 0.20};

  std::vector<SweepPoint> points;
  for (const double loss : loss_rates) {
    SweepPoint p;
    p.protocol = Protocol::kHls;
    p.config.nodes = cli.nodes != 0 ? cli.nodes : 24;
    p.config.spec.ops_per_node = 40;
    bench::apply(cli, p.config.spec);
    p.config.loss_rate = loss;
    points.push_back(p);
  }
  SweepRunner runner(bench::sweep_options(cli));
  const auto results = runner.run(points);

  std::cout << "Loss resilience: " << points[0].config.nodes
            << " nodes, paper workload, reliability sublayer armed\n\n";
  TablePrinter table({"loss %", "wire msgs", "dropped", "acks",
                      "protocol msgs/req", "latency factor"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const auto acks = r.messages_by_kind.get("ack");
    // Protocol traffic excludes the sublayer's acks.
    const double proto_per_req =
        static_cast<double>(r.messages - acks) /
        static_cast<double>(r.lock_requests);
    table.row({TablePrinter::num(loss_rates[i] * 100, 0),
               std::to_string(r.messages),
               std::to_string(r.messages_dropped), std::to_string(acks),
               TablePrinter::num(proto_per_req),
               TablePrinter::num(r.latency_factor.mean(), 1)});
  }
  table.print(std::cout);
  std::cout << "\nexpected: protocol msgs/request degrades gracefully "
               "(retransmissions); latency grows with the loss rate but "
               "every run completes safely\n";
  return 0;
}
