// hlock_node — a standalone protocol node over real TCP, driven by a tiny
// command REPL on stdin. Lets you run a genuine multi-PROCESS cluster:
//
//   terminal 1:  ./hlock_node --id 0 --port 7000 \
//                    --peer 1=127.0.0.1:7001 --peer 2=127.0.0.1:7002 \
//                    --locks 3
//   terminal 2:  ./hlock_node --id 1 --port 7001 --peer 0=127.0.0.1:7000 \
//                    --peer 2=127.0.0.1:7002 --locks 3
//   ...
//
// Commands (stdin):
//   lock <lockid> <IR|R|U|IW|W>    blocking acquire, prints a handle id
//   try <lockid> <mode>            non-blocking attempt
//   unlock <handle>                release
//   upgrade <handle>               U -> W
//   downgrade <handle> <mode>      safe weakening
//   status                         node overview
//   quit
//
// Lock `i` starts rooted at node (i mod peers+1) — identical on every
// node, so no coordination is needed at startup.
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.hpp"
#include "corba/concurrency.hpp"
#include "net/tcp_node.hpp"
#include "net/view_service.hpp"

using namespace hlock;

namespace {

// Strict flag parses: std::stoul would throw an unhelpful
// std::invalid_argument on garbage and silently accept trailing junk
// ("70x0" -> 70); these reject anything that isn't entirely a number.
std::uint32_t parse_u32(const std::string& flag, const std::string& text) {
  const auto v = try_parse_u32(text);
  if (!v)
    throw std::invalid_argument(flag + " expects an unsigned integer, got '" +
                                text + "'");
  return *v;
}

std::uint16_t parse_u16(const std::string& flag, const std::string& text) {
  const auto v = try_parse_u16(text);
  if (!v)
    throw std::invalid_argument(flag + " expects a port number, got '" +
                                text + "'");
  return *v;
}

Mode parse_mode(const std::string& s) {
  if (s == "IR") return Mode::kIR;
  if (s == "R") return Mode::kR;
  if (s == "U") return Mode::kU;
  if (s == "IW") return Mode::kIW;
  if (s == "W") return Mode::kW;
  throw std::invalid_argument("mode must be IR|R|U|IW|W");
}

struct Options {
  std::uint32_t id{0};
  std::uint16_t port{0};
  std::map<NodeId, net::PeerAddress> peers;
  std::uint32_t locks{1};
  net::TcpConfig tcp{};
  std::uint32_t view_retry_ms{50};
};

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[i];
    };
    if (arg == "--id") {
      opt.id = parse_u32(arg, next());
    } else if (arg == "--port") {
      opt.port = parse_u16(arg, next());
    } else if (arg == "--locks") {
      opt.locks = parse_u32(arg, next());
    } else if (arg == "--reconnect-min-ms") {
      opt.tcp.reconnect_min = msec(parse_u32(arg, next()));
    } else if (arg == "--reconnect-max-ms") {
      opt.tcp.reconnect_max = msec(parse_u32(arg, next()));
    } else if (arg == "--heartbeat-ms") {
      opt.tcp.heartbeat_interval = msec(parse_u32(arg, next()));
    } else if (arg == "--idle-timeout-ms") {
      opt.tcp.idle_timeout = msec(parse_u32(arg, next()));
    } else if (arg == "--suspect-timeout-ms") {
      // Failure detection + automatic view changes: suspect a silent peer
      // after this long and let the lowest surviving id coordinate a
      // recovery view. 0 (default) = crashes are not handled.
      opt.tcp.suspect_timeout = msec(parse_u32(arg, next()));
    } else if (arg == "--view-retry-ms") {
      opt.view_retry_ms = parse_u32(arg, next());
    } else if (arg == "--max-batch-bytes") {
      // Frame-coalescing cap per batch write; 0 = one frame per syscall.
      opt.tcp.max_batch_bytes = parse_u32(arg, next());
    } else if (arg == "--piggyback-ms") {
      // Ack piggyback window; 0 (default) = standalone acks only.
      opt.tcp.ack_piggyback_window = msec(parse_u32(arg, next()));
    } else if (arg == "--send-window") {
      // Per-peer cap on unacked sends; 0 (default) = unbounded. Protocol
      // messages past the cap are dropped (sends_rejected), so only use
      // with workloads that tolerate loss.
      opt.tcp.send_window_limit = parse_u32(arg, next());
    } else if (arg == "--peer") {
      const std::string spec = next();  // id=host:port
      const auto eq = spec.find('=');
      const auto colon = spec.find(':', eq);
      if (eq == std::string::npos || colon == std::string::npos)
        throw std::invalid_argument("--peer expects id=host:port");
      const NodeId pid{parse_u32("--peer id", spec.substr(0, eq))};
      opt.peers[pid] = net::PeerAddress{
          spec.substr(eq + 1, colon - eq - 1),
          parse_u16("--peer port", spec.substr(colon + 1))};
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  net::TcpNode node(NodeId{opt.id}, opt.port, opt.tcp);
  std::cout << "node " << opt.id << " listening on 127.0.0.1:"
            << node.listen_port() << "\n";
  node.set_peers(opt.peers);
  std::thread loop([&] { node.loop().run(); });

  corba::ConcurrencyService service(node);
  const std::uint32_t cluster_size =
      static_cast<std::uint32_t>(opt.peers.size()) + 1;
  for (std::uint32_t l = 0; l < opt.locks; ++l) {
    service.create_lock_set(LockId{l}, NodeId{l % cluster_size});
  }

  // Crash recovery: with a suspect timeout configured, a dead peer
  // triggers an automatic view change that regenerates every lock's
  // token at the new root (the lowest surviving id).
  std::unique_ptr<net::ViewService> views;
  if (opt.tcp.suspect_timeout > 0) {
    std::set<NodeId> members;
    members.insert(NodeId{opt.id});
    for (const auto& [pid, addr] : opt.peers) members.insert(pid);
    views = std::make_unique<net::ViewService>(
        node, std::move(members), net::ViewConfig{msec(opt.view_retry_ms)});
    views->set_on_view([&](std::uint32_t view, NodeId root,
                           const std::set<NodeId>& survivors) {
      service.recover_all(view, root, survivors);
      std::cerr << "[view] node=" << opt.id << " view=" << view << " root="
                << root << " survivors=" << survivors.size() << "\n";
    });
    views->start();
  }

  std::map<std::uint64_t, corba::LockHandle> handles;
  std::uint64_t next_handle = 1;
  std::string line;
  std::cout << "ready (" << opt.locks << " locks, " << cluster_size
            << " nodes). commands: lock/try/unlock/upgrade/downgrade/"
               "status/quit\n> "
            << std::flush;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    try {
      if (cmd == "quit" || cmd == "exit") break;
      if (cmd == "lock" || cmd == "try") {
        std::uint32_t lock;
        std::string mode;
        in >> lock >> mode;
        corba::LockSet set = service.lock_set(LockId{lock});
        const corba::LockMode lm = corba::from_core(parse_mode(mode));
        if (cmd == "lock") {
          const auto h = set.lock(lm);
          handles[next_handle] = h;
          std::cout << "granted " << mode << " on lock " << lock
                    << ", handle " << next_handle++ << "\n";
        } else {
          const auto h = set.try_lock(lm);
          if (h) {
            handles[next_handle] = *h;
            std::cout << "granted locally, handle " << next_handle++ << "\n";
          } else {
            std::cout << "would need messages; not granted\n";
          }
        }
      } else if (cmd == "unlock") {
        std::uint64_t h;
        in >> h;
        const auto it = handles.find(h);
        if (it == handles.end()) throw std::invalid_argument("no such handle");
        service.lock_set(it->second.lock).unlock(it->second);
        handles.erase(it);
        std::cout << "released\n";
      } else if (cmd == "upgrade" || cmd == "downgrade") {
        std::uint64_t h;
        in >> h;
        const auto it = handles.find(h);
        if (it == handles.end()) throw std::invalid_argument("no such handle");
        corba::LockMode target = corba::LockMode::kWrite;
        if (cmd == "downgrade") {
          std::string mode;
          in >> mode;
          target = corba::from_core(parse_mode(mode));
        }
        it->second =
            service.lock_set(it->second.lock).change_mode(it->second, target);
        std::cout << "now holding " << to_string(it->second.mode) << "\n";
      } else if (cmd == "status") {
        std::cout << "node " << opt.id << ", " << handles.size()
                  << " live handles, " << node.delivered()
                  << " messages delivered, " << node.connected_peers()
                  << " peers connected\n"
                  << "  " << to_string(node.stats()) << "\n";
        for (const auto& [h, handle] : handles) {
          std::cout << "  handle " << h << ": lock " << handle.lock << " in "
                    << to_string(handle.mode) << "\n";
        }
      } else if (!cmd.empty()) {
        std::cout << "unknown command\n";
      }
    } catch (const std::exception& e) {
      std::cout << "error: " << e.what() << "\n";
    }
    std::cout << "> " << std::flush;
  }

  node.loop().stop();
  loop.join();
  // Machine-greppable transport summary (docs/NETWORKING.md documents the
  // format; the CI chaos smoke asserts on it).
  std::cerr << "[tcp-stats] node=" << opt.id << " delivered="
            << node.delivered() << " " << to_string(node.stats());
  if (views) {
    std::cerr << " views_committed=" << views->views_committed()
              << " view_frames=" << views->view_frames_sent();
  }
  std::cerr << "\n";
  return 0;
}
