#include "net/tcp_node.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "common/logging.hpp"

namespace hlock::net {

namespace {

constexpr auto kRelax = std::memory_order_relaxed;

void set_nonblocking(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// Constructor-time failures only (bad port, fd exhaustion at startup):
/// these are configuration errors surfaced to the caller before the loop
/// runs, not runtime faults.
[[noreturn]] void sys_fail(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void bump_max(std::atomic<std::uint64_t>& hw, std::uint64_t v) {
  if (v > hw.load(kRelax)) hw.store(v, kRelax);
}

/// Boot epoch for this process: wall-clock nanoseconds mixed with
/// hardware entropy, forced nonzero (the decoder rejects a hello with
/// epoch 0). Two incarnations of the same node id colliding would need
/// both the clock and random_device to repeat.
std::uint64_t generate_epoch() {
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count();
  std::random_device rd;
  std::uint64_t e = static_cast<std::uint64_t>(ns);
  e ^= (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  return e == 0 ? 1 : e;
}

/// frames_per_batch bucket for a batch write that gathered `n` frames.
std::size_t batch_bucket(int n) {
  if (n <= 1) return 0;
  if (n <= 4) return 1;
  if (n <= 16) return 2;
  return 3;
}

/// Set a loop-confined callback from any thread. Assigning directly is
/// safe on the loop thread (no delivery can be concurrent with us) or
/// before the loop runs (nothing is being delivered at all).
template <typename Fn>
void assign_on_loop(EventLoop& loop, Fn& slot, Fn fn) {
  if (loop.on_loop_thread() || !loop.running()) {
    slot = std::move(fn);
    return;
  }
  loop.post([&slot, fn = std::move(fn)]() mutable { slot = std::move(fn); });
}

}  // namespace

TcpNode::TcpNode(NodeId self, std::uint16_t port, TcpConfig cfg)
    : self_(self), cfg_(cfg), epoch_(generate_epoch()), transport_(*this) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) sys_fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    sys_fail("bind");
  if (::listen(listen_fd_, 128) != 0) sys_fail("listen");
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  listen_port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);

  loop_.watch(listen_fd_, POLLIN, [this](std::uint32_t) { on_listen_ready(); });
  loop_.on_pass_end([this] { flush_dirty(); });
  // The heartbeat timer is armed from inside the loop once it runs; the
  // constructor may be on any thread.
  loop_.post([this] { arm_heartbeat(); });
}

TcpNode::~TcpNode() {
  for (auto& [fd, c] : conns_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void TcpNode::set_peers(std::map<NodeId, PeerAddress> peers) {
  loop_.post([this, book = std::move(peers)]() mutable {
    for (auto& [id, p] : peers_) {
      if (!p.address || book.count(id) != 0) continue;
      // Dropped from the book: no longer dialed (not even by a timer armed
      // under the old book) and no longer watched by the failure detector.
      p.address.reset();
      if (p.dial.timer_pending) {
        loop_.cancel_timer(p.dial.timer_id);
        p.dial.timer_pending = false;
      }
      if (p.suspected) {
        p.suspected = false;
        suspected_count_.fetch_sub(1, kRelax);
      }
    }
    const TimePoint t = loop_.now();
    for (auto& [id, address] : book) {
      Peer& p = peers_[id];
      // A peer entering the book gets a full suspect_timeout of grace from
      // this moment, not from epoch 0 or from an earlier stay in the book.
      if (!p.address) p.last_heard = t;
      p.address = std::move(address);
    }
    // Deterministic mesh: the higher id dials the lower, so each pair has
    // exactly one connection and per-pair FIFO ordering holds.
    for (const auto& [id, address] : book) maybe_dial(id);
  });
}

void TcpNode::set_handler(std::function<void(const Message&)> fn) {
  assign_on_loop(loop_, handler_, std::move(fn));
}

void TcpNode::set_on_peer_suspected(std::function<void(NodeId, bool)> fn) {
  assign_on_loop(loop_, on_suspect_, std::move(fn));
}

void TcpNode::set_control_handler(
    std::function<void(NodeId, const DecodedFrame&)> fn) {
  assign_on_loop(loop_, control_handler_, std::move(fn));
}

void TcpNode::send_control(NodeId to, std::vector<std::uint8_t> bytes) {
  on_loop([this, to, bytes = std::move(bytes)]() mutable {
    Connection* c = established_conn(to);
    if (c == nullptr) {
      // No link: the frame is dropped (control traffic is fire-and-forget
      // at this layer; the view coordinator retries on its own timer) but
      // kick a dial so a retry can land.
      maybe_dial(to);
      return;
    }
    queue_frame(*c, std::move(bytes), /*control=*/true);
    request_flush(*c);
  });
}

void TcpNode::forget_peer(NodeId peer) {
  on_loop([this, peer] {
    const auto it = peers_.find(peer);
    if (it == peers_.end()) return;
    // Leave the book first: close_conn consults it to decide whether to
    // schedule a re-dial.
    Peer& p = it->second;
    p.address.reset();
    std::vector<int> doomed;
    for (const auto& [fd, c] : conns_)
      if (c->peer == peer) doomed.push_back(fd);
    for (const int fd : doomed) close_conn(fd);
    if (p.dial.timer_pending) loop_.cancel_timer(p.dial.timer_id);
    unacked_frames_.fetch_sub(p.link.unacked(), kRelax);
    if (p.suspected) suspected_count_.fetch_sub(1, kRelax);
    peers_.erase(it);
    if (cfg_.send_window_limit != 0) {
      std::lock_guard<std::mutex> lk(window_mu_);
      window_pending_.erase(peer);
    }
  });
}

void TcpNode::on_listen_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      // Transient accept failure (EMFILE, ECONNABORTED, ...): keep the
      // node alive, retry on the next readiness event.
      HLOCK_LOG(kError, "node " << self_ << ": accept failed: "
                                << std::strerror(errno));
      return;
    }
    set_nonblocking(fd);
    set_nodelay(fd);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->serial = ++conn_serial_;
    Connection* raw = conn.get();
    conns_.emplace(fd, std::move(conn));
    established(*raw, /*outbound=*/false);
  }
}

void TcpNode::maybe_dial(NodeId peer) {
  if (!(peer < self_)) return;  // the higher id dials; we wait for them
  const auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  if (it->second.dial.timer_pending) return;  // a backoff re-dial is queued
  start_dial(peer);
}

void TcpNode::start_dial(NodeId peer) {
  Peer& p = peers_[peer];
  if (!p.address || p.dial.fd >= 0 || p.fd >= 0) return;  // busy/connected

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(p.address->port);
  if (::inet_pton(AF_INET, p.address->host.c_str(), &addr.sin_addr) != 1) {
    HLOCK_LOG(kError, "node " << self_ << ": bad host for peer " << peer
                              << ": '" << p.address->host << "'");
    fail_dial(peer);  // the book may be corrected via set_peers
    return;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    fail_dial(peer);
    return;
  }
  set_nonblocking(fd);
  set_nodelay(fd);
  stats_.dials.fetch_add(1, kRelax);
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    fail_dial(peer);
    return;
  }
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  conn->serial = ++conn_serial_;
  conn->peer = peer;
  conn->connecting = true;
  conn->last_recv = conn->last_send = loop_.now();
  Connection* raw = conn.get();
  conns_.emplace(fd, std::move(conn));
  p.dial.fd = fd;
  if (rc == 0) {
    established(*raw, /*outbound=*/true);
    return;
  }
  loop_.watch(fd, POLLOUT, [this, fd](std::uint32_t revents) {
    on_connect_ready(fd, revents);
  });
}

void TcpNode::on_connect_ready(int fd, std::uint32_t revents) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection& c = *it->second;
  if (!c.connecting) {  // raced with establishment; treat as normal I/O
    on_conn_event(fd, revents);
    return;
  }
  int err = 0;
  socklen_t len = sizeof err;
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) err = errno;
  if (err != 0 || (revents & (POLLERR | POLLNVAL)) != 0) {
    HLOCK_LOG(kDebug, "node " << self_ << ": connect to peer " << c.peer
                              << " failed: " << std::strerror(err));
    fail_dial(c.peer);
    return;
  }
  established(c, /*outbound=*/true);
}

void TcpNode::fail_dial(NodeId peer) {
  // Closes the in-flight connecting fd, if any, and backs off.
  DialState& d = peers_[peer].dial;
  if (d.fd >= 0) {
    loop_.unwatch(d.fd);
    ::close(d.fd);
    conns_.erase(d.fd);
    d.fd = -1;
  }
  ++d.failures;
  stats_.connect_failures.fetch_add(1, kRelax);
  schedule_redial(peer);
}

void TcpNode::schedule_redial(NodeId peer) {
  Peer& p = peers_[peer];
  DialState& d = p.dial;
  if (d.timer_pending || d.fd >= 0 || p.fd >= 0) return;
  // Capped exponential backoff: min * 2^(failures-1), clamped to max.
  Duration delay = cfg_.reconnect_min > 0 ? cfg_.reconnect_min : msec(1);
  const Duration cap =
      cfg_.reconnect_max > delay ? cfg_.reconnect_max : delay;
  for (std::uint32_t i = 1; i < d.failures && delay < cap; ++i) delay *= 2;
  delay = std::min(delay, cap);
  d.timer_pending = true;
  d.timer_id = loop_.schedule_cancellable(delay, [this, peer] {
    const auto it = peers_.find(peer);
    if (it == peers_.end()) return;
    it->second.dial.timer_pending = false;
    start_dial(peer);
  });
}

void TcpNode::established(Connection& c, bool outbound) {
  const int fd = c.fd;
  c.connecting = false;
  c.last_recv = c.last_send = loop_.now();
  loop_.watch(fd, POLLIN, [this, fd](std::uint32_t revents) {
    on_conn_event(fd, revents);
  });
  Peer* p = nullptr;
  if (outbound) {
    stats_.connects.fetch_add(1, kRelax);
    // Backoff state (failures) resets only on the peer's hello: a listener
    // that accepts and then drops us pre-handshake (half-configured proxy,
    // crashing peer) must keep escalating the redial delay.
    p = &peers_[c.peer];
    p->dial.fd = -1;
    register_peer(*p, fd);
  } else {
    stats_.accepts.fetch_add(1, kRelax);
  }
  queue_frame(c, hello_frame(self_, epoch_), /*control=*/true);
  if (p != nullptr) resend_window(c, *p);
  request_flush(c);
}

void TcpNode::register_peer(Peer& p, int fd) {
  // A replacement connection (e.g. the old link is half-open and not yet
  // reaped) wins; the stale fd is closed by idle/error handling and its
  // guard (`p.fd == fd`) leaves this mapping be.
  if (p.fd < 0) connected_peers_.fetch_add(1, kRelax);
  p.fd = fd;
}

void TcpNode::resend_window(Connection& c, Peer& p) {
  stats_.requeued_frames.fetch_add(p.link.connection_up(), kRelax);
  // flush() queues the resend a chunk at a time; the caller requests it.
  if (!p.link.window().empty()) c.resend_next = p.link.window().front().seq;
}

void TcpNode::continue_resend(Connection& c) {
  const std::uint64_t from = std::exchange(c.resend_next, 0);
  const PeerLink* link = link_of(c);
  if (link == nullptr || link->window().empty()) return;
  const auto& w = link->window();
  // Window seqs are consecutive, so `from` indexes it directly (entries
  // acked since the resend began are simply gone).
  const std::uint64_t skip = from > w.front().seq ? from - w.front().seq : 0;
  auto it = w.begin() + static_cast<std::ptrdiff_t>(
                            std::min<std::uint64_t>(skip, w.size()));
  // Encoded fresh with ack 0: on an outbound link the resend leaves before
  // the peer's hello, which may announce a restart, and an ack owed to the
  // old incarnation would trim the new one's window.
  for (; it != w.end(); ++it) {
    if (c.outbox_bytes >= kResendChunkBytes) {
      c.resend_next = it->seq;
      return;
    }
    const std::size_t begin = c.out.size();
    append_frame(c.out, it->msg, it->seq, /*ack=*/0);
    push_frame(c, begin, /*control=*/false);
  }
}

bool TcpNode::send(NodeId to, Message m) {
  if (cfg_.send_window_limit != 0) {
    // Reserve a window slot before posting: the caller needs the
    // would-block answer synchronously, so the count lives under a mutex
    // shared with the loop thread's ack trim instead of in loop-confined
    // state.
    std::lock_guard<std::mutex> lk(window_mu_);
    auto& pending = window_pending_[to];
    if (pending >= cfg_.send_window_limit) {
      stats_.sends_rejected.fetch_add(1, kRelax);
      return false;
    }
    ++pending;
  }
  m.from = self_;
  on_loop([this, to, msg = std::move(m)]() mutable {
    Peer& p = peers_[to];
    Connection* c = established_conn(to);
    const bool direct = c != nullptr && c->resend_next == 0;
    const PeerLink::Pending& e = p.link.accept(std::move(msg), direct);
    ++unacked_frames_;
    bump_max(stats_.pending_high_water, unacked_frames_);
    if (direct) {
      queue_data(*c, p.link, e);
      request_flush(*c);
    } else if (c == nullptr) {
      maybe_dial(to);  // no-op unless this side owns the dial
    }
  });
  return true;
}

void TcpNode::request_flush(Connection& c) {
  if (cfg_.max_batch_bytes == 0) {
    // Coalescing disabled: write-per-send, the historical behaviour.
    flush(c);
    return;
  }
  // Flush once at the end of this loop pass (flush_dirty), so every frame
  // the pass queues — a read burst's engine replies sent inline, their
  // zero-delay continuations, sends posted from other threads — leaves in
  // one write.
  if (c.dirty) return;
  c.dirty = true;
  dirty_.emplace_back(c.fd, c.serial);
}

void TcpNode::flush_dirty() {
  // By index, so an entry added during the walk is flushed before the
  // loop polls too.
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    const auto [fd, serial] = dirty_[i];
    const auto it = conns_.find(fd);
    // Closed in this pass, perhaps with its fd reused by a new connection.
    if (it == conns_.end() || it->second->serial != serial) continue;
    it->second->dirty = false;
    flush(*it->second);
  }
  dirty_.clear();
}

TcpNode::Connection* TcpNode::established_conn(NodeId peer) {
  const auto it = peers_.find(peer);
  if (it == peers_.end() || it->second.fd < 0) return nullptr;
  const auto cit = conns_.find(it->second.fd);
  if (cit == conns_.end() || cit->second->connecting) return nullptr;
  return cit->second.get();
}

void TcpNode::queue_data(Connection& c, PeerLink& link,
                         const PeerLink::Pending& entry) {
  std::uint64_t ack = 0;  // "no ack information"
  if (cfg_.ack_piggyback_window > 0 && link.ack_due()) {
    // An ack is owed to this peer and a data frame is about to join the
    // queue: carry the cumulative ack in its ack slot instead of spending
    // a standalone kAck frame.
    ack = link.take_ack();
    cancel_ack_timer(c);
    stats_.acks_piggybacked.fetch_add(1, kRelax);
  }
  const std::size_t begin = c.out.size();
  append_frame(c.out, entry.msg, entry.seq, ack);
  push_frame(c, begin, /*control=*/false);
}

PeerLink* TcpNode::link_of(const Connection& c) {
  if (!c.peer.valid()) return nullptr;
  const auto it = peers_.find(c.peer);
  return it == peers_.end() ? nullptr : &it->second.link;
}

void TcpNode::queue_frame(Connection& c,
                          const std::vector<std::uint8_t>& bytes,
                          bool control) {
  const std::size_t begin = c.out.size();
  c.out.insert(c.out.end(), bytes.begin(), bytes.end());
  push_frame(c, begin, control);
}

void TcpNode::push_frame(Connection& c, std::size_t begin, bool control) {
  // The frame is the bytes appended to the outbox since `begin`.
  const std::size_t size = c.out.size() - begin;
  c.frames.push_back(OutFrame{begin, size, control});
  c.outbox_bytes += size;
  bump_max(stats_.outbox_high_water, c.outbox_bytes);
}

bool TcpNode::try_stamp_queued_ack(Connection& c, PeerLink& link) {
  // Skip the head frame when part of it is already on the wire — its
  // header bytes may be sent, so stamping it would corrupt the stream.
  for (std::size_t i = c.head + (c.front_pos > 0 ? 1 : 0);
       i < c.frames.size(); ++i) {
    const OutFrame& f = c.frames[i];
    if (f.control || f.size < kAckFieldOffset + 8) continue;
    store_le(c.out.data() + f.begin + kAckFieldOffset, link.take_ack());
    return true;
  }
  return false;
}

void TcpNode::queue_standalone_ack(Connection& c, PeerLink& link) {
  cancel_ack_timer(c);
  stats_.acks_standalone.fetch_add(1, kRelax);
  queue_frame(c, ack_frame(link.take_ack()), /*control=*/true);
}

void TcpNode::arm_ack_timer(Connection& c) {
  if (c.ack_timer_pending) return;
  const int fd = c.fd;
  c.ack_timer_pending = true;
  c.ack_timer_id =
      loop_.schedule_cancellable(cfg_.ack_piggyback_window, [this, fd] {
        // close_conn cancels this timer, so `fd` cannot have been reused.
        const auto it = conns_.find(fd);
        if (it == conns_.end()) return;
        Connection& c2 = *it->second;
        c2.ack_timer_pending = false;
        PeerLink* link = link_of(c2);
        // A data frame may have carried the ack in the meantime.
        if (link == nullptr || !link->ack_due()) return;
        queue_standalone_ack(c2, *link);
        request_flush(c2);
      });
}

void TcpNode::cancel_ack_timer(Connection& c) {
  if (!c.ack_timer_pending) return;
  loop_.cancel_timer(c.ack_timer_id);
  c.ack_timer_pending = false;
}

void TcpNode::flush(Connection& c) {
  if (c.connecting) return;
  // One resend chunk per call. Between chunks the loop polls, reads and
  // runs its timers (POLLOUT brings the flush back at once): a peer that
  // drains a multi-megabyte window as fast as it is written would
  // otherwise keep this call, and the loop, busy until the idle check
  // reaps the silent-looking connection and the resend starts over.
  bool refilled = false;
  for (;;) {
    if (!refilled && c.resend_next != 0 &&
        c.outbox_bytes < kResendChunkBytes) {
      continue_resend(c);
      refilled = true;
    }
    if (c.head == c.frames.size()) break;
    // The batch is the head of the queue: up to kMaxBatchFrames frames or
    // max_batch_bytes, whichever comes first (max_batch_bytes == 0 pins
    // every batch to a single frame — the measurement baseline). Queued
    // bytes are contiguous, so a batch is one send.
    int batch_frames = 0;
    std::size_t batch_bytes = 0;
    for (std::size_t i = c.head;
         i < c.frames.size() && batch_frames < kMaxBatchFrames; ++i) {
      batch_bytes += c.frames[i].size - (i == c.head ? c.front_pos : 0);
      ++batch_frames;
      if (cfg_.max_batch_bytes == 0 || batch_bytes >= cfg_.max_batch_bytes)
        break;
    }
    const std::uint8_t* from =
        c.out.data() + c.frames[c.head].begin + c.front_pos;
    const ssize_t n = ::send(c.fd, from, batch_bytes, MSG_NOSIGNAL);
    if (n > 0) {
      stats_.batches_written.fetch_add(1, kRelax);
      stats_.frames_per_batch[batch_bucket(batch_frames)].fetch_add(1, kRelax);
      stats_.bytes_out.fetch_add(static_cast<std::uint64_t>(n), kRelax);
      c.last_send = loop_.now();
      // Advance the frame cursor over whatever the kernel took; a short
      // write leaves front_pos mid-frame and the loop retries immediately
      // (no extra poll round trip while the socket buffer has room).
      std::size_t left = static_cast<std::size_t>(n);
      c.outbox_bytes -= left;
      while (left > 0) {
        const std::size_t remain = c.frames[c.head].size - c.front_pos;
        if (left >= remain) {
          left -= remain;
          c.front_pos = 0;
          stats_.frames_out.fetch_add(1, kRelax);
          ++c.head;
        } else {
          c.front_pos += left;
          left = 0;
        }
      }
      continue;  // keep writing until the queue drains or EAGAIN
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel buffer full: wait for writability.
      compact_outbox(c);
      watch_conn(c, /*want_write=*/true);
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    close_conn(c.fd);
    return;
  }
  // Outbox drained: empty it for the next pass, and stop watching POLLOUT
  // unless a resend has chunks left.
  c.out.clear();
  if (c.out.capacity() > 2 * kResendChunkBytes) c.out.shrink_to_fit();
  c.frames.clear();
  c.head = 0;
  c.front_pos = 0;
  watch_conn(c, /*want_write=*/c.resend_next != 0);
}

void TcpNode::compact_outbox(Connection& c) {
  // Drop the sent prefix once it is at least as long as what is left, so
  // a backlog draining over many writes moves each byte O(1) times.
  const std::size_t sent = c.frames[c.head].begin;
  if (sent == 0 || sent < c.out.size() - sent) return;
  c.out.erase(c.out.begin(), c.out.begin() + static_cast<std::ptrdiff_t>(sent));
  c.frames.erase(c.frames.begin(),
                 c.frames.begin() + static_cast<std::ptrdiff_t>(c.head));
  for (OutFrame& f : c.frames) f.begin -= sent;
  c.head = 0;
}

void TcpNode::watch_conn(Connection& c, bool want_write) {
  if (c.watching_write == want_write) return;
  c.watching_write = want_write;
  const int fd = c.fd;
  loop_.watch(fd, want_write ? POLLIN | POLLOUT : POLLIN,
              [this, fd](std::uint32_t revents) { on_conn_event(fd, revents); });
}

void TcpNode::on_conn_event(int fd, std::uint32_t revents) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection& c = *it->second;
  if (c.connecting) {
    on_connect_ready(fd, revents);
    return;
  }

  // Handlers send inline, and a send may close this connection (a failed
  // write) and then dial, which can reuse its fd: compare serials too.
  const std::uint64_t serial = c.serial;
  const auto gone = [&] {
    const auto cit = conns_.find(fd);
    return cit == conns_.end() || cit->second->serial != serial;
  };
  const bool hangup = (revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
  bool dead = false;
  if ((revents & POLLIN) != 0 || hangup) {
    // Cap one readiness event at kMaxReadsPerEvent reads, then decode and
    // ack: a peer resending a multi-megabyte window would otherwise keep
    // this loop from ever reaching EAGAIN, so no ack or heartbeat would
    // leave, the peer would reap the link as idle and resend the window
    // forever. A read shorter than the buffer drained the socket, so stop
    // there rather than pay a recv() that returns EAGAIN. Poll is
    // level-triggered; the next pass reads whatever arrives later. A
    // hangup still reads to EOF — the connection is finished either way.
    std::uint8_t buf[65536];
    for (int reads = 0; hangup || reads < kMaxReadsPerEvent; ++reads) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n > 0) {
        stats_.bytes_in.fetch_add(static_cast<std::uint64_t>(n), kRelax);
        c.last_recv = loop_.now();
        c.decoder.feed(buf, static_cast<std::size_t>(n));
        if (!hangup && static_cast<std::size_t>(n) < sizeof buf) break;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      dead = true;  // orderly FIN (n == 0) or hard error; decode first
      break;
    }
    try {
      DecodedFrame f;
      while (c.decoder.next_frame(f)) {
        handle_frame(c, f);
        // The handler (or a hello-triggered flush) may have closed this
        // very connection; never touch `c` again once it is gone.
        if (gone()) return;
      }
    } catch (const DecodeError& e) {
      // Malformed stream: contained to this connection. Drop the link and
      // let the dial side reconnect; unacked frames will be resent.
      stats_.decode_errors.fetch_add(1, kRelax);
      HLOCK_LOG(kError, "node " << self_ << ": malformed frame on fd " << fd
                                << " (" << e.what()
                                << "); closing connection");
      close_conn(fd);
      return;
    }
    PeerLink* link = link_of(c);
    if (link != nullptr && link->ack_due() && !dead && !hangup) {
      // One cumulative ack per read burst, not per frame. With
      // piggybacking on, prefer riding a queued-unsent data frame; failing
      // that, give a data frame ack_piggyback_window to show up before
      // falling back to a standalone kAck.
      if (cfg_.ack_piggyback_window > 0) {
        if (try_stamp_queued_ack(c, *link)) {
          cancel_ack_timer(c);
          stats_.acks_piggybacked.fetch_add(1, kRelax);
          request_flush(c);
          if (gone()) return;
        } else {
          arm_ack_timer(c);
        }
      } else {
        queue_standalone_ack(c, *link);
        request_flush(c);
        if (gone()) return;
      }
    }
  }
  if (dead || hangup) {
    // Even when recv() reported EAGAIN (e.g. POLLHUP with a drained read
    // buffer), a hangup means this connection is finished — without this
    // close the watch would linger and never fire progress again.
    close_conn(fd);
    return;
  }
  if (revents & POLLOUT) flush(c);
}

void TcpNode::process_ack(NodeId id, Peer& p, std::uint64_t ack_seq) {
  const std::size_t trimmed = p.link.on_ack(ack_seq);
  if (trimmed == 0) return;
  unacked_frames_.fetch_sub(trimmed, kRelax);
  if (cfg_.send_window_limit != 0) {
    std::lock_guard<std::mutex> lk(window_mu_);
    auto& pending = window_pending_[id];
    pending -= std::min(pending, trimmed);
  }
}

void TcpNode::handle_frame(Connection& c, const DecodedFrame& f) {
  stats_.frames_in.fetch_add(1, kRelax);
  if (f.control) {
    switch (f.op) {
      case ControlOp::kHello: {
        if (c.peer.valid() && c.peer != f.hello_node) {
          HLOCK_LOG(kError, "node " << self_ << ": peer " << c.peer
                                    << " introduced itself as "
                                    << f.hello_node << "; dropping link");
          close_conn(c.fd);
          return;
        }
        const bool inbound_first = !c.peer.valid();
        if (inbound_first) c.peer = f.hello_node;
        Peer& p = peers_[c.peer];
        // A hello always precedes data on its connection (TCP stream
        // order), so resetting the dedup state here is race-free: no frame
        // from the new incarnation can have been delivered yet.
        const std::uint64_t old_epoch = p.link.epoch();
        if (p.link.on_hello(f.hello_epoch)) {
          stats_.peer_restarts.fetch_add(1, kRelax);
          HLOCK_LOG(kInfo, "node " << self_ << ": peer " << c.peer
                                   << " restarted (epoch " << old_epoch
                                   << " -> " << f.hello_epoch
                                   << "); sequence state reset");
        }
        if (!c.greeted) {
          c.greeted = true;
          // Only a completed handshake proves the link works end to end:
          // reset the dial backoff and account the reconnect here, not at
          // connect time (a proxy fronting a dead listener "connects").
          p.dial.failures = 0;
          if (p.ever_connected) stats_.reconnects.fetch_add(1, kRelax);
          p.ever_connected = true;
        }
        if (inbound_first) {  // inbound link: now we know who dialed us
          register_peer(p, c.fd);
          resend_window(c, p);
          if (c.resend_next != 0) request_flush(c);
        }
        return;
      }
      case ControlOp::kPing:
        return;  // liveness only; last_recv was refreshed by the read loop
      case ControlOp::kAck:
        if (c.peer.valid()) process_ack(c.peer, peers_[c.peer], f.ack_seq);
        return;
      case ControlOp::kViewChange:
      case ControlOp::kViewAck:
        // View-layer traffic; only meaningful from an identified peer.
        // The handler may close connections — do not touch `c` after.
        if (c.peer.valid() && c.greeted && control_handler_)
          control_handler_(c.peer, f);
        return;
    }
    return;
  }
  if (!c.peer.valid()) {
    // Data before hello: this stream cannot be deduplicated. Protocol
    // violation; drop the link (the real peer, if any, will retransmit).
    HLOCK_LOG(kError, "node " << self_ << ": data frame before hello on fd "
                              << c.fd << "; dropping link");
    close_conn(c.fd);
    return;
  }
  Peer& p = peers_[c.peer];
  if (f.ack_seq > 0) {
    // Piggybacked cumulative ack: trim our send window exactly as a
    // standalone kAck would, before dedup/delivery of the frame itself.
    process_ack(c.peer, p, f.ack_seq);
  }
  const std::uint64_t before = p.link.delivered_seq();
  switch (p.link.on_data(f.seq)) {
    case PeerLink::Arrival::kDuplicate:
      return;  // a resend whose first ack died with its connection
    case PeerLink::Arrival::kGap:
      // Only right after this node restarts, when the peer's window
      // continues from its pre-restart numbering.
      HLOCK_LOG(kError, "node " << self_ << ": sequence gap from peer "
                                << c.peer << " (" << before << " -> "
                                << f.seq << ")");
      break;
    case PeerLink::Arrival::kDeliver:
      break;
  }
  delivered_.fetch_add(1, kRelax);
  if (handler_) handler_(f.msg);
}

void TcpNode::close_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection& c = *it->second;
  const NodeId peer = c.peer;
  cancel_ack_timer(c);

  // No salvage needed: everything unacked for this peer is still in its
  // link's window and is resent on the next established connection.
  Peer* p = peer.valid() ? &peers_[peer] : nullptr;
  if (p != nullptr) {
    if (!c.greeted && peer < self_) {
      // The link died before the handshake completed: escalate the
      // backoff, else an accept-then-drop listener induces a redial storm.
      ++p->dial.failures;
    }
    if (p->fd == fd) {
      p->fd = -1;
      connected_peers_.fetch_sub(1, kRelax);
    }
    if (p->dial.fd == fd) p->dial.fd = -1;
  }
  loop_.unwatch(fd);
  ::close(fd);
  conns_.erase(it);

  if (p != nullptr && p->address && peer < self_ &&
      established_conn(peer) == nullptr) {
    // This side owns the dial and no replacement link exists; reconnect so
    // the window drains. (A replacement link, if any, already resent it.)
    schedule_redial(peer);
  }
}

void TcpNode::close_peer_connection(NodeId peer) {
  on_loop([this, peer] {
    const auto it = peers_.find(peer);
    if (it != peers_.end() && it->second.fd >= 0) close_conn(it->second.fd);
  });
}

void TcpNode::arm_heartbeat() {
  Duration tick = 0;
  if (cfg_.heartbeat_interval > 0) {
    tick = cfg_.heartbeat_interval;
  } else if (cfg_.idle_timeout > 0) {
    tick = std::max<Duration>(cfg_.idle_timeout / 4, msec(10));
  }
  if (cfg_.suspect_timeout > 0) {
    // The failure detector piggybacks on this tick; without heartbeats or
    // idle reaping it still needs one, and a coarse heartbeat interval
    // must not make suspicion precision worse than a quarter window.
    const Duration want =
        std::max<Duration>(cfg_.suspect_timeout / 4, msec(10));
    tick = tick > 0 ? std::min(tick, want) : want;
  }
  if (tick <= 0) return;
  loop_.schedule(tick, [this] {
    on_heartbeat();
    arm_heartbeat();
  });
}

void TcpNode::on_heartbeat() {
  const TimePoint t = loop_.now();
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, c] : conns_) fds.push_back(fd);
  for (const int fd : fds) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;  // closed by an earlier iteration
    Connection& c = *it->second;
    if (cfg_.idle_timeout > 0 && t - c.last_recv >= cfg_.idle_timeout) {
      // Half-open peer, a stuck connect, or an inbound link that never
      // said hello: reap it. Dialed links go back through backoff.
      stats_.idle_closes.fetch_add(1, kRelax);
      HLOCK_LOG(kDebug, "node " << self_ << ": idle timeout on fd " << fd
                                << " (peer " << c.peer << ")");
      if (c.connecting) {
        fail_dial(c.peer);
      } else {
        close_conn(fd);
      }
      continue;
    }
    if (!c.connecting && cfg_.heartbeat_interval > 0 &&
        t - c.last_send >= cfg_.heartbeat_interval) {
      stats_.heartbeats_sent.fetch_add(1, kRelax);
      queue_frame(c, ping_frame(), /*control=*/true);
      request_flush(c);  // may close the connection; `c` is not touched after
    }
  }
  if (cfg_.suspect_timeout > 0) check_suspects(t);
}

void TcpNode::check_suspects(TimePoint now) {
  // Fold live connections' receive times into the per-peer record, which
  // outlives any single connection (suspicion is about the peer process,
  // not a link — reconnect churn must not trip it).
  for (const auto& [fd, c] : conns_) {
    if (!c->peer.valid() || c->connecting) continue;
    TimePoint& heard = peers_[c->peer].last_heard;
    heard = std::max(heard, c->last_recv);
  }
  // Only peers in the book are watched; one dropped from it is not. The
  // callback runs after the walk: it may forget a peer, which erases its
  // record, and with it the walk's iterator.
  std::vector<std::pair<NodeId, bool>> flips;
  for (auto& [id, p] : peers_) {
    if (!p.address) continue;
    const bool silent = now - p.last_heard >= cfg_.suspect_timeout;
    if (silent && !p.suspected) {
      p.suspected = true;
      suspected_count_.fetch_add(1, kRelax);
      stats_.peers_suspected.fetch_add(1, kRelax);
      HLOCK_LOG(kInfo, "node " << self_ << ": peer " << id
                               << " suspected after "
                               << (now - p.last_heard) / 1000
                               << " ms of silence");
      flips.emplace_back(id, true);
    } else if (!silent && p.suspected) {
      p.suspected = false;
      suspected_count_.fetch_sub(1, kRelax);
      stats_.suspicions_cleared.fetch_add(1, kRelax);
      HLOCK_LOG(kInfo, "node " << self_ << ": peer " << id
                               << " heard from again; suspicion cleared");
      flips.emplace_back(id, false);
    }
  }
  for (const auto& [id, suspected] : flips)
    if (on_suspect_) on_suspect_(id, suspected);
}

TcpStats TcpNode::stats() const {
  TcpStats s;
  s.dials = stats_.dials.load(kRelax);
  s.connect_failures = stats_.connect_failures.load(kRelax);
  s.connects = stats_.connects.load(kRelax);
  s.accepts = stats_.accepts.load(kRelax);
  s.reconnects = stats_.reconnects.load(kRelax);
  s.frames_out = stats_.frames_out.load(kRelax);
  s.frames_in = stats_.frames_in.load(kRelax);
  s.bytes_out = stats_.bytes_out.load(kRelax);
  s.bytes_in = stats_.bytes_in.load(kRelax);
  s.decode_errors = stats_.decode_errors.load(kRelax);
  s.requeued_frames = stats_.requeued_frames.load(kRelax);
  s.heartbeats_sent = stats_.heartbeats_sent.load(kRelax);
  s.idle_closes = stats_.idle_closes.load(kRelax);
  s.sends_rejected = stats_.sends_rejected.load(kRelax);
  s.outbox_high_water = stats_.outbox_high_water.load(kRelax);
  s.pending_high_water = stats_.pending_high_water.load(kRelax);
  s.batches_written = stats_.batches_written.load(kRelax);
  for (std::size_t i = 0; i < kBatchHistBuckets; ++i)
    s.frames_per_batch[i] = stats_.frames_per_batch[i].load(kRelax);
  s.acks_piggybacked = stats_.acks_piggybacked.load(kRelax);
  s.acks_standalone = stats_.acks_standalone.load(kRelax);
  s.peer_restarts = stats_.peer_restarts.load(kRelax);
  s.peers_suspected = stats_.peers_suspected.load(kRelax);
  s.suspicions_cleared = stats_.suspicions_cleared.load(kRelax);
  return s;
}

std::string to_string(const TcpStats& s) {
  std::ostringstream os;
  os << "dials=" << s.dials << " connect_failures=" << s.connect_failures
     << " connects=" << s.connects << " accepts=" << s.accepts
     << " reconnects=" << s.reconnects << " frames_out=" << s.frames_out
     << " frames_in=" << s.frames_in << " bytes_out=" << s.bytes_out
     << " bytes_in=" << s.bytes_in << " decode_errors=" << s.decode_errors
     << " requeued_frames=" << s.requeued_frames
     << " heartbeats_sent=" << s.heartbeats_sent
     << " idle_closes=" << s.idle_closes
     << " sends_rejected=" << s.sends_rejected
     << " outbox_hw=" << s.outbox_high_water
     << " pending_hw=" << s.pending_high_water
     << " batches_written=" << s.batches_written
     << " fpb1=" << s.frames_per_batch[0]
     << " fpb2_4=" << s.frames_per_batch[1]
     << " fpb5_16=" << s.frames_per_batch[2]
     << " fpb17p=" << s.frames_per_batch[3]
     << " acks_piggybacked=" << s.acks_piggybacked
     << " acks_standalone=" << s.acks_standalone
     << " peer_restarts=" << s.peer_restarts
     << " peers_suspected=" << s.peers_suspected
     << " suspicions_cleared=" << s.suspicions_cleared;
  return os.str();
}

}  // namespace hlock::net
