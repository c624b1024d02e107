// TcpNode — one protocol participant over real TCP sockets.
//
// Owns an EventLoop (run on a dedicated thread by the caller or
// InProcessCluster), a listening socket, and one connection per peer.
// Peers greet with a one-frame control hello carrying their NodeId and
// boot epoch, so either side may dial and a restarted peer is detected.
// The Transport facade is thread-safe. The loop thread owns all sockets and
// the engine: send(), send_control(), forget_peer() and
// close_peer_connection() run at once when called on it (an engine
// replying from its handler, a view commit) and post onto it from any
// other thread. Either way a caller's calls take effect in program order.
//
// Fault tolerance (all on the loop thread, no extra locking):
//  - dial() is non-blocking; connect() completion/failure is observed via
//    POLLOUT. Refused or dropped connections to a known peer are re-dialed
//    with capped exponential backoff (TcpConfig::reconnect_min/max).
//  - A malformed frame (DecodeError) closes only the offending connection;
//    the process never terminates on peer garbage.
//  - Delivery is one PeerLink per peer (msg/peer_link.hpp), the state
//    machine the simulator runs too: sequence numbers, a send window kept
//    until cumulatively acked and resent on every new connection, receive
//    dedup, and a reset when the peer's hello announces a new epoch. It
//    survives even an RST, which destroys the sender's unsent sndbuf and
//    the receiver's unread rcvbuf: no accepted send() is dropped or
//    duplicated while both processes live.
//  - A heartbeat timer pings idle connections and closes peers that have
//    been silent past idle_timeout (half-open detection). The same
//    deadline bounds a stuck non-blocking connect().
//
// Throughput (the batching/pipelining layer):
//  - Frames are encoded straight into their connection's outbox, one
//    contiguous buffer reused from pass to pass, so a frame costs no heap
//    allocation of its own. A flush sends up to max_batch_bytes (or
//    kMaxBatchFrames frames) per syscall, partial writes carried over,
//    and keeps sending until the outbox drains or the kernel says EAGAIN,
//    so a short write never costs an extra poll round trip. A window
//    resend is queued one kResendChunkBytes chunk per flush.
//  - A send on the loop thread queues its frame at once and puts the
//    connection on the dirty list. The loop's pass-end hook flushes each
//    dirty connection once, after the pass has run everything due and
//    before it polls again, so every frame queued in one pass — a read
//    burst's replies, their zero-delay continuations, sends posted from
//    other threads — leaves in one write. Loop-thread work never goes
//    through the wake pipe.
//  - One readiness event costs one recv() unless the 64 KiB buffer fills:
//    a short read means the socket is drained, and poll is level-triggered.
//  - Under bidirectional load, cumulative acks ride inside queued data
//    frames (piggybacking) instead of spending a standalone kAck frame;
//    a small timer (ack_piggyback_window) bounds how long an ack may wait
//    for a data frame to carry it.
#pragma once

#include <cstdint>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "msg/message.hpp"
#include "msg/peer_link.hpp"
#include "net/event_loop.hpp"
#include "net/framing.hpp"

namespace hlock::net {

struct PeerAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port{0};
};

/// Transport tuning. Durations are virtual-time microseconds (msec()/sec()
/// helpers); 0 disables the corresponding behaviour.
struct TcpConfig {
  /// First re-dial delay after a failed/refused/dropped connection; doubles
  /// per consecutive failure up to reconnect_max.
  Duration reconnect_min{msec(20)};
  Duration reconnect_max{sec(2)};
  /// Send a ping on connections with no outbound traffic for this long.
  /// 0 disables heartbeats (idle peers will then see idle_timeout fire).
  Duration heartbeat_interval{msec(500)};
  /// Close a connection with no inbound traffic for this long (half-open
  /// detection); also bounds a pending non-blocking connect. 0 disables.
  Duration idle_timeout{sec(5)};
  /// Per-peer cap on accepted-but-unacked sends. 0 = unbounded (the
  /// historical behaviour: a dead peer grows its window without limit).
  /// When the peer's window is full, send() returns false and does NOT
  /// enqueue — backpressure for callers that can retry. The Transport
  /// facade cannot retry (engines are callback-driven), so there a
  /// rejected send is dropped and counted in stats().sends_rejected.
  std::size_t send_window_limit{0};
  /// Gather queued frames into one write until the batch reaches this
  /// many bytes (or kMaxBatchFrames frames). 0 disables coalescing: every
  /// write carries exactly one frame (the measurement baseline).
  std::size_t max_batch_bytes{256 * 1024};
  /// Ack piggybacking: instead of answering every read burst with a
  /// standalone kAck control frame, stamp the cumulative ack into a
  /// queued-but-unsent data frame to the same peer, or wait up to this
  /// long for one to be queued before falling back to a standalone ack.
  /// 0 disables piggybacking (every ack is a standalone frame).
  Duration ack_piggyback_window{0};
  /// Failure detection: suspect a peer after this long without hearing
  /// any byte from it (counting from set_peers for peers never heard at
  /// all). Checked on the heartbeat tick, so effective precision is the
  /// tick interval; configure heartbeat_interval well below this. A
  /// suspected peer that speaks again is un-suspected (the detector is
  /// unreliable by design — eventually-perfect, not perfect). 0 disables
  /// suspicion entirely.
  Duration suspect_timeout{0};
};

/// frames_per_batch histogram bucket upper bounds: 1, 2–4, 5–16, ≥17.
inline constexpr std::size_t kBatchHistBuckets = 4;

/// Monotonic transport counters (snapshot; see TcpNode::stats()).
struct TcpStats {
  std::uint64_t dials{0};             ///< connect() attempts started
  std::uint64_t connect_failures{0};  ///< refused/failed/timed-out dials
  std::uint64_t connects{0};          ///< established outbound connections
  std::uint64_t accepts{0};           ///< established inbound connections
  std::uint64_t reconnects{0};        ///< re-established links to a peer
  std::uint64_t frames_out{0};        ///< frames fully written to the wire
  std::uint64_t frames_in{0};         ///< frames decoded (incl. control)
  std::uint64_t bytes_out{0};
  std::uint64_t bytes_in{0};
  std::uint64_t decode_errors{0};     ///< malformed frames (conn dropped)
  std::uint64_t requeued_frames{0};   ///< unacked frames retransmitted
  std::uint64_t heartbeats_sent{0};
  std::uint64_t idle_closes{0};       ///< conns closed by idle_timeout
  std::uint64_t sends_rejected{0};    ///< send() refusals (window cap hit)
  std::uint64_t outbox_high_water{0}; ///< max queued-unsent bytes, one conn
  std::uint64_t pending_high_water{0};///< max unacked frames, all peers
  std::uint64_t batches_written{0};   ///< batch writes that made progress
  /// Frames gathered per successful batch write: buckets 1, 2–4, 5–16, ≥17.
  std::uint64_t frames_per_batch[kBatchHistBuckets]{};
  std::uint64_t acks_piggybacked{0};  ///< acks carried inside data frames
  std::uint64_t acks_standalone{0};   ///< standalone kAck frames queued
  std::uint64_t peer_restarts{0};     ///< hello epoch changes observed
  std::uint64_t peers_suspected{0};   ///< suspicion transitions (silence)
  std::uint64_t suspicions_cleared{0};///< suspected peers heard from again
};

class TcpNode {
 public:
  /// Listens on 127.0.0.1:`port` (0 = ephemeral; see listen_port()).
  explicit TcpNode(NodeId self, std::uint16_t port = 0, TcpConfig cfg = {});
  ~TcpNode();
  TcpNode(const TcpNode&) = delete;
  TcpNode& operator=(const TcpNode&) = delete;

  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] std::uint16_t listen_port() const { return listen_port_; }
  [[nodiscard]] EventLoop& loop() { return loop_; }
  [[nodiscard]] const TcpConfig& config() const { return cfg_; }
  /// This process's boot epoch (nonzero, announced in the hello frame).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Provide the address book. Only peers with id < self() are dialed
  /// (the higher id accepts), which yields exactly one connection per
  /// pair. A peer dropped from the book is no longer dialed or watched by
  /// the failure detector; its send window and dedup state stay. Call
  /// from any thread before or after the loop starts.
  void set_peers(std::map<NodeId, PeerAddress> peers);

  /// Handler invoked on the loop thread for every received message.
  void set_handler(std::function<void(const Message&)> fn);

  /// Failure-detector callback, invoked on the loop thread whenever a
  /// peer's suspicion state flips: `suspected` true after suspect_timeout
  /// of silence, false when a suspected peer is heard from again. Requires
  /// TcpConfig::suspect_timeout > 0.
  void set_on_peer_suspected(std::function<void(NodeId, bool)> fn);

  /// Handler for view-change control frames (ControlOp::kViewChange /
  /// kViewAck), invoked on the loop thread with the sending peer. Frames
  /// from connections that have not completed the hello handshake are
  /// dropped (the sender retries).
  void set_control_handler(
      std::function<void(NodeId, const DecodedFrame&)> fn);

  /// Best-effort control-frame send: queue `bytes` (a complete control
  /// frame, e.g. view_change_frame()) on the established connection to
  /// `to`, or drop it (kicking a re-dial) when none exists. Control frames
  /// bypass the send windows — callers that need reliability retry on a
  /// timer, which is exactly what the view coordinator does.
  void send_control(NodeId to, std::vector<std::uint8_t> bytes);

  /// Administrative removal of a peer (e.g. declared dead by a view
  /// change): close its connections, cancel re-dials, and erase its whole
  /// record — address-book entry, send window, receive-dedup state — so
  /// unacked() can drain and a later incarnation starts fresh. Frames
  /// queued for the peer are lost by design — it is dead.
  void forget_peer(NodeId peer);

  /// Peers currently suspected by the failure detector.
  [[nodiscard]] std::size_t suspected_peers() const {
    return suspected_count_.load(std::memory_order_relaxed);
  }

  /// Thread-safe Transport: enqueue a message to a peer.
  class NodeTransport final : public Transport {
   public:
    explicit NodeTransport(TcpNode& node) : node_(node) {}
    void send(NodeId to, Message m) override {
      // Engines cannot retry from a callback, so a window-cap rejection
      // here is a drop (already counted in stats().sends_rejected). Run
      // protocol traffic with send_window_limit = 0 unless the workload
      // tolerates message loss.
      (void)node_.send(to, std::move(m));
    }

   private:
    TcpNode& node_;
  };
  [[nodiscard]] Transport& transport() { return transport_; }

  /// Enqueue `m` for delivery to `to`. An accepted send (return true)
  /// never fails afterwards: the frame joins the peer's send window
  /// (retransmitted across connection churn until acked) and a (re)dial
  /// is kicked off when this node is the dialing side. Returns false —
  /// and enqueues nothing — only when TcpConfig::send_window_limit > 0
  /// and that peer already has that many accepted-but-unacked sends
  /// (would-block backpressure; retry after the window drains).
  bool send(NodeId to, Message m);

  /// Messages delivered so far (loop thread increments; approximate from
  /// other threads).
  [[nodiscard]] std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

  /// Peers with an established (hello-capable) connection right now.
  [[nodiscard]] std::size_t connected_peers() const {
    return connected_peers_.load(std::memory_order_relaxed);
  }

  /// Accepted sends not yet acked by their peer, across all windows (0
  /// means every accepted send has provably been delivered).
  [[nodiscard]] std::size_t unacked() const {
    return unacked_frames_.load(std::memory_order_relaxed);
  }

  /// Snapshot of the transport counters. Thread-safe; exact once the loop
  /// has stopped, approximate while it runs.
  [[nodiscard]] TcpStats stats() const;

  /// Fault-injection/admin hook: close the connection to `peer` (if any),
  /// at once on the loop thread, else from a posted task. Unacked frames
  /// are retransmitted on the next connection exactly as if the link had
  /// died.
  void close_peer_connection(NodeId peer);

 private:
  /// Cap on frames per batch write.
  static constexpr int kMaxBatchFrames = 64;
  /// Cap on 64 KiB recv() calls per readiness event (see on_conn_event).
  static constexpr int kMaxReadsPerEvent = 16;
  /// A window resend is encoded into the outbox this many bytes at a time
  /// as it drains, so a large window never stalls the loop. An outbox
  /// that grew past twice this much gives its storage back once drained.
  static constexpr std::size_t kResendChunkBytes = 256 * 1024;

  /// One frame in a connection outbox: where its bytes sit in
  /// Connection::out. Each (re)send of a data frame is encoded fresh from
  /// the link's window, and a piggybacked ack is stamped only into these
  /// bytes, so it never rides along into a resend — where, after the peer
  /// restarts, it would trim the new incarnation's window.
  struct OutFrame {
    std::size_t begin{0};  ///< offset of its first byte in Connection::out
    std::size_t size{0};
    bool control{false};
  };

  struct Connection {
    int fd{-1};
    std::uint64_t serial{0};  ///< unique per node; tells a reused fd apart
    NodeId peer{};           ///< invalid until hello received (inbound)
    bool connecting{false};  ///< non-blocking connect() still in flight
    bool greeted{false};     ///< peer's hello received on this connection
    /// Next window seq a resend still has to queue; 0 = none pending.
    /// While one is pending, new sends wait in the window behind it.
    std::uint64_t resend_next{0};
    FrameDecoder decoder;
    /// Pending output: the frames' bytes back to back in `out`, described
    /// oldest first by frames[head..]. The first front_pos bytes of
    /// frames[head] are already sent. Both vectors are emptied, keeping
    /// their capacity, whenever the outbox drains.
    std::vector<std::uint8_t> out;
    std::vector<OutFrame> frames;
    std::size_t head{0};
    std::size_t front_pos{0};
    std::size_t outbox_bytes{0};  ///< total unsent bytes across frames
    bool dirty{false};            ///< on the dirty list (flushed at pass end)
    bool watching_write{false};   ///< the loop watch includes POLLOUT
    bool ack_timer_pending{false};  ///< piggyback fallback timer armed
    std::uint64_t ack_timer_id{0};
    TimePoint last_recv{0};  ///< loop().now() of last inbound byte
    TimePoint last_send{0};  ///< loop().now() of last outbound byte
  };

  /// Re-dial bookkeeping for peers this node dials (peer < self_).
  struct DialState {
    std::uint32_t failures{0};   ///< consecutive failures (backoff exponent)
    bool timer_pending{false};   ///< a backoff re-dial timer is queued
    std::uint64_t timer_id{0};
    int fd{-1};                  ///< in-flight connecting fd, -1 if none
  };

  /// Everything this node keeps about one peer (loop-confined). A record
  /// outlives every connection to the peer; only forget_peer erases it.
  struct Peer {
    /// Address-book entry: present means "in the book" — dialed when this
    /// side owns the dial, and watched by the failure detector.
    std::optional<PeerAddress> address;
    int fd{-1};  ///< established connection, -1 if none
    DialState dial;
    PeerLink link;  ///< delivery state; the window grows while it is down
    bool ever_connected{false};  ///< greeted before: the next is a reconnect
    /// Failure detector: last time any byte was heard from the peer,
    /// seeded when it enters the book so a peer that never connects is
    /// suspected after one full suspect_timeout.
    TimePoint last_heard{0};
    bool suspected{false};
  };

  /// Run `fn` now when called on the loop thread, else post it there.
  template <typename Fn>
  void on_loop(Fn fn) {
    if (loop_.on_loop_thread()) {
      fn();
    } else {
      loop_.post(std::move(fn));
    }
  }

  void on_listen_ready();
  void on_conn_event(int fd, std::uint32_t revents);
  void on_connect_ready(int fd, std::uint32_t revents);
  void flush(Connection& c);
  void flush_dirty();
  void compact_outbox(Connection& c);
  void watch_conn(Connection& c, bool want_write);
  void close_conn(int fd);
  Connection* established_conn(NodeId peer);
  void start_dial(NodeId peer);
  void fail_dial(NodeId peer);
  void schedule_redial(NodeId peer);
  void maybe_dial(NodeId peer);
  void established(Connection& c, bool outbound);
  void register_peer(Peer& p, int fd);
  void resend_window(Connection& c, Peer& p);
  void continue_resend(Connection& c);
  void queue_frame(Connection& c, const std::vector<std::uint8_t>& bytes,
                   bool control = false);
  void push_frame(Connection& c, std::size_t begin, bool control);
  void queue_data(Connection& c, PeerLink& link,
                  const PeerLink::Pending& entry);
  PeerLink* link_of(const Connection& c);
  void request_flush(Connection& c);
  void handle_frame(Connection& c, const DecodedFrame& f);
  void process_ack(NodeId id, Peer& p, std::uint64_t ack_seq);
  void queue_standalone_ack(Connection& c, PeerLink& link);
  bool try_stamp_queued_ack(Connection& c, PeerLink& link);
  void arm_ack_timer(Connection& c);
  void cancel_ack_timer(Connection& c);
  void arm_heartbeat();
  void on_heartbeat();
  void check_suspects(TimePoint now);

  const NodeId self_;
  const TcpConfig cfg_;
  const std::uint64_t epoch_;
  EventLoop loop_;
  NodeTransport transport_;
  int listen_fd_{-1};
  std::uint16_t listen_port_{0};
  /// The one NodeId-keyed table. A map, not a vector indexed by id: an
  /// inbound hello may claim any NodeId, and must not size the table.
  std::map<NodeId, Peer> peers_;
  std::map<int, std::unique_ptr<Connection>> conns_;  ///< by fd
  std::uint64_t conn_serial_{0};  ///< last Connection::serial handed out
  /// Connections to flush at the end of this loop pass, as (fd, serial):
  /// one may close in the pass and its fd be reused by a new one.
  std::vector<std::pair<int, std::uint64_t>> dirty_;
  /// Total entries across all peers' link windows (loop thread writes, any
  /// thread reads via unacked()).
  std::atomic<std::size_t> unacked_frames_{0};
  /// Would-block accounting for send_window_limit: accepted-but-unacked
  /// sends per peer. Mutex-guarded (not loop-confined like Peer::link)
  /// because send() must check-and-reserve from the caller's thread while
  /// the ack handler trims on the loop thread. Untouched when the limit
  /// is 0.
  std::mutex window_mu_;
  std::map<NodeId, std::size_t> window_pending_;
  std::function<void(const Message&)> handler_;
  std::function<void(NodeId, bool)> on_suspect_;
  std::function<void(NodeId, const DecodedFrame&)> control_handler_;
  std::atomic<std::size_t> suspected_count_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::size_t> connected_peers_{0};

  /// Loop thread writes (relaxed), any thread reads via stats().
  struct StatCounters {
    std::atomic<std::uint64_t> dials{0};
    std::atomic<std::uint64_t> connect_failures{0};
    std::atomic<std::uint64_t> connects{0};
    std::atomic<std::uint64_t> accepts{0};
    std::atomic<std::uint64_t> reconnects{0};
    std::atomic<std::uint64_t> frames_out{0};
    std::atomic<std::uint64_t> frames_in{0};
    std::atomic<std::uint64_t> bytes_out{0};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> decode_errors{0};
    std::atomic<std::uint64_t> requeued_frames{0};
    std::atomic<std::uint64_t> heartbeats_sent{0};
    std::atomic<std::uint64_t> idle_closes{0};
    std::atomic<std::uint64_t> sends_rejected{0};
    std::atomic<std::uint64_t> outbox_high_water{0};
    std::atomic<std::uint64_t> pending_high_water{0};
    std::atomic<std::uint64_t> batches_written{0};
    std::atomic<std::uint64_t> frames_per_batch[kBatchHistBuckets]{};
    std::atomic<std::uint64_t> acks_piggybacked{0};
    std::atomic<std::uint64_t> acks_standalone{0};
    std::atomic<std::uint64_t> peer_restarts{0};
    std::atomic<std::uint64_t> peers_suspected{0};
    std::atomic<std::uint64_t> suspicions_cleared{0};
  } stats_;
};

/// One stats line, e.g. for process-exit reporting:
/// `dials=3 connect_failures=1 ... peer_restarts=0`.
std::string to_string(const TcpStats& s);

}  // namespace hlock::net
