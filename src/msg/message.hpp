// Wire messages for both protocols.
//
// The paper's protocol (src/core) uses five message types — REQUEST, GRANT
// (copy grant), TOKEN (token transfer), RELEASE and FREEZE — exactly the
// categories broken out in Figure 7. The Naimi/Trehel baseline (src/naimi)
// uses its own REQUEST/TOKEN pair. One flat struct carries every kind so
// the simulated and TCP transports can stay protocol-agnostic; the codec
// (encode/decode) only serializes the fields meaningful for each kind.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/lamport.hpp"
#include "common/types.hpp"
#include "core/mode.hpp"

namespace hlock {

enum class MsgKind : std::uint8_t {
  // --- hierarchical locking service (the paper's protocol) ---
  kRequest = 0,  ///< lock request, forwarded along parent chain
  kGrant = 1,    ///< copy grant: requester becomes child of granter
  kToken = 2,    ///< token transfer: requester becomes the new root
  kRelease = 3,  ///< child -> parent: owned mode weakened (Rule 5.2)
  kFreeze = 4,   ///< root/parent -> child: replacement frozen-mode set
  // --- Naimi/Trehel/Arnold baseline ---
  kNaimiRequest = 5,
  kNaimiToken = 6,
  // --- the simulator's delivery layer (sim::LinkLayer running PeerLink):
  // cumulative ack in rel_seq; never reaches the protocol engines. TCP
  // carries acks in its framing instead ---
  kAck = 7,
  // --- dynamic membership (HlsEngine::leave) ---
  kReparent = 8,  ///< leaver -> child: re-attach to req.requester
  kAttach = 9,    ///< child -> new parent: adopt me, I own `mode`
  kHandoff = 10,  ///< leaver -> successor: unsolicited token + queue
};

/// Number of distinct MsgKind values (array-counter dimension).
inline constexpr std::size_t kMsgKindCount = 11;

const char* to_string(MsgKind k);

/// A lock request waiting in some node's local queue. Requests carry
/// Lamport stamps so queues merged on token transfer preserve global FIFO.
struct QueuedRequest {
  NodeId requester{};
  Mode mode{Mode::kNone};
  LamportStamp stamp{};
  /// Rule 7: the requester already holds U and is upgrading to W; its own
  /// subtree's contribution to the owned mode must be discounted.
  bool upgrade{false};
  /// Priority arbitration (extension following Mueller [11,12], enabled by
  /// EngineOptions::enable_priorities): higher values are served first,
  /// FIFO by Lamport stamp within a priority level.
  std::uint8_t priority{0};

  friend bool operator==(const QueuedRequest&, const QueuedRequest&) = default;
};

/// Queue order under priority arbitration: priority desc, then stamp.
inline bool priority_before(const QueuedRequest& a, const QueuedRequest& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  return a.stamp < b.stamp;
}

/// One protocol message. `lock` scopes the message to a single token tree;
/// a multi-lock node demultiplexes on it.
struct Message {
  MsgKind kind{MsgKind::kRequest};
  LockId lock{};
  NodeId from{};  ///< immediate sender (not the originator)

  // kRequest / queue entries
  QueuedRequest req{};

  /// kGrant: granted mode. kToken: mode granted to the new root.
  /// kRelease: the child's NEW owned mode (may be kNone).
  Mode mode{Mode::kNone};

  /// kFreeze and kGrant: the sender's current frozen set (full replacement).
  ModeSet frozen{};

  /// kToken: mode the old token node still owns after the transfer; if not
  /// kNone the old root becomes a child of the new root with this mode.
  Mode sender_owned{Mode::kNone};

  /// kToken: the old root's local queue, shipped with the token.
  std::vector<QueuedRequest> queue{};

  /// PeerLink sequence number on the simulator's lossy network
  /// (sim::LinkLayer): the data message's per-link seq, or on kAck the
  /// cumulative ack. Always 0 over TCP, whose frames carry both.
  std::uint64_t rel_seq{0};

  /// Recovery view (epoch): bumped by HlsEngine::begin_recovery after a
  /// crash; engines drop messages from other views (fencing — a stale
  /// pre-crash token must never resurface in the rebuilt tree).
  std::uint32_t view{0};

  /// Grant-sequence number for the (parent, child) relationship.
  /// kGrant: the parent's count of grants sent to this child (the child
  /// adopts it). kRelease: the child's count of grants received from this
  /// parent — the parent drops the release as stale if it has sent more
  /// grants than the child had seen, which is exactly the
  /// release-crosses-grant race. kToken/kHandoff (which never used this
  /// field) reuse it to carry the locality-bias bypass streak so the
  /// fairness cap (EngineOptions::locality_fairness_cap) bounds out-of-
  /// order services globally, across token transfers, with no wire-format
  /// change; it stays 0 when the bias is off.
  std::uint64_t grant_seq{0};

  friend bool operator==(const Message&, const Message&) = default;
};

/// Wire size of the fixed (non-queue) part of every encoded Message.
inline constexpr std::size_t kMessageFixedBytes = 55;
/// Wire size of one QueuedRequest entry.
inline constexpr std::size_t kQueuedRequestBytes = 19;

/// Exact value of encode(m).size(), computed arithmetically — the codec
/// is fixed-width except for the queue, so no serialization is needed to
/// account wire bytes. A fuzz test cross-checks this against encode().
inline std::size_t encoded_size(const Message& m) {
  return kMessageFixedBytes + kQueuedRequestBytes * m.queue.size();
}

/// Serialize to a self-contained frame (no outer length prefix).
std::vector<std::uint8_t> encode(const Message& m);
/// Append the encoding of `m` to `w` (exactly encoded_size(m) bytes); the
/// TCP framing layer uses this to build length-prefixed frames in one
/// buffer.
void encode_into(ByteWriter& w, const Message& m);
/// Parse a frame produced by encode(). Throws DecodeError on malformed
/// input (including trailing garbage).
Message decode(const std::uint8_t* data, std::size_t size);
inline Message decode(const std::vector<std::uint8_t>& buf) {
  return decode(buf.data(), buf.size());
}

/// Abstract one-way message channel a protocol engine sends through.
/// Implementations: sim::SimTransport (virtual time) and net::TcpTransport.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Queue `m` for delivery to `to`. Must not re-enter the engine
  /// synchronously (delivery happens on a later event). Takes the message
  /// by value so senders can move it all the way into the delivery event.
  virtual void send(NodeId to, Message m) = 0;

  /// Borrow an empty buffer to build a Message::queue in. Transports that
  /// recycle delivered messages (the simulator) hand back a drained
  /// vector with its capacity intact, so shipping a queue allocates
  /// nothing in steady state; the default is a fresh vector.
  virtual std::vector<QueuedRequest> acquire_queue_buffer() { return {}; }
};

}  // namespace hlock
