// Stream framing for the TCP transport: each frame is a 4-byte little-
// endian prefix followed by a payload. The prefix's top bits select the
// frame class:
//
//   bit 31 clear — protocol frame: bit 30 (kAckFlagBit) must be set, the
//     low 30 bits are the payload length (capped at kMaxFrameBytes), and
//     the payload is a u64 per-peer sequence number, a u64 piggybacked
//     cumulative ack (0 means "no ack information", since real sequence
//     numbers start at 1), then an encode()d Message. The sequence number
//     lets the receiver deduplicate retransmissions after a connection
//     dies (TCP alone cannot give exactly-once across an abortive close:
//     an RST discards both the sender's untransmitted sndbuf and the
//     receiver's unread rcvbuf). The piggybacked ack lets a node under
//     bidirectional load acknowledge delivery without spending a
//     standalone kAck frame.
//   bit 31 set — transport control frame: payload is a 1-byte ControlOp
//     plus an op-specific body (hello carries the sender's NodeId and its
//     nonzero boot epoch, ping is empty, ack carries a cumulative sequence
//     number). Control frames never reach the protocol engines, so a
//     handshake can never collide with a real lock id.
//
// This is wire version 2, the only one: a data frame without kAckFlagBit
// or a hello without a nonzero epoch is a DecodeError.
//
// The decoder is incremental — feed it whatever recv() returned and
// collect complete frames.
#pragma once

#include <cstdint>
#include <vector>

#include "msg/message.hpp"

namespace hlock::net {

/// Hard cap on a single protocol frame; a TOKEN message carrying a full
/// queue for hundreds of nodes stays far below this.
inline constexpr std::uint32_t kMaxFrameBytes = 16 * 1024 * 1024;

/// Length-prefix bit marking a transport control frame.
inline constexpr std::uint32_t kControlFrameBit = 0x8000'0000u;

/// Length-prefix bit every data frame carries: it marks the piggybacked
/// cumulative ack (u64, after the sequence number).
inline constexpr std::uint32_t kAckFlagBit = 0x4000'0000u;

/// The length field of a prefix (both flag bits masked off).
inline constexpr std::uint32_t kLengthMask =
    ~(kControlFrameBit | kAckFlagBit);

/// Byte offset of the piggybacked ack inside a data frame (4-byte
/// prefix + 8-byte sequence number). TcpNode stamps the current
/// cumulative ack into already-encoded frames at this offset.
inline constexpr std::size_t kAckFieldOffset = 12;

/// Control payloads are small; anything larger is a corrupt stream. The
/// cap admits a view-change frame listing ~250 survivors (10 + 4·n bytes)
/// while still rejecting runaway lengths instantly.
inline constexpr std::uint32_t kMaxControlBytes = 1024;

/// Transport-level control opcodes (first payload byte of a control frame).
enum class ControlOp : std::uint8_t {
  kHello = 1,  ///< body: u32 sender NodeId, u64 epoch — handshake
  kPing = 2,   ///< body: empty — heartbeat/keepalive
  kAck = 3,    ///< body: u64 — cumulative ack of delivered sequence numbers
  /// body: u8 phase (kViewPropose|kViewCommit), u32 view, u32 count,
  /// count × u32 survivor NodeIds — one phase of a view-change round,
  /// coordinator -> survivor.
  kViewChange = 4,
  /// body: u8 phase, u32 view — survivor -> coordinator acknowledgement
  /// of the matching kViewChange phase.
  kViewAck = 5,
};

/// kViewChange / kViewAck phase byte values.
inline constexpr std::uint8_t kViewPropose = 0;
inline constexpr std::uint8_t kViewCommit = 1;

/// Serialize one message into a ready-to-send protocol frame carrying the
/// per-peer sequence number `seq` (the receiver delivers each sequence
/// number at most once; 0 is fine for decoder-only uses) and the
/// piggybacked cumulative ack `ack` (0 = no ack information).
std::vector<std::uint8_t> frame(const Message& m, std::uint64_t seq = 0,
                                std::uint64_t ack = 0);

/// Append the frame() bytes to `out`, reusing its capacity: TcpNode
/// encodes straight into a connection's outbox.
void append_frame(std::vector<std::uint8_t>& out, const Message& m,
                  std::uint64_t seq, std::uint64_t ack);

/// Build the handshake control frame carrying `self` and this process's
/// boot `epoch` (nonzero; lets the peer detect a restart and reset its
/// per-peer sequence/dedup state).
std::vector<std::uint8_t> hello_frame(NodeId self, std::uint64_t epoch);

/// Build an empty heartbeat control frame.
std::vector<std::uint8_t> ping_frame();

/// Build a cumulative-ack control frame: every data frame with sequence
/// number <= `seq` has been delivered.
std::vector<std::uint8_t> ack_frame(std::uint64_t seq);

/// Build one phase of a view-change round: the coordinator's proposal
/// (`phase` == kViewPropose) or commit (kViewCommit) of `view` with the
/// given survivor set. `survivors` must be sorted ascending (the first
/// entry doubles as the coordinator / new root on the receiving side).
std::vector<std::uint8_t> view_change_frame(std::uint8_t phase,
                                            std::uint32_t view,
                                            const std::vector<NodeId>& survivors);

/// Build a survivor's acknowledgement of a view-change phase.
std::vector<std::uint8_t> view_ack_frame(std::uint8_t phase,
                                         std::uint32_t view);

/// One decoded frame: either a protocol Message or a control frame.
struct DecodedFrame {
  bool control{false};
  Message msg{};                   ///< valid when !control
  std::uint64_t seq{0};            ///< valid when !control
  ControlOp op{ControlOp::kPing};  ///< valid when control
  NodeId hello_node{};             ///< valid when control && op == kHello
  std::uint64_t hello_epoch{0};    ///< valid when op == kHello; nonzero
  /// Cumulative ack: the kAck body, or a data frame's piggybacked value
  /// (0 there means "no ack information").
  std::uint64_t ack_seq{0};
  /// View-change fields, valid when op is kViewChange or kViewAck.
  std::uint8_t view_phase{0};       ///< kViewPropose or kViewCommit
  std::uint32_t view_id{0};         ///< proposed/committed view number
  std::vector<NodeId> view_members; ///< survivor list (kViewChange only)
};

/// Incremental frame decoder (one per connection).
class FrameDecoder {
 public:
  /// Append raw bytes from the stream.
  void feed(const std::uint8_t* data, std::size_t size);

  /// Extract the next complete frame, if any. Throws DecodeError on a
  /// malformed frame (oversized length, unknown control op, bad payload) —
  /// the stream is unrecoverable past that point and the connection must
  /// be dropped.
  bool next_frame(DecodedFrame& out);

  /// Message-only convenience for streams that carry no control frames
  /// (codec tests); throws DecodeError if a control frame arrives.
  bool next(Message& out);

  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  void compact();

  std::vector<std::uint8_t> buf_;
  std::size_t pos_{0};
};

}  // namespace hlock::net
