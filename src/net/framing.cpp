#include "net/framing.hpp"

#include <cstring>
#include <utility>

namespace hlock::net {

void append_frame(std::vector<std::uint8_t>& out, const Message& m,
                  std::uint64_t seq, std::uint64_t ack) {
  // Prefix, sequence number, ack slot and payload go into one buffer
  // (ByteWriter::u32 is little-endian, matching the prefix FrameDecoder
  // expects). Every frame is emitted in the v2 layout: the ack slot is
  // always present so TcpNode can stamp a cumulative ack into a queued
  // frame in place (kAckFieldOffset) without re-encoding.
  const std::size_t payload = encoded_size(m);
  ByteWriter w(std::move(out));
  w.u32(static_cast<std::uint32_t>(payload + 16) | kAckFlagBit);
  w.u64(seq);
  w.u64(ack);
  encode_into(w, m);
  out = w.take();
}

std::vector<std::uint8_t> frame(const Message& m, std::uint64_t seq,
                                std::uint64_t ack) {
  // encoded_size() is exact, so a lone frame costs a single allocation.
  std::vector<std::uint8_t> out;
  out.reserve(encoded_size(m) + 20);
  append_frame(out, m, seq, ack);
  return out;
}

std::vector<std::uint8_t> hello_frame(NodeId self, std::uint64_t epoch) {
  ByteWriter w;
  w.reserve(4 + 1 + 4 + 8);
  w.u32(kControlFrameBit | 13u);
  w.u8(static_cast<std::uint8_t>(ControlOp::kHello));
  w.u32(self.value);
  w.u64(epoch);
  return w.take();
}

std::vector<std::uint8_t> ping_frame() {
  ByteWriter w;
  w.reserve(4 + 1);
  w.u32(kControlFrameBit | 1u);
  w.u8(static_cast<std::uint8_t>(ControlOp::kPing));
  return w.take();
}

std::vector<std::uint8_t> ack_frame(std::uint64_t seq) {
  ByteWriter w;
  w.reserve(4 + 1 + 8);
  w.u32(kControlFrameBit | 9u);
  w.u8(static_cast<std::uint8_t>(ControlOp::kAck));
  w.u64(seq);
  return w.take();
}

std::vector<std::uint8_t> view_change_frame(
    std::uint8_t phase, std::uint32_t view,
    const std::vector<NodeId>& survivors) {
  const std::uint32_t body =
      1 + 1 + 4 + 4 + 4 * static_cast<std::uint32_t>(survivors.size());
  ByteWriter w;
  w.reserve(4 + body);
  w.u32(kControlFrameBit | body);
  w.u8(static_cast<std::uint8_t>(ControlOp::kViewChange));
  w.u8(phase);
  w.u32(view);
  w.u32(static_cast<std::uint32_t>(survivors.size()));
  for (const NodeId n : survivors) w.u32(n.value);
  return w.take();
}

std::vector<std::uint8_t> view_ack_frame(std::uint8_t phase,
                                         std::uint32_t view) {
  ByteWriter w;
  w.reserve(4 + 1 + 1 + 4);
  w.u32(kControlFrameBit | 6u);
  w.u8(static_cast<std::uint8_t>(ControlOp::kViewAck));
  w.u8(phase);
  w.u32(view);
  return w.take();
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  buf_.insert(buf_.end(), data, data + size);
}

void FrameDecoder::compact() {
  // Reclaim consumed prefix once it dominates the buffer.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

bool FrameDecoder::next_frame(DecodedFrame& out) {
  if (buffered() < 4) return false;
  const std::uint8_t* p = buf_.data() + pos_;
  const std::uint32_t prefix = static_cast<std::uint32_t>(p[0]) |
                               (static_cast<std::uint32_t>(p[1]) << 8) |
                               (static_cast<std::uint32_t>(p[2]) << 16) |
                               (static_cast<std::uint32_t>(p[3]) << 24);
  const bool control = (prefix & kControlFrameBit) != 0;
  const std::uint32_t len = prefix & kLengthMask;
  if (control) {
    if ((prefix & kAckFlagBit) != 0)
      throw DecodeError("ack flag on control frame");
    if (len == 0 || len > kMaxControlBytes)
      throw DecodeError("bad control frame length");
  } else if (len > kMaxFrameBytes) {
    throw DecodeError("oversized frame");
  }
  if (buffered() < 4 + static_cast<std::size_t>(len)) return false;
  // `out` may be reused across next_frame calls; clear the fields only
  // some frame kinds set, so no frame inherits a previous frame's values.
  out.ack_seq = 0;
  out.view_phase = 0;
  out.view_id = 0;
  out.view_members.clear();
  if (control) {
    ByteReader r(p + 4, len);
    const auto op = r.u8();
    switch (static_cast<ControlOp>(op)) {
      case ControlOp::kHello:
        out.hello_node = NodeId{r.u32()};
        out.hello_epoch = r.u64();  // throws on a 4-byte (epoch-less) body
        if (out.hello_epoch == 0) throw DecodeError("hello with epoch 0");
        break;
      case ControlOp::kPing:
        break;
      case ControlOp::kAck:
        out.ack_seq = r.u64();
        break;
      case ControlOp::kViewChange: {
        out.view_phase = r.u8();
        if (out.view_phase > kViewCommit)
          throw DecodeError("bad view-change phase");
        out.view_id = r.u32();
        const std::uint32_t n = r.u32();
        // The length check already bounds n via kMaxControlBytes; this
        // guards against a count field that disagrees with the length.
        if (static_cast<std::size_t>(n) * 4 != r.remaining())
          throw DecodeError("view-change member count mismatch");
        out.view_members.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i)
          out.view_members.push_back(NodeId{r.u32()});
        break;
      }
      case ControlOp::kViewAck:
        out.view_phase = r.u8();
        if (out.view_phase > kViewCommit)
          throw DecodeError("bad view-ack phase");
        out.view_id = r.u32();
        break;
      default:
        throw DecodeError("unknown control op");
    }
    if (!r.done()) throw DecodeError("trailing bytes in control frame");
    out.control = true;
    out.op = static_cast<ControlOp>(op);
  } else {
    if ((prefix & kAckFlagBit) == 0)
      throw DecodeError("data frame without ack field");
    constexpr std::uint32_t header = 16;
    if (len < header) throw DecodeError("data frame too short for header");
    ByteReader r(p + 4, header);
    out.seq = r.u64();
    out.ack_seq = r.u64();
    out.msg = decode(p + 4 + header, len - header);
    out.control = false;
  }
  pos_ += 4 + len;
  compact();
  return true;
}

bool FrameDecoder::next(Message& out) {
  DecodedFrame f;
  if (!next_frame(f)) return false;
  if (f.control) throw DecodeError("unexpected control frame");
  out = std::move(f.msg);
  return true;
}

}  // namespace hlock::net
