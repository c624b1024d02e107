#include "msg/message.hpp"

namespace hlock {

const char* to_string(MsgKind k) {
  switch (k) {
    case MsgKind::kRequest: return "request";
    case MsgKind::kGrant: return "grant";
    case MsgKind::kToken: return "token";
    case MsgKind::kRelease: return "release";
    case MsgKind::kFreeze: return "freeze";
    case MsgKind::kNaimiRequest: return "naimi_request";
    case MsgKind::kNaimiToken: return "naimi_token";
    case MsgKind::kAck: return "ack";
    case MsgKind::kReparent: return "reparent";
    case MsgKind::kAttach: return "attach";
    case MsgKind::kHandoff: return "handoff";
  }
  return "?";
}

namespace {

/// Writes the kQueuedRequestBytes at `p`.
void put_queued(std::uint8_t* p, const QueuedRequest& q) {
  store_le(p, q.requester.value);
  p[4] = static_cast<std::uint8_t>(q.mode);
  store_le(p + 5, q.stamp.counter);
  store_le(p + 13, q.stamp.node.value);
  p[17] = q.upgrade ? 1 : 0;
  p[18] = q.priority;
}

QueuedRequest get_queued(ByteReader& r) {
  QueuedRequest q;
  q.requester = NodeId{r.u32()};
  q.mode = static_cast<Mode>(r.u8());
  q.stamp.counter = r.u64();
  q.stamp.node = NodeId{r.u32()};
  const auto upgrade = r.u8();
  if (upgrade > 1) throw DecodeError("bad upgrade flag");
  q.upgrade = upgrade != 0;
  q.priority = r.u8();
  if (static_cast<int>(q.mode) >= kModeCount)
    throw DecodeError("bad mode in queued request");
  return q;
}

}  // namespace

void encode_into(ByteWriter& w, const Message& m) {
  w.u8(static_cast<std::uint8_t>(m.kind));
  w.u32(m.lock.value);
  w.u32(m.from.value);
  put_queued(w.extend(kQueuedRequestBytes), m.req);
  w.u8(static_cast<std::uint8_t>(m.mode));
  w.u8(m.frozen.raw());
  w.u8(static_cast<std::uint8_t>(m.sender_owned));
  w.u32(static_cast<std::uint32_t>(m.queue.size()));
  std::uint8_t* p = w.extend(kQueuedRequestBytes * m.queue.size());
  for (const auto& q : m.queue) {
    put_queued(p, q);
    p += kQueuedRequestBytes;
  }
  w.u64(m.grant_seq);
  w.u64(m.rel_seq);
  w.u32(m.view);
}

std::vector<std::uint8_t> encode(const Message& m) {
  ByteWriter w;
  w.reserve(encoded_size(m));
  encode_into(w, m);
  return w.take();
}

Message decode(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size);
  Message m;
  const auto kind = r.u8();
  if (kind > static_cast<std::uint8_t>(MsgKind::kHandoff))
    throw DecodeError("bad message kind");
  m.kind = static_cast<MsgKind>(kind);
  m.lock = LockId{r.u32()};
  m.from = NodeId{r.u32()};
  m.req = get_queued(r);
  m.mode = static_cast<Mode>(r.u8());
  if (static_cast<int>(m.mode) >= kModeCount) throw DecodeError("bad mode");
  const auto frozen_raw = r.u8();
  if ((frozen_raw & ~0x3fu) != 0) throw DecodeError("bad frozen set");
  m.frozen = ModeSet::from_raw(frozen_raw);
  m.sender_owned = static_cast<Mode>(r.u8());
  if (static_cast<int>(m.sender_owned) >= kModeCount)
    throw DecodeError("bad sender_owned mode");
  const auto n = r.u32();
  // A queue can never exceed the node count; 1M is a generous sanity bound
  // that keeps a corrupt length prefix from allocating gigabytes.
  if (n > 1'000'000) throw DecodeError("unreasonable queue length");
  m.queue.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.queue.push_back(get_queued(r));
  m.grant_seq = r.u64();
  m.rel_seq = r.u64();
  m.view = r.u32();
  if (!r.done()) throw DecodeError("trailing bytes");
  return m;
}

}  // namespace hlock
