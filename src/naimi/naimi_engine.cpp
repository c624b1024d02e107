#include "naimi/naimi_engine.hpp"

#include <stdexcept>
#include <utility>

namespace hlock::naimi {

NaimiEngine::NaimiEngine(LockId lock, NodeId self, NodeId initial_token_holder,
                         Transport& transport, NaimiCallbacks callbacks)
    : lock_(lock),
      self_(self),
      transport_(transport),
      callbacks_(std::move(callbacks)),
      father_(self == initial_token_holder ? NodeId::invalid()
                                           : initial_token_holder),
      has_token_(self == initial_token_holder) {
  if (!self.valid() || !initial_token_holder.valid())
    throw std::invalid_argument("invalid node id");
}

void NaimiEngine::send(NodeId to, Message m) {
  m.lock = lock_;
  m.from = self_;
  transport_.send(to, std::move(m));
}

RequestId NaimiEngine::request() {
  const RequestId id{(static_cast<std::uint64_t>(self_.value) << 32) |
                     next_request_++};
  if (requesting_ || waiting_) {
    backlog_.push_back(id);
  } else {
    start_request(id);
  }
  return id;
}

void NaimiEngine::start_request(RequestId id) {
  requesting_ = true;
  if (!father_.valid()) {
    // We are the root and idle: the token is already here.
    enter_cs(id);
    return;
  }
  waiting_ = id;
  Message m;
  m.kind = MsgKind::kNaimiRequest;
  m.req.requester = self_;
  send(father_, std::move(m));
  father_ = NodeId::invalid();  // we will be the root once served
}

void NaimiEngine::enter_cs(RequestId id) {
  current_ = id;
  waiting_.reset();
  if (callbacks_.on_acquired) callbacks_.on_acquired(id);
}

void NaimiEngine::release(RequestId id) {
  if (!current_ || *current_ != id)
    throw std::logic_error("release of a request not in the critical section");
  current_.reset();
  requesting_ = false;
  if (next_.valid()) {
    has_token_ = false;
    Message m;
    m.kind = MsgKind::kNaimiToken;
    send(next_, std::move(m));
    next_ = NodeId::invalid();
  }
  pump_backlog();
}

void NaimiEngine::pump_backlog() {
  if (requesting_ || waiting_ || backlog_.empty()) return;
  const RequestId id = backlog_.front();
  backlog_.erase(backlog_.begin());
  start_request(id);
}

void NaimiEngine::handle(const Message& m) {
  if (m.lock != lock_) throw std::logic_error("message for wrong lock");
  switch (m.kind) {
    case MsgKind::kNaimiRequest: {
      const NodeId j = m.req.requester;
      if (!father_.valid()) {
        if (requesting_) {
          // We are the queue tail: j becomes our successor.
          next_ = j;
        } else {
          // Idle root: hand the token over directly.
          has_token_ = false;
          Message t;
          t.kind = MsgKind::kNaimiToken;
          send(j, std::move(t));
        }
      } else {
        Message fwd;
        fwd.kind = MsgKind::kNaimiRequest;
        fwd.req.requester = j;
        send(father_, std::move(fwd));
      }
      father_ = j;  // path reversal
      return;
    }
    case MsgKind::kNaimiToken: {
      has_token_ = true;
      if (!waiting_) throw std::logic_error("token without a waiting request");
      enter_cs(*waiting_);
      return;
    }
    default:
      throw std::logic_error("unexpected message kind for NaimiEngine");
  }
}

}  // namespace hlock::naimi
