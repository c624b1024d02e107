#include "core/hls_engine.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace hlock::core {

namespace {
constexpr Mode kNone = Mode::kNone;
}

HlsEngine::HlsEngine(const EngineContext& ctx, LockId lock,
                     NodeId initial_token_holder, NodeId initial_parent)
    : ctx_(&ctx),
      lock_(lock),
      parent_(ctx.self == initial_token_holder
                  ? NodeId::invalid()
                  : (initial_parent.valid() ? initial_parent
                                            : initial_token_holder)),
      has_token_(ctx.self == initial_token_holder) {
  if (!ctx.self.valid() || !initial_token_holder.valid())
    throw std::invalid_argument("invalid node id");
  if (parent_ == ctx.self)
    throw std::invalid_argument("a node cannot be its own parent");
}

// ---------------------------------------------------------------------------
// Derived state
// ---------------------------------------------------------------------------

Mode HlsEngine::strongest_counted(
    const std::array<std::uint32_t, kModeCount>& counts, Mode base,
    Mode exclude_one) {
  // kRealModes is in strength order, so folding with strongest() yields
  // the same result (including the U-before-IW tie pick) as scanning the
  // backing map did. `exclude_one` removes a single known entry's
  // contribution without materializing a copy of the map.
  Mode m = base;
  for (const Mode r : kRealModes) {
    std::uint32_t c = counts[static_cast<int>(r)];
    if (r == exclude_one && c > 0) --c;
    if (c != 0) m = strongest(m, r);
  }
  return m;
}

Mode HlsEngine::held_mode() const {
  return strongest_counted(hold_mode_count_, kNone);
}

Mode HlsEngine::children_mode() const {
  return strongest_counted(child_mode_count_, kNone);
}

Mode HlsEngine::owned_mode() const {
  return strongest(held_mode(), children_mode());
}

Mode HlsEngine::child_mode(NodeId child) const {
  const auto it = children_.find(child);
  return it == children_.end() ? kNone : it->second.owned;
}

std::size_t HlsEngine::copyset_size() const {
  std::size_t n = 0;
  for (const Mode r : kRealModes) n += child_mode_count_[static_cast<int>(r)];
  return n;
}

Mode HlsEngine::owned_mode_excluding_child(NodeId child) const {
  return strongest_counted(child_mode_count_, held_mode(), child_mode(child));
}

Mode HlsEngine::owned_mode_excluding_hold(RequestId id) const {
  const auto it = holds_.find(id);
  const Mode excluded = it == holds_.end() ? kNone : it->second;
  return strongest_counted(hold_mode_count_, children_mode(), excluded);
}

// ---------------------------------------------------------------------------
// Aggregate-maintaining mutators
// ---------------------------------------------------------------------------

void HlsEngine::set_owned(ChildRecord& rec, Mode mode) {
  freeze_sync_needed_ = true;
  if (rec.owned != kNone) --child_mode_count_[static_cast<int>(rec.owned)];
  if (mode != kNone) ++child_mode_count_[static_cast<int>(mode)];
  rec.owned = mode;
}

void HlsEngine::erase_child(NodeId child) {
  freeze_sync_needed_ = true;
  const auto it = children_.find(child);
  if (it == children_.end()) return;
  set_owned(it->second, kNone);
  it->second.sent_frozen.clear();
  if (it->second.grants_sent == 0) children_.erase(it);
}

void HlsEngine::clear_children() {
  freeze_sync_needed_ = true;
  children_.clear();
  child_mode_count_.fill(0);
}

void HlsEngine::set_hold(RequestId id, Mode mode) {
  const auto [it, inserted] = holds_.try_emplace(id, mode);
  if (inserted) {
    ++hold_mode_count_[static_cast<int>(mode)];
    return;
  }
  --hold_mode_count_[static_cast<int>(it->second)];
  ++hold_mode_count_[static_cast<int>(mode)];
  it->second = mode;
}

void HlsEngine::erase_hold(FlatMap<RequestId, Mode>::iterator it) {
  --hold_mode_count_[static_cast<int>(it->second)];
  holds_.erase(it);
}

HlsEngine::SideRecord& HlsEngine::side() {
  if (!side_) side_ = std::make_unique<SideRecord>();
  return *side_;
}

RequestId HlsEngine::fresh_request_id() {
  return RequestId{(static_cast<std::uint64_t>(ctx_->self.value) << 32) |
                   next_request_++};
}

void HlsEngine::send(NodeId to, Message m) {
  m.lock = lock_;
  m.from = ctx_->self;
  m.view = view_;
  ctx_->transport.send(to, std::move(m));
}

// ---------------------------------------------------------------------------
// Application API
// ---------------------------------------------------------------------------

RequestId HlsEngine::request_lock(Mode mode, std::uint8_t priority) {
  if (mode == kNone) throw std::invalid_argument("cannot request mode ∅");
  PendingLocal req;
  req.id = fresh_request_id();
  req.mode = mode;
  req.stamp = lamport_.tick(ctx_->self);
  req.upgrade = false;
  req.priority = priority;
  if (has_pending() || !backlog_.empty()) {
    backlog_.push_back(req);
  } else {
    start_local_request(req);
  }
  return req.id;
}

void HlsEngine::start_local_request(PendingLocal req) {
  const Mode mo = owned_mode();
  const bool frozen_blocks =
      ctx_->opts.enable_freezing && frozen_.contains(req.mode);

  if (req.upgrade) {
    // Rule 7. The hold stays U throughout; no release happens.
    upgrading_hold_ = req.id;
    if (has_token_ && owned_mode_excluding_hold(req.id) == kNone) {
      set_hold(req.id, Mode::kW);
      upgrading_hold_ = RequestId::invalid();
      if (ctx_->on_upgraded) ctx_->on_upgraded(lock_, req.id);
      return;
    }
    pending_ = req;
    if (has_token_) {
      // Rule 7 gives upgrades priority: a queued request incompatible
      // with the held U necessarily arrived after it, and serving it
      // first would deadlock against the never-released U.
      enqueue(QueuedRequest{ctx_->self, Mode::kW, req.stamp, true,
                            req.priority});
      recompute_frozen_token();
      push_freeze_updates();
    } else {
      Message m;
      m.kind = MsgKind::kRequest;
      m.req =
          QueuedRequest{ctx_->self, Mode::kW, req.stamp, true, req.priority};
      send(parent_, std::move(m));
    }
    return;
  }

  if (has_token_) {
    // Figure 4 RequestLock, token branch: compatibility with the owned
    // mode is necessary and sufficient (Rule 3.2) unless frozen (Rule 6).
    // During a recovery barrier only Rule 2's non-token condition is safe
    // (survivor holds may still be unregistered).
    if (compatible(mo, req.mode) && !frozen_blocks &&
        (!barrier_open() || stronger_or_equal(mo, req.mode))) {
      admit_local(req.id, req.mode);
      return;
    }
    pending_ = req;
    enqueue(
        QueuedRequest{ctx_->self, req.mode, req.stamp, false, req.priority});
    recompute_frozen_token();
    push_freeze_updates();
    return;
  }

  // Rule 2, non-token: enter without messages iff we already own a
  // sufficient compatible mode and the mode is not frozen.
  if (stronger_or_equal(mo, req.mode) && compatible(mo, req.mode) &&
      !frozen_blocks) {
    admit_local(req.id, req.mode);
    return;
  }
  pending_ = req;
  Message m;
  m.kind = MsgKind::kRequest;
  m.req =
      QueuedRequest{ctx_->self, req.mode, req.stamp, false, req.priority};
  send(parent_, std::move(m));
}

void HlsEngine::admit_local(RequestId id, Mode mode) {
  if (side_ && side_->cancelled.erase(id) > 0) {
    // Cancelled while in flight: the grant is accounted and immediately
    // released, with no application callback.
    set_hold(id, mode);
    unlock(id);
    return;
  }
  set_hold(id, mode);
  HLOCK_LOG(kTrace, "node " << ctx_->self << " lock " << lock_
                            << " acquired " << mode << " locally");
  if (ctx_->on_acquired) ctx_->on_acquired(lock_, id, mode);
}

bool HlsEngine::cancel(RequestId id) {
  if (upgrading(id) || (pending_.upgrade && pending_.id == id))
    throw std::logic_error("cannot cancel an upgrade (U stays held)");
  if (holds_.count(id) != 0) return false;  // already granted
  for (auto it = backlog_.begin(); it != backlog_.end(); ++it) {
    if (it->id == id) {
      backlog_.erase(it);
      return true;
    }
  }
  if (has_pending() && pending_.id == id) {
    side().cancelled.insert(id);
    return true;
  }
  throw std::logic_error("cancel of unknown or already-released request");
}

std::optional<RequestId> HlsEngine::try_request_lock(Mode mode) {
  if (mode == kNone) throw std::invalid_argument("cannot request mode ∅");
  // An earlier local request is still outstanding; granting out of order
  // would break per-node FIFO.
  if (has_pending() || !backlog_.empty()) return std::nullopt;
  const Mode mo = owned_mode();
  const bool frozen_blocks =
      ctx_->opts.enable_freezing && frozen_.contains(mode);
  const bool admissible =
      has_token_ && !barrier_open()
          ? (compatible(mo, mode) && !frozen_blocks)
          : (stronger_or_equal(mo, mode) && compatible(mo, mode) &&
             !frozen_blocks);
  if (!admissible) return std::nullopt;
  const RequestId id = fresh_request_id();
  admit_local(id, mode);
  return id;
}

void HlsEngine::downgrade(RequestId id, Mode mode) {
  if (mode == kNone) {
    unlock(id);
    return;
  }
  const auto it = holds_.find(id);
  if (it == holds_.end())
    throw std::logic_error("downgrade of unheld request");
  if (upgrading(id))
    throw std::logic_error("downgrade of a hold with an upgrade in flight");
  if (!safe_downgrade(it->second, mode))
    throw std::logic_error("not a safe downgrade");
  const Mode owned_before = owned_mode();
  set_hold(id, mode);

  if (has_token_) {
    check_queue_token();
    if (has_token_) {
      recompute_frozen_token();
      push_freeze_updates();
    }
  } else {
    propagate_release_if_needed(owned_before);
    check_queue_nontoken();
  }
  pump_backlog();
}

void HlsEngine::unlock(RequestId id) {
  const auto it = holds_.find(id);
  if (it == holds_.end()) throw std::logic_error("unlock of unheld request");
  if (upgrading(id))
    throw std::logic_error("unlock of a hold with an upgrade in flight");
  const Mode owned_before = owned_mode();
  erase_hold(it);

  if (has_token_) {
    check_queue_token();
    if (has_token_) {
      recompute_frozen_token();
      push_freeze_updates();
    }
  } else {
    propagate_release_if_needed(owned_before);
    check_queue_nontoken();
  }
  pump_backlog();
}

void HlsEngine::upgrade(RequestId id) {
  const auto it = holds_.find(id);
  if (it == holds_.end() || it->second != Mode::kU)
    throw std::logic_error("upgrade requires a held U lock");
  if (upgrading_hold_.valid())
    throw std::logic_error("upgrade already in flight");
  PendingLocal req;
  req.id = id;  // the upgrade keeps the original request id
  req.mode = Mode::kW;
  req.stamp = lamport_.tick(ctx_->self);
  req.upgrade = true;
  if (has_pending() || !backlog_.empty()) {
    backlog_.push_back(req);
  } else {
    start_local_request(req);
  }
}

void HlsEngine::pump_backlog() {
  while (!has_pending() && !backlog_.empty()) {
    PendingLocal req = backlog_.front();
    backlog_.erase(backlog_.begin());
    start_local_request(req);
  }
}

void HlsEngine::resolve_pending_with_grant(Mode mode) {
  const PendingLocal req = pending_;
  pending_ = {};
  if (req.upgrade) {
    set_hold(req.id, Mode::kW);
    upgrading_hold_ = RequestId::invalid();
    if (ctx_->on_upgraded) ctx_->on_upgraded(lock_, req.id);
  } else {
    admit_local(req.id, mode);
  }
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

void HlsEngine::handle(const Message& m) {
  if (m.lock != lock_) {
    std::ostringstream os;
    os << "message for wrong lock: engine (node " << ctx_->self << ", lock "
       << lock_ << ") got " << to_string(m.kind) << " for lock " << m.lock
       << " from " << m.from;
    throw std::logic_error(os.str());
  }
  if (m.view != view_) {
    // Fencing: traffic from a pre-recovery view (e.g. the old token still
    // in flight when the crash was declared) must not contaminate the
    // rebuilt tree.
    HLOCK_LOG(kDebug, "node " << ctx_->self << " drops view-" << m.view
                              << " message in view " << view_);
    return;
  }
  if (departed_) {
    handle_departed(m);
    return;
  }
  switch (m.kind) {
    case MsgKind::kRequest: handle_request(m); return;
    case MsgKind::kGrant: handle_grant(m); return;
    case MsgKind::kToken: handle_token(m); return;
    case MsgKind::kRelease: handle_release(m); return;
    case MsgKind::kFreeze: handle_freeze(m); return;
    case MsgKind::kReparent: handle_reparent(m); return;
    case MsgKind::kAttach: handle_attach(m); return;
    case MsgKind::kHandoff: handle_handoff(m); return;
    default: throw std::logic_error("unexpected message kind for HlsEngine");
  }
}

// ---------------------------------------------------------------------------
// Dynamic membership (leave / reparent / attach / handoff)
// ---------------------------------------------------------------------------

void HlsEngine::leave(NodeId successor_if_root) {
  if (departed_) throw std::logic_error("already departed");
  if (!holds_.empty()) throw std::logic_error("leave with live holds");
  if (has_pending() || !backlog_.empty())
    throw std::logic_error("leave with outstanding requests");

  const NodeId successor = has_token_ ? successor_if_root : parent_;
  if (!successor.valid() || successor == ctx_->self)
    throw std::invalid_argument("leave requires a valid successor");

  // Children re-attach themselves: they answer with kAttach carrying
  // their authoritative owned mode on their own (FIFO) channel to the
  // successor, which closes the delegate-vs-release races a push-style
  // handover would have.
  const bool owned_something = copyset_size() != 0;
  for_each_child([&](NodeId child, Mode) {
    Message r;
    r.kind = MsgKind::kReparent;
    r.req.requester = successor;
    send(child, std::move(r));
  });
  clear_children();

  if (has_token_) {
    Message h;
    h.kind = MsgKind::kHandoff;
    h.queue = ctx_->transport.acquire_queue_buffer();
    queue_.ship_into(h.queue);
    h.grant_seq = locality_streak_;  // see transfer_token
    locality_streak_ = 0;
    has_token_ = false;
    send(successor, std::move(h));
  } else {
    // Requests we queued behind our (now resolved) pending: forward them
    // toward the root before going dark.
    for (const QueuedRequest& q : queue_.entries()) {
      Message fwd;
      fwd.kind = MsgKind::kRequest;
      fwd.req = q;
      send(parent_, std::move(fwd));
    }
    queue_.clear();
    if (owned_something) {
      // Deregister ourselves: our contribution to the parent's copyset is
      // gone (no holds; the children now attach directly to it). An idle
      // non-owner already dropped out of the copyset when it released.
      Message r;
      r.kind = MsgKind::kRelease;
      r.mode = kNone;
      r.grant_seq = grants_received_[parent_];
      send(parent_, std::move(r));
    }
  }

  frozen_.clear();
  parent_ = successor;
  departed_ = true;
}

void HlsEngine::begin_recovery(std::uint32_t new_view, NodeId new_root,
                               const std::set<NodeId>& survivors) {
  if (departed_) throw std::logic_error("departed engines do not recover");
  if (new_view <= view_)
    throw std::invalid_argument("recovery view must increase");
  if (!new_root.valid()) throw std::invalid_argument("invalid new root");
  if (survivors.count(ctx_->self) == 0 || survivors.count(new_root) == 0)
    throw std::invalid_argument("survivors must include self and new root");
  view_ = new_view;

  // Tree state is rebuilt from scratch; local intent (holds, pending,
  // backlog) survives.
  clear_children();
  queue_.clear();
  frozen_.clear();
  grants_received_.clear();
  // The head-bypass streak is token state; a regenerated token starts
  // fresh or the pre-crash streak would wrongly suppress (or permit)
  // bypasses in the new view.
  locality_streak_ = 0;

  has_token_ = ctx_->self == new_root;
  parent_ = has_token_ ? NodeId::invalid() : new_root;
  if (side_) side_->recovery_waiting.clear();

  if (has_token_ && survivors.size() > 1) {
    FlatSet<NodeId>& waiting = side().recovery_waiting;
    waiting.insert(survivors.begin(), survivors.end());
    waiting.erase(ctx_->self);
  }

  if (!has_token_) {
    // Re-attach with our authoritative owned mode — ALWAYS, even when we
    // own nothing (the ping completes the root's barrier).
    {
      Message a;
      a.kind = MsgKind::kAttach;
      a.mode = owned_mode();
      send(parent_, std::move(a));
    }
    if (has_pending()) {
      Message m;
      m.kind = MsgKind::kRequest;
      m.req = QueuedRequest{ctx_->self, pending_.mode, pending_.stamp,
                            pending_.upgrade, pending_.priority};
      send(parent_, std::move(m));
    }
  } else if (has_pending()) {
    // The new root re-queues its own outstanding request; it is served
    // when the barrier completes.
    enqueue(QueuedRequest{ctx_->self, pending_.mode, pending_.stamp,
                          pending_.upgrade, pending_.priority});
  }
  if (has_token_ && !barrier_open()) {
    check_queue_token();
    if (has_token_) recompute_frozen_token();
  }
}

void HlsEngine::handle_departed(const Message& m) {
  switch (m.kind) {
    case MsgKind::kRequest: {
      // Keep routing toward the live tree.
      Message fwd;
      fwd.kind = MsgKind::kRequest;
      fwd.req = m.req;
      send(parent_, std::move(fwd));
      return;
    }
    case MsgKind::kHandoff: {
      // A cascading leave picked us as successor after we left ourselves.
      Message fwd = m;
      send(parent_, std::move(fwd));
      return;
    }
    case MsgKind::kAttach: {
      // Someone was told to attach to us; redirect them.
      Message r;
      r.kind = MsgKind::kReparent;
      r.req.requester = parent_;
      send(m.from, std::move(r));
      return;
    }
    case MsgKind::kReparent:
      // Keep our forwarding target fresh.
      parent_ = m.req.requester;
      return;
    case MsgKind::kRelease:
    case MsgKind::kFreeze:
      return;  // stale; the sender has been / will be re-parented
    default:
      HLOCK_LOG(kError, "departed node " << ctx_->self << " got "
                                         << to_string(m.kind));
      return;
  }
}

void HlsEngine::handle_reparent(const Message& m) {
  if (has_token_) return;  // stale: we became the root meanwhile
  const NodeId new_parent = m.req.requester;
  if (!new_parent.valid() || new_parent == ctx_->self) return;
  parent_ = new_parent;
  if (owned_mode() == kNone) return;  // plain probable-owner hint update
  Message a;
  a.kind = MsgKind::kAttach;
  a.mode = owned_mode();
  a.grant_seq = grants_received_[new_parent];
  send(new_parent, std::move(a));
}

void HlsEngine::handle_attach(const Message& m) {
  const bool was_open = barrier_open();
  if (was_open) side_->recovery_waiting.erase(m.from);
  if (m.mode != kNone) {
    ChildRecord& rec = children_[m.from];
    set_owned(rec, m.mode);   // authoritative snapshot from the child
    rec.sent_frozen.clear();  // unknown; recomputed on the next push
  }
  if (was_open && barrier_open()) return;  // still waiting
  if (has_token_) {
    check_queue_token();
    if (has_token_) {
      recompute_frozen_token();
    }
  }
  push_freeze_updates();
}

void HlsEngine::handle_handoff(const Message& m) {
  // Unsolicited token from a departing root. Unlike kToken this answers
  // no local request; our own queued entries (if our request sat in the
  // leaver's queue) stay in and get served by check_queue_token.
  has_token_ = true;
  parent_ = NodeId::invalid();
  locality_streak_ = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(m.grant_seq, 0xffffffffULL));

  queue_.merge_shipped(m.queue, ctx_->opts.enable_priorities);

  check_queue_token();
  if (has_token_) {
    recompute_frozen_token();
    push_freeze_updates();
  }
  pump_backlog();
}

void HlsEngine::handle_request(const Message& m) {
  QueuedRequest q = m.req;
  lamport_.observe(q.stamp);

  if (q.requester == ctx_->self) {
    // A request of ours was routed back to us (it was queued at an
    // intermediate node which later forwarded it while we became its
    // parent, or we became the root in the meantime).
    HLOCK_LOG(kDebug, "node " << ctx_->self << " saw its own request return");
    if (!has_pending() || pending_.stamp != q.stamp) return;  // already served
    if (!has_token_) {
      Message fwd;
      fwd.kind = MsgKind::kRequest;
      fwd.req = q;
      send(parent_, std::move(fwd));
      return;
    }
    // We are the root now: treat it exactly like the token-node branch of
    // RequestLock — admit if possible, otherwise queue as a self entry.
    const auto queued = queue_.entries();
    if (std::find_if(queued.begin(), queued.end(), [&](const QueuedRequest& r) {
          return r.requester == ctx_->self && r.stamp == q.stamp;
        }) != queued.end()) {
      return;  // already queued
    }
    if (!q.upgrade && compatible(owned_mode(), q.mode) &&
        !(ctx_->opts.enable_freezing && frozen_.contains(q.mode))) {
      resolve_pending_with_grant(q.mode);
      pump_backlog();
      return;
    }
    enqueue(q);
    recompute_frozen_token();
    push_freeze_updates();
    return;
  }

  if (has_token_) {
    handle_request_as_token(q);
  } else {
    handle_request_as_nontoken(q);
  }
}

void HlsEngine::handle_request_as_token(const QueuedRequest& q) {
  if (barrier_open()) {
    // Recovery barrier: survivor state is still arriving; anything served
    // now could conflict with a hold whose attach is in flight.
    enqueue(q);
    return;
  }
  if (q.upgrade) {
    if (try_serve_upgrade_as_token(q)) return;
    // Upgrades jump the queue (Rule 7): everything incompatible with the
    // requester's held U is younger than the U, and a queued writer would
    // otherwise deadlock against the never-released U.
    enqueue(q);
    recompute_frozen_token();
    push_freeze_updates();
    return;
  }

  const Mode mo = owned_mode();
  const bool frozen_blocks =
      ctx_->opts.enable_freezing && frozen_.contains(q.mode);

  if (!frozen_blocks && tokenable(mo, q.mode)) {
    transfer_token(q);
    return;
  }
  if (!frozen_blocks && token_copy_grantable(mo, q.mode)) {
    grant_copy(q);
    return;
  }
  // Rule 4.2: the token node always queues what it cannot grant.
  enqueue(q);
  recompute_frozen_token();
  push_freeze_updates();
}

void HlsEngine::handle_request_as_nontoken(const QueuedRequest& q) {
  const Mode mo = owned_mode();
  const bool frozen_blocks =
      ctx_->opts.enable_freezing && frozen_.contains(q.mode);

  if (ctx_->opts.allow_child_grants && !frozen_blocks &&
      child_grantable(mo, q.mode)) {
    grant_copy(q);  // Rule 3.1
    return;
  }
  if (ctx_->opts.allow_local_queues &&
      queue_or_forward(pending_.mode, q.mode) == PendingAction::kQueue) {
    enqueue(q);  // Rule 4.1 / Table 2(a)
    return;
  }
  Message fwd;
  fwd.kind = MsgKind::kRequest;
  fwd.req = q;
  send(parent_, std::move(fwd));
}

bool HlsEngine::try_serve_upgrade_as_token(const QueuedRequest& q) {
  // Rule 7: the requester keeps holding U; every *other* contribution to
  // the owned mode must drain before W can exist anywhere.
  const Mode rest = owned_mode_excluding_child(q.requester);
  if (rest != kNone) return false;
  transfer_token(q);
  return true;
}

void HlsEngine::enqueue(const QueuedRequest& q) {
  queue_.enqueue(q, ctx_->opts.enable_priorities);
}

void HlsEngine::grant_copy(const QueuedRequest& q) {
  ChildRecord& rec = children_[q.requester];
  set_owned(rec, strongest(rec.owned, q.mode));
  rec.sent_frozen = frozen_;
  Message g;
  g.kind = MsgKind::kGrant;
  g.mode = q.mode;
  g.frozen = frozen_;
  g.grant_seq = ++rec.grants_sent;
  send(q.requester, std::move(g));
}

void HlsEngine::transfer_token(const QueuedRequest& q) {
  erase_child(q.requester);
  const Mode remaining = owned_mode();

  Message t;
  t.kind = MsgKind::kToken;
  t.mode = q.mode;
  t.sender_owned = remaining;
  t.queue = ctx_->transport.acquire_queue_buffer();
  queue_.ship_into(t.queue);
  // The head-bypass streak travels with the token (grant_seq is unused by
  // kToken otherwise), so the locality fairness cap binds globally across
  // same-cluster hand-offs. Always 0 when the bias is off — bitwise
  // identical to the pre-locality wire traffic.
  t.grant_seq = locality_streak_;
  locality_streak_ = 0;

  has_token_ = false;
  parent_ = q.requester;
  // We are a plain copyset member now; the new root owns freezing. Clear
  // our set and un-freeze our subtree — the new root re-freezes potential
  // granters from the merged queue it just received.
  if (!frozen_.empty()) {
    frozen_.clear();
    freeze_sync_needed_ = true;
  }
  push_freeze_updates();

  send(q.requester, std::move(t));
}

void HlsEngine::handle_grant(const Message& m) {
  if (!has_pending() || pending_.upgrade || pending_.mode != m.mode) {
    HLOCK_LOG(kError,
              "node " << ctx_->self << " unexpected grant of " << m.mode);
    return;
  }
  detach_from_old_parent(m.from);
  parent_ = m.from;
  grants_received_[m.from] = m.grant_seq;
  if (ctx_->opts.enable_freezing && !(frozen_ == m.frozen)) {
    frozen_ = m.frozen;
    freeze_sync_needed_ = true;
  }
  resolve_pending_with_grant(m.mode);
  check_queue_nontoken();
  push_freeze_updates();
  pump_backlog();
}

void HlsEngine::handle_token(const Message& m) {
  if (!has_pending()) {
    HLOCK_LOG(kError, "node " << ctx_->self << " unexpected token");
    return;
  }
  detach_from_old_parent(m.from);
  has_token_ = true;
  parent_ = NodeId::invalid();
  locality_streak_ = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(m.grant_seq, 0xffffffffULL));
  if (m.sender_owned != kNone) {
    set_owned(children_[m.from], m.sender_owned);
  }

  queue_.merge_shipped(m.queue, ctx_->opts.enable_priorities);
  // Our own in-flight request is the one the token answers; drop any echo.
  queue_.erase_requester(ctx_->self);

  if (pending_.upgrade) {
    const Mode rest = owned_mode_excluding_hold(pending_.id);
    if (rest == kNone) {
      resolve_pending_with_grant(Mode::kW);
    } else {
      // Our subtree still has granted copies out; wait for their releases
      // with the original stamp so we stay at the head of the FIFO.
      enqueue(QueuedRequest{ctx_->self, Mode::kW, pending_.stamp, true,
                            pending_.priority});
    }
  } else {
    resolve_pending_with_grant(m.mode);
  }

  check_queue_token();
  if (has_token_) {
    recompute_frozen_token();
    push_freeze_updates();
  }
  pump_backlog();
}

void HlsEngine::handle_release(const Message& m) {
  const auto it = children_.find(m.from);
  if (it != children_.end() && m.grant_seq < it->second.grants_sent) {
    // Stale: this release was issued before the child saw our latest
    // grant; applying it would erase the newer registration. The child
    // re-reports when its post-grant owned mode weakens.
    HLOCK_LOG(kDebug, "node " << ctx_->self << " drops stale release from "
                              << m.from);
    return;
  }
  const Mode owned_before = owned_mode();
  if (m.mode == kNone) {
    erase_child(m.from);
  } else {
    // A weakening report may only *update* a live registration. If the
    // child is not registered any more, we already handed it the token
    // (transfer erased it) while this release was in flight; re-creating
    // the entry would forge a phantom ownership edge back to the new root.
    if (it == children_.end() || it->second.owned == kNone) {
      HLOCK_LOG(kDebug, "node " << ctx_->self << " ignores release from "
                                << m.from << ": not a child");
      return;
    }
    set_owned(it->second, m.mode);
  }

  if (has_token_) {
    check_queue_token();
    if (has_token_) {
      recompute_frozen_token();
      push_freeze_updates();
    }
  } else {
    propagate_release_if_needed(owned_before);
    check_queue_nontoken();
  }
  pump_backlog();
}

void HlsEngine::handle_freeze(const Message& m) {
  if (!ctx_->opts.enable_freezing) return;
  if (has_token_) return;  // stale: we became root since it was sent
  if (owned_mode() == kNone) {
    // We already left the sender's copyset (our release crossed this
    // freeze in flight). A non-owner can grant nothing, and no further
    // updates would ever reach us — adopting the set would leave it
    // dangling forever.
    frozen_.clear();
    freeze_sync_needed_ = true;
    return;
  }
  if (!(frozen_ == m.frozen)) {
    frozen_ = m.frozen;
    freeze_sync_needed_ = true;
  }
  push_freeze_updates();
}

// ---------------------------------------------------------------------------
// Queue service
// ---------------------------------------------------------------------------

void HlsEngine::check_queue() {
  if (has_token_) {
    check_queue_token();
  } else {
    check_queue_nontoken();
  }
}

bool HlsEngine::token_can_serve_now(const QueuedRequest& q) const {
  if (q.upgrade) return false;  // Rule 7 entries are served head-first only
  const Mode mo = owned_mode();
  if (q.requester == ctx_->self) {
    // Mirrors the head self-entry branch: a live non-upgrade pending,
    // admissible under Rule 3.2.
    return has_pending() && !pending_.upgrade && compatible(mo, q.mode);
  }
  return tokenable(mo, q.mode) || token_copy_grantable(mo, q.mode);
}

std::size_t HlsEngine::pick_queue_index() const {
  if (!ctx_->opts.locality_bias || ctx_->clusters == nullptr) return 0;
  if (locality_streak_ >= ctx_->opts.locality_fairness_cap) return 0;
  // Upgrades cluster at the queue front and are never reordered across;
  // past a non-upgrade head the queue holds no upgrade entries.
  if (queue_.front().upgrade) return 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const QueuedRequest& q = queue_[i];
    if (!ctx_->clusters->same_cluster(q.requester, ctx_->self)) continue;
    if (token_can_serve_now(q)) return i;
  }
  return 0;
}

void HlsEngine::check_queue_token() {
  if (barrier_open()) return;
  // Figure 4 "Check requests on queue": serve strictly head-first and stop
  // at the first request that cannot be served. Frozen modes are NOT
  // considered here — freezing protects queued requests from *newer*
  // arrivals, and the head is the oldest waiter (§4, Fig. 7 discussion).
  //
  // With EngineOptions::locality_bias a servable same-cluster entry may
  // be served ahead of the (remote or currently blocked) head while the
  // bypass streak is under the fairness cap; every strict head service
  // resets the streak, and the streak rides the token (transfer_token),
  // so a bypassed head waits at most `locality_fairness_cap` out-of-order
  // services in total, no matter how often the token moves inside the
  // cluster. Biased picks skip the frozen check exactly like head service
  // does: everything in the queue predates any freeze it caused.
  while (has_token_ && !queue_.empty()) {
    const std::size_t pick = pick_queue_index();
    if (pick != 0) {
      const QueuedRequest q = queue_.take(pick);
      ++locality_streak_;
      if (q.requester == ctx_->self) {
        resolve_pending_with_grant(q.mode);
        continue;
      }
      if (tokenable(owned_mode(), q.mode)) {
        transfer_token(q);  // same-cluster hand-off; streak ships along
        return;             // no longer the token node
      }
      grant_copy(q);
      continue;
    }

    const QueuedRequest q = queue_.front();
    const Mode mo = owned_mode();

    if (q.requester == ctx_->self) {
      if (q.upgrade) {
        if (!has_pending() || !upgrading_hold_.valid()) {
          queue_.pop_front();  // stale entry
          continue;
        }
        if (owned_mode_excluding_hold(pending_.id) != kNone) break;
        queue_.pop_front();
        locality_streak_ = 0;
        resolve_pending_with_grant(Mode::kW);
        continue;
      }
      if (!has_pending()) {
        queue_.pop_front();  // stale entry
        continue;
      }
      if (!compatible(mo, q.mode)) break;
      queue_.pop_front();
      locality_streak_ = 0;
      resolve_pending_with_grant(q.mode);
      continue;
    }

    if (q.upgrade) {
      if (owned_mode_excluding_child(q.requester) != kNone) break;
      queue_.pop_front();
      locality_streak_ = 0;
      transfer_token(q);
      return;  // no longer the token node
    }
    if (tokenable(mo, q.mode)) {
      queue_.pop_front();
      locality_streak_ = 0;
      transfer_token(q);
      return;  // no longer the token node
    }
    if (token_copy_grantable(mo, q.mode)) {
      queue_.pop_front();
      locality_streak_ = 0;
      grant_copy(q);
      continue;
    }
    break;
  }
}

void HlsEngine::check_queue_nontoken() {
  if (queue_.empty()) return;
  // Re-triage every queued request: grant what Rule 3.1 now allows, keep
  // what Table 2(a) still queues, forward the rest toward the root.
  // Kept entries are compacted in place (grant_copy and send never read
  // queue_), so the re-triage allocates nothing.
  queue_.retain_if([this](const QueuedRequest& q) {
    const Mode mo = owned_mode();
    const bool frozen_blocks =
        ctx_->opts.enable_freezing && frozen_.contains(q.mode);
    if (ctx_->opts.allow_child_grants && !frozen_blocks && !q.upgrade &&
        child_grantable(mo, q.mode)) {
      grant_copy(q);
      return false;
    }
    if (ctx_->opts.allow_local_queues && !q.upgrade &&
        queue_or_forward(pending_.mode, q.mode) == PendingAction::kQueue) {
      return true;
    }
    Message fwd;
    fwd.kind = MsgKind::kRequest;
    fwd.req = q;
    send(parent_, std::move(fwd));
    return false;
  });
}

void HlsEngine::detach_from_old_parent(NodeId new_parent) {
  // Re-parenting: our whole subtree is now accounted under the new parent
  // (grant) or counts directly as the root's own state (token). If the old
  // parent still carried us in its copyset, that record would go stale
  // forever — releases only travel to the *current* parent — leaving
  // phantom owned modes (and, transitively, ownership cycles) behind.
  // Telling the old parent we left keeps Def. 3 accounting exact.
  if (!parent_.valid() || parent_ == new_parent) return;
  if (owned_mode() == kNone) return;  // old parent erased us already
  Message r;
  r.kind = MsgKind::kRelease;
  r.mode = kNone;
  r.grant_seq = grants_received_[parent_];
  send(parent_, std::move(r));
}

// ---------------------------------------------------------------------------
// Releases
// ---------------------------------------------------------------------------

void HlsEngine::propagate_release_if_needed(Mode owned_before) {
  if (has_token_) return;
  const Mode now = owned_mode();
  const bool weakened = strength(now) < strength(owned_before);
  if (!weakened && ctx_->opts.lazy_release) return;  // Rule 5.2
  Message r;
  r.kind = MsgKind::kRelease;
  r.mode = now;
  r.grant_seq = grants_received_[parent_];
  send(parent_, std::move(r));
  if (now == kNone) {
    // We left the copyset entirely; frozen-set upkeep no longer reaches us.
    // Owning nothing, we have no copyset members either.
    frozen_.clear();
    freeze_sync_needed_ = true;
  }
}

// ---------------------------------------------------------------------------
// Freezing (Rule 6 / Table 2(b))
// ---------------------------------------------------------------------------

void HlsEngine::recompute_frozen_token() {
  if (!ctx_->opts.enable_freezing) return;
  if (!has_token_) return;
  // Table 2(b) is a union over the queued requests' modes, so the
  // queue's per-mode counts give it without walking the queue.
  const Mode mo = owned_mode();
  ModeSet fresh;
  for (const Mode m : kRealModes) {
    if (queue_.count(m) != 0) fresh |= frozen_for(mo, m);
  }
#ifndef NDEBUG
  ModeSet rescan;
  for (const QueuedRequest& q : queue_.entries())
    rescan |= frozen_for(mo, q.mode);
  assert(fresh == rescan);
#endif
  if (!(fresh == frozen_)) {
    frozen_ = fresh;
    freeze_sync_needed_ = true;
  }
}

bool HlsEngine::is_potential_granter(Mode child_owned, ModeSet modes) const {
  for (const Mode m : kRealModes) {
    if (modes.contains(m) && child_grantable(child_owned, m)) return true;
  }
  return false;
}

void HlsEngine::push_freeze_updates() {
  if (!ctx_->opts.enable_freezing) return;
  // The last push left every member's sent set equal to its target, and
  // the inputs (member modes, frozen_, the sent sets) are unchanged since —
  // the scan below would send nothing.
  if (!freeze_sync_needed_) return;
  freeze_sync_needed_ = false;
  // Records of departed children stay for their grant counts; with no
  // member left there is nothing to push, so skip walking them.
  if (copyset_size() == 0) return;
  for (auto& [child, rec] : children_) {
    if (rec.owned == kNone) continue;  // not in the copyset
    ModeSet target;
    if (is_potential_granter(rec.owned, frozen_)) target = frozen_;
    if (rec.sent_frozen == target) continue;
    rec.sent_frozen = target;
    Message f;
    f.kind = MsgKind::kFreeze;
    f.frozen = target;
    send(child, std::move(f));
  }
}

}  // namespace hlock::core
