#include "lockmgr/session_mux.hpp"

#include <stdexcept>

#include "core/mode.hpp"

namespace hlock::lockmgr {

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kEntryRead: return "entry_read";
    case OpKind::kTableRead: return "table_read";
    case OpKind::kTableUpgrade: return "table_upgrade";
    case OpKind::kEntryWrite: return "entry_write";
    case OpKind::kTableWrite: return "table_write";
  }
  return "?";
}

void hierarchical_plan(const ResourceLayout& layout, const Op& op,
                       Plan& out) {
  const LockId table = layout.table_lock();
  out.steps.clear();
  out.upgrade = op.kind == OpKind::kTableUpgrade;
  switch (op.kind) {
    case OpKind::kEntryRead:
      out.steps.push_back({table, Mode::kIR});
      out.steps.push_back({layout.entry_lock(op.entry), Mode::kR});
      return;
    case OpKind::kTableRead: out.steps.push_back({table, Mode::kR}); return;
    case OpKind::kTableUpgrade: out.steps.push_back({table, Mode::kU}); return;
    case OpKind::kEntryWrite:
      out.steps.push_back({table, Mode::kIW});
      out.steps.push_back({layout.entry_lock(op.entry), Mode::kW});
      return;
    case OpKind::kTableWrite: out.steps.push_back({table, Mode::kW}); return;
  }
  throw std::logic_error("bad op kind");
}

void naimi_same_work_plan(const ResourceLayout& layout, const Op& op,
                          Plan& out) {
  out.steps.clear();
  out.upgrade = false;
  if (op.kind == OpKind::kEntryRead || op.kind == OpKind::kEntryWrite) {
    out.steps.push_back({layout.entry_lock(op.entry), Mode::kW});
    return;
  }
  // No shared or hierarchical modes: lock the whole table by taking every
  // entry lock, in ascending order to avoid deadlock (§4).
  for (const LockId lock : layout.entry_locks_in_order())
    out.steps.push_back({lock, Mode::kW});
}

void naimi_pure_plan(LockId global_lock, Plan& out) {
  out.steps.assign(1, {global_lock, Mode::kW});
  out.upgrade = false;
}

// ---------------------------------------------------------------------------

template <class Node>
BasicSessionMux<Node>::BasicSessionMux(Node& node, Executor& executor,
                                       std::uint32_t sessions,
                                       Planner planner)
    : node_(node),
      exec_(executor),
      planner_(std::move(planner)),
      clients_(sessions) {
  if (sessions == 0) throw std::invalid_argument("need >= 1 session");
  if constexpr (kHls) {
    node_.set_on_acquired([this](LockId lock, RequestId id, Mode /*mode*/) {
      on_acquired(lock, id);
    });
    node_.set_on_upgraded(
        [this](LockId lock, RequestId id) { on_upgraded(lock, id); });
  } else {
    node_.set_on_acquired(
        [this](LockId lock, RequestId id) { on_acquired(lock, id); });
  }
}

template <class Node>
void BasicSessionMux<Node>::start(std::uint32_t session, const Op& op,
                                  DoneFn done) {
  if (!planner_) throw std::logic_error("session mux has no planner");
  planner_(op, idle_client(session).plan);
  begin(session, op, std::move(done), false);
}

template <class Node>
void BasicSessionMux<Node>::run(std::uint32_t session, Plan plan,
                                const Op& op, DoneFn done) {
  idle_client(session).plan = std::move(plan);
  begin(session, op, std::move(done), false);
}

template <class Node>
void BasicSessionMux<Node>::acquire(std::uint32_t session,
                                    std::vector<PlanStep> steps,
                                    DoneFn done) {
  idle_client(session).plan = Plan{std::move(steps)};
  begin(session, Op{}, std::move(done), true);
}

template <class Node>
void BasicSessionMux<Node>::release(std::uint32_t session) {
  Client& c = clients_.at(session);
  if (c.phase == Phase::kIdle || !c.hold)
    throw std::logic_error("release without an acquired plan");
  if (c.phase != Phase::kHeld)
    throw std::logic_error("release before the plan fully acquired");
  unlock_all(session);
  finish(session);
}

template <class Node>
auto BasicSessionMux<Node>::idle_client(std::uint32_t sid) -> Client& {
  Client& c = clients_.at(sid);
  if (c.phase != Phase::kIdle)
    throw std::logic_error("session already executing an op");
  return c;
}

template <class Node>
void BasicSessionMux<Node>::begin(std::uint32_t sid, const Op& op,
                                  DoneFn done, bool hold) {
  Client& c = clients_[sid];
  if (c.plan.steps.empty()) throw std::invalid_argument("empty lock plan");
  if (!kHls && c.plan.upgrade)
    throw std::invalid_argument("upgrade plan on a protocol without modes");
  c.op = op;
  c.hold = hold;
  c.done = std::move(done);
  c.started = exec_.now();
  c.acquire_latency = 0;
  c.held.clear();
  c.engines.clear();
  ++active_;
  c.phase = Phase::kGated;
  gate_queue_.push_back(sid);
  drain_gate();
}

template <class Node>
void BasicSessionMux<Node>::drain_gate() {
  // FIFO with head-of-line blocking: an upgrade plan at the head waits for
  // every admitted plan to finish (and blocks everything behind it, so it
  // cannot be starved); any other plan at the head only waits out an
  // active upgrade plan. The result is that engine.upgrade() always runs
  // with an empty local pending slot — see the file comment.
  while (!gate_queue_.empty()) {
    const std::uint32_t sid = gate_queue_.front();
    const bool upgrade = clients_[sid].plan.upgrade;
    if (upgrade ? admitted_ != 0 : active_upgrades_ != 0) return;
    gate_queue_.pop_front();
    ++admitted_;
    if (upgrade) ++active_upgrades_;
    clients_[sid].phase = Phase::kAcquiring;
    issue(sid);
  }
}

template <class Node>
void BasicSessionMux<Node>::issue(std::uint32_t sid) {
  Client& c = clients_[sid];
  const PlanStep step = c.plan.steps[c.held.size()];
  // A synchronous grant inside request_lock() binds through the slot and
  // clears it; its callbacks may issue for other sessions, so the outer
  // slot is saved and restored around the call.
  const std::uint32_t outer = issuing_;
  issuing_ = sid;
  Engine& engine = node_.engine(step.lock);
  c.engines.push_back(&engine);
  RequestId rid;
  if constexpr (kHls) {
    rid = engine.request_lock(step.mode);
  } else {
    rid = engine.request();
  }
  const bool bound = issuing_ != sid;
  issuing_ = outer;
  if (!bound) c.pending = rid;
}

template <class Node>
void BasicSessionMux<Node>::on_acquired(LockId lock, RequestId id) {
  std::uint32_t sid = kNoSession;
  for (std::uint32_t i = 0; i < clients_.size(); ++i) {
    const Client& c = clients_[i];
    if (c.pending == id && c.plan.steps[c.held.size()].lock == lock) {
      sid = i;
      break;
    }
  }
  if (sid == kNoSession) {
    // Synchronous grant for the request_lock call currently on the stack:
    // its id reaches us before issue() could learn it.
    if (issuing_ == kNoSession ||
        clients_[issuing_].plan.steps[clients_[issuing_].held.size()].lock !=
            lock)
      throw std::logic_error("grant for an unrouted (lock, request) pair");
    sid = issuing_;
    issuing_ = kNoSession;
  }
  Client& c = clients_[sid];
  c.held.push_back(id);
  c.pending.reset();
  if (c.held.size() < c.plan.steps.size()) {
    // Take the next step one executor turn later: we may be inside
    // request_lock, and engines are never re-entered.
    exec_.schedule(0, [this, sid] { issue(sid); });
    return;
  }
  c.phase = Phase::kHeld;
  c.acquire_latency = exec_.now() - c.started;
  if (c.hold) {
    report(c);
    return;
  }
  // Upgrade plans split the dwell: read under U, then write under W.
  const Duration dwell = c.plan.upgrade ? c.op.cs / 2 : c.op.cs;
  exec_.schedule(dwell, [this, sid] {
    Client& d = clients_[sid];
    if (!d.plan.upgrade) {
      unlock_all(sid);
      finish(sid);
      return;
    }
    d.phase = Phase::kUpgrading;
    if constexpr (kHls) d.engines[0]->upgrade(d.held[0]);
  });
}

template <class Node>
void BasicSessionMux<Node>::on_upgraded(LockId lock, RequestId id) {
  for (std::uint32_t sid = 0; sid < clients_.size(); ++sid) {
    Client& c = clients_[sid];
    if (c.phase != Phase::kUpgrading || c.plan.steps[0].lock != lock ||
        c.held[0] != id)
      continue;
    c.phase = Phase::kHeld;
    exec_.schedule(c.op.cs - c.op.cs / 2, [this, sid] {
      unlock_all(sid);
      finish(sid);
    });
    return;
  }
  throw std::logic_error("unexpected upgrade callback");
}

template <class Node>
void BasicSessionMux<Node>::report(Client& c) {
  if (!c.done) return;
  OpStats stats;
  stats.op = c.op;
  stats.acquire_latency = c.acquire_latency;
  stats.lock_requests = static_cast<std::uint32_t>(c.plan.steps.size());
  // Moved out first: the callback may release() and start a new plan.
  DoneFn done = std::move(c.done);
  c.done = nullptr;
  done(stats);
}

template <class Node>
void BasicSessionMux<Node>::unlock_all(std::uint32_t sid) {
  // Leaf before intent: the reverse of the acquisition order.
  const Client& c = clients_[sid];
  for (std::size_t i = c.plan.steps.size(); i-- > 0;) {
    if constexpr (kHls) {
      c.engines[i]->unlock(c.held[i]);
    } else {
      c.engines[i]->release(c.held[i]);
    }
  }
}

template <class Node>
void BasicSessionMux<Node>::finish(std::uint32_t sid) {
  Client& c = clients_[sid];
  c.phase = Phase::kIdle;
  --active_;
  ++completed_;
  // Release the gate slot before the done callback: it may start a new
  // op on this session, which must see up-to-date admission counts.
  --admitted_;
  if (c.plan.upgrade) --active_upgrades_;
  report(c);
  drain_gate();
}

template class BasicSessionMux<core::HlsNode>;
template class BasicSessionMux<naimi::NaimiNode>;

}  // namespace hlock::lockmgr
