// SessionMux — the one acquisition state machine: many logical client
// sessions multiplexed over one node's engine stack, each running a lock
// plan.
//
// A production lock service does not run one client per process: one
// service node fronts many concurrent application sessions, all sharing
// that node's protocol engines (and therefore its single TCP connection
// per peer). SessionMux is that client session layer, and the simulator
// drives every protocol through it too (one session per node). Each
// session runs one Plan at a time: acquire its steps in order, dwell in
// the critical section, release in reverse, report OpStats. Turning an
// Op into a plan is one free function per protocol: hierarchical_plan
// (the paper's intent on the table, leaf mode on the entry, Rule 7 U->W
// upgrade halfway through the dwell), naimi_same_work_plan and
// naimi_pure_plan. A split acquire()/release() holds a plan across
// external coordination (the forest harness's cross-tree transactions).
//
// Demultiplexing: the node exposes a single acquisition callback tagged
// (LockId, RequestId). Request ids are only unique per engine — engines
// mint `(node << 32) | counter` independently — so a grant is routed to
// the session whose pending step has that (lock, request) PAIR, found by
// scanning the sessions, never by request id alone. Grants may also fire
// synchronously from inside request_lock(), before the id could be
// recorded: the mux keeps an "issuing slot" naming the session whose
// request is on the stack, and a grant that matches no pending pair
// binds to that slot.
//
// Local upgrade gate: the engine runs ONE outstanding local request at a
// time; anything else backlogs behind it in FIFO order. A U-holder's
// upgrade() therefore queues behind any pending local request — and that
// request can be waiting, directly or transitively, on OUR unreleased U
// hold. The direct case is a local U/IW/W request; the sneaky case is a
// local R that Rule 6 froze because a REMOTE writer is queued at the
// token, parking our R in FIFO order behind a remote IW that itself
// waits for our U. Either way it is a queueing deadlock no protocol
// rule can break (Rule 7 only prioritizes upgrades once they reach a
// queue). The mux prevents it by admission control: an upgrade plan is
// admitted only when NO other plan is in flight on this node, and no
// plan is admitted while an upgrade plan is active — so engine.upgrade()
// always finds the local pending slot empty and fires immediately, where
// Rule 7 takes over. At most one node can hold U at a time (U is
// self-incompatible), so this serialization is brief and global
// progress is preserved. Parked sessions wait in FIFO order, so
// upgrades cannot be starved by a stream of other ops.
//
// Threading contract: everything here runs on the engine's executor
// thread (the simulator, or a TcpNode's event loop). start() must be
// called from that thread — from a handler, a scheduled continuation, or
// loop().post(). Like the engines themselves, continuations are
// scheduled, never run re-entrantly: the first request is issued inside
// start(), later steps one executor turn after the previous grant.
#pragma once

#include <concepts>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/executor.hpp"
#include "common/types.hpp"
#include "core/hls_node.hpp"
#include "lockmgr/hierarchy.hpp"
#include "lockmgr/op.hpp"
#include "lockmgr/resource.hpp"
#include "naimi/naimi_node.hpp"

namespace hlock::lockmgr {

/// Completion record for one executed plan.
struct OpStats {
  Op op{};
  /// Issue time -> all locks held (critical section entered).
  Duration acquire_latency{0};
  /// Lock requests issued (the plan's step count: ours 1 or 2, same-work
  /// 1 or entry_count, pure 1).
  std::uint32_t lock_requests{0};
};

using DoneFn = std::function<void(const OpStats&)>;

/// What one op locks: `steps` acquired in order and released in reverse;
/// with `upgrade`, step 0's hold is upgraded U -> W halfway through the
/// dwell.
struct Plan {
  std::vector<PlanStep> steps;
  bool upgrade{false};
};

// One planner per protocol. Each overwrites `out`, reusing its storage:
// a session's plan is rebuilt in place for every op.

/// The paper's protocol (§4): the op's mode on the table, followed by the
/// leaf mode on the entry for entry ops (IR then R, IW then W); table
/// upgrade ops upgrade their U hold to W halfway through the dwell.
void hierarchical_plan(const ResourceLayout& layout, const Op& op, Plan& out);
/// "Naimi same work": entry ops take their entry lock; table ops take
/// every entry lock in ascending order (deadlock avoidance). Naimi has no
/// modes, so every step is exclusive.
void naimi_same_work_plan(const ResourceLayout& layout, const Op& op,
                          Plan& out);
/// "Naimi pure": every op takes the one global exclusive lock.
void naimi_pure_plan(LockId global_lock, Plan& out);

template <class Node>
class BasicSessionMux {
 public:
  static constexpr bool kHls = std::same_as<Node, core::HlsNode>;
  using Engine = std::conditional_t<kHls, core::HlsEngine, naimi::NaimiEngine>;
  using Planner = std::function<void(const Op&, Plan&)>;

  /// Takes over `node`'s acquisition callbacks (one mux per node).
  /// `sessions` logical clients, addressed 0..sessions-1. start() builds
  /// the op's plan with `planner`; without one only run() and acquire()
  /// work.
  BasicSessionMux(Node& node, Executor& executor, std::uint32_t sessions,
                  Planner planner = nullptr);
  /// The paper's protocol over `layout` (hierarchical_plan).
  BasicSessionMux(Node& node, const ResourceLayout& layout,
                  Executor& executor, std::uint32_t sessions)
    requires kHls
      : BasicSessionMux(node, executor, sessions,
                        [&layout](const Op& op, Plan& out) {
                          hierarchical_plan(layout, op, out);
                        }) {}

  BasicSessionMux(const BasicSessionMux&) = delete;
  BasicSessionMux& operator=(const BasicSessionMux&) = delete;

  /// Execute `op` on logical session `session`; `done` fires (from
  /// executor context) after all its locks have been released. One op at
  /// a time per session; other sessions proceed concurrently.
  void start(std::uint32_t session, const Op& op, DoneFn done);
  /// Like start(), with an explicit plan; `op` is echoed in OpStats and
  /// `op.cs` is the dwell.
  void run(std::uint32_t session, Plan plan, const Op& op, DoneFn done);
  /// Split flow: acquire `steps` in order, invoke `done`, and KEEP holding
  /// — the session stays busy until release(session).
  void acquire(std::uint32_t session, std::vector<PlanStep> steps,
               DoneFn done);
  /// Release everything the session's completed acquire() holds, in
  /// reverse order (synchronous engine unlocks), and free the session.
  void release(std::uint32_t session);

  [[nodiscard]] bool busy(std::uint32_t session) const {
    return clients_[session].phase != Phase::kIdle;
  }
  [[nodiscard]] std::uint32_t session_count() const {
    return static_cast<std::uint32_t>(clients_.size());
  }
  /// Sessions currently executing a plan.
  [[nodiscard]] std::uint32_t active() const { return active_; }
  /// Plans completed across all sessions since construction.
  [[nodiscard]] std::uint64_t completed() const { return completed_; }

 private:
  enum class Phase {
    kIdle,
    kGated,      ///< parked in the local upgrade gate, not yet issued
    kAcquiring,  ///< steps[held.size()] requested (or about to be)
    kHeld,       ///< every step held: dwelling, or holding for release()
    kUpgrading,  ///< U -> W upgrade of step 0 in flight
  };

  struct Client {
    Phase phase{Phase::kIdle};
    Plan plan;
    Op op{};
    bool hold{false};  ///< acquire(): keep holding after done
    DoneFn done;
    TimePoint started{0};
    Duration acquire_latency{0};
    std::vector<RequestId> held;  ///< request ids, parallel to plan.steps
    /// The engine each issued step requested from, parallel to
    /// plan.steps; the upgrade and the unlocks reuse it instead of a
    /// second index lookup. Engines never move (see EngineTable).
    std::vector<Engine*> engines;
    /// Id of the request for steps[held.size()], from request_lock's
    /// return until its grant.
    std::optional<RequestId> pending;
  };

  static constexpr std::uint32_t kNoSession = ~std::uint32_t{0};

  /// The idle client `sid`, whose plan the caller may overwrite.
  Client& idle_client(std::uint32_t sid);
  /// Start client `sid` on the plan already stored in it.
  void begin(std::uint32_t sid, const Op& op, DoneFn done, bool hold);
  void drain_gate();
  void issue(std::uint32_t sid);
  void on_acquired(LockId lock, RequestId id);
  void on_upgraded(LockId lock, RequestId id);
  void report(Client& c);
  void unlock_all(std::uint32_t sid);
  void finish(std::uint32_t sid);

  Node& node_;
  Executor& exec_;
  Planner planner_;
  std::vector<Client> clients_;
  /// Issuing slot: the session whose request_lock() is on the stack and
  /// not yet bound to a grant (kNoSession otherwise).
  std::uint32_t issuing_{kNoSession};
  /// Local upgrade gate (see file comment): sessions parked in start
  /// order, plus counts of admitted (issued, unfinished) and upgrade plans.
  std::deque<std::uint32_t> gate_queue_;
  std::uint32_t admitted_{0};
  std::uint32_t active_upgrades_{0};
  std::uint32_t active_{0};
  std::uint64_t completed_{0};
};

extern template class BasicSessionMux<core::HlsNode>;
extern template class BasicSessionMux<naimi::NaimiNode>;

/// The paper's protocol stack; the Naimi baselines run on NaimiSessionMux.
using SessionMux = BasicSessionMux<core::HlsNode>;
using NaimiSessionMux = BasicSessionMux<naimi::NaimiNode>;

}  // namespace hlock::lockmgr
