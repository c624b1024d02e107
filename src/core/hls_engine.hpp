// HlsEngine — the paper's hierarchical locking protocol (Rules 1-7,
// Figure 4 pseudocode), one instance per (node, lock object).
//
// Roles and state
// ---------------
// Nodes form a logical tree via parent pointers; the root holds the token.
// A node *holds* a mode while inside a critical section (Def. 2) and *owns*
// the strongest mode held or owned anywhere in its subtree (Def. 3).
// Children that were granted copies form the node's copyset (Def. 4),
// listed by `for_each_child()` with each child's last reported owned mode.
//
// Message flows (all five Figure 7 categories):
//   REQUEST  — guided along parent links toward a granter or the root
//   GRANT    — copy grant: requester becomes a child of the granter
//   TOKEN    — token transfer: requester becomes the new root; the old
//              root ships its local queue and becomes a child if it still
//              owns a mode
//   RELEASE  — child -> parent, only when the child's owned mode weakened
//              (Rule 5.2); carries the new owned mode
//   FREEZE   — root -> potential granters: replacement frozen-mode set
//              (Rule 6 / Table 2(b)) preserving FIFO fairness
//
// What every engine of one node shares (identity, transport, options,
// topology, callbacks) lives in one EngineContext per node, which HlsNode
// owns; an engine keeps only a pointer to it.
//
// Threading contract: an engine is single-threaded. Callbacks
// (on_acquired / on_upgraded) may fire synchronously from inside an API
// call or handle(); they MUST NOT re-enter the engine — schedule follow-up
// work on your event loop instead (CP.con: keep the lock discipline in one
// place). Both the simulator and the TCP node runner obey this.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "common/cluster_map.hpp"
#include "common/flat_map.hpp"
#include "common/lamport.hpp"
#include "common/logging.hpp"
#include "common/types.hpp"
#include "core/mode.hpp"
#include "core/request_queue.hpp"
#include "msg/message.hpp"

namespace hlock::core {

/// Feature toggles for the ablation benchmarks (DESIGN.md §6). Defaults
/// reproduce the paper's protocol exactly.
struct EngineOptions {
  /// Rule 3.1: non-token copyset members may grant compatible weaker
  /// requests themselves. Off: every request travels to the root.
  bool allow_child_grants = true;
  /// Rule 4.1 / Table 2(a): non-token nodes may queue requests locally
  /// behind their own pending request. Off: always forward.
  bool allow_local_queues = true;
  /// Rule 6 / Table 2(b): FIFO-preserving mode freezing. Off: requests can
  /// bypass queued incompatible requests (starvation possible).
  bool enable_freezing = true;
  /// Rule 5.2: releases propagate to the parent only when the owned mode
  /// weakens. Off ("eager"): every release is reported upward, the
  /// strawman the paper compares against in §3.2.
  bool lazy_release = true;
  /// Extension (intro / Mueller [11,12]): arbitrate queued requests by
  /// priority (higher first, FIFO within a level) instead of pure FIFO.
  /// Upgrades retain their Rule 7 precedence regardless.
  bool enable_priorities = false;

  /// Extension (topology-aware locking, after Chabbi et al.'s hierarchical
  /// MCS locks): the token node may serve queued same-cluster requests
  /// ahead of an older cross-cluster head, batching token hand-offs and
  /// copy grants inside a cluster before the token crosses the expensive
  /// boundary. Inert without a ClusterMap (EngineContext::clusters) — flat
  /// topologies behave exactly like the paper's protocol. Upgrades keep
  /// strict Rule 7 precedence; safety rules are unchanged (only the order
  /// among servable queued requests moves).
  bool locality_bias = false;
  /// Fairness cap on the bias: how many queued requests may be served past
  /// a bypassed queue head before service reverts to strict FIFO. The
  /// bypass streak travels with the token (Message::grant_seq on kToken /
  /// kHandoff), so the bound holds globally across same-cluster hand-offs:
  /// a remote head waits at most this many out-of-order services, ever.
  std::uint8_t locality_fairness_cap = 4;
};

/// Per-node state shared by every engine of that node. HlsNode owns one;
/// each engine keeps a pointer to it, which must outlive the engine.
struct EngineContext {
  EngineContext(NodeId self_id, Transport& out, EngineOptions options = {})
      : self(self_id), transport(out), opts(options) {}

  NodeId self;
  Transport& transport;
  EngineOptions opts;
  /// Topology for EngineOptions::locality_bias (borrowed; must outlive the
  /// engines and be identical on every node); null = flat, bias inert.
  /// Install before any traffic flows.
  const ClusterMap* clusters{nullptr};
  /// A request issued via request_lock() has been granted in `mode`.
  std::function<void(LockId, RequestId, Mode)> on_acquired;
  /// An upgrade issued via upgrade() completed; the hold is now W.
  std::function<void(LockId, RequestId)> on_upgraded;
};

class HlsEngine {
 public:
  /// `initial_token_holder` seeds the tree: that node starts as root. A
  /// non-root node's parent pointer starts at `initial_parent` when given
  /// (the chain must lead to the root — the paper's Figure 1 topologies),
  /// else directly at the root (star, as after full path compression).
  HlsEngine(const EngineContext& ctx, LockId lock,
            NodeId initial_token_holder,
            NodeId initial_parent = NodeId::invalid());

  HlsEngine(const HlsEngine&) = delete;
  HlsEngine& operator=(const HlsEngine&) = delete;

  // ---- application API -------------------------------------------------

  /// Request the lock in `mode` (any real mode). Returns the request id;
  /// on_acquired fires when granted (possibly synchronously, see the
  /// threading contract above). Requests from one node are served in issue
  /// order. `priority` only matters with EngineOptions::enable_priorities.
  RequestId request_lock(Mode mode, std::uint8_t priority = 0);

  /// Non-blocking attempt: acquire `mode` only if Rule 2 admits it with
  /// zero messages (sufficient owned mode, compatible, not frozen, no
  /// earlier local request outstanding). Returns the hold's id on success,
  /// nothing otherwise; never sends a message. This is the semantics the
  /// CosConcurrency-style facade exposes as try_lock.
  std::optional<RequestId> try_request_lock(Mode mode);

  /// Release a hold previously granted through on_acquired.
  void unlock(RequestId id);

  /// Cancel a request that has not been granted yet. Returns true if the
  /// request will never be granted (removed from backlog, or marked so an
  /// eventual grant is auto-released silently); false if it was already
  /// granted (the caller owns a hold and must unlock it). Cancellation
  /// never sends messages — a remote queue entry simply gets its grant
  /// absorbed when it arrives.
  bool cancel(RequestId id);

  /// Atomically weaken a hold to `mode` (safe_downgrade(held, mode) must
  /// allow it); kNone is equivalent to unlock. The owned-mode weakening
  /// propagates per Rule 5.2 like any release.
  void downgrade(RequestId id, Mode mode);

  /// Rule 7: atomically upgrade a held U lock to W without releasing U.
  /// `id` must currently hold U. on_upgraded fires when the hold is W.
  void upgrade(RequestId id);

  /// Dynamic membership: gracefully depart this lock's tree. Requires no
  /// holds and no outstanding local requests (drain first). Children are
  /// told to re-attach to the successor (kReparent -> they kAttach with
  /// their authoritative owned mode over their own FIFO channel); a held
  /// token is handed off unsolicited (kHandoff) with the local queue.
  /// Afterwards the engine is a tombstone that only redirects strays —
  /// probable-owner hints at other nodes may still name us indefinitely.
  /// `successor_if_root`: required when we hold the token (any live
  /// node); ignored otherwise (the parent is the successor).
  void leave(NodeId successor_if_root = NodeId::invalid());

  [[nodiscard]] bool departed() const { return departed_; }

  /// Crash recovery (view change). A membership/view service (external to
  /// the protocol, as in production DLMs) decides that one or more nodes
  /// crashed, picks a surviving `new_root`, assigns a fresh `view` number
  /// and calls this on every survivor. The engine:
  ///   * adopts the view (messages from older views are fenced off — a
  ///     stale pre-crash token can never resurface),
  ///   * discards all tree state (parent, copyset, queue, frozen sets,
  ///     grant counters) while KEEPING local holds and the pending/backlog
  ///     requests,
  ///   * re-attaches to the new root with its authoritative owned mode,
  ///   * re-issues its pending request.
  /// Holds and queue entries of crashed nodes simply never re-attach and
  /// are thereby dropped. Requires new_view > the current view.
  ///
  /// `survivors` is the full live membership of the new view (as decided
  /// by the view service; must include self and new_root). The new root
  /// runs a BARRIER: every survivor sends an attach (a ping when it owns
  /// nothing), and no queued request is served until all have arrived —
  /// otherwise the root could grant W while another survivor's hold
  /// registration is still in flight.
  void begin_recovery(std::uint32_t new_view, NodeId new_root,
                      const std::set<NodeId>& survivors);

  [[nodiscard]] std::uint32_t view() const { return view_; }

  /// Current head-bypass streak (tests): services performed past an older
  /// queued request since the last strict-FIFO head service.
  [[nodiscard]] std::uint32_t locality_streak() const {
    return locality_streak_;
  }

  // ---- protocol entry point --------------------------------------------

  /// Feed one incoming message (kinds kRequest..kFreeze) for this lock.
  void handle(const Message& m);

  // ---- introspection (tests, invariant probes, metrics) -----------------

  [[nodiscard]] LockId lock() const { return lock_; }
  [[nodiscard]] NodeId self() const { return ctx_->self; }
  [[nodiscard]] bool is_token_node() const { return has_token_; }
  [[nodiscard]] NodeId parent() const { return parent_; }
  /// Strongest mode this node itself currently holds (Def. 2).
  [[nodiscard]] Mode held_mode() const;
  /// Strongest mode held/owned in the subtree rooted here (Def. 3).
  [[nodiscard]] Mode owned_mode() const;
  /// Owned mode `child` last reported (Def. 4); kNone when it is not in
  /// the copyset.
  [[nodiscard]] Mode child_mode(NodeId child) const;
  /// Number of copyset members.
  [[nodiscard]] std::size_t copyset_size() const;
  /// Visit the copyset members as (child, last reported owned mode), in
  /// ascending node-id order.
  template <typename Fn>
  void for_each_child(Fn&& fn) const {
    for (const auto& [child, rec] : children_)
      if (rec.owned != Mode::kNone) fn(child, rec.owned);
  }
  [[nodiscard]] ModeSet frozen() const { return frozen_; }
  /// The local queue, head first.
  [[nodiscard]] std::span<const QueuedRequest> queue() const {
    return queue_.entries();
  }
  /// All live holds (request id -> mode), sorted by request id.
  [[nodiscard]] const FlatMap<RequestId, Mode>& holds() const {
    return holds_;
  }
  /// True if a local request is pending in the protocol (sent upward or
  /// queued somewhere).
  [[nodiscard]] bool has_pending() const { return pending_.id.valid(); }
  /// Mode of the pending local request (kNone when none) — diagnostic
  /// input to the wait-for-graph deadlock detector.
  [[nodiscard]] Mode pending_request_mode() const { return pending_.mode; }
  [[nodiscard]] std::size_t backlog_size() const { return backlog_.size(); }
  /// True once a cancel or a recovery needed the rarely used side record.
  [[nodiscard]] bool has_side_record() const { return side_ != nullptr; }

 private:
  /// A local request that is "in the protocol": sent to the parent or
  /// sitting in a queue (ours while we are root, or shipped with the
  /// token). At most one exists (pending_; an invalid id means none);
  /// later local requests wait in backlog_.
  struct PendingLocal {
    RequestId id{};
    LamportStamp stamp{};
    Mode mode{Mode::kNone};
    bool upgrade{false};
    std::uint8_t priority{0};
  };

  /// Everything this node knows about one child, in one record. `owned`
  /// is the child's last reported owned mode, and kNone means the child is
  /// not in the copyset. The record outlives membership for as long as
  /// its grant count matters: a release echoing an older count is stale
  /// (see handle_release), so a record that counted grants stays until
  /// recovery or leave(), and one that never did is erased when the child
  /// leaves the copyset.
  struct ChildRecord {
    /// Copy grants sent to this child (Message::grant_seq).
    std::uint64_t grants_sent{0};
    Mode owned{Mode::kNone};
    /// Last frozen set pushed to this child, to send deltas only.
    ModeSet sent_frozen;
  };

  /// State only cancels and recovery touch, allocated on first use so an
  /// engine that never sees either pays one pointer for it.
  struct SideRecord {
    /// Requests cancelled while in flight: their grant is absorbed.
    FlatSet<RequestId> cancelled;
    /// Barrier (root only): survivors whose recovery attach is still due.
    /// Queue service is deferred while non-empty.
    FlatSet<NodeId> recovery_waiting;
  };

  // -- derived state helpers (all O(1): computed from the per-mode count
  // arrays maintained incrementally by the set_/erase_ mutators below and
  // by RequestQueue, instead of rescanning children_/holds_/queue_ on
  // every message) --
  [[nodiscard]] Mode children_mode() const;
  /// Owned mode with one child's contribution removed (upgrade checks).
  [[nodiscard]] Mode owned_mode_excluding_child(NodeId child) const;
  /// Owned mode with one local hold removed (token-side upgrade check).
  [[nodiscard]] Mode owned_mode_excluding_hold(RequestId id) const;

  // -- aggregate-maintaining mutators (the ONLY places a child's owned mode
  // or holds_ may be modified, so the count arrays never drift) --
  void set_owned(ChildRecord& rec, Mode mode);
  /// The child left the copyset: its record keeps only its grant count.
  void erase_child(NodeId child);
  void clear_children();
  void set_hold(RequestId id, Mode mode);
  void erase_hold(FlatMap<RequestId, Mode>::iterator it);
  /// Strongest mode with a nonzero count, starting the fold at `base`.
  [[nodiscard]] static Mode strongest_counted(
      const std::array<std::uint32_t, kModeCount>& counts, Mode base,
      Mode exclude_one = Mode::kNone);
  /// True while hold `id` has an upgrade in flight.
  [[nodiscard]] bool upgrading(RequestId id) const {
    return upgrading_hold_.valid() && upgrading_hold_ == id;
  }
  [[nodiscard]] SideRecord& side();
  /// True while a recovery barrier defers queue service.
  [[nodiscard]] bool barrier_open() const {
    return side_ && !side_->recovery_waiting.empty();
  }

  // -- local request plumbing --
  void start_local_request(PendingLocal req);
  void admit_local(RequestId id, Mode mode);
  void resolve_pending_with_grant(Mode mode);
  void pump_backlog();

  // -- message handlers --
  void handle_request(const Message& m);
  void handle_request_as_token(const QueuedRequest& q);
  void handle_request_as_nontoken(const QueuedRequest& q);
  void handle_grant(const Message& m);
  void handle_token(const Message& m);
  void handle_release(const Message& m);
  void handle_freeze(const Message& m);
  void handle_reparent(const Message& m);
  void handle_attach(const Message& m);
  void handle_handoff(const Message& m);
  void handle_departed(const Message& m);

  // -- granting machinery --
  /// Insert into the local queue honouring upgrade precedence and, when
  /// enabled, priority order (else FIFO).
  void enqueue(const QueuedRequest& q);
  void grant_copy(const QueuedRequest& q);
  void transfer_token(const QueuedRequest& q);
  /// Locality bias: true when the token could serve queue entry `q` right
  /// now (mirrors the head-first service cases; upgrades excluded — they
  /// are always served strictly head-first).
  [[nodiscard]] bool token_can_serve_now(const QueuedRequest& q) const;
  /// Index of the queue entry the token serves next: 0 (strict FIFO)
  /// unless locality bias is active, under its fairness cap, and a
  /// same-cluster entry is servable earlier than the head allows.
  [[nodiscard]] std::size_t pick_queue_index() const;
  bool try_serve_upgrade_as_token(const QueuedRequest& q);
  /// Serve the queue head-first while possible (token pseudocode loop).
  void check_queue_token();
  /// Re-triage the local queue after the pending request resolved or a
  /// release arrived: grant / keep / forward per Rules 3.1 and 4.1.
  void check_queue_nontoken();
  void check_queue();

  // -- releases --
  /// After any weakening event: propagate RELEASE if Rule 5.2 demands it.
  void propagate_release_if_needed(Mode owned_before);
  /// On re-parenting (grant/token from a node other than the current
  /// parent) while still owning a mode: leave the old parent's copyset.
  void detach_from_old_parent(NodeId new_parent);

  // -- freezing --
  void recompute_frozen_token();
  void push_freeze_updates();
  [[nodiscard]] bool is_potential_granter(Mode child_owned,
                                          ModeSet modes) const;

  void send(NodeId to, Message m);
  [[nodiscard]] RequestId fresh_request_id();

  // Members are ordered so the small fields fill what would otherwise be
  // alignment padding: forests materialize 10^5+ engines, and each one is
  // a single allocation of sizeof(HlsEngine). Per-node state lives in the
  // context, per-child state in one record per child, and state only
  // cancels and recovery need in the lazily allocated side record.

  const EngineContext* ctx_;
  const LockId lock_;
  NodeId parent_;  ///< invalid while root
  /// Recovery view; messages from other views are dropped.
  std::uint32_t view_{0};
  /// Consecutive out-of-FIFO-order services since the queue head was last
  /// served (ships with the token so the fairness cap binds globally).
  /// Always 0 while the bias is off — nothing changes on the wire.
  std::uint32_t locality_streak_{0};
  /// Low half of the next request id (the high half is self).
  std::uint32_t next_request_{1};
  bool has_token_;
  ModeSet frozen_;
  /// Set whenever a member's mode / frozen_ / a sent frozen set changes;
  /// lets push_freeze_updates() skip its full-children scan on the
  /// (common) calls where nothing it depends on moved since the last push.
  bool freeze_sync_needed_{true};
  /// Tombstone state after leave(): parent_ holds the forwarding target.
  bool departed_{false};

  // All per-peer tables below are flat sorted vectors (common/flat_map.hpp)
  // rather than rb-trees: copysets are small, every handle() touches
  // them, and the flat layout keeps lookups contiguous. Every container
  // here starts empty without allocating (an idle engine costs one
  // allocation, its own object) and allocates again only to grow past its
  // previous high-water mark.
  FlatMap<NodeId, ChildRecord> children_;
  /// How many copyset members own each mode (incremental aggregate behind
  /// the O(1) children_mode() / owned_mode_excluding_child()).
  std::array<std::uint32_t, kModeCount> child_mode_count_{};

  // -- lock state --
  FlatMap<RequestId, Mode> holds_;
  /// How many local holds are in each mode (same idea as above).
  std::array<std::uint32_t, kModeCount> hold_mode_count_{};
  PendingLocal pending_;
  /// Local requests waiting behind pending_, oldest first. Vectors, not
  /// deques: both are short, and an empty std::deque allocates ~576 B.
  std::vector<PendingLocal> backlog_;
  /// Requests waiting here; its per-mode counts make Rule 6 O(1).
  RequestQueue queue_;
  /// Grants received per parent — releases echo the count so a release
  /// that crossed a newer grant in flight can be recognized as stale and
  /// dropped (see Message::grant_seq and ChildRecord::grants_sent).
  FlatMap<NodeId, std::uint64_t> grants_received_;
  /// The hold being upgraded; invalid while no upgrade is in flight.
  RequestId upgrading_hold_;
  std::unique_ptr<SideRecord> side_;
  LamportClock lamport_;
};

}  // namespace hlock::core
