// Global safety invariants over an HlsCluster, checkable after every
// simulation event (DESIGN.md §7):
//
//   I1  at most one token node per lock (exactly one when quiescent)
//   I2  all concurrently *held* modes of a lock are pairwise compatible
//       (Rule 1 — the fundamental mutual-exclusion property)
//   I3  every non-token owner is recorded by its parent with a mode at
//       least as strong as the child's actual owned mode (Def. 3/4)
//   I4  quiescent state is clean: no holds, no pending requests, empty
//       queues, empty copysets, empty frozen sets
//
// The checks read engines through HlsNode::find() and never materialize
// one: a lock a node never touched is checked as its pristine engine.
#pragma once

#include <string>

#include "harness/cluster.hpp"

namespace hlock::harness {

/// Checks I1-I3. Returns an empty string if all hold, else a description
/// of the first violation. Safe to call between arbitrary events.
std::string check_safety(const HlsCluster& cluster);

/// Checks I4 in addition to I1-I3; call only after run() completed.
std::string check_quiescent(const HlsCluster& cluster);

/// Installs check_safety as the simulator's post-event hook; any violation
/// throws std::logic_error with the description (fails the test at the
/// exact event that broke the invariant).
void install_safety_probe(HlsCluster& cluster);

}  // namespace hlock::harness
