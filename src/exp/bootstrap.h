#pragma once

/// \file bootstrap.h
/// Oracle bootstrap: fills every live SelectionNode's routing table directly
/// from global knowledge, producing the converged overlay the paper's
/// scalability experiments start from ("we first randomly populate the space
/// with nodes ... and give them sufficient time to build their routing
/// tables"). The gossip layers would converge to the same structure; the
/// oracle makes large-N experiments affordable.
///
/// Complexity: O(N * d * max_level) using per-cell sibling-prefix buckets
/// (see bootstrap.cpp), so 100,000-node grids bootstrap in well under a
/// second.
///
/// Two entry points: oracle_bootstrap() rebuilds every table in a Network
/// (the simulator path), and oracle_fill() is the backend-neutral core — it
/// works off the store's rows and a table-lookup callback, so a
/// multi-process deployment child (exp/deploy.h) can compute the global
/// overlay from the shared point set and install entries for just the nodes
/// it hosts.

#include <cstddef>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "gossip/peer.h"
#include "sim/network.h"
#include "space/descriptor_store.h"

// NOTE: this lives in exp/ (not core/) because the oracle needs global
// omniscience — direct typed access to every node in a Network — which the
// runtime contract deliberately does not give protocol code.

namespace ares {

class RoutingTable;

struct OracleOptions {
  /// Candidates installed per N(l,k) slot (primary + backups), sampled
  /// uniformly from the subcell's population.
  std::size_t per_slot = 3;
  /// Also fill the neighborsZero lists (complete level-0 cell membership).
  bool fill_zero = true;
};

/// Rebuilds the routing table of every live SelectionNode in `net`, whose
/// profiles `store` holds. Existing routing entries are cleared first.
void oracle_bootstrap(Network& net, const DescriptorStore& store,
                      const OracleOptions& opt = {});

/// The bootstrap core: `ids` lists every live node in the whole deployment,
/// each with a row in `store` (the store the tables resolve peers in);
/// `target(i)` returns the routing table to fill for ids[i], or nullptr
/// when the caller does not host that node (its slots are skipped,
/// including their sampling draws). Tables are not cleared here. Entries
/// offered to a hosted table may reference non-hosted peers — that is the
/// point: the overlay spans processes.
void oracle_fill(const DescriptorStore& store, const std::vector<NodeId>& ids,
                 const std::function<RoutingTable*(std::size_t)>& target,
                 const OracleOptions& opt, Rng& rng);

}  // namespace ares
