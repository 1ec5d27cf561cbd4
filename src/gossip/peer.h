#pragma once

/// \file peer.h
/// Peer descriptors circulated by the gossip layers. A descriptor carries the
/// peer's address (NodeId), its attribute values (the second gossip layer
/// associates links "with the attribute values of the node they represent",
/// §5), and an age counter used for freshness-based replacement. The peer's
/// cell is not part of it: every reader derives the cell from the values
/// (DescriptorStore::put), so it never travels.

#include <cstdint>

#include "common/types.h"
#include "space/descriptor_store.h"

namespace ares {

/// The 8-byte in-memory handle the gossip views and routing tables store
/// instead of a flat PeerDescriptor copy: the peer's address plus this
/// node's local freshness counter for the link. The peer's attribute
/// profile lives in the deployment-wide DescriptorStore; full descriptors
/// are materialized only when a message is built.
struct CompactPeer {
  NodeId id = kInvalidNode;
  std::uint32_t age = 0;

  friend bool operator==(const CompactPeer& a, const CompactPeer& b) {
    return a.id == b.id;  // identity comparison; ages may differ
  }
};

struct PeerDescriptor {
  NodeId id = kInvalidNode;
  Point values;  // attribute values of the peer
  std::uint32_t age = 0;

  friend bool operator==(const PeerDescriptor& a, const PeerDescriptor& b) {
    return a.id == b.id;  // identity comparison; ages/values may differ
  }
};

/// Rebuilds the wire-format descriptor for a stored peer. Precondition:
/// store.contains(p.id).
inline PeerDescriptor materialize(const DescriptorStore& store, CompactPeer p) {
  return PeerDescriptor{p.id, store.point_of(p.id), p.age};
}

}  // namespace ares
