#pragma once

/// \file messages.h
/// The QUERY and REPLY messages of Figure 4(a) in the paper. Their binary
/// wire format lives in the codec layer (wire/codecs.cpp, spec in
/// docs/PROTOCOL.md §"Wire format"); sizes come from Message::wire_size().
///
/// QUERY fields map 1:1 to the paper:
///   id        -> QueryMsg::id
///   address   -> QueryMsg::reply_to   (address of the last forwarder)
///   ranges    -> QueryMsg::query      (vector of desired ranges per attribute)
///   sigma     -> QueryMsg::sigma      (number of nodes to find; optional)
///   level     -> QueryMsg::level      (cell level to explore; default max(l))
///   dimensions-> QueryMsg::dims_mask  (set of dimensions to explore)
///
/// REPLY: id -> ReplyMsg::id, matching -> ReplyMsg::matching (address,values),
/// sender is implicit in the simulated delivery.

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "runtime/message.h"
#include "space/query.h"

namespace ares {

/// "σ = ∞": no threshold on the number of requested nodes.
inline constexpr std::uint32_t kNoSigma = std::numeric_limits<std::uint32_t>::max();

/// A discovered candidate: address plus attribute values.
struct MatchRecord {
  NodeId id = kInvalidNode;
  Point values;
};

/// True when `records` are strictly ascending by id: the order every
/// candidate set is kept and published in (kReply bodies included).
bool ids_ascending(std::span<const MatchRecord> records);

/// Set union of two candidate sets (Fig. 5 receive_reply line 2): merges
/// `run` into `held`, both strictly ascending by id, in one linear pass.
/// On an id present in both, the record already in `held` wins. The merge
/// works in place with no scratch buffer and grows `held` at most once;
/// that growth may reallocate, so `run` must not point into `held`.
void merge_records(std::vector<MatchRecord>& held, std::span<const MatchRecord> run);

struct QueryMsg final : Message {
  QueryId id = 0;
  NodeId reply_to = kInvalidNode;  // last forwarder; replies go here
  NodeId origin = kInvalidNode;    // originating node (measurement only)
  RangeQuery query;
  std::uint32_t sigma = kNoSigma;
  /// Cell level to explore next. max(l) on creation; -1 marks a leaf probe
  /// sent to a level-0 cohabitant that must only answer, not forward.
  int level = 0;
  /// Bit k set <=> dimension k may still be explored at `level`.
  std::uint32_t dims_mask = 0;

  const char* type_name() const override { return "select.query"; }
  wire::Kind kind() const override { return wire::Kind::kQuery; }
};

/// Branch keepalive (engineering extension, see ProtocolConfig::
/// query_timeout): a node working on a forwarded query heartbeats its
/// parent so a fixed T(q) detects only true failures — without it, one
/// dead node deep in a subtree delays every ancestor past its timeout and
/// alive children get falsely declared dead.
struct ProgressMsg final : Message {
  QueryId id = 0;

  const char* type_name() const override { return "select.progress"; }
  wire::Kind kind() const override { return wire::Kind::kProgress; }
};

struct ReplyMsg final : Message {
  QueryId id = 0;
  /// Strictly ascending by id, every record of one dimensionality: the
  /// wire body codes ids as gaps and states d once.
  std::vector<MatchRecord> matching;
  /// True when the replying subtree exhausted its delegated fragment: the
  /// DFS wound all the way down (no sigma early-cutoff), no branch failed,
  /// and every child reply was itself complete. A subcell with no known
  /// link counts as empty (SelectionNode::finish). Only complete
  /// fragments may enter the result cache (see ProtocolConfig::
  /// result_cache_capacity); partial answers are still merged normally.
  bool complete = false;

  const char* type_name() const override { return "select.reply"; }
  wire::Kind kind() const override { return wire::Kind::kReply; }
};

/// Mask with the lowest `d` bits set (dimensions 0..d-1 all explorable).
constexpr std::uint32_t all_dims_mask(int d) {
  return d >= 32 ? ~std::uint32_t{0} : ((std::uint32_t{1} << d) - 1);
}

}  // namespace ares
