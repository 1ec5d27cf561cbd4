#pragma once

/// \file message.h
/// Base class for everything sent between protocol nodes, and the wire kind
/// tags that identify each message type on the wire. Concrete protocol
/// messages (gossip exchanges, QUERY/REPLY, DHT RPCs, baseline traffic)
/// derive from Message and name their wire::Kind; everything else about the
/// wire format — field layout, sizes, decode — lives in the codec layer
/// (runtime/wire.h + wire/codecs.cpp).
///
/// wire_size() is deliberately NON-virtual: the serialized size of a message
/// is whatever the codec produces, not something each message type estimates
/// by hand. The first call runs the codec's one put into a counting Sizer
/// (no allocation) and caches the length; experiments therefore account
/// traffic with the exact bytes a socket transport would move (e.g. the
/// 2,560 B/node/cycle gossip cost in paper §6).
///
/// This header lives in runtime/ (not sim/) on purpose: the protocol core is
/// transport-independent, and Message is part of the Runtime contract every
/// backend (discrete-event sim, loopback, a future socket transport)
/// implements. See docs/PROTOCOL.md §"Layering" and §"Wire format".

#include <cstddef>
#include <cstdint>
#include <memory>

namespace ares::wire {

/// Message kind tags — the first byte of every frame. Stable on the wire;
/// append only, never renumber. Values in [kTestBase, 255] are reserved for
/// test- and bench-local message types (register via wire::register_codec).
enum class Kind : std::uint8_t {
  kInvalid = 0,
  kCyclonRequest = 1,
  kCyclonReply = 2,
  kVicinityRequest = 3,
  kVicinityReply = 4,
  kQuery = 5,
  kReply = 6,
  kProgress = 7,
  kDhtPut = 8,
  kDhtGet = 9,
  kDhtRecords = 10,
  kFloodQuery = 11,
  kFloodHit = 12,
  kSliceRequest = 13,
  kSliceReply = 14,
  kTestBase = 240,
};

namespace detail {
struct SizeCache;  // grants the codec driver access to the cached length
}

}  // namespace ares::wire

namespace ares {

class Message {
 public:
  virtual ~Message() = default;

  /// Stable short name used for per-type traffic accounting.
  virtual const char* type_name() const = 0;

  /// The wire kind tag this message is framed with.
  virtual wire::Kind kind() const = 0;

  /// Exact serialized size in bytes (kind tag + codec-encoded body).
  /// Computed by the codec on first call and cached; 0 when no codec is
  /// registered for kind(). Treat a message as immutable once it has been
  /// sized or sent — the cache is not invalidated by field mutation.
  std::size_t wire_size() const;

 private:
  friend struct wire::detail::SizeCache;
  mutable std::uint32_t cached_wire_size_ = 0;  // 0 = not yet computed
};

using MessagePtr = std::unique_ptr<Message>;

}  // namespace ares
