#pragma once

/// \file datagram.h
/// The on-the-wire datagram format of the UDP runtime backend (see
/// docs/PROTOCOL.md §"Datagram transport"). A protocol message travels
/// under a fixed 14-byte routing header:
///
///   offset  size  field
///        0     2  magic        0xA7E5, little-endian
///        2     1  version      kVersion (3)
///        3     1  flags        bit 0 = coalesced payload; other bits
///                              reserved, must be 0 (receivers reject)
///        4     4  src NodeId   little-endian
///        8     4  dst NodeId   little-endian
///       12     2  payload_len  little-endian, == datagram length - 14
///       14     .  payload      see below
///
/// With flags bit 0 clear the payload is one wire::encode() frame (kind tag
/// + body). With bit 0 set (kFlagCoalesced) the
/// payload is a sequence of length-prefixed sub-frames, each its own
/// (src, dst, frame) triple:
///
///   offset  size  field
///        0     4  src NodeId   little-endian
///        4     4  dst NodeId   little-endian
///        8     2  frame_len    little-endian
///       10     .  frame        one wire::encode() frame
///
/// Sub-frame lengths must tile the payload exactly; a sub-frame that
/// overruns the payload, or trailing bytes after the last sub-frame, reject
/// the whole datagram (rx_rejected). The outer header's src/dst mirror the
/// first sub-frame's and are ignored for routing a coalesced payload.
///
/// The frame bytes are byte-identical to what LoopbackRuntime moves: the
/// codec registry in runtime/wire.h is the only serialization path. The
/// header exists because one socket per process hosts many nodes — src/dst
/// route within and across processes — and because version/magic let a
/// receiver reject foreign or stale traffic before touching the codec layer.
///
/// decode_header() never trusts input: short datagrams, wrong magic, an
/// unknown version, or a length field that disagrees with the received size
/// all fail cleanly (the caller drops and meters the datagram).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace ares::net {

inline constexpr std::uint16_t kMagic = 0xA7E5;
/// Version 2: the four gossip kinds carry delta-coded descriptor lists
/// under the same kind tags that carried the plain layout in version 1.
/// Version 3: descriptors no longer carry cell coordinates, and reply
/// records travel as varint id gaps and values. Each change reuses the kind
/// tags, so an older frame could be misread; receivers reject it at the
/// header.
inline constexpr std::uint8_t kVersion = 3;
inline constexpr std::size_t kHeaderSize = 14;

/// Flags bit 0: the payload is a sequence of length-prefixed sub-frames
/// (see the file comment). All other bits are reserved and must be 0.
inline constexpr std::uint8_t kFlagCoalesced = 0x01;

/// Per-sub-frame header inside a coalesced payload: src(4) + dst(4) +
/// frame_len(2), all little-endian.
inline constexpr std::size_t kSubHeaderSize = 10;

/// Largest UDP payload over IPv4 (65535 - 20 IP - 8 UDP). A protocol frame
/// plus header above this cannot be sent as one datagram.
inline constexpr std::size_t kMaxDatagram = 65507;

struct DatagramHeader {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint8_t flags = 0;
  std::uint16_t payload_len = 0;
};

/// Writes the 14-byte header into `out` (caller guarantees capacity).
void encode_header(const DatagramHeader& h, std::uint8_t* out);

/// Parses and validates a received datagram's header. Returns false when
/// the datagram is shorter than a header, the magic or version is wrong, or
/// payload_len != len - kHeaderSize. On success `out` is filled and the
/// payload is data + kHeaderSize, payload_len bytes. Flags are returned
/// as-is; callers enforce the reserved-bits rule.
bool decode_header(const std::uint8_t* data, std::size_t len, DatagramHeader& out);

/// Appends one sub-frame (sub-header + frame bytes) to a coalesced payload
/// under construction.
void append_subframe(std::vector<std::uint8_t>& payload, NodeId src, NodeId dst,
                     const std::uint8_t* frame, std::size_t frame_len);

/// One parsed sub-frame of a coalesced payload.
struct SubFrame {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  const std::uint8_t* frame = nullptr;
  std::uint16_t frame_len = 0;
};

/// Forward iterator over the sub-frames of a coalesced payload. Call
/// next() until it returns false, then check ok(): true means the payload
/// tiled exactly into sub-frames, false means it was malformed (a
/// sub-header or frame overran the payload — the caller rejects the whole
/// datagram; any prefix already delivered stays delivered, mirroring UDP's
/// partial-loss semantics).
class SubframeParser {
 public:
  SubframeParser(const std::uint8_t* payload, std::size_t len)
      : payload_(payload), len_(len) {}

  /// Advances to the next sub-frame; false at end-of-payload or on error.
  bool next(SubFrame& out);

  /// True when the payload parsed cleanly to the end (call after next()
  /// returns false).
  bool ok() const { return ok_ && pos_ == len_; }

 private:
  const std::uint8_t* payload_;
  std::size_t len_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ares::net
