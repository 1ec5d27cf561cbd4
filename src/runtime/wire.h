#pragma once

/// \file wire.h
/// The codec seam of the Runtime contract: bounded binary Writer/Reader
/// primitives, the per-Kind codec registry, and the frame driver that every
/// transport backend routes messages through.
///
/// Frame layout: 1-byte wire::Kind tag, then the kind-specific body (see
/// docs/PROTOCOL.md §"Wire format"). Encoding conventions: little-endian
/// fixed-width integers, LEB128-style varints for counts, explicit presence
/// bytes for optionals. Readers never trust input: every accessor checks
/// bounds and flips a sticky error flag instead of reading past the end, so
/// truncated or corrupt packets decode to a clean failure, never UB.
///
/// The codecs for the in-tree protocol messages live in wire/codecs.cpp and
/// are registered on first use of the driver (register_builtin_codecs(), a
/// link-time seam that also keeps the codec TU from being dropped out of the
/// static library). Tests and benches may register additional codecs for
/// their local message types under Kind values >= wire::Kind::kTestBase.
///
/// Backends: sim::Network passes message pointers and uses the codecs only
/// to size each send; LoopbackRuntime and UdpRuntime move the frame bytes,
/// encoding at send and decoding at delivery. Frames that fail either step
/// are dropped and bump the per-node "wire.encode_fail" (sender) or
/// "wire.decode_fail" (receiver) metric instead of crashing.
///
/// The four gossip kinds (CYCLON/Vicinity request+reply) carry their
/// descriptor lists delta-coded against the first entry; the paper's plain
/// descriptor-list layout survives only as a closed-form size, so the §6
/// budget can still be reported next to the bytes actually sent
/// (paper_layout_savings()). See docs/PROTOCOL.md §"Descriptor-list encoding".

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "runtime/message.h"

namespace ares::wire {

class Writer {
 public:
  Writer() = default;

  /// A counting writer: tracks the encoded size without storing (or heap-
  /// allocating) any bytes. This is what Message::wire_size() encodes into,
  /// keeping traffic accounting allocation-free on the send hot path.
  static Writer sizer() {
    Writer w;
    w.count_only_ = true;
    return w;
  }

  /// Encoded bytes so far (always empty for a counting writer).
  const std::vector<std::uint8_t>& bytes() const { return out_; }
  std::vector<std::uint8_t> take() { return std::move(out_); }

  /// Number of bytes encoded (counted even in counting mode).
  std::size_t size() const { return n_; }

  // Each primitive takes the counting branch once, not per byte: sizing is
  // the per-send hot path (Message::wire_size() backs traffic accounting),
  // so a u64 must cost one add, not eight branch-y byte appends.

  void u8(std::uint8_t v) {
    ++n_;
    if (!count_only_) out_.push_back(v);
  }

  void u16(std::uint16_t v) {
    n_ += 2;
    if (count_only_) return;
    const std::uint8_t b[2] = {static_cast<std::uint8_t>(v),
                               static_cast<std::uint8_t>(v >> 8)};
    out_.insert(out_.end(), b, b + 2);
  }

  void u32(std::uint32_t v) {
    n_ += 4;
    if (count_only_) return;
    const std::uint8_t b[4] = {
        static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
        static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
    out_.insert(out_.end(), b, b + 4);
  }

  void u64(std::uint64_t v) {
    n_ += 8;
    if (count_only_) return;
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    out_.insert(out_.end(), b, b + 8);
  }

  /// IEEE-754 double, little-endian bit pattern.
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  /// Unsigned LEB128 (7 bits per byte, high bit = continuation).
  void varint(std::uint64_t v) {
    if (count_only_) {
      do {
        ++n_;
        v >>= 7;
      } while (v != 0);
      return;
    }
    while (v >= 0x80) {
      u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    u8(static_cast<std::uint8_t>(v));
  }

  /// Presence byte + payload.
  void opt_u64(const std::optional<std::uint64_t>& v) {
    u8(v.has_value() ? 1 : 0);
    if (v) varint(*v);
  }

  void bytes_raw(const void* data, std::size_t len) {
    n_ += len;
    if (count_only_) return;
    const auto* p = static_cast<const std::uint8_t*>(data);
    out_.insert(out_.end(), p, p + len);
  }

  void str(const std::string& s) {
    varint(s.size());
    bytes_raw(s.data(), s.size());
  }

 private:
  std::vector<std::uint8_t> out_;
  std::size_t n_ = 0;
  bool count_only_ = false;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len) : data_(data), len_(len) {}
  explicit Reader(const std::vector<std::uint8_t>& v) : Reader(v.data(), v.size()) {}

  bool ok() const { return ok_; }
  bool at_end() const { return pos_ == len_; }
  std::size_t remaining() const { return len_ - pos_; }

  std::uint8_t u8() {
    if (!ensure(1)) return 0;
    return data_[pos_++];
  }

  std::uint16_t u16() {
    std::uint16_t lo = u8();
    return static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(u8()) << 8));
  }

  std::uint32_t u32() {
    std::uint32_t lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }

  std::uint64_t u64() {
    std::uint64_t lo = u32();
    return lo | (static_cast<std::uint64_t>(u32()) << 32);
  }

  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      std::uint8_t b = u8();
      if (!ok_) return 0;
      if (shift == 63 && b > 1) break;  // the tenth byte holds bit 63 only
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
    }
    ok_ = false;  // varint longer than 64 bits: corrupt
    return 0;
  }

  std::optional<std::uint64_t> opt_u64() {
    std::uint8_t present = u8();
    if (!ok_ || present == 0) return std::nullopt;
    if (present != 1) {
      ok_ = false;  // presence byte must be 0/1
      return std::nullopt;
    }
    return varint();
  }

  std::string str() {
    std::uint64_t n = varint();
    if (!ensure(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  /// Reads a count that is about to size a container; rejects counts that
  /// could not possibly fit in the remaining bytes (decompression-bomb and
  /// bad-alloc guard).
  std::uint64_t count(std::size_t min_bytes_per_element) {
    std::uint64_t n = varint();
    if (min_bytes_per_element > 0 &&
        n > remaining() / std::max<std::size_t>(1, min_bytes_per_element)) {
      ok_ = false;
      return 0;
    }
    return n;
  }

 private:
  bool ensure(std::uint64_t n) {
    if (!ok_ || n > len_ - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- codec registry ---------------------------------------------------------

/// One entry in the per-Kind registry. A codec may serve several kinds (e.g.
/// request/reply variants share functions and dispatch on the tag).
struct Codec {
  /// Writes the body — everything after the kind tag. Must succeed for any
  /// instance of the registered type (encode is total on valid messages).
  void (*encode_body)(const Message& m, Writer& w);

  /// Parses the body (tag already consumed). Returns nullptr on malformed
  /// input; must never read out of bounds (use the bounded Reader).
  MessagePtr (*decode_body)(Reader& r, Kind kind);

  /// Optional exact body size (bytes after the tag). When set, sizing skips
  /// the counting encode — this sits on the per-send accounting hot path.
  /// MUST agree with encode_body for every message; the round-trip property
  /// test (cached size == encoded length, randomized, every kind) enforces
  /// it. nullptr falls back to a counting encode, which is always correct.
  std::size_t (*size_body)(const Message& m) = nullptr;
};

/// Registers `codec` for `kind`, replacing any previous registration.
/// Not thread-safe: register before spawning trial workers (test/bench
/// registrations happen at static-init or in main; builtin protocol codecs
/// are installed once, lazily, under a std::once_flag).
void register_codec(Kind kind, const Codec& codec);

/// The codec registered for `kind`; nullptr when none. Ensures the builtin
/// protocol codecs are installed.
const Codec* find_codec(Kind kind);

/// Bytes the paper's plain descriptor-list layout of `m` would take beyond
/// its actual frame (0 for kinds that carry no descriptor list). Reads the
/// cached wire_size(), so metering it costs no second sizing pass. Backends
/// accumulate this into the "wire.bytes_delta_saved" metric at the send
/// boundary, so wire + saved reconciles to the paper's ~2,560 B/node/cycle.
/// Defined in wire/codecs.cpp, next to the layout it measures.
std::size_t paper_layout_savings(const Message& m);

// ---- frame driver -----------------------------------------------------------

/// Serializes `m` as kind tag + body; false when no codec is registered.
bool encode(const Message& m, Writer& w);

/// Convenience: encode into a fresh byte vector (empty on failure).
std::vector<std::uint8_t> encode(const Message& m);

/// Exact frame size of `m` via a counting encode; 0 when no codec is
/// registered. Does not allocate.
std::size_t encoded_size(const Message& m);

/// Parses one frame; nullptr when the input is malformed, the kind is
/// unknown, or trailing bytes remain. On success the decoded message's
/// wire_size() cache is stamped with the frame length.
MessagePtr decode(const std::uint8_t* data, std::size_t len);
MessagePtr decode(const std::vector<std::uint8_t>& bytes);

namespace detail {

/// Installs the codecs for all in-tree protocol messages. Defined in
/// wire/codecs.cpp; referenced from the driver so the codec translation unit
/// is always linked and registration can never be skipped.
void register_builtin_codecs();

/// Private access to Message's cached frame length (the driver stamps it on
/// decode so sizes are measured exactly once per message).
struct SizeCache {
  static void set(const Message& m, std::size_t n) {
    m.cached_wire_size_ = static_cast<std::uint32_t>(n);
  }
  static std::uint32_t get(const Message& m) { return m.cached_wire_size_; }
};

}  // namespace detail

}  // namespace ares::wire
