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
/// Each codec lays its body out once, in a put generic over its sink: the
/// same put encodes (Writer) and sizes (Sizer) a frame, so traffic
/// accounting counts exactly the bytes a socket transport moves.
///
/// The four gossip kinds (CYCLON/Vicinity request+reply) carry their
/// descriptor lists delta-coded against the first entry; the paper's plain
/// descriptor-list layout is never sent, only counted (the descriptor put
/// into a Sizer plus the cell coordinates), so the §6 budget can still be
/// reported next to the bytes actually sent (paper_layout_savings()). See
/// docs/PROTOCOL.md §"Descriptor-list encoding".

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "runtime/message.h"

namespace ares::wire {

/// Encodes a frame through little-endian fixed-width and varint
/// primitives. A Writer appends the bytes to a vector; a Sizer stores none
/// and only counts them, chosen at compile time by `kStore`. A codec's put
/// is written once, generic over the two (register_codec()), so a frame's
/// size is the length of its bytes by construction, and sizing, which backs
/// the per-send traffic accounting, neither allocates nor tests a flag.
template <bool kStore>
class BasicWriter {
 public:
  /// Encoded bytes so far (Writer only).
  const std::vector<std::uint8_t>& bytes() const { return out_; }
  std::vector<std::uint8_t> take() { return std::move(out_); }

  /// Number of bytes encoded.
  std::size_t size() const {
    if constexpr (kStore)
      return out_.size();
    else
      return out_;
  }

  void u8(std::uint8_t v) {
    if constexpr (kStore)
      out_.push_back(v);
    else
      ++out_;
  }

  void u16(std::uint16_t v) { fixed(v, 2); }
  void u32(std::uint32_t v) { fixed(v, 4); }
  void u64(std::uint64_t v) { fixed(v, 8); }

  /// IEEE-754 double, little-endian bit pattern.
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  /// Unsigned LEB128 (7 bits per byte, high bit = continuation).
  void varint(std::uint64_t v) {
    if constexpr (kStore) {
      while (v >= 0x80) {
        u8(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
      }
      u8(static_cast<std::uint8_t>(v));
    } else {
      // One byte per started 7 bits, with no branch on the value: for the
      // highest set bit h in [0, 63], ceil((h + 1) / 7) == (h * 9 + 73) / 64.
      const auto h = static_cast<unsigned>(63 ^ std::countl_zero(v | 1));
      out_ += (h * 9 + 73) / 64;
    }
  }

  /// Presence byte + payload.
  void opt_u64(const std::optional<std::uint64_t>& v) {
    u8(v.has_value() ? 1 : 0);
    if (v) varint(*v);
  }

  void bytes_raw(const void* data, std::size_t len) {
    if constexpr (kStore) {
      const auto* p = static_cast<const std::uint8_t*>(data);
      out_.insert(out_.end(), p, p + len);
    } else {
      out_ += len;
    }
  }

  void str(const std::string& s) {
    varint(s.size());
    bytes_raw(s.data(), s.size());
  }

 private:
  /// The low `n` bytes of `v`, least significant first.
  void fixed(std::uint64_t v, std::size_t n) {
    std::uint8_t b[8];
    for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    bytes_raw(b, n);
  }

  /// The bytes (Writer) or their count (Sizer).
  std::conditional_t<kStore, std::vector<std::uint8_t>, std::size_t> out_{};
};

using Writer = BasicWriter<true>;
using Sizer = BasicWriter<false>;

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

/// One entry in the per-Kind registry, filled by register_codec(). A codec
/// may serve several kinds (e.g. request/reply variants share functions and
/// dispatch on the tag).
struct Codec {
  /// Writes the body — everything after the kind tag. Total on valid
  /// messages of the registered type.
  void (*encode_body)(const Message& m, Writer& w);

  /// Counts the bytes encode_body would write: the same put, run into a
  /// Sizer. This sits on the per-send accounting path and never allocates.
  std::size_t (*count_body)(const Message& m);

  /// Parses the body (tag already consumed). Returns nullptr on malformed
  /// input; must never read out of bounds (use the bounded Reader).
  MessagePtr (*decode_body)(Reader& r, Kind kind);
};

namespace detail {
/// Stores `codec` for `kind`. Only register_codec() calls it, so every
/// sizer is generated from its encoder's put.
void install_codec(Kind kind, const Codec& codec);
}  // namespace detail

/// Registers the codec for `kind`, replacing any previous registration.
/// `put` is a captureless lambda `[](const Message& m, auto& w) {...}` that
/// writes the body into either sink; `get` parses it back. The encoder runs
/// `put` into a Writer and the sizer runs it into a Sizer, so a frame is
/// laid out in one place and its size always equals its length.
/// Not thread-safe: register before spawning trial workers (test/bench
/// registrations happen at static-init or in main; builtin protocol codecs
/// are installed once, lazily, on first use of the driver).
template <class Put>
void register_codec(Kind kind, Put /*put*/, MessagePtr (*get)(Reader&, Kind)) {
  Codec c{};
  c.encode_body = [](const Message& m, Writer& w) { Put{}(m, w); };
  c.count_body = [](const Message& m) {
    Sizer s;
    Put{}(m, s);
    return s.size();
  };
  c.decode_body = get;
  detail::install_codec(kind, c);
}

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

/// Exact frame size of `m`: its codec's put run into a Sizer; 0 when no
/// codec is registered. Does not allocate.
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
