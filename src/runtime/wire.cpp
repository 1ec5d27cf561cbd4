#include "runtime/wire.h"

#include <array>

namespace ares::wire {
namespace {

std::array<Codec, 256> g_registry{};

void ensure_builtins() {
  // Function-local static: thread-safe one-time registration with an
  // inlineable guard-load fast path (this sits on the per-send sizing path,
  // where std::call_once's out-of-line fast path is measurable).
  static const bool once = (detail::register_builtin_codecs(), true);
  (void)once;
}

}  // namespace

void detail::install_codec(Kind kind, const Codec& codec) {
  g_registry[static_cast<std::uint8_t>(kind)] = codec;
}

const Codec* find_codec(Kind kind) {
  ensure_builtins();
  const Codec& c = g_registry[static_cast<std::uint8_t>(kind)];
  return c.encode_body == nullptr ? nullptr : &c;
}

bool encode(const Message& m, Writer& w) {
  const Codec* c = find_codec(m.kind());
  if (c == nullptr) return false;
  w.u8(static_cast<std::uint8_t>(m.kind()));
  c->encode_body(m, w);
  return true;
}

std::vector<std::uint8_t> encode(const Message& m) {
  Writer w;
  if (!encode(m, w)) return {};
  return w.take();
}

std::size_t encoded_size(const Message& m) {
  const Codec* c = find_codec(m.kind());
  return c == nullptr ? 0 : 1 + c->count_body(m);
}

MessagePtr decode(const std::uint8_t* data, std::size_t len) {
  Reader r(data, len);
  auto kind = static_cast<Kind>(r.u8());
  if (!r.ok()) return nullptr;
  const Codec* c = find_codec(kind);
  if (c == nullptr) return nullptr;
  MessagePtr out = c->decode_body(r, kind);
  if (out == nullptr || !r.ok() || !r.at_end()) return nullptr;
  // A decoded message must re-frame under the tag it arrived with; a codec
  // that violates this would corrupt accounting and re-encoding.
  if (out->kind() != kind) return nullptr;
  detail::SizeCache::set(*out, len);
  return out;
}

MessagePtr decode(const std::vector<std::uint8_t>& bytes) {
  return decode(bytes.data(), bytes.size());
}

}  // namespace ares::wire
