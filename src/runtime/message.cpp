#include "runtime/message.h"

#include "runtime/wire.h"

namespace ares {

std::size_t Message::wire_size() const {
  // Every valid frame is at least 1 byte (the kind tag), so 0 doubles as the
  // "not yet computed" sentinel; unencodable messages (no codec) simply
  // retry, which keeps the common path branch-light. Sizing runs the codec's
  // put into a wire::Sizer and never allocates.
  if (cached_wire_size_ == 0)
    cached_wire_size_ = static_cast<std::uint32_t>(wire::encoded_size(*this));
  return cached_wire_size_;
}

}  // namespace ares
