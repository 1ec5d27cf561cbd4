#include "runtime/message.h"

// Fixture: only kPing is registered; kPong is missing.
namespace ares::wire {

void register_builtin_codecs() {
  register_codec(Kind::kPing, {});
}

}  // namespace ares::wire
