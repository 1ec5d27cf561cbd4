#include "common/options.h"

#include <cstdlib>

namespace ares {
namespace {

const char* raw(const std::string& name, std::string& storage) {
  storage = "ARES_" + name;
  return std::getenv(storage.c_str());
}

}  // namespace

std::uint64_t option_u64(const std::string& name, std::uint64_t def) {
  std::string key;
  const char* v = raw(name, key);
  if (v == nullptr || *v == '\0') return def;
  char* end = nullptr;
  std::uint64_t parsed = std::strtoull(v, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : def;
}

double option_double(const std::string& name, double def) {
  std::string key;
  const char* v = raw(name, key);
  if (v == nullptr || *v == '\0') return def;
  char* end = nullptr;
  double parsed = std::strtod(v, &end);
  return (end != nullptr && *end == '\0') ? parsed : def;
}

}  // namespace ares
