#pragma once

/// \file options.h
/// Minimal option source for bench/example binaries: values come from
/// environment variables (prefix ARES_) with per-binary defaults. This lets
/// the full paper-scale experiments be run (`ARES_N=100000 ./fig06_...`)
/// while keeping default runtimes short.

#include <cstdint>
#include <string>

namespace ares {

/// Reads ARES_<name> from the environment; returns `def` when unset/invalid.
std::uint64_t option_u64(const std::string& name, std::uint64_t def);

/// Reads ARES_<name> from the environment; returns `def` when unset/invalid.
double option_double(const std::string& name, double def);

}  // namespace ares
