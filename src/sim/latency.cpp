#include "sim/latency.h"

#include <cmath>

#include "common/hashing.h"

namespace ares {

CoordinateLatency::CoordinateLatency(SimTime base, SimTime scale, SimTime jitter,
                                     std::uint64_t seed)
    : base_(base), scale_(scale), jitter_(jitter), seed_(seed) {}

CoordinateLatency::Coord CoordinateLatency::coord(NodeId id) const {
  const std::uint64_t h = hash_mix(seed_, id);
  const std::uint64_t h2 = hash_mix(h, 0xABCDULL);
  return {static_cast<double>(h >> 11) * 0x1.0p-53,
          static_cast<double>(h2 >> 11) * 0x1.0p-53};
}

SimTime CoordinateLatency::sample(Rng& rng, NodeId from, NodeId to) {
  Coord a = coord(from);
  Coord b = coord(to);
  double dist = std::hypot(a.x - b.x, a.y - b.y);  // in [0, sqrt(2)]
  SimTime jitter =
      jitter_ > 0 ? static_cast<SimTime>(rng.below(static_cast<std::uint64_t>(jitter_) + 1))
                  : 0;
  return base_ + static_cast<SimTime>(dist * static_cast<double>(scale_)) + jitter;
}

std::unique_ptr<LatencyModel> make_lan_latency() {
  return std::make_unique<UniformLatency>(100 * kMicrosecond, 500 * kMicrosecond);
}

std::unique_ptr<LatencyModel> make_wan_latency() {
  return std::make_unique<UniformLatency>(30 * kMillisecond, 150 * kMillisecond);
}

std::unique_ptr<LatencyModel> make_planetlab_latency(std::uint64_t seed) {
  // base 20 ms, up to ~230 ms across the plane, plus up to 30 ms jitter:
  // roughly the RTT spread measured between PlanetLab sites.
  return std::make_unique<CoordinateLatency>(20 * kMillisecond, 150 * kMillisecond,
                                             30 * kMillisecond, seed);
}

}  // namespace ares
