#pragma once

/// \file latency.h
/// Pluggable one-way message latency models. The experiments use:
///   - LAN (DAS-3 cluster emulation): ~0.1-0.5 ms uniform
///   - WAN (PeerSim runs): ~30-150 ms uniform
///   - Planetary (PlanetLab deployment): per-node virtual coordinates, so
///     pairs have stable heterogeneous latencies plus jitter.

#include <memory>

#include "common/rng.h"
#include "common/types.h"

namespace ares {

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// One-way latency for a message from `from` to `to`.
  virtual SimTime sample(Rng& rng, NodeId from, NodeId to) = 0;

  /// Smallest value sample() can ever return: the simulator's lookahead
  /// window Δ (sim/simulator.h), so a message always lands past the window
  /// barrier that produced it. Must be > 0.
  virtual SimTime min_latency() const = 0;
};

/// Fixed latency for every message.
class ConstantLatency final : public LatencyModel {
 public:
  explicit ConstantLatency(SimTime latency) : latency_(latency) {}
  SimTime sample(Rng&, NodeId, NodeId) override { return latency_; }
  SimTime min_latency() const override { return latency_; }

 private:
  SimTime latency_;
};

/// Uniform latency in [lo, hi].
class UniformLatency final : public LatencyModel {
 public:
  UniformLatency(SimTime lo, SimTime hi) : lo_(lo), hi_(hi) {}
  SimTime sample(Rng& rng, NodeId, NodeId) override {
    return static_cast<SimTime>(
        rng.range(static_cast<std::uint64_t>(lo_), static_cast<std::uint64_t>(hi_)));
  }
  SimTime min_latency() const override { return lo_; }

 private:
  SimTime lo_, hi_;
};

/// Stable pairwise latency derived from per-node virtual plane coordinates:
/// latency(a,b) = base + distance(a,b) * scale + jitter. A node's coordinates
/// are a pure function of (seed, id), recomputed on every sample, so any id
/// may appear and shard workers may sample concurrently.
class CoordinateLatency final : public LatencyModel {
 public:
  /// \param base minimum one-way latency
  /// \param scale latency per unit of virtual distance (plane is [0,1]^2)
  /// \param jitter uniform extra in [0, jitter]
  CoordinateLatency(SimTime base, SimTime scale, SimTime jitter, std::uint64_t seed);

  SimTime sample(Rng& rng, NodeId from, NodeId to) override;
  SimTime min_latency() const override { return base_; }

 private:
  struct Coord {
    double x, y;
  };
  Coord coord(NodeId id) const;

  SimTime base_, scale_, jitter_;
  std::uint64_t seed_;
};

/// Factory helpers matching the experiment setups.
std::unique_ptr<LatencyModel> make_lan_latency();
std::unique_ptr<LatencyModel> make_wan_latency();
std::unique_ptr<LatencyModel> make_planetlab_latency(std::uint64_t seed);

}  // namespace ares
