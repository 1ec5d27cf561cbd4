#pragma once

/// \file bench_json.h
/// Machine-readable perf reports for the bench binaries.
///
/// Every bench binary writes BENCH_<name>.json next to its console output
/// so the perf trajectory is tracked across PRs (CI archives the files).
/// Schema (version 1):
///
///   {
///     "name": "fig06_network_size",
///     "schema_version": 5,
///     "threads": 8,                  // worker threads used for the sweep
///     "shards": 1,                   // ARES_SHARDS (simulator shards, 1-64)
///     "backend": "sim",              // "sim" (in-process event loop) or
///                                    // "udp" (real processes over sockets)
///     "processes": 1,                // OS processes driving the run
///     "fault_loss": 0.0,             // injected datagram loss probability
///     "fault_delay_min_ms": 0.0,     // injected extra latency window
///     "fault_delay_max_ms": 0.0,
///     "wall_clock_s": 12.34,         // whole-binary wall clock
///     "sim_events": 123456,          // executed simulator events, all trials
///     "late_events": 0,              // Simulator::late_events(), all trials
///     "events_per_sec": 1.0e6,       // sim_events / wall_clock_s; when the
///                                    // binary drives no sim events, falls
///                                    // back to add_ops() ops / wall_clock_s
///     "peak_rss_bytes": 104857600,
///     "alloc_in_use_bytes": 9999,    // mallinfo2 heap-in-use at write() time
///     "alloc_arena_bytes": 9999,     // mallinfo2 arena+mmap footprint
///                                    // (both 0 on non-glibc libcs)
///     "summary": { ... },            // binary-specific scalars (optional)
///     "points": [ { ... }, ... ]     // one object per sweep point
///   }
///
/// schema v1 -> v2: added "shards", "alloc_in_use_bytes", "alloc_arena_bytes"
/// so the perf trajectory distinguishes sharded configurations and separates
/// live-heap from RSS high-water.
/// schema v2 -> v3: added "backend", "processes", and the "fault_*" fields so
/// every report states which runtime executed it (in-process simulation vs
/// real processes over UDP) and under what injected network conditions;
/// sim-only binaries carry the defaults ("sim", 1, zeros).
/// schema v3 -> v4: added a flag naming which of two gossip encodings ran.
/// schema v4 -> v5: dropped that flag again: gossip has a single encoding,
/// so it no longer distinguishes runs.
///
/// The output directory is ARES_BENCH_DIR when set, else the working
/// directory. The report is written by write() — call it once, after all
/// trials finish, from the main thread (the class is not thread-safe;
/// workers hand their per-point numbers back through trial results).

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ares::exp {

/// An ordered JSON object under construction (insertion-order keys, no
/// nesting beyond what BenchReport needs).
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double v);
  JsonObject& num(std::string_view key, std::uint64_t v);
  JsonObject& num(std::string_view key, std::int64_t v);
  JsonObject& str(std::string_view key, std::string_view v);
  JsonObject& boolean(std::string_view key, bool v);

  bool empty() const { return fields_.empty(); }
  /// Renders "{...}".
  std::string dump() const;

 private:
  std::vector<std::string> fields_;  // pre-rendered "key": value
};

/// Escapes and quotes a string for JSON.
std::string json_quote(std::string_view s);

class BenchReport {
 public:
  /// Starts the wall clock. `name` names the binary (file: BENCH_<name>.json).
  explicit BenchReport(std::string name);

  /// Appends a sweep-point record; fill it via the returned reference.
  JsonObject& point();

  /// Binary-specific top-level scalars ("summary": {...}).
  JsonObject& summary() { return summary_; }

  /// Accumulates executed-event / late-event counts from one trial.
  void add_events(std::uint64_t executed, std::uint64_t late = 0);

  /// Accumulates non-simulator operations (micro-bench iterations). When a
  /// binary drives no sim events, events_per_sec falls back to ops / wall —
  /// a report should never ship a meaningless zero rate.
  void add_ops(std::uint64_t ops) { ops_ += ops; }

  /// Records the worker-thread count used for the sweep.
  void set_threads(std::size_t threads) { threads_ = threads; }

  /// Records the per-simulation shard count.
  void set_shards(std::uint32_t shards) { shards_ = shards; }

  /// Records which runtime backend executed the run ("sim" by default,
  /// "udp" for the multi-process deployment driver).
  void set_backend(std::string_view backend) { backend_ = backend; }

  /// Records how many OS processes drove the run (1 = in-process).
  void set_processes(std::uint64_t processes) { processes_ = processes; }

  /// Records the injected network faults (deploy runs; zeros otherwise).
  void set_fault_injection(double loss, double delay_min_ms, double delay_max_ms) {
    fault_loss_ = loss;
    fault_delay_min_ms_ = delay_min_ms;
    fault_delay_max_ms_ = delay_max_ms;
  }

  std::uint64_t sim_events() const { return events_; }
  std::uint64_t late_events() const { return late_; }

  /// Wall-clock seconds since construction (what write() reports).
  double elapsed_s() const;

  /// Writes BENCH_<name>.json (ARES_BENCH_DIR or cwd) and prints a one-line
  /// pointer to stdout. Returns false (after printing a warning) on I/O
  /// failure. Call once, from the main thread, after all trials complete.
  bool write();

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::size_t threads_ = 1;
  std::uint32_t shards_ = 1;
  std::string backend_ = "sim";
  std::uint64_t processes_ = 1;
  double fault_loss_ = 0.0;
  double fault_delay_min_ms_ = 0.0;
  double fault_delay_max_ms_ = 0.0;
  std::uint64_t events_ = 0;
  std::uint64_t late_ = 0;
  std::uint64_t ops_ = 0;
  JsonObject summary_;
  std::vector<JsonObject> points_;
};

/// Resident-set high-water mark of this process, in bytes (getrusage).
std::uint64_t peak_rss_bytes();

/// Allocator footprint at call time. Both values are 0 on libcs without
/// mallinfo2 (the report still carries the fields, so consumers need no
/// per-platform schema).
struct AllocStats {
  std::uint64_t in_use_bytes = 0;  // live allocations (uordblks + hblkhd)
  std::uint64_t arena_bytes = 0;   // arena + mmap footprint held from the OS
};
AllocStats allocator_stats();

}  // namespace ares::exp
