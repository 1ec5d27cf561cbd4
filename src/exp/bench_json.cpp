#include "exp/bench_json.h"

#include <sys/resource.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace ares::exp {

namespace {

std::string render_double(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no inf/nan
  char buf[64];
  // %.17g round-trips; trim to the shortest representation %g picks.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Ensure the token parses as a number with a fraction marker when integral
  // (harmless either way, but keeps e.g. jq schema checks simple).
  return buf;
}

}  // namespace

std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

JsonObject& JsonObject::num(std::string_view key, double v) {
  fields_.push_back(json_quote(key) + ": " + render_double(v));
  return *this;
}

JsonObject& JsonObject::num(std::string_view key, std::uint64_t v) {
  fields_.push_back(json_quote(key) + ": " + std::to_string(v));
  return *this;
}

JsonObject& JsonObject::num(std::string_view key, std::int64_t v) {
  fields_.push_back(json_quote(key) + ": " + std::to_string(v));
  return *this;
}

JsonObject& JsonObject::str(std::string_view key, std::string_view v) {
  fields_.push_back(json_quote(key) + ": " + json_quote(v));
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view key, bool v) {
  fields_.push_back(json_quote(key) + (v ? ": true" : ": false"));
  return *this;
}

std::string JsonObject::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields_[i];
  }
  out += "}";
  return out;
}

AllocStats allocator_stats() {
  AllocStats out;
#if defined(__GLIBC__) && defined(__GLIBC_MINOR__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
  struct mallinfo2 mi = mallinfo2();
  out.in_use_bytes = static_cast<std::uint64_t>(mi.uordblks) +
                     static_cast<std::uint64_t>(mi.hblkhd);
  out.arena_bytes = static_cast<std::uint64_t>(mi.arena) +
                    static_cast<std::uint64_t>(mi.hblkhd);
#endif
  return out;
}

std::uint64_t peak_rss_bytes() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

JsonObject& BenchReport::point() {
  points_.emplace_back();
  return points_.back();
}

void BenchReport::add_events(std::uint64_t executed, std::uint64_t late) {
  events_ += executed;
  late_ += late;
}

double BenchReport::elapsed_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
      .count();
}

bool BenchReport::write() {
  const double wall = elapsed_s();

  std::string dir = ".";
  if (const char* d = std::getenv("ARES_BENCH_DIR"); d != nullptr && *d != '\0')
    dir = d;
  const std::string path = dir + "/BENCH_" + name_ + ".json";

  std::string out = "{\n";
  auto field = [&out](const std::string& rendered, bool last = false) {
    out += "  " + rendered + (last ? "\n" : ",\n");
  };
  field(json_quote("name") + ": " + json_quote(name_));
  field(json_quote("schema_version") + ": 5");
  field(json_quote("threads") + ": " + std::to_string(threads_));
  field(json_quote("shards") + ": " + std::to_string(shards_));
  field(json_quote("backend") + ": " + json_quote(backend_));
  field(json_quote("processes") + ": " + std::to_string(processes_));
  field(json_quote("fault_loss") + ": " + render_double(fault_loss_));
  field(json_quote("fault_delay_min_ms") + ": " + render_double(fault_delay_min_ms_));
  field(json_quote("fault_delay_max_ms") + ": " + render_double(fault_delay_max_ms_));
  field(json_quote("wall_clock_s") + ": " + render_double(wall));
  field(json_quote("sim_events") + ": " + std::to_string(events_));
  field(json_quote("late_events") + ": " + std::to_string(late_));
  // Micro benches drive no simulator: report their op rate instead of a
  // meaningless 0 events/sec.
  const std::uint64_t rate_count = events_ > 0 ? events_ : ops_;
  field(json_quote("events_per_sec") + ": " +
        render_double(wall > 0 ? static_cast<double>(rate_count) / wall : 0.0));
  field(json_quote("peak_rss_bytes") + ": " + std::to_string(peak_rss_bytes()));
  const AllocStats alloc = allocator_stats();
  field(json_quote("alloc_in_use_bytes") + ": " + std::to_string(alloc.in_use_bytes));
  field(json_quote("alloc_arena_bytes") + ": " + std::to_string(alloc.arena_bytes));
  field(json_quote("summary") + ": " + summary_.dump());
  out += "  " + json_quote("points") + ": [";
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n    " + points_[i].dump();
  }
  out += points_.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cout << "(warning: could not write " << path << ")\n";
    return false;
  }
  std::fputs(out.c_str(), f);
  std::fclose(f);
  std::cout << "(perf report written to " << path << ")\n";
  return true;
}

}  // namespace ares::exp
