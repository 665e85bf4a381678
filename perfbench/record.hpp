// The raw run record the driver writes and perfbench/analysis.py reads:
// one Item per unit of work the benchmark handed to the program (a service
// job, a Table 2 cell, an app solve) with the spans of the traced ones, and
// the set-up times. Times are nanoseconds since the start of the timed run.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/cost_model.hpp"
#include "testsuite/runner.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

inline std::int64_t ms_to_ns(double ms) {
  return static_cast<std::int64_t>(ms * 1e6);
}

inline std::uint64_t bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// One traced interval. `parent` indexes the owning item's span list (-1 for
/// its root), so a span needs no lock to be recorded on a worker thread.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

struct Item {
  std::string key;   ///< digest-table key: what the program was asked to do
  std::string kind;  ///< Table 2 position or app name, for per-kind metrics
  int pass = -1;     ///< pass index of grid and apps items, -1 for jobs
  bool traced = false;
  // Benchmark-side clock readings.
  std::int64_t start_ns = 0;      ///< due time (open loop) or issue time
  std::int64_t issue_ns = 0;      ///< the call into the program began
  std::int64_t issue_end_ns = 0;  ///< submit() returned (service only)
  std::int64_t plan_end_ns = 0;   ///< plan_for_case() returned (grid only)
  std::int64_t done_ns = 0;       ///< result in hand (callback or return)
  std::int64_t lag_ns = 0;        ///< issue later than the driver meant to
  // Verdict of the program's own check plus the benchmark's.
  bool ok = false;
  std::string why;
  // Timings and counters the program's public results return.
  double queue_ms = 0;
  double service_ms = 0;
  double wall_ms = 0;  ///< CaseOutcome::wall_ms (guarded execution)
  double launch_ns = 0;
  int attempts = 0;
  int kernels = 0;
  int cache_hit = -1;  ///< -1: no plan-cache lookup
  std::uint64_t threads = 0;
  std::uint64_t barriers = 0;
  std::uint64_t gmem_requests = 0;
  std::uint64_t smem_requests = 0;
  /// Modeled results, folded into the item's digest by analysis.py.
  std::vector<std::uint64_t> model;
  /// Spans of a traced item, recorded when the item completes.
  std::vector<Span> spans;

  int span(std::string name, std::int64_t start, std::int64_t end,
           int parent) {
    spans.push_back({std::move(name), start, end, parent});
    return static_cast<int>(spans.size()) - 1;
  }

  void take_stats(const accred::gpusim::LaunchStats& s) {
    launch_ns = s.wall_time_ns;
    threads = s.threads;
    barriers = s.barriers;
    gmem_requests = s.gmem_requests;
    smem_requests = s.smem_requests;
  }
};

/// Every modeled (host-independent) field of a LaunchStats.
inline void append_model(std::vector<std::uint64_t>& m,
                         const accred::gpusim::LaunchStats& s) {
  m.insert(m.end(), {s.blocks, s.threads, s.gmem_requests, s.gmem_segments,
                     s.gmem_bytes, s.smem_requests, s.smem_cycles, s.barriers,
                     s.syncwarps, bits_of(s.alu_units),
                     bits_of(s.device_time_ns)});
}

/// Words model_of() returns: five outcome fields plus append_model's 11.
inline constexpr std::size_t kCaseModelWords = 16;

inline std::vector<std::uint64_t> model_of(
    const accred::testsuite::CaseOutcome& o) {
  std::vector<std::uint64_t> m = {
      static_cast<std::uint64_t>(o.status), o.verified ? 1u : 0u,
      o.result_hash, static_cast<std::uint64_t>(o.kernels),
      static_cast<std::uint64_t>(o.attempts)};
  append_model(m, o.stats);
  return m;
}

inline void write_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

inline void write_item(std::ostream& os, const Item& it) {
  os << "{\"key\":";
  write_string(os, it.key);
  os << ",\"kind\":";
  write_string(os, it.kind);
  os << ",\"pass\":" << it.pass
     << ",\"traced\":" << (it.traced ? "true" : "false")
     << ",\"start_ns\":" << it.start_ns << ",\"issue_ns\":" << it.issue_ns
     << ",\"issue_end_ns\":" << it.issue_end_ns
     << ",\"plan_end_ns\":" << it.plan_end_ns << ",\"done_ns\":" << it.done_ns
     << ",\"lag_ns\":" << it.lag_ns << ",\"ok\":" << (it.ok ? "true" : "false")
     << ",\"why\":";
  write_string(os, it.why);
  os << ",\"queue_ms\":" << it.queue_ms << ",\"service_ms\":" << it.service_ms
     << ",\"wall_ms\":" << it.wall_ms << ",\"launch_ns\":" << it.launch_ns
     << ",\"attempts\":" << it.attempts << ",\"kernels\":" << it.kernels
     << ",\"cache_hit\":" << it.cache_hit << ",\"threads\":" << it.threads
     << ",\"barriers\":" << it.barriers
     << ",\"gmem_requests\":" << it.gmem_requests
     << ",\"smem_requests\":" << it.smem_requests << ",\"model\":[";
  for (std::size_t i = 0; i < it.model.size(); ++i) {
    os << (i ? "," : "") << it.model[i];
  }
  os << "],\"spans\":[";
  for (std::size_t i = 0; i < it.spans.size(); ++i) {
    const Span& sp = it.spans[i];
    os << (i ? ",[" : "[");
    write_string(os, sp.name);
    os << "," << sp.start_ns << "," << sp.end_ns << "," << sp.parent << "]";
  }
  os << "]}";
}

}  // namespace perfbench
