// accred_report metrics — render and gate the "telemetry" section of a
// schema-v3 accred.bench record (the service's metrics registry; DESIGN.md
// §14).
//
//   accred_report metrics RECORD.json [--entry NAME] [--histograms]
//                         [--slo "HIST:STAT<=BOUND,..."]
//   accred_report metrics --compare BASELINE.json CURRENT.json [--entry NAME]
//
// Default output: the service-level counters and gauges, a per-tenant
// latency table, service latency percentiles, and ASCII renderings of the
// service/* histograms (--histograms renders every histogram, tenants
// included). All values come from the registry dump, so two runs of the
// same workload print byte-equal reports for any workers/--sim-threads.
//
// --slo gates the report: a comma-separated list of histogram statistics
// with upper bounds, e.g.
//     --slo "service/e2e_ms:p99<=0.5,service/queue_wait_ms:p50<=0.25"
// where STAT is pNN (percentile), mean, or max, in the histogram's value
// units (milliseconds for the latency histograms). Breaches print FAIL
// lines and exit 1 — the CI hook for latency objectives.
//
// --compare prints baseline-vs-current percentiles side by side for every
// histogram the two records share (informational, never gates; an --slo
// list still applies, to CURRENT).
//
// Exit codes: 0 = report printed (SLOs, if any, all pass); 1 = SLO
// breach; 2 = unreadable input, no telemetry section, or bad usage.
#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "report.hpp"

namespace accred::report {
namespace {

/// One record entry's parsed telemetry section.
struct Telemetry {
  std::string entry_name;
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, obs::Histogram> histograms;
};

/// The telemetry of the first entry carrying one (or of `--entry NAME`).
std::optional<Telemetry> extract(const Args& args, const std::string& path) {
  using obs::Json;
  const std::optional<Json> record = args.load(path);
  if (!record) return std::nullopt;
  const std::vector<const Json*> entries =
      entries_with(args, *record, "telemetry", "telemetry",
                   "run the bench with --metrics or ACCRED_METRICS=1");
  if (entries.empty()) return std::nullopt;
  const Json& tel = entries.front()->at("telemetry");
  Telemetry t;
  t.entry_name = entries.front()->at("name").as_string();
  if (const Json* c = tel.find("counters")) {
    for (const auto& [key, v] : c->items()) t.counters[key] = v.as_int();
  }
  if (const Json* g = tel.find("gauges")) {
    for (const auto& [key, v] : g->items()) t.gauges[key] = v.as_int();
  }
  if (const Json* h = tel.find("histograms")) {
    for (const auto& [key, v] : h->items()) {
      t.histograms.emplace(key, obs::Histogram::from_json(v));
    }
  }
  return t;
}

/// Histogram statistic by name: pNN, mean, or max (value units).
double stat_of(const obs::Histogram& h, const std::string& stat) {
  if (stat == "mean") return h.mean();
  if (stat == "max") {
    return h.scale() > 0 ? static_cast<double>(h.max_units()) / h.scale() : 0;
  }
  if (stat.size() >= 2 && stat[0] == 'p') {
    const double q = std::stod(stat.substr(1)) / 100.0;
    return h.percentile(q);
  }
  throw std::runtime_error("unknown statistic \"" + stat +
                           "\" (expected pNN, mean, or max)");
}

struct Slo {
  std::string metric;
  std::string stat;
  double bound = 0;
};

/// Parse "HIST:STAT<=BOUND,..." (metric names never contain ':').
std::vector<Slo> parse_slos(const std::string& spec) {
  std::vector<Slo> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string part =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    if (part.empty()) continue;
    const std::size_t colon = part.rfind(':');
    const std::size_t le = part.find("<=");
    if (colon == std::string::npos || le == std::string::npos || le < colon) {
      throw std::runtime_error("bad SLO \"" + part +
                               "\" (expected HIST:STAT<=BOUND)");
    }
    Slo s;
    s.metric = part.substr(0, colon);
    s.stat = part.substr(colon + 1, le - colon - 1);
    s.bound = std::stod(part.substr(le + 2));
    out.push_back(std::move(s));
  }
  return out;
}

/// Check every SLO against `t`; prints one PASS/FAIL line each.
/// Returns false on any breach (or on a missing histogram).
bool check_slos(const Telemetry& t, const std::vector<Slo>& slos) {
  bool ok = true;
  for (const Slo& s : slos) {
    const auto it = t.histograms.find(s.metric);
    if (it == t.histograms.end()) {
      std::cout << "SLO FAIL  " << s.metric << ":" << s.stat
                << " — histogram not in telemetry\n";
      ok = false;
      continue;
    }
    const double v = stat_of(it->second, s.stat);
    const bool pass = v <= s.bound;
    std::cout << "SLO " << (pass ? "PASS" : "FAIL") << "  " << s.metric << ":"
              << s.stat << " = " << v << " (bound " << s.bound << ")\n";
    ok = ok && pass;
  }
  return ok;
}

/// ASCII bar chart over the nonzero buckets: one row per bucket,
/// [lower, next-lower) edges in value units, bar scaled to the modal count.
void render_histogram(const std::string& name, const obs::Histogram& h) {
  constexpr int kBarWidth = 40;
  const auto buckets = h.nonzero_buckets();
  std::cout << name << "  (count " << h.count() << ", mean " << h.mean()
            << ", p50 " << h.percentile(0.50) << ", p99 " << h.percentile(0.99)
            << ")\n";
  if (buckets.empty()) return;
  std::uint64_t peak = 0;
  for (const auto& [idx, n] : buckets) peak = std::max(peak, n);
  for (const auto& [idx, n] : buckets) {
    const double lo =
        static_cast<double>(obs::Histogram::bucket_lower_bound(idx)) /
        h.scale();
    const double hi =
        idx + 1 < obs::Histogram::kBuckets
            ? static_cast<double>(obs::Histogram::bucket_lower_bound(idx + 1)) /
                  h.scale()
            : std::numeric_limits<double>::infinity();
    const int bar = std::max<int>(
        1, static_cast<int>(kBarWidth * n / peak));
    std::cout << "  [" << std::setw(11) << lo << ", " << std::setw(11) << hi
              << ")  " << std::string(static_cast<std::size_t>(bar), '#')
              << ' ' << n << '\n';
  }
}

/// Tenant names appearing as "tenant/<name>/..." histogram keys.
std::vector<std::string> tenant_names(const Telemetry& t) {
  std::vector<std::string> out;
  for (const auto& [key, h] : t.histograms) {
    (void)h;
    if (!key.starts_with("tenant/")) continue;
    const std::size_t slash = key.find('/', 7);
    if (slash == std::string::npos) continue;
    const std::string name = key.substr(7, slash - 7);
    if (out.empty() || out.back() != name) out.push_back(name);
  }
  return out;
}

const obs::Histogram* find_hist(const Telemetry& t, const std::string& name) {
  const auto it = t.histograms.find(name);
  return it == t.histograms.end() ? nullptr : &it->second;
}

void report(const Telemetry& t, bool all_histograms) {
  std::cout << "== telemetry: entry \"" << t.entry_name << "\" ==\n";
  if (!t.counters.empty()) {
    std::cout << "counters:\n";
    for (const auto& [key, v] : t.counters) {
      std::cout << "  " << std::left << std::setw(32) << key << std::right
                << std::setw(10) << v << '\n';
    }
  }
  if (!t.gauges.empty()) {
    std::cout << "gauges:\n";
    for (const auto& [key, v] : t.gauges) {
      std::cout << "  " << std::left << std::setw(32) << key << std::right
                << std::setw(10) << v << '\n';
    }
  }

  const std::vector<std::string> tenants = tenant_names(t);
  if (!tenants.empty()) {
    std::cout << "per-tenant latency (virtual timeline, ms):\n"
              << "  " << std::left << std::setw(12) << "tenant" << std::right
              << std::setw(8) << "jobs" << std::setw(12) << "wait_p50"
              << std::setw(12) << "e2e_p50" << std::setw(12) << "e2e_p99"
              << std::setw(12) << "device_p50" << '\n';
    for (const std::string& name : tenants) {
      const obs::Histogram* wait =
          find_hist(t, "tenant/" + name + "/queue_wait_ms");
      const obs::Histogram* e2e = find_hist(t, "tenant/" + name + "/e2e_ms");
      const obs::Histogram* dev =
          find_hist(t, "tenant/" + name + "/device_ms");
      std::cout << "  " << std::left << std::setw(12) << name << std::right
                << std::setw(8) << (e2e ? e2e->count() : 0) << std::setw(12)
                << (wait ? wait->percentile(0.50) : 0) << std::setw(12)
                << (e2e ? e2e->percentile(0.50) : 0) << std::setw(12)
                << (e2e ? e2e->percentile(0.99) : 0) << std::setw(12)
                << (dev ? dev->percentile(0.50) : 0) << '\n';
    }
  }

  std::cout << "histograms:\n";
  for (const auto& [key, h] : t.histograms) {
    if (!all_histograms && !key.starts_with("service/")) continue;
    render_histogram(key, h);
  }
}

void compare(const Telemetry& base, const Telemetry& cur) {
  std::cout << "== telemetry compare: entry \"" << cur.entry_name
            << "\" (informational) ==\n";
  std::cout << std::left << std::setw(32) << "counter" << std::right
            << std::setw(12) << "base" << std::setw(12) << "cur"
            << std::setw(10) << "delta" << '\n';
  for (const auto& [key, bv] : base.counters) {
    const auto it = cur.counters.find(key);
    if (it == cur.counters.end()) continue;
    std::cout << std::left << std::setw(32) << key << std::right
              << std::setw(12) << bv << std::setw(12) << it->second
              << std::setw(10) << it->second - bv << '\n';
  }
  std::cout << std::left << std::setw(32) << "histogram p50/p99" << std::right
            << std::setw(12) << "base_p50" << std::setw(12) << "cur_p50"
            << std::setw(12) << "base_p99" << std::setw(12) << "cur_p99"
            << '\n';
  for (const auto& [key, bh] : base.histograms) {
    const auto it = cur.histograms.find(key);
    if (it == cur.histograms.end()) continue;
    std::cout << std::left << std::setw(32) << key << std::right
              << std::setw(12) << bh.percentile(0.50) << std::setw(12)
              << it->second.percentile(0.50) << std::setw(12)
              << bh.percentile(0.99) << std::setw(12)
              << it->second.percentile(0.99) << '\n';
  }
}

}  // namespace

int run_metrics(const Args& args) {
  const std::vector<std::string>& files = args.files();
  if (files.size() != (args.cli.has("compare") ? 2u : 1u)) return kUsage;
  const std::vector<Slo> slos = parse_slos(args.cli.get("slo", ""));

  if (files.size() == 2) {
    const std::optional<Telemetry> base = extract(args, files[0]);
    if (!base) return 2;
    const std::optional<Telemetry> cur = extract(args, files[1]);
    if (!cur) return 2;
    compare(*base, *cur);
    return check_slos(*cur, slos) ? 0 : 1;
  }

  const std::optional<Telemetry> t = extract(args, files[0]);
  if (!t) return 2;
  report(*t, args.cli.has("histograms"));
  return check_slos(*t, slos) ? 0 : 1;
}

}  // namespace accred::report
