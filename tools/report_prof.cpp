// accred_report prof — nvprof-style per-stage profile reporting over
// accred.bench JSON records (schema v2 "profile" sections, produced by
// running a bench with --profile / ACCRED_PROFILE=1).
//
//   accred_report prof RECORD.json [--entry NAME]
//       Print the per-stage counter table (requests, segments, coalescing
//       efficiency, bank-conflict factor, ALU units, barriers, divergence)
//       for every profiled entry, or just NAME.
//
//   accred_report prof --compare A.json B.json [--entry NAME]
//       Side-by-side strategy diff: join entries by name, join stages by
//       name, and print A and B's derived metrics next to each other with
//       the B/A ratio on the dominant cost axis.
//
// Exit codes: 0 = report printed, 2 = unreadable/malformed input, no
// profile sections, or bad usage (there is no "regression" verdict here —
// that is `accred_report diff`'s job).
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "report.hpp"

namespace accred::report {
namespace {

using obs::Json;

struct ProfiledEntry {
  std::string name;
  obs::StageTable table;
};

/// The profiled entries of the record at `path` that `--entry` selects;
/// empty (with a message on stderr) when it is unreadable or has none.
std::vector<ProfiledEntry> load_profiles(const Args& args,
                                         const std::string& path) {
  std::vector<ProfiledEntry> out;
  if (const std::optional<Json> record = args.load(path)) {
    for (const Json* e :
         entries_with(args, *record, "profile", "profiled",
                      "run the bench with --profile or ACCRED_PROFILE=1")) {
      out.push_back({e->at("name").as_string(),
                     obs::profile_from_json(e->at("profile"))});
    }
  }
  return out;
}

std::string fmt(double v, int prec) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(prec) << v;
  return os.str();
}

/// Side-by-side derived metrics for one pair of tables, stages joined by
/// name (A's order first, then B-only stages).
void compare_tables(const obs::StageTable& a, const obs::StageTable& b) {
  struct Col {
    const char* head;
    int width;
  };
  static constexpr Col cols[] = {
      {"stage", 16},      {"gmem seg A", 11}, {"gmem seg B", 11},
      {"coal A", 8},      {"coal B", 8},      {"bank A", 8},
      {"bank B", 8},      {"alu A", 12},      {"alu B", 12},
      {"diverg%A", 9},    {"diverg%B", 9},    {"smem B/A", 9},
  };
  for (const Col& c : cols) {
    std::cout << std::left << std::setw(c.width) << c.head << ' ';
  }
  std::cout << '\n';

  std::vector<std::string> stages;
  for (const auto& r : a.rows()) stages.push_back(r.name);
  for (const auto& r : b.rows()) {
    if (a.find(r.name) == nullptr) stages.push_back(r.name);
  }
  for (const std::string& name : stages) {
    const obs::StageTable::Row* ra = a.find(name);
    const obs::StageTable::Row* rb = b.find(name);
    const obs::StageStats za{};
    const obs::StageStats& sa = ra ? ra->stats : za;
    const obs::StageStats& sb = rb ? rb->stats : za;
    // Serialized shared cycles are the axis the paper's layout arguments
    // turn on; requests fall back to segments for global-heavy stages.
    const double cyc_a = static_cast<double>(sa.smem_cycles);
    const double cyc_b = static_cast<double>(sb.smem_cycles);
    const std::string ratio =
        cyc_a > 0 ? fmt(cyc_b / cyc_a, 2) + "x" : std::string("-");
    std::cout << std::left << std::setw(cols[0].width) << name << ' '
              << std::setw(cols[1].width) << sa.gmem_segments << ' '
              << std::setw(cols[2].width) << sb.gmem_segments << ' '
              << std::setw(cols[3].width)
              << fmt(obs::stage_coalescing_efficiency(sa), 3) << ' '
              << std::setw(cols[4].width)
              << fmt(obs::stage_coalescing_efficiency(sb), 3) << ' '
              << std::setw(cols[5].width)
              << fmt(obs::stage_bank_conflict_factor(sa), 2) << ' '
              << std::setw(cols[6].width)
              << fmt(obs::stage_bank_conflict_factor(sb), 2) << ' '
              << std::setw(cols[7].width) << fmt(sa.alu_units, 0) << ' '
              << std::setw(cols[8].width) << fmt(sb.alu_units, 0) << ' '
              << std::setw(cols[9].width)
              << fmt(obs::stage_divergence(sa) * 100.0, 1) << ' '
              << std::setw(cols[10].width)
              << fmt(obs::stage_divergence(sb) * 100.0, 1) << ' '
              << std::setw(cols[11].width) << ratio << '\n';
  }
}

int run_compare(const Args& args, const std::string& path_a,
                const std::string& path_b) {
  const std::vector<ProfiledEntry> a = load_profiles(args, path_a);
  if (a.empty()) return 2;
  const std::vector<ProfiledEntry> b = load_profiles(args, path_b);
  if (b.empty()) return 2;
  bool any = false;
  for (const ProfiledEntry& ea : a) {
    const auto eb = std::find_if(b.begin(), b.end(), [&](const auto& e) {
      return e.name == ea.name;
    });
    if (eb == b.end()) continue;
    std::cout << "== " << ea.name << "  (A = " << path_a << ", B = " << path_b
              << ") ==\n";
    compare_tables(ea.table, eb->table);
    std::cout << '\n';
    any = true;
  }
  if (!any) {
    std::cerr << args.prog << ": no common profiled entries\n";
    return 2;
  }
  return 0;
}

}  // namespace

int run_prof(const Args& args) {
  const std::vector<std::string>& files = args.files();
  if (files.size() != (args.cli.has("compare") ? 2u : 1u)) return kUsage;
  if (files.size() == 2) return run_compare(args, files[0], files[1]);

  const std::vector<ProfiledEntry> entries = load_profiles(args, files[0]);
  if (entries.empty()) return 2;
  for (const ProfiledEntry& e : entries) {
    std::cout << "== " << e.name << " ==\n";
    obs::print_profile(std::cout, e.table);
    std::cout << '\n';
  }
  return 0;
}

}  // namespace accred::report
