// prof_report — nvprof-style per-stage profile reporting over accred.bench
// JSON records (schema v2 "profile" sections, produced by running a bench
// with --profile / ACCRED_PROFILE=1).
//
//   prof_report RECORD.json [--entry NAME]
//       Print the per-stage counter table (requests, segments, coalescing
//       efficiency, bank-conflict factor, ALU units, barriers, divergence)
//       for every profiled entry, or just NAME.
//
//   prof_report --compare A.json B.json [--entry NAME]
//       Side-by-side strategy diff: join entries by name, join stages by
//       name, and print A and B's derived metrics next to each other with
//       the B/A ratio on the dominant cost axis.
//
// Exit codes: 0 = report printed, 2 = unreadable/malformed input, no
// profile sections, or bad usage (there is no "regression" verdict here —
// that is bench_diff's job).
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "obs/record.hpp"
#include "util/cli.hpp"

namespace {

using namespace accred;

struct ProfiledEntry {
  std::string name;
  obs::StageTable table;
};

/// Load a record file and pull out every entry carrying a profile section.
/// Returns false (with a message on stderr) on IO/parse/schema problems.
bool load_profiles(const std::string& path, std::vector<ProfiledEntry>& out) {
  const std::optional<obs::Json> j = obs::load_record(path, "prof_report");
  if (!j) return false;
  try {
    for (const obs::Json& e : j->at("entries").elements()) {
      if (const obs::Json* p = e.find("profile")) {
        out.push_back({e.at("name").as_string(), obs::profile_from_json(*p)});
      }
    }
  } catch (const std::exception& ex) {
    std::cerr << "prof_report: " << path << ": " << ex.what() << '\n';
    return false;
  }
  return true;
}

const ProfiledEntry* find_entry(const std::vector<ProfiledEntry>& entries,
                                const std::string& name) {
  for (const ProfiledEntry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

void report(const std::vector<ProfiledEntry>& entries) {
  for (const ProfiledEntry& e : entries) {
    std::cout << "== " << e.name << " ==\n";
    obs::print_profile(std::cout, e.table);
    std::cout << '\n';
  }
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

int run_compare(const std::string& path_a, const std::string& path_b,
                const util::Cli& cli) {
  std::vector<ProfiledEntry> a;
  std::vector<ProfiledEntry> b;
  if (!load_profiles(path_a, a) || !load_profiles(path_b, b)) return 2;
  const std::string only = cli.get("entry", "");
  bool any = false;
  for (const ProfiledEntry& ea : a) {
    if (!only.empty() && ea.name != only) continue;
    const ProfiledEntry* eb = find_entry(b, ea.name);
    if (eb == nullptr) continue;
    std::cout << "== " << ea.name << "  (A = " << path_a << ", B = " << path_b
              << ") ==\n";
    compare_tables(ea.table, eb->table);
    std::cout << '\n';
    any = true;
  }
  if (!any) {
    std::cerr << "prof_report: no common profiled entries"
              << (only.empty() ? "" : " named " + only) << '\n';
    return 2;
  }
  return 0;
}

void usage() {
  std::cerr << "usage: prof_report RECORD.json [--entry NAME]\n"
               "       prof_report --compare A.json B.json [--entry NAME]\n";
}

}  // namespace

#include "util/main_guard.hpp"

namespace {

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"help"});
  if (cli.has("help")) {
    usage();
    return 2;
  }
  if (cli.has("compare")) {
    // The flag parser binds the first file to --compare itself; the second
    // arrives as the sole positional.
    const std::string path_a = cli.get("compare", "");
    if (path_a.empty() || cli.positional().size() != 1) {
      usage();
      return 2;
    }
    return run_compare(path_a, cli.positional()[0], cli);
  }
  if (cli.positional().size() != 1) {
    usage();
    return 2;
  }

  std::vector<ProfiledEntry> entries;
  if (!load_profiles(cli.positional()[0], entries)) return 2;
  const std::string only = cli.get("entry", "");
  if (!only.empty()) {
    const ProfiledEntry* e = find_entry(entries, only);
    if (e == nullptr) {
      std::cerr << "prof_report: no profiled entry named " << only << '\n';
      return 2;
    }
    report({*e});
    return 0;
  }
  if (entries.empty()) {
    std::cerr << "prof_report: record has no profile sections (run the bench "
                 "with --profile or ACCRED_PROFILE=1)\n";
    return 2;
  }
  report(entries);
  return 0;
}

}  // namespace

// All benches, examples, and tools share one top-level exception guard:
// any escaping error prints a structured line and exits non-zero instead
// of crashing (util/main_guard.hpp).
int main(int argc, char** argv) {
  return accred::util::guarded_main([&] { return run(argc, argv); });
}
