// accred_report race — renders (and gates on) the race-detection sections of
// accred.bench JSON records produced by running a bench with --racecheck /
// ACCRED_RACECHECK=1.
//
//   accred_report race RECORD.json [--entry NAME]
//       Print a per-entry race summary — the conflicting-pair count from
//       each entry's stats plus every recorded RaceReport (hazard kind,
//       memory space, address, block, both thread coordinates and
//       prof_scope stages) — for every racechecked entry, or just NAME.
//
// Exit codes (CI gate semantics):
//   0 = every racechecked entry is race-free
//   1 = at least one race was reported
//   2 = unreadable/malformed input, no racechecked entries (the detector
//       silently off must fail a gate, not pass it), or bad usage.
#include <cstdint>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "report.hpp"

namespace accred::report {
namespace {

using obs::Json;

struct CheckedEntry {
  std::string name;
  std::int64_t races = 0;
  std::vector<std::string> reports;  ///< pre-rendered one-liners
};

std::string render_access(const Json& a) {
  std::ostringstream os;
  os << 't' << render_dim3(a.at("thread")) << ' ' << a.at("access").as_string()
     << " [" << a.at("stage").as_string() << ']';
  return os.str();
}

std::string render_report(const Json& r) {
  std::ostringstream os;
  os << r.at("kind").as_string() << ' ' << r.at("space").as_string() << "+0x"
     << std::hex << r.at("addr").as_int() << std::dec << " block"
     << render_dim3(r.at("block")) << ": " << render_access(r.at("first"))
     << " vs " << render_access(r.at("second"));
  return os.str();
}

CheckedEntry parse_entry(const Json& e) {
  CheckedEntry ce;
  ce.name = e.at("name").as_string();
  ce.races = e.at("stats").at("races").as_int();
  if (const Json* reports = e.find("races")) {
    for (const Json& r : reports->elements()) {
      ce.reports.push_back(render_report(r));
    }
  }
  return ce;
}

}  // namespace

int run_race(const Args& args) {
  if (args.files().size() != 1) return kUsage;
  const std::optional<Json> record = args.load(args.files()[0]);
  if (!record) return 2;
  std::vector<CheckedEntry> entries;
  for (const Json* e :
       entries_with(args, *record, "stats.races", "racechecked",
                    "run the bench with --racecheck or ACCRED_RACECHECK=1")) {
    entries.push_back(parse_entry(*e));
  }
  if (entries.empty()) return 2;

  std::int64_t total = 0;
  for (const CheckedEntry& e : entries) {
    total += e.races;
    std::cout << e.name << ": " << e.races << " race(s)\n";
    for (const std::string& r : e.reports) std::cout << "    " << r << '\n';
  }
  std::cout << "== " << entries.size() << " entr"
            << (entries.size() == 1 ? "y" : "ies") << " checked, " << total
            << " race(s) total ==\n";
  return total > 0 ? 1 : 0;
}

}  // namespace accred::report
