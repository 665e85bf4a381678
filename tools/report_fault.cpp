// accred_report fault — renders (and gates on) the fault-injection sections
// of accred.bench JSON records produced by running a bench with --faults /
// ACCRED_FAULTS.
//
//   accred_report fault RECORD.json [--entry NAME]
//       For every entry that ran with faults armed (or just NAME): the
//       fired FaultEvents (kind, block, warp, stage, detail), the
//       structured launch error if one surfaced, and the per-entry verdict.
//
// Verdict per fault-armed entry with at least one fired fault:
//   recovered   the run re-verified after retry/degradation ("recovered"
//               attr from the testsuite runner)
//   surfaced    a structured error is in the record (stats.error), or the
//               entry is explicitly flagged unverified (verified == "NO")
//   UNDETECTED  the fault fired yet the entry claims a clean first-attempt
//               pass — silent corruption escaped the guards
//
// Exit codes (CI gate semantics — "100% of injected faults detected or
// recovered"):
//   0 = every fired fault was recovered or surfaced
//   1 = at least one fired fault was neither (UNDETECTED)
//   2 = unreadable/malformed input, no fault-armed entries, or nothing
//       fired at all (an injection campaign that injected nothing must
//       fail a gate, not pass it), or bad usage.
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "report.hpp"

namespace accred::report {
namespace {

using obs::Json;

struct FaultedEntry {
  std::string name;
  std::vector<std::string> events;  ///< pre-rendered fired faults
  std::string error;                ///< rendered stats.error ("" = none)
  bool injected_error = false;      ///< the error itself was injected
  bool recovered = false;
  bool flagged_unverified = false;  ///< verified == "NO" in the record
};

std::string render_event(const Json& e) {
  std::ostringstream os;
  os << e.at("kind").as_string() << " block" << render_dim3(e.at("block"))
     << " warp " << e.at("warp").as_int();
  if (const Json* stage = e.find("stage")) {
    os << " [" << stage->as_string() << ']';
  }
  os << ": " << e.at("detail").as_string();
  return os.str();
}

std::string render_error(const Json& err) {
  std::ostringstream os;
  os << err.at("code").as_string() << ": " << err.at("message").as_string();
  if (const Json* b = err.find("block")) {
    os << " @ block" << render_dim3(*b) << " warp " << err.at("warp").as_int();
  }
  return os.str();
}

FaultedEntry parse_entry(const Json& e) {
  FaultedEntry fe;
  fe.name = e.at("name").as_string();
  const Json& stats = e.at("stats");
  for (const Json& ev : stats.at("faults").at("events").elements()) {
    fe.events.push_back(render_event(ev));
  }
  if (const Json* err = stats.find("error")) {
    fe.error = render_error(*err);
    if (const Json* inj = err->find("injected")) {
      fe.injected_error = inj->as_bool();
    }
  }
  if (const Json* attrs = e.find("attrs")) {
    if (const Json* r = attrs->find("recovered")) {
      fe.recovered = r->as_string() == "yes";
    }
    if (const Json* v = attrs->find("verified")) {
      fe.flagged_unverified = v->as_string() != "yes";
    }
  }
  return fe;
}

}  // namespace

int run_fault(const Args& args) {
  if (args.files().size() != 1) return kUsage;
  const std::optional<Json> record = args.load(args.files()[0]);
  if (!record) return 2;
  std::vector<FaultedEntry> entries;
  for (const Json* e :
       entries_with(args, *record, "stats.faults", "fault-armed",
                    "run the bench with --faults or ACCRED_FAULTS")) {
    entries.push_back(parse_entry(*e));
  }
  if (entries.empty()) return 2;

  std::size_t fired = 0;
  std::size_t undetected = 0;
  for (const FaultedEntry& e : entries) {
    const bool any_fired = !e.events.empty() || e.injected_error;
    const char* verdict =
        !any_fired      ? "no fault fired"
        : e.recovered   ? "recovered"
        : !e.error.empty() || e.flagged_unverified ? "surfaced"
                                                   : "UNDETECTED";
    std::cout << e.name << ": " << e.events.size() << " fired fault(s) — "
              << verdict << '\n';
    for (const std::string& ev : e.events) std::cout << "    " << ev << '\n';
    if (!e.error.empty()) std::cout << "    error: " << e.error << '\n';
    if (any_fired) {
      fired += e.events.empty() ? 1 : e.events.size();
      if (!e.recovered && e.error.empty() && !e.flagged_unverified) {
        undetected += 1;
      }
    }
  }
  std::cout << "== " << entries.size() << " fault-armed entr"
            << (entries.size() == 1 ? "y" : "ies") << ", " << fired
            << " fired fault(s), " << undetected << " undetected ==\n";
  if (fired == 0) {
    std::cerr << args.prog << ": faults were armed but none fired — the "
                 "campaign injected nothing\n";
    return 2;
  }
  return undetected > 0 ? 1 : 0;
}

}  // namespace accred::report
