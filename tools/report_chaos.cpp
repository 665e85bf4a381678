// accred_report chaos — renders (and gates on) the chaos-campaign record
// produced by bench/service_chaos --json.
//
//   accred_report chaos RECORD.json
//
// Verdicts (CI gate semantics — "100% structured resolution, breakers on
// schedule, clean tenants untouched"):
//   * liveness     every service drained (undrained == 0 everywhere)
//   * schedule     every metric in the record's "expect" entry equals the
//                  same-named metric of the "chaos" entry — breaker opens,
//                  fast-fails, cancellations, deadline expiries, structured
//                  failures all land exactly as the campaign scripted them
//   * accounting   submitted == admitted + rejections, and every admitted
//                  job resolved to exactly one terminal status (no job
//                  vanished, none double-counted)
//   * shedding     the overload phase shed at least its scheduled minimum,
//                  and its books balance (admitted == completed + shed)
//   * isolation    the chaos run's clean-tenant checksum is bit-identical
//                  to the no-chaos baseline replay's
//
// Exit codes:
//   0 = all verdicts pass
//   1 = at least one verdict failed
//   2 = unreadable/malformed input or a missing section (a campaign that
//       cannot be judged must fail the gate, not pass it), or bad usage.
#include <cmath>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "report.hpp"

namespace accred::report {
namespace {

using obs::Json;

struct Verdicts {
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    std::cout << (ok ? "  ok    " : "  FAIL  ") << what << '\n';
    if (!ok) failures.push_back(what);
  }
};

const Json* find_entry(const Json& record, const std::string& name) {
  for (const Json& e : record.at("entries").elements()) {
    if (e.at("name").as_string() == name) return &e;
  }
  return nullptr;
}

/// A metric from an entry's "metrics" object; NaN when absent.
double metric(const Json& entry, const std::string& name) {
  if (const Json* metrics = entry.find("metrics")) {
    if (const Json* m = metrics->find(name)) return m->as_double();
  }
  return std::nan("");
}

std::string attr(const Json& entry, const std::string& name) {
  if (const Json* attrs = entry.find("attrs")) {
    if (const Json* a = attrs->find(name)) return a->as_string();
  }
  return "";
}

}  // namespace

int run_chaos(const Args& args) {
  if (args.files().size() != 1) return kUsage;
  const std::optional<Json> loaded = args.load(args.files()[0]);
  if (!loaded) return 2;
  const Json& record = *loaded;

  const Json* chaos = find_entry(record, "chaos");
  const Json* expect = find_entry(record, "expect");
  const Json* shed = find_entry(record, "shed");
  const Json* baseline = find_entry(record, "baseline");
  if (chaos == nullptr || expect == nullptr || shed == nullptr ||
      baseline == nullptr) {
    std::cerr << args.prog << ": record is missing a campaign section "
                 "(need chaos, expect, shed, baseline entries)\n";
    return 2;
  }

  Verdicts v;
  std::cout << "== chaos schedule ==\n";
  const Json* expected = expect->find("metrics");
  if (expected == nullptr || expected->items().empty()) {
    std::cerr << args.prog << ": expect entry carries no metrics\n";
    return 2;
  }
  for (const auto& [name, want] : expected->items()) {
    const double got = metric(*chaos, name);
    std::ostringstream os;
    os << "chaos/" << name << " == " << want.as_double() << " (got " << got
       << ")";
    v.check(got == want.as_double(), os.str());
  }

  std::cout << "== accounting ==\n";
  const double submitted = metric(*chaos, "submitted");
  const double admitted = metric(*chaos, "admitted");
  const double rejected = metric(*chaos, "rejected_total");
  const double resolved =
      metric(*chaos, "completed") + metric(*chaos, "failed") +
      metric(*chaos, "cancelled") + metric(*chaos, "deadline_exceeded") +
      metric(*chaos, "shed");
  v.check(submitted == admitted + rejected,
          "submitted == admitted + rejections");
  v.check(admitted == resolved,
          "every admitted job resolved to one terminal status");

  std::cout << "== shedding ==\n";
  const double shed_total = metric(*shed, "shed");
  const double shed_min = metric(*shed, "shed_min");
  {
    std::ostringstream os;
    os << "shed " << shed_total << " >= scheduled minimum " << shed_min;
    v.check(shed_total >= shed_min && shed_min > 0, os.str());
  }
  v.check(metric(*shed, "admitted") == metric(*shed, "completed") + shed_total,
          "shed-phase books balance (admitted == completed + shed)");
  v.check(metric(*shed, "undrained") == 0, "shed service drained");
  v.check(metric(*chaos, "undrained") == 0, "chaos service drained");
  v.check(metric(*baseline, "undrained") == 0, "baseline service drained");

  std::cout << "== isolation ==\n";
  const std::string chaos_sum = attr(*chaos, "clean_checksum");
  const std::string base_sum = attr(*baseline, "clean_checksum");
  if (chaos_sum.empty() || base_sum.empty()) {
    std::cerr << args.prog << ": missing clean_checksum attr\n";
    return 2;
  }
  v.check(chaos_sum == base_sum,
          "clean-tenant checksum " + chaos_sum + " == baseline " + base_sum);

  if (v.failures.empty()) {
    std::cout << "== chaos campaign: all verdicts pass ==\n";
    return 0;
  }
  std::cout << "== chaos campaign: " << v.failures.size()
            << " verdict(s) FAILED ==\n";
  return 1;
}

}  // namespace accred::report
