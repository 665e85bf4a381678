// accred_report — render and gate accred.bench JSON records:
//
//   accred_report <diff|prof|race|fault|metrics|chaos> ARGS...
//
// Running it bare prints every subcommand's usage. Each subcommand's
// report and gate are documented in its tools/report_*.cpp file; the
// exit-code contract they share is in tools/report.hpp. This file is the
// one front end: it parses the flags, rejects any flag the subcommand does
// not declare (exit 2, naming the flag), prints usage, and maps a
// malformed record (an exception while reading it) to exit 2.
#include <algorithm>
#include <exception>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/record.hpp"
#include "report.hpp"
#include "util/cli.hpp"
#include "util/main_guard.hpp"

namespace accred::report {

std::optional<obs::Json> Args::load(const std::string& path) const {
  return obs::load_record(path, prog);
}

std::vector<const obs::Json*> entries_with(const Args& args,
                                           const obs::Json& record,
                                           std::string_view section,
                                           std::string_view noun,
                                           std::string_view hint) {
  const std::string only = args.cli.get("entry", "");
  std::vector<const obs::Json*> out;
  for (const obs::Json& e : record.at("entries").elements()) {
    if (!only.empty() && e.at("name").as_string() != only) continue;
    const obs::Json* s = &e;
    for (std::size_t pos = 0; s != nullptr && pos <= section.size();) {
      const std::size_t dot = std::min(section.find('.', pos), section.size());
      s = s->find(section.substr(pos, dot - pos));
      pos = dot + 1;
    }
    if (s != nullptr) out.push_back(&e);
  }
  if (out.empty()) {
    std::cerr << args.prog << ": no " << noun << " entries"
              << (only.empty() ? "" : " named " + only) << " (" << hint
              << ")\n";
  }
  return out;
}

std::string render_dim3(const obs::Json& d) {
  std::ostringstream os;
  os << '(' << d.elements()[0].as_int() << ',' << d.elements()[1].as_int()
     << ',' << d.elements()[2].as_int() << ')';
  return os.str();
}

}  // namespace accred::report

namespace {

using namespace accred;

struct Subcommand {
  std::string_view name;
  std::vector<std::string_view> usage;  ///< synopses after the name
  std::vector<std::string_view> flags;  ///< every flag besides --help
  int (*run)(const report::Args&);
};

const std::vector<Subcommand> kSubcommands = {
    {"diff",
     {"BASELINE.json CURRENT.json [--tolerance 25%|0.25] [--all] "
      "[--wall-report]",
      "RECORD.json --list-metrics"},
     {"tolerance", "all", "list-metrics", "wall-report"},
     report::run_diff},
    {"prof",
     {"RECORD.json [--entry NAME]", "--compare A.json B.json [--entry NAME]"},
     {"entry", "compare"},
     report::run_prof},
    {"race", {"RECORD.json [--entry NAME]"}, {"entry"}, report::run_race},
    {"fault", {"RECORD.json [--entry NAME]"}, {"entry"}, report::run_fault},
    {"metrics",
     {"RECORD.json [--entry NAME] [--histograms] "
      "[--slo \"HIST:STAT<=BOUND,...\"]",
      "--compare BASELINE.json CURRENT.json [--entry NAME]"},
     {"entry", "slo", "compare", "histograms"},
     report::run_metrics},
    {"chaos", {"RECORD.json"}, {}, report::run_chaos},
};

/// Usage lines of `only`, or of every subcommand when null. Returns the
/// bad-usage exit code.
int usage(const Subcommand* only) {
  const char* lead = "usage: ";
  for (const Subcommand& s : kSubcommands) {
    if (only != nullptr && &s != only) continue;
    for (std::string_view u : s.usage) {
      std::cerr << lead << "accred_report " << s.name << ' ' << u << '\n';
      lead = "       ";
    }
  }
  return 2;
}

int run(int argc, char** argv) {
  const Subcommand* sub = nullptr;
  for (const Subcommand& s : kSubcommands) {
    if (argc >= 2 && s.name == argv[1]) sub = &s;
  }
  if (sub == nullptr) return usage(nullptr);

  // Booleans never take the next argument as their value, so
  // `--compare A.json B.json` leaves both files positional.
  const util::Cli cli(argc - 1, argv + 1,
                      {"help", "all", "list-metrics", "wall-report",
                       "compare", "histograms"});
  const report::Args args{cli, "accred_report " + std::string(sub->name)};
  const bool help = cli.has("help");
  // Ask about every flag the subcommand declares, so reject_unknown()
  // names exactly the ones it does not.
  for (std::string_view f : sub->flags) (void)cli.has(std::string(f));
  try {
    cli.reject_unknown();
  } catch (const std::invalid_argument& ex) {
    std::cerr << args.prog << ": " << ex.what() << '\n';
    return usage(sub);
  }
  if (help) return usage(sub);

  try {
    const int rc = sub->run(args);
    return rc == report::kUsage ? usage(sub) : rc;
  } catch (const std::exception& ex) {
    std::cerr << args.prog << ": " << ex.what() << '\n';
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  return accred::util::guarded_main([&] { return run(argc, argv); });
}
