// The pieces every accred_report subcommand shares (tools/accred_report.cpp
// owns the front end: flag parsing, unknown-flag rejection, usage, and the
// exit-code mapping).
//
// Exit codes, one contract for every subcommand:
//   0 = report printed and its gate (if any) passes
//   1 = the subcommand's gate failed (regression, race, undetected fault,
//       SLO breach, chaos verdict)
//   2 = unreadable/malformed input, nothing to report, or bad usage
//       (including an unknown flag)
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "util/cli.hpp"

namespace accred::report {

/// What a subcommand returns when its positionals do not fit its usage:
/// the front end prints the usage lines and exits 2.
inline constexpr int kUsage = -1;

struct Args {
  const util::Cli& cli;
  std::string prog;  ///< "accred_report <sub>", the prefix of stderr lines

  [[nodiscard]] const std::vector<std::string>& files() const {
    return cli.positional();
  }
  /// obs::load_record under this subcommand's name (nullopt = exit 2).
  [[nodiscard]] std::optional<obs::Json> load(const std::string& path) const;
};

/// The entries of `record` that carry `section` ("profile", "telemetry",
/// or "stats.<key>"), narrowed to `--entry NAME` when given. When none is
/// left, prints "<prog>: no <noun> entries[ named NAME] (<hint>)" and
/// returns an empty list, which the caller turns into exit 2: a gate with
/// nothing to judge must fail, not pass.
[[nodiscard]] std::vector<const obs::Json*> entries_with(
    const Args& args, const obs::Json& record, std::string_view section,
    std::string_view noun, std::string_view hint);

/// "(x,y,z)" for a serialized dim3 (block or thread coordinates).
[[nodiscard]] std::string render_dim3(const obs::Json& d);

int run_diff(const Args& args);
int run_prof(const Args& args);
int run_race(const Args& args);
int run_fault(const Args& args);
int run_metrics(const Args& args);
int run_chaos(const Args& args);

}  // namespace accred::report
