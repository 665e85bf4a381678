// Tiny command-line flag parser for the bench / example executables.
// Supports `--name value`, `--name=value`, and boolean `--name`.
//
// Boolean flags must be declared up front (the `bool_flags` constructor
// set): an undeclared `--flag` followed by a non-flag token greedily binds
// the token as its value, which silently swallows positionals
// (`bench --profile out.json` used to store "out.json" as the value of
// --profile). Declared booleans never consume the next argument; read them
// with get_bool(), which also accepts explicit `--flag=0` / `--flag=true`
// forms.
//
// Every flag name a getter asks about is remembered, so a main can call
// reject_unknown() after its last read: a misspelled or retired flag
// (`--sim-thread 4`) then fails loudly instead of being ignored.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace accred::util {

class Cli {
public:
  Cli(int argc, char** argv,
      std::initializer_list<std::string_view> bool_flags = {}) {
    for (std::string_view f : bool_flags) bool_flags_.emplace(f);
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (!arg.starts_with("--")) {
        positional_.emplace_back(arg);
        continue;
      }
      arg.remove_prefix(2);
      if (auto eq = arg.find('='); eq != std::string_view::npos) {
        flags_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      } else if (!bool_flags_.contains(arg) && i + 1 < argc &&
                 std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        flags_[std::string(arg)] = argv[++i];
      } else {
        flags_[std::string(arg)] = "";  // boolean flag
      }
    }
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return find(name) != flags_.end();
  }

  [[nodiscard]] std::string get(const std::string& name,
                                std::string fallback) const {
    auto it = find(name);
    return it == flags_.end() ? std::move(fallback) : it->second;
  }

  /// Boolean flag value: absent -> fallback, bare `--name` (empty value)
  /// -> true, `--name=0/false/no/off` -> false, `--name=1/true/yes/on`
  /// -> true; anything else is a usage error.
  [[nodiscard]] bool get_bool(const std::string& name,
                              bool fallback = false) const {
    auto it = find(name);
    if (it == flags_.end()) return fallback;
    const std::string& v = it->second;
    if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on") {
      return true;
    }
    if (v == "0" || v == "false" || v == "no" || v == "off") return false;
    throw std::invalid_argument("--" + name + ": expected a boolean, got \"" +
                                v + "\"");
  }

  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const {
    auto it = find(name);
    if (it == flags_.end()) return fallback;
    std::size_t pos = 0;
    std::int64_t v = 0;
    try {
      v = std::stoll(it->second, &pos);
    } catch (const std::exception&) {
      throw std::invalid_argument("--" + name + ": expected an integer, got \"" +
                                  it->second + "\"");
    }
    if (pos != it->second.size()) {
      throw std::invalid_argument("--" + name +
                                  ": trailing characters after integer: \"" +
                                  it->second + "\"");
    }
    return v;
  }

  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const {
    auto it = find(name);
    if (it == flags_.end()) return fallback;
    std::size_t pos = 0;
    double v = 0;
    try {
      v = std::stod(it->second, &pos);
    } catch (const std::exception&) {
      throw std::invalid_argument("--" + name + ": expected a number, got \"" +
                                  it->second + "\"");
    }
    if (pos != it->second.size()) {
      throw std::invalid_argument("--" + name +
                                  ": trailing characters after number: \"" +
                                  it->second + "\"");
    }
    return v;
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Throws std::invalid_argument naming every flag on the command line
  /// that no has()/get*() call has asked about. Call after the last flag
  /// read and before any work.
  void reject_unknown() const {
    std::string msg;
    for (const auto& [name, value] : flags_) {
      if (read_.contains(name)) continue;
      msg += msg.empty() ? "unknown flag --" : ", --";
      msg += name;
    }
    if (!msg.empty()) throw std::invalid_argument(msg);
  }

private:
  std::map<std::string, std::string>::const_iterator find(
      const std::string& name) const {
    read_.insert(name);
    return flags_.find(name);
  }

  std::map<std::string, std::string> flags_;
  mutable std::set<std::string> read_;  ///< every name a getter asked about
  std::set<std::string, std::less<>> bool_flags_;
  std::vector<std::string> positional_;
};

}  // namespace accred::util
