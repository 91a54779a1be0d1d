// Tiny declarative command-line parser for the examples and benches.
//
// Supports `--flag`, `--name value` and `--name=value`; unknown options are
// reported with the program's usage text.  Deliberately much smaller than
// getopt-style libraries: the example binaries only need a handful of knobs
// (seed, circuit name, iteration count, ...).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace qbp {

class CliParser {
 public:
  CliParser(std::string program_name, std::string description);

  /// Register options before calling parse().  `help` is shown by usage().
  void add_flag(std::string_view name, bool& target, std::string_view help);
  void add_int(std::string_view name, std::int64_t& target, std::string_view help);
  /// As above; values outside the int32 range are a parse error.
  void add_int(std::string_view name, std::int32_t& target, std::string_view help);
  void add_double(std::string_view name, double& target, std::string_view help);
  void add_string(std::string_view name, std::string& target, std::string_view help);

  /// Parse argv; returns false (and fills error()) on malformed input.
  /// `--help` sets help_requested() and returns true without touching targets
  /// that appear after it.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  /// The boilerplate every binary used to repeat: parse argv, print the
  /// error plus usage to stderr on failure (returns exit code 1), print
  /// usage to stdout on --help (returns exit code 0).  Returns nullopt when
  /// parsing succeeded and the program should proceed.
  [[nodiscard]] std::optional<int> run(int argc, const char* const* argv);

  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] bool help_requested() const noexcept { return help_requested_; }

  /// Positional (non-option) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Human-readable usage text listing all registered options.
  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { kFlag, kInt, kInt32, kDouble, kString };

  struct Option {
    std::string name;  // without the leading "--"
    Kind kind;
    void* target;
    std::string help;
    std::string default_text;
  };

  [[nodiscard]] Option* find(std::string_view name) noexcept;
  [[nodiscard]] bool assign(Option& option, std::string_view value);

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
  std::vector<std::string> positional_;
  std::string error_;
  bool help_requested_ = false;
};

}  // namespace qbp
