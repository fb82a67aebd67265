// Minimal command-line argument parsing for the tools/ binaries.
//
// Supports subcommands and long options: `--name value`, `--name=value`,
// and boolean `--flag`. Unknown options are errors; positional arguments
// are collected in order.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace bismark {

class ArgParser {
 public:
  explicit ArgParser(std::string program_description);

  /// Declare a boolean flag (present => true).
  void add_flag(const std::string& name, const std::string& help);
  /// Declare a string option with an optional default.
  void add_option(const std::string& name, const std::string& help,
                  std::optional<std::string> default_value = std::nullopt);

  /// Parse argv (excluding argv[0]). Returns false and sets error() on
  /// unknown options or missing values.
  bool parse(const std::vector<std::string>& args);
  bool parse(int argc, char** argv, int skip = 1);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;
  [[nodiscard]] std::string get_or(const std::string& name, const std::string& fallback) const;
  /// Strict numeric parses: nullopt when the value is missing or is not
  /// entirely a number.
  [[nodiscard]] std::optional<std::int64_t> parse_int(const std::string& name) const;
  [[nodiscard]] std::optional<double> parse_double(const std::string& name) const;
  /// Numeric accessors; return fallback on missing/malformed values.
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const {
    return parse_int(name).value_or(fallback);
  }
  [[nodiscard]] double get_double(const std::string& name, double fallback) const {
    return parse_double(name).value_or(fallback);
  }

  /// Names of the flags and options given on the command line, in name
  /// order (defaults not included).
  [[nodiscard]] std::vector<std::string> given() const;
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Render a usage/help string from the declared flags and options.
  [[nodiscard]] std::string help(const std::string& program_name) const;

 private:
  struct Spec {
    std::string help;
    bool is_flag{false};
    std::optional<std::string> default_value;
  };
  std::string description_;
  std::map<std::string, Spec> specs_;
  std::vector<std::string> declaration_order_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::string error_;
};

}  // namespace bismark
