// Tiny command-line flag parser for the examples and bench binaries.
//
// Supports --name=value, --name value, and boolean --name forms. Unknown
// flags are an error so typos surface immediately.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace locus {

class Cli {
 public:
  /// Registers a flag with a help string and default value; returns *this.
  Cli& flag(std::string name, std::string help, std::string default_value);
  /// Needed so string-literal defaults do not decay into the bool overload.
  Cli& flag(std::string name, std::string help, const char* default_value) {
    return flag(std::move(name), std::move(help), std::string(default_value));
  }
  Cli& flag(std::string name, std::string help, bool default_value);

  /// Parses argv. Returns false (and prints usage) on error or --help.
  bool parse(int argc, char** argv);

  std::string get(const std::string& name) const;
  /// Whether the command line set `name`, even to its default value.
  bool given(const std::string& name) const;
  bool get_bool(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  /// Value of an integer flag that must be a whole decimal number in
  /// [lo, hi] (hi <= INT32_MAX); throws std::invalid_argument naming the
  /// flag otherwise. For counts and sizes read at a tool's boundary.
  std::int32_t get_bounded_int(const std::string& name, std::int64_t lo,
                               std::int64_t hi) const;
  /// Value of a flag that must be a whole non-negative decimal number below
  /// 2^64, such as a seed; throws std::invalid_argument naming the flag
  /// otherwise.
  std::uint64_t get_uint64(const std::string& name) const;
  double get_double(const std::string& name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  std::string usage(const std::string& program) const;

 private:
  struct Flag {
    std::string help;
    std::string value;
    bool is_bool = false;
    bool given = false;
  };
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
};

}  // namespace locus
