// Tiny command-line option parser shared by examples and benches.
//
// Supports `--key=value` and `--key value` long options; a bare `--flag`
// has the empty value. The program names the options it reads, and any
// other option or a stray argument is an error, so a misspelled flag
// cannot silently run the default. Deliberately small: the examples need
// a handful of numeric knobs, not a framework.
#pragma once

#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

namespace nashlb::util {

/// Parsed command line: an option map with typed accessors.
class Args {
 public:
  /// Parses argv[1..argc) against `known`, the option names the program
  /// reads (without the leading `--`). Throws std::invalid_argument
  /// naming the first option not in `known`, or the first argument that
  /// is neither an option nor an option's value. Typed accessors throw
  /// std::invalid_argument on malformed values.
  Args(int argc, const char* const* argv,
       std::initializer_list<std::string_view> known);

  /// Value of `--name`, or `fallback` when absent.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = "") const;

  /// Numeric accessors; throw std::invalid_argument if the value does not
  /// parse completely as the requested type.
  [[nodiscard]] long get_int(const std::string& name, long fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;

 private:
  std::map<std::string, std::string> options_;
};

}  // namespace nashlb::util
