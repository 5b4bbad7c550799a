// Tiny command-line option parser shared by examples and benches.
//
// Supports `--key=value` and `--key value` long options; a bare `--flag`
// has the empty value, and anything else is skipped. Deliberately small:
// the examples need a handful of numeric knobs, not a framework.
#pragma once

#include <map>
#include <string>

namespace nashlb::util {

/// Parsed command line: an option map with typed accessors.
class Args {
 public:
  /// Parses argv[1..argc). Unrecognized syntax never throws at parse time;
  /// typed accessors throw std::invalid_argument on malformed values.
  Args(int argc, const char* const* argv);

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
