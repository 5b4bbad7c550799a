#include "util/cli.hpp"

#include <cstdlib>
#include <stdexcept>

namespace nashlb::util {
namespace {

bool looks_like_option(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!looks_like_option(arg)) continue;
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && !looks_like_option(argv[i + 1])) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "";  // bare flag
    }
  }
}

std::string Args::get(const std::string& name,
                      const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

long Args::get_int(const std::string& name, long fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  char* end = nullptr;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    throw std::invalid_argument("--" + name + ": not an integer: '" +
                                it->second + "'");
  }
  return v;
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    throw std::invalid_argument("--" + name + ": not a number: '" +
                                it->second + "'");
  }
  return v;
}

}  // namespace nashlb::util
