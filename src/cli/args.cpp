#include "cli/args.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "stats/log_grid.hpp"
#include "stats/measure_cdf.hpp"
#include "util/time_format.hpp"

namespace odtn::cli {

std::optional<std::string> ArgList::take_option(std::string_view name) {
  const std::string key = "--" + std::string(name);
  const auto it = std::find(args_.begin(), args_.end(), key);
  if (it == args_.end()) return std::nullopt;
  const auto value_it = it + 1;
  if (value_it == args_.end() || value_it->rfind("--", 0) == 0)
    throw CliError("option " + key + " requires a value");
  std::string value = *value_it;
  args_.erase(it, value_it + 1);
  return value;
}

bool ArgList::take_flag(std::string_view name) {
  const std::string key = "--" + std::string(name);
  const auto it = std::find(args_.begin(), args_.end(), key);
  if (it == args_.end()) return false;
  args_.erase(it);
  return true;
}

std::string required_positional(ArgList& args, std::string_view what) {
  auto value = args.take_positional();
  if (!value) throw CliError("missing " + std::string(what));
  return *value;
}

std::string required_option(ArgList& args, std::string_view name) {
  auto value = args.take_option(name);
  if (!value) throw CliError("missing required option --" + std::string(name));
  return *value;
}

std::optional<std::string> ArgList::take_positional() {
  const auto it = std::find_if(args_.begin(), args_.end(),
                               [](const std::string& a) {
                                 return a.rfind("--", 0) != 0;
                               });
  if (it == args_.end()) return std::nullopt;
  std::string value = *it;
  args_.erase(it);
  return value;
}

void ArgList::expect_empty() const {
  if (args_.empty()) return;
  std::string message = "unrecognized arguments:";
  for (const auto& a : args_) message += " " + a;
  throw CliError(message);
}

double parse_double(const std::string& text, std::string_view what) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0')
    throw CliError("invalid " + std::string(what) + ": '" + text + "'");
  return value;
}

long parse_long(const std::string& text, std::string_view what) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0')
    throw CliError("invalid " + std::string(what) + ": '" + text + "'");
  if (errno == ERANGE)
    throw CliError(std::string(what) + " out of range: '" + text + "'");
  return value;
}

unsigned long parse_count(const std::string& text, std::string_view what,
                          unsigned long max) {
  const long value = parse_long(text, what);
  if (value < 0)
    throw CliError("--" + std::string(what) + " must be >= 0, got " + text);
  if (static_cast<unsigned long>(value) > max)
    throw CliError("--" + std::string(what) + " must be <= " +
                   std::to_string(max) + ", got " + text);
  return static_cast<unsigned long>(value);
}

int parse_int(const std::string& text, std::string_view what, int min) {
  const long value = parse_long(text, what);
  if (value < min)
    throw CliError("--" + std::string(what) + " must be >= " +
                   std::to_string(min) + ", got " + text);
  if (value > std::numeric_limits<int>::max())
    throw CliError("--" + std::string(what) + " must be <= " +
                   std::to_string(std::numeric_limits<int>::max()) +
                   ", got " + text);
  return static_cast<int>(value);
}

double parse_duration(const std::string& text, std::string_view what) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str())
    throw CliError("invalid " + std::string(what) + ": '" + text + "'");
  const std::string unit(end);
  if (unit.empty() || unit == "s") return value;
  if (unit == "min" || unit == "m") return value * kMinute;
  if (unit == "h") return value * kHour;
  if (unit == "d") return value * kDay;
  if (unit == "wk" || unit == "w") return value * kWeek;
  throw CliError("invalid " + std::string(what) + " unit: '" + unit +
                 "' (use s, min, h, d, wk)");
}

std::vector<double> GridBounds::log_grid(double default_hi) const {
  return make_log_grid(lo, hi.value_or(std::max(default_hi, 2 * lo)), 40);
}

GridBounds take_grid_bounds(ArgList& args) {
  const auto lo_text = args.take_option("grid-lo");
  const auto hi_text = args.take_option("grid-hi");
  GridBounds b{lo_text ? parse_duration(*lo_text, "grid-lo") : 2 * kMinute,
               std::nullopt};
  if (hi_text) b.hi = parse_duration(*hi_text, "grid-hi");
  constexpr double kMax = MeasureCdfAccumulator::kMaxMeasure;
  // Written as negations, so a NaN bound fails them.
  const bool hi_ok = !b.hi || (*b.hi > b.lo && *b.hi < kMax);
  if (!(b.lo > 0.0 && b.lo < kMax && hi_ok))
    throw CliError("need 0 < grid-lo < grid-hi < 2^43 s");
  return b;
}

}  // namespace odtn::cli
