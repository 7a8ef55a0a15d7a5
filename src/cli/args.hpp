// Minimal command-line argument handling for the odtn CLI.
//
// Kept deliberately small: `--name value` options, `--name` boolean
// flags, and ordered positionals, consumed destructively so commands can
// verify nothing unknown was passed. Errors are reported as
// CliError exceptions carrying a user-facing message.
#pragma once

#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace odtn::cli {

/// User-facing command-line error (bad flag, malformed number, ...).
class CliError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Destructive view over a command's arguments.
class ArgList {
 public:
  explicit ArgList(std::vector<std::string> args) : args_(std::move(args)) {}

  /// Consumes `--name value`; std::nullopt when absent. Throws CliError
  /// when the option is present but the value is missing.
  std::optional<std::string> take_option(std::string_view name);

  /// Consumes a boolean `--name`; false when absent.
  bool take_flag(std::string_view name);

  /// Consumes the next positional (non `--`) argument.
  std::optional<std::string> take_positional();

  /// Throws CliError listing anything not consumed.
  void expect_empty() const;

  bool empty() const noexcept { return args_.empty(); }

 private:
  std::vector<std::string> args_;
};

/// Next positional / `--name value`, throwing a user-facing CliError
/// naming the missing argument when absent.
std::string required_positional(ArgList& args, std::string_view what);
std::string required_option(ArgList& args, std::string_view name);

/// Strict numeric parsing with user-facing errors. parse_long rejects
/// values outside the range of long instead of clamping them.
double parse_double(const std::string& text, std::string_view what);
long parse_long(const std::string& text, std::string_view what);

/// parse_long for values stored unsigned (counts, node ids, seeds):
/// rejects negatives, and values above `max`, with a clear CliError
/// instead of letting a later static_cast silently wrap them. Callers
/// that narrow the result pass the target type's maximum as `max`.
unsigned long parse_count(
    const std::string& text, std::string_view what,
    unsigned long max = std::numeric_limits<unsigned long>::max());

/// parse_long for int-valued settings (hop budgets, level caps, poll
/// intervals): rejects values outside [min, INT_MAX] with a CliError.
int parse_int(const std::string& text, std::string_view what, int min);

/// Parses durations like "90", "10min", "6h", "2d", "1wk" into seconds.
double parse_duration(const std::string& text, std::string_view what);

/// The delay grid of the CDF commands (cdf, serve, tail): --grid-lo
/// (default 2 min) and an optional --grid-hi.
struct GridBounds {
  double lo;
  std::optional<double> hi;

  /// The 40-point log grid from lo to hi; without --grid-hi, to
  /// max(default_hi, 2 lo).
  std::vector<double> log_grid(double default_hi) const;
};

/// Consumes --grid-lo/--grid-hi and checks them before any work is done:
/// a CliError unless 0 < lo < hi < 2^43 s (the accumulator's range), so
/// NaN, infinite and reversed bounds are usage errors.
GridBounds take_grid_bounds(ArgList& args);

}  // namespace odtn::cli
