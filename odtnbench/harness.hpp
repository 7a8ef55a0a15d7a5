// Measurement plumbing shared by the odtn benchmark workloads: clocks,
// sample statistics, the in-memory span tracer and the report that
// prints every metric and the final JSON result line.
//
// The benchmark measures the program from outside only: every span
// wraps one call into a public odtn function, recorded on the benchmark
// thread. Spans of one solve, epoch or query share an id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace odtnbench {

/// Monotonic wall clock, milliseconds.
double wall_ms();
/// CPU time of the whole process (all threads), milliseconds.
double cpu_ms();
/// Restarts the peak resident-set count (Linux /proc/self/clear_refs),
/// so that peak_rss_mb covers the set-up and the timed loop rather than
/// the input generation before them.
void reset_peak_rss();
/// Peak resident set size since reset_peak_rss() (since process start
/// where the reset is unsupported), MiB.
double peak_rss_mb();

/// Wall and process-CPU milliseconds since construction.
class Stopwatch {
 public:
  Stopwatch() : wall0_(wall_ms()), cpu0_(cpu_ms()) {}
  double wall() const { return wall_ms() - wall0_; }
  double cpu() const { return cpu_ms() - cpu0_; }

 private:
  double wall0_;
  double cpu0_;
};

/// The set-up repetitions of one run, in seconds.
struct SetupTimes {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  void add(const Stopwatch& sw) {
    wall_s.push_back(sw.wall() / 1e3);
    cpu_s.push_back(sw.cpu() / 1e3);
  }
};

/// Median (mean of the two middle values for an even count).
double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);

struct Span {
  const char* name;
  double t0;
  double t1;
  int parent;        // index into the span list, -1 for a root
  std::uint64_t id;  // solve, epoch or query the span belongs to
};

/// In-memory span recorder. Disabled tracers record nothing, so the
/// same call sites serve the timed (untraced) and the traced runs.
class Tracer {
 public:
  bool enabled = false;

  int begin(const char* name, std::uint64_t id);
  void end(int index);
  /// Renames a recorded span (for calls classified by their outcome).
  void rename(int index, const char* name);

  /// Durations (ms) of every span named `name`, in record order.
  std::vector<double> durations(const std::string& name) const;
  double total_ms(const std::string& name) const;
  /// One JSON object per span and line.
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t id)
      : tracer_(tracer), index_(tracer.begin(name, id)) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;     // scratch files (trace text, snapshots)
  std::string spans_path;  // where a traced run writes its spans
};

/// Everything one run reports. Workloads fill `e2e` on untraced runs
/// and `layers` on traced runs; `named` holds the workload-specific
/// headline metrics printed for people (solve_s, query_ms_p99, ...).
class Report {
 public:
  struct Value {
    double value;
    std::string unit;
  };

  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  void named(const std::string& name, double value, const std::string& unit,
             std::size_t samples);
  /// Records a failed output check (the run exits non-zero).
  void check(bool ok, const std::string& what);

  /// Adds the end-to-end block every workload reports from its
  /// per-operation samples (wall ms, process CPU ms) and its set-up
  /// repetitions. Gated metrics are measured in process CPU time, which
  /// the hypervisor's steal time does not inflate: op_cpu_ms_p50,
  /// op_cpu_ms_tail (the workload's fixed tail percentile `tail_pct`),
  /// items_per_cpu_s (`items` of work over the ops' summed CPU time),
  /// setup_s (median CPU seconds of set-up), peak_rss_mb and
  /// success_rate. The wall-clock counterparts are printed as named
  /// metrics. Returns the wall-clock items per second.
  double op_metrics(const std::vector<double>& op_ms,
                    const std::vector<double>& op_cpu_ms, double items,
                    double tail_pct, const SetupTimes& setup);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct() const { return check_failures_ == 0; }

  /// Prints the human-readable lines, then the JSON result as the last
  /// line of standard output. A traced run reports the full per-layer
  /// list, with 0 for layers the workload never calls.
  void print(const RunConfig& cfg);

 private:
  std::map<std::string, Value> e2e_;
  std::map<std::string, Value> layers_;
  struct Named {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::vector<Named> named_;
  int check_failures_ = 0;
};

}  // namespace odtnbench
