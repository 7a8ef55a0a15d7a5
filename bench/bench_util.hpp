// Shared helpers for the figure/table reproduction benches.
//
// Every bench prints (a) a header identifying the paper artifact it
// regenerates, (b) the numeric series as aligned text, (c) an ASCII
// rendering of the figure's shape, and (d) writes the series to
// bench_out/<name>.csv for external replotting.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/diameter.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/mc_harness.hpp"
#include "util/time_format.hpp"

namespace odtn::bench {

/// Prints the standard bench banner.
inline void banner(const std::string& artifact, const std::string& caption) {
  std::printf("\n==============================================================\n");
  std::printf("%s -- %s\n", artifact.c_str(), caption.c_str());
  std::printf("==============================================================\n");
}

/// Creates bench_out/ (next to the working directory) and returns the
/// CSV path for this bench.
inline std::string csv_path(const std::string& name) {
  std::filesystem::create_directories("bench_out");
  return "bench_out/" + name + ".csv";
}

/// Parses `--threads N` from a bench's argv (0 = hardware concurrency,
/// the default). Monte-Carlo benches accept it so the thread-count
/// invariance of the harness can be exercised from the command line.
inline unsigned parse_threads(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--threads")
      return static_cast<unsigned>(std::strtoul(argv[i + 1], nullptr, 10));
  }
  return 0;
}

/// Prints one harness instrumentation line.
inline void print_mc_stats(const char* what, const McStats& s) {
  std::printf("  [mc] %s: %llu trials / %u worker(s), %.1f ms, "
              "%.0f trials/s, utilization %.2f\n",
              what, static_cast<unsigned long long>(s.trials), s.workers,
              s.wall_ms, s.trials_per_second(), s.worker_utilization());
}

/// Prints one PASS/FAIL check line; returns `ok`.
inline bool check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  return ok;
}

/// Appends a timing row to `bench_out/<name>.csv` (separate from the
/// result CSVs so those stay bit-identical across runs and thread
/// counts). One row per harness configuration.
inline void write_mc_timing_csv(const std::string& name,
                                const std::vector<std::pair<unsigned, double>>&
                                    wall_ms_by_threads) {
  CsvWriter csv(csv_path(name));
  csv.write_row({"threads", "wall_ms", "speedup_vs_1_thread"});
  const double base = wall_ms_by_threads.empty()
                          ? 0.0
                          : wall_ms_by_threads.front().second;
  for (const auto& [threads, wall_ms] : wall_ms_by_threads) {
    csv.write_numeric_row({static_cast<double>(threads), wall_ms,
                           base / std::max(wall_ms, 1e-9)});
  }
  std::printf("[csv] wrote %s\n", csv_path(name).c_str());
}

/// Label for a hop budget (kUnboundedHops -> "inf").
inline std::string hop_label(int hops) {
  return hops == kUnboundedHops ? "inf hops"
                                : std::to_string(hops) + " hop" +
                                      (hops == 1 ? "" : "s");
}

/// Prints a delay-CDF family as an aligned table (rows: delay grid,
/// columns: hop budgets + unbounded), mirroring the axes of Figures 9-11.
inline void print_cdf_table(const DelayCdfResult& result,
                            const std::vector<int>& hop_budgets) {
  std::printf("%-10s", "delay");
  for (int k : hop_budgets) std::printf("  %8s", hop_label(k).c_str());
  std::printf("\n");
  for (std::size_t j = 0; j < result.grid.size(); ++j) {
    std::printf("%-10s", format_duration(result.grid[j]).c_str());
    for (int k : hop_budgets) {
      const double v = (k == kUnboundedHops)
                           ? result.cdf_unbounded[j]
                           : result.cdf_by_hops[static_cast<std::size_t>(k) - 1][j];
      std::printf("  %8.4f", v);
    }
    std::printf("\n");
  }
}

/// Renders the CDF family as an ASCII chart (x log scale, y in [0, 1]).
inline void plot_cdf_family(const DelayCdfResult& result,
                            const std::vector<int>& hop_budgets,
                            const std::string& title) {
  std::vector<PlotSeries> series;
  for (int k : hop_budgets) {
    const auto& cdf =
        (k == kUnboundedHops)
            ? result.cdf_unbounded
            : result.cdf_by_hops[static_cast<std::size_t>(k) - 1];
    series.push_back({hop_label(k), result.grid, cdf});
  }
  PlotOptions opt;
  opt.log_x = true;
  opt.x_as_duration = true;
  opt.x_label = "delay";
  opt.y_label = title + "  (P[success within delay])";
  opt.y_min = 0.0;
  opt.y_max = 1.0;
  std::printf("%s", render_ascii_plot(series, opt).c_str());
}

/// Dumps the CDF family to CSV: one row per grid point.
inline void write_cdf_csv(const std::string& name,
                          const DelayCdfResult& result,
                          const std::vector<int>& hop_budgets,
                          const std::string& variant = "") {
  CsvWriter csv(csv_path(name));
  std::vector<std::string> header{"variant", "delay_seconds"};
  for (int k : hop_budgets) header.push_back(hop_label(k));
  csv.write_row(header);
  for (std::size_t j = 0; j < result.grid.size(); ++j) {
    std::vector<std::string> row{variant, std::to_string(result.grid[j])};
    for (int k : hop_budgets) {
      const double v =
          (k == kUnboundedHops)
              ? result.cdf_unbounded[j]
              : result.cdf_by_hops[static_cast<std::size_t>(k) - 1][j];
      row.push_back(std::to_string(v));
    }
    csv.write_row(row);
  }
  std::printf("[csv] wrote %s\n", csv_path(name).c_str());
}

}  // namespace odtn::bench
