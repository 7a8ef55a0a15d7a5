// Figure 1: phase transition boundary, SHORT contact case.
//
// Plots gamma * ln(lambda) + h(gamma) over gamma in [0, 1] for
// lambda in {0.5, 1.0, 1.5}. Paths within tau*ln(N) slots and
// gamma*tau*ln(N) hops exist iff 1/tau is below the curve; the maximum
// M = ln(1 + lambda) is attained at gamma* = lambda / (1 + lambda).
//
// The theory curves are validated by a Monte-Carlo sweep: for each
// lambda, P[constrained path] is estimated at gamma = gamma* across a
// ladder of delay budgets tau around the critical tau* -- the empirical
// phase transition. The sweep runs through the deterministic parallel
// harness twice, once on 1 thread and once on --threads N (default:
// hardware concurrency); the bench exits non-zero if any per-point
// success count differs, so the CSV is bit-identical no matter the
// thread count. Wall-clock for both configurations lands in
// bench_out/fig01_mc_timing.csv.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "random/phase_transition.hpp"
#include "random/theory.hpp"
#include "stats/log_grid.hpp"
#include "util/csv.hpp"

using namespace odtn;

namespace {

constexpr std::size_t kMcNodes = 1200;
constexpr std::size_t kMcTrials = 300;
constexpr std::uint64_t kMcSeed = 0xF101;

struct McPoint {
  double lambda = 0.0;
  double tau_multiplier = 0.0;
  PathProbeResult probe;
};

std::vector<McPoint> run_mc_sweep(const std::vector<double>& lambdas,
                                  const std::vector<double>& multipliers,
                                  unsigned num_threads, double* wall_ms) {
  std::vector<McPoint> points;
  double total_ms = 0.0;
  for (double lambda : lambdas) {
    const double gamma = gamma_star_short(lambda);
    const double tau_c = delay_constant_short(lambda);
    for (double m : multipliers) {
      McPoint p;
      p.lambda = lambda;
      p.tau_multiplier = m;
      // One fixed seed for the whole sweep keyed per point by its index:
      // every point is reproducible in isolation.
      const auto point_seed =
          kMcSeed + points.size() * 0x9E3779B97F4A7C15ULL;
      p.probe = probe_path_probability(kMcNodes, lambda, m * tau_c, gamma,
                                       ContactCase::kShort, kMcTrials,
                                       {point_seed, num_threads});
      total_ms += p.probe.mc.wall_ms;
      points.push_back(std::move(p));
    }
  }
  *wall_ms = total_ms;
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Figure 1",
                "phase transition boundary gamma*ln(lambda)+h(gamma), "
                "short contacts");
  const unsigned num_threads = bench::parse_threads(argc, argv);

  const std::vector<double> lambdas{0.5, 1.0, 1.5};
  const auto gammas = make_linear_grid(0.001, 0.999, 81);

  CsvWriter csv(bench::csv_path("fig01_phase_short"));
  csv.write_row({"gamma", "lambda", "rate"});

  std::vector<PlotSeries> series;
  for (double lambda : lambdas) {
    PlotSeries s;
    char label[64];
    std::snprintf(label, sizeof label, "lambda = %.1f", lambda);
    s.label = label;
    for (double g : gammas) {
      const double rate = rate_short(g, lambda);
      s.x.push_back(g);
      s.y.push_back(rate);
      csv.write_numeric_row({g, lambda, rate});
    }
    series.push_back(std::move(s));
  }

  PlotOptions opt;
  opt.x_label = "gamma (hops per slot of delay budget)";
  opt.y_label = "gamma*ln(lambda) + h(gamma)";
  std::printf("%s", render_ascii_plot(series, opt).c_str());

  std::printf("\n%-8s %-22s %-26s %-22s\n", "lambda",
              "gamma* = l/(1+l)", "max M = ln(1+lambda)",
              "critical tau = 1/M");
  for (double lambda : lambdas) {
    std::printf("%-8.2f %-22.4f %-26.4f %-22.4f\n", lambda,
                gamma_star_short(lambda), max_rate_short(lambda),
                delay_constant_short(lambda));
  }
  std::printf("\nPaper check: maxima sit at gamma* = lambda/(1+lambda) and\n"
              "equal ln(1+lambda); for lambda=0.5 the critical delay is\n"
              "tau* = %.2f ln(N), as stated in Section 3.2.2.\n",
              delay_constant_short(0.5));
  std::printf("[csv] wrote %s\n", bench::csv_path("fig01_phase_short").c_str());

  // -- Monte-Carlo phase transition at gamma*, around tau* --------------
  std::printf("\n-- Monte-Carlo sweep: P[path] at gamma*, N=%zu, "
              "%zu trials/point --\n",
              kMcNodes, kMcTrials);
  const std::vector<double> multipliers{0.4, 0.7, 1.0, 1.5, 2.5};

  double serial_ms = 0.0, parallel_ms = 0.0;
  const auto serial = run_mc_sweep(lambdas, multipliers, 1, &serial_ms);
  const auto parallel =
      run_mc_sweep(lambdas, multipliers, num_threads, &parallel_ms);

  CsvWriter mc_csv(bench::csv_path("fig01_phase_short_mc"));
  mc_csv.write_row({"lambda", "tau_over_tau_star", "tau", "gamma", "trials",
                    "successes", "probability"});
  std::printf("%-8s %-10s %-8s %-12s %-12s\n", "lambda", "tau/tau*",
              "gamma*", "P[path]", "successes");
  int failures = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const McPoint& p = parallel[i];
    const double gamma = gamma_star_short(p.lambda);
    const double tau_c = delay_constant_short(p.lambda);
    std::printf("%-8.2f %-10.2f %-8.3f %-12.4f %zu/%zu\n", p.lambda,
                p.tau_multiplier, gamma, p.probe.probability,
                p.probe.successes, kMcTrials);
    mc_csv.write_numeric_row(
        {p.lambda, p.tau_multiplier, p.tau_multiplier * tau_c, gamma,
         static_cast<double>(kMcTrials),
         static_cast<double>(p.probe.successes), p.probe.probability});
    if (serial[i].probe.outcomes != p.probe.outcomes) ++failures;
  }
  bench::print_mc_stats("parallel sweep", parallel.back().probe.mc);
  std::printf("[csv] wrote %s\n",
              bench::csv_path("fig01_phase_short_mc").c_str());

  bench::write_mc_timing_csv(
      "fig01_mc_timing",
      {{1u, serial_ms},
       {parallel.back().probe.mc.workers, parallel_ms}});
  const double speedup = serial_ms / std::max(parallel_ms, 1e-9);
  std::printf("  wall-clock: 1 thread %.1f ms, %u worker(s) %.1f ms "
              "(%.2fx)\n",
              serial_ms, parallel.back().probe.mc.workers, parallel_ms,
              speedup);
  bench::check(
      failures == 0,
      "MC outcomes bit-identical on 1 thread vs " +
          std::to_string(parallel.back().probe.mc.workers) + " worker(s)");
  if (parallel.back().probe.mc.workers >= 4) {
    // Speedup is informational on small machines: a shortfall prints
    // FAIL but only divergence aborts.
    bench::check(speedup >= 3.0, "parallel sweep >= 3x faster");
  }

  // Phase-transition sanity: below tau* the path probability is small,
  // above it close to 1 (finite-N softening allowed).
  for (const McPoint& p : parallel) {
    if (p.tau_multiplier <= 0.4 && p.probe.probability > 0.3) ++failures;
    if (p.tau_multiplier >= 2.5 && p.probe.probability < 0.7) ++failures;
  }

  if (failures) {
    std::printf("\n%d Monte-Carlo check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nall Monte-Carlo checks passed\n");
  return 0;
}
