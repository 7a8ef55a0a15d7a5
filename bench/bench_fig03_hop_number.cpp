// Figure 3: hop-number of the delay-optimal path, normalized by ln(N),
// as a function of the contact rate lambda -- theory curves for short
// and long contacts, validated by Monte-Carlo simulation of random
// temporal networks.
//
// The paper's qualitative claims checked here:
//  * both curves tend to 1 as lambda -> 0 (k ~ ln N in sparse networks),
//  * they agree in sparse and dense regimes,
//  * the long-contact curve has a singularity at lambda = 1.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "random/phase_transition.hpp"
#include "random/theory.hpp"
#include "util/csv.hpp"

using namespace odtn;

int main(int argc, char** argv) {
  bench::banner("Figure 3",
                "hop-number of the delay-optimal path vs contact rate");

  // Theory curves.
  std::vector<double> lambdas;
  for (double l = 0.05; l <= 4.001; l += 0.05) lambdas.push_back(l);

  CsvWriter csv(bench::csv_path("fig03_hop_number"));
  csv.write_row({"lambda", "theory_short", "theory_long", "mc_short",
                 "mc_short_stderr", "mc_long", "mc_long_stderr"});

  PlotSeries short_theory{"short contacts (theory)", {}, {}};
  PlotSeries long_theory{"long contacts (theory)", {}, {}};
  for (double l : lambdas) {
    short_theory.x.push_back(l);
    short_theory.y.push_back(hop_constant_short(l));
    if (std::abs(l - 1.0) > 0.02) {  // singularity at lambda = 1
      long_theory.x.push_back(l);
      long_theory.y.push_back(std::min(hop_constant_long(l), 5.0));
    }
  }

  // Monte-Carlo validation at a few rates, through the deterministic
  // parallel harness: every (lambda, contact-case) run gets its own
  // seed, each trial its own keyed stream. The whole set runs twice --
  // 1 thread and --threads N -- and the bench exits non-zero unless the
  // per-trial outcomes match bit-for-bit, which also keeps the CSV
  // identical across thread counts.
  const std::size_t n = 3000;
  const std::size_t trials = 60;
  const std::size_t max_slots = 60000;
  const unsigned num_threads = bench::parse_threads(argc, argv);
  constexpr std::uint64_t kSeed = 0xF163;
  PlotSeries short_mc{"short contacts (simulated, N=3000)", {}, {}};
  PlotSeries long_mc{"long contacts (simulated, N=3000)", {}, {}};

  int determinism_failures = 0;
  double serial_ms = 0.0, parallel_ms = 0.0;
  const auto measure_gated = [&](double lambda, ContactCase mode,
                                 std::uint64_t seed) {
    const auto serial =
        measure_delay_optimal(n, lambda, mode, trials, max_slots, {seed, 1});
    auto parallel = measure_delay_optimal(n, lambda, mode, trials, max_slots,
                                          {seed, num_threads});
    serial_ms += serial.mc.wall_ms;
    parallel_ms += parallel.mc.wall_ms;
    for (std::size_t i = 0; i < trials; ++i) {
      if (serial.trials[i].reached != parallel.trials[i].reached ||
          serial.trials[i].delay_over_log_n !=
              parallel.trials[i].delay_over_log_n ||
          serial.trials[i].hops_over_log_n !=
              parallel.trials[i].hops_over_log_n)
        ++determinism_failures;
    }
    return parallel;
  };

  std::printf("%-8s %-13s %-19s %-13s %-19s\n", "lambda", "theory", "MC mean",
              "theory", "MC mean");
  std::printf("%-8s %-33s %-33s\n", "", "---- short contacts ----",
              "---- long contacts ----");
  std::size_t rate_index = 0;
  for (double l : {0.1, 0.25, 0.5, 1.0, 1.5, 2.5, 4.0}) {
    const auto s = measure_gated(l, ContactCase::kShort,
                                 kSeed + 2 * rate_index);
    const auto g = measure_gated(l, ContactCase::kLong,
                                 kSeed + 2 * rate_index + 1);
    ++rate_index;
    const double ms = s.hops_over_log_n.mean();
    const double ml = g.hops_over_log_n.mean();
    short_mc.x.push_back(l);
    short_mc.y.push_back(ms);
    long_mc.x.push_back(l);
    long_mc.y.push_back(ml);
    const double th_l = hop_constant_long(l);
    std::printf("%-8.2f %-13.3f %.3f +/- %-11.3f %-13.3f %.3f +/- %-11.3f\n",
                l, hop_constant_short(l), ms, s.hops_over_log_n.stderr_mean(),
                th_l > 99 ? 99.0 : th_l, ml, g.hops_over_log_n.stderr_mean());
    csv.write_numeric_row({l, hop_constant_short(l), th_l, ms,
                           s.hops_over_log_n.stderr_mean(), ml,
                           g.hops_over_log_n.stderr_mean()});
  }

  PlotOptions opt;
  opt.x_label = "contact rate lambda";
  opt.y_label = "k / ln(N), delay-optimal path";
  std::printf("%s",
              render_ascii_plot(
                  {short_theory, long_theory, short_mc, long_mc}, opt)
                  .c_str());

  std::printf(
      "\nPaper check: both curves -> 1 as lambda -> 0; short and long agree\n"
      "away from lambda = 1, where the long-contact case has its "
      "singularity.\n");
  std::printf("[csv] wrote %s\n", bench::csv_path("fig03_hop_number").c_str());

  bench::write_mc_timing_csv("fig03_mc_timing",
                             {{1u, serial_ms},
                              {shared_thread_pool().num_workers(),
                               parallel_ms}});
  std::printf("  wall-clock: 1 thread %.1f ms, parallel %.1f ms (%.2fx)\n",
              serial_ms, parallel_ms,
              serial_ms / std::max(parallel_ms, 1e-9));
  if (!bench::check(determinism_failures == 0,
                    "MC per-trial outcomes bit-identical across thread "
                    "counts")) {
    std::printf("\n%d trial(s) diverged between thread counts\n",
                determinism_failures);
    return 1;
  }
  return 0;
}
