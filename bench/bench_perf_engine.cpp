// Performance bench (§4.4 claim): the pooled production engine vs the
// seed level-sweep oracle, and the hop-incremental CDF accumulation vs
// the direct reference, on the all-pairs delay-CDF -- the hottest path
// behind Figures 9-12 and Table 1.
//
// Sections (all rows land in bench_out/perf_engine.csv together with the
// engine instrumentation counters):
//
//   scaling -- single-source fixpoint runs by trace density, per engine.
//   perf    -- all-pairs delay-CDF on a synthetic trace with >= 200
//              nodes; acceptance: pooled engine >= 2x faster wall-clock
//              than the level-sweep engine, identical CDFs. Both runs
//              use the direct accumulation path so the gate compares the
//              propagation schemes alone, bit for bit.
//   fig09   -- the three Figure-9 dataset configs; the pooled engine's
//              CDF vectors must match the level-sweep engine within
//              1e-12 at every grid point and hop budget.
//   accum   -- hop-incremental accumulation + per-worker engine reuse
//              (CdfAccumulation::kIncremental) vs the direct reference
//              (kDirect), both on the pooled engine, over trace-scale
//              conference / campus workloads under the paper's day-time
//              traffic model, swept across hop-budget depths K: direct
//              pays a full re-integration per budget, incremental only
//              the level deltas, so the gap widens with K. Acceptance on
//              the deep (K=32) sweep: >= 1.5x end-to-end
//              compute_delay_cdf speedup; at every K: CDFs within 1e-9,
//              bit-identical diameter() at every eps, and zero
//              steady-state workspace allocations after the first source
//              per worker (EngineStats counters). Also emits
//              machine-readable bench_out/BENCH_pr3.json.
//   kernels -- the runtime-dispatched frontier kernels of the pooled
//              engine. Microbenchmarks isolate the kernels (per-candidate
//              insert() vs prune + two-way merge into fresh arena space;
//              per-pair CDF integration vs SoA streaming, gated >= 1.0x)
//              and the dispatched variants against their scalar
//              references (micro_prune on presorted sawtooth batches and
//              micro_merge on a large frontier, both gated >= 1.2x when a
//              vector level is active; micro_difftrim ungated), then the
//              end-to-end check runs single-thread all-pairs
//              compute_delay_cdf (pooled+incremental vs the level-sweep
//              oracle with direct accumulation) on the conference K=32
//              and campus workloads with day-time windows. Acceptance:
//              bit-identical frontiers on sampled sources, identical
//              diameters, CDFs within 1e-9, and zero arena growth after
//              the warm pass (workspace_allocations == 1,
//              arena_bytes_peak flat across sources). Emits
//              bench_out/BENCH_pr6.json with the active SIMD level.
//              The speedups over the since-removed per-pair-insert
//              indexed engine stay on record in the committed
//              bench_out/BENCH_pr3.json and BENCH_pr5.json.
//
// Exit status is non-zero when a CDF equivalence / diameter / allocation
// check fails (so CI catches semantic regressions); speedup shortfalls
// are reported as FAIL lines but do not abort the remaining sections.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/delivery_function.hpp"
#include "core/diameter.hpp"
#include "core/frontier_kernels.hpp"
#include "core/optimal_paths.hpp"
#include "stats/log_grid.hpp"
#include "util/rng.hpp"
#include "trace/datasets.hpp"
#include "trace/generators.hpp"
#include "trace/transforms.hpp"
#include "util/csv.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"
#include "util/time_format.hpp"

using namespace odtn;

namespace {

const char* engine_name(EngineMode mode) {
  switch (mode) {
    case EngineMode::kPooled:
      return "pooled";
    case EngineMode::kLevelSweep:
      return "level_sweep";
  }
  return "?";
}

// Shared timing clocks (bench_util.hpp): wall for reporting, process
// CPU for single-thread gates.
using bench::cpu_now_ms;
using bench::now_ms;

struct CdfRun {
  DelayCdfResult result;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

CdfRun run_cdf(const TemporalGraph& graph, DelayCdfOptions opt,
               EngineMode mode, CdfAccumulation accumulation) {
  opt.engine = mode;
  opt.accumulation = accumulation;
  CdfRun run;
  const double c0 = cpu_now_ms();
  const double t0 = now_ms();
  run.result = compute_delay_cdf(graph, opt);
  run.wall_ms = now_ms() - t0;
  run.cpu_ms = cpu_now_ms() - c0;
  return run;
}

/// Best-of-`reps` wall time (the standard robust estimator under
/// scheduler and frequency noise); the result itself is identical across
/// repetitions, so the last one is returned.
CdfRun run_cdf_best(const TemporalGraph& graph, const DelayCdfOptions& opt,
                    EngineMode mode, CdfAccumulation accumulation, int reps) {
  CdfRun best = run_cdf(graph, opt, mode, accumulation);
  for (int r = 1; r < reps; ++r) {
    CdfRun run = run_cdf(graph, opt, mode, accumulation);
    run.wall_ms = std::min(run.wall_ms, best.wall_ms);
    best = std::move(run);
  }
  return best;
}

/// Largest absolute CDF discrepancy across every hop budget + unbounded.
double max_cdf_diff(const DelayCdfResult& a, const DelayCdfResult& b) {
  double worst = 0.0;
  auto scan = [&](const std::vector<double>& x, const std::vector<double>& y) {
    for (std::size_t j = 0; j < x.size(); ++j)
      worst = std::max(worst, std::abs(x[j] - y[j]));
  };
  for (std::size_t k = 0; k < a.cdf_by_hops.size(); ++k)
    scan(a.cdf_by_hops[k], b.cdf_by_hops[k]);
  scan(a.cdf_unbounded, b.cdf_unbounded);
  return worst;
}

void write_row(CsvWriter& csv, const std::string& section,
               const std::string& trace, const TemporalGraph& g,
               const std::string& scheme, double wall_ms, double speedup,
               const EngineStats& stats, double cdf_diff, bool converged) {
  csv.write_row({section, trace, std::to_string(g.num_nodes()),
                 std::to_string(g.num_contacts()), scheme,
                 std::to_string(wall_ms), std::to_string(speedup),
                 std::to_string(stats.contacts_examined),
                 std::to_string(stats.pairs_inserted),
                 std::to_string(stats.pairs_dominated),
                 std::to_string(stats.frontier_copies_avoided),
                 std::to_string(stats.cdf_pairs_integrated),
                 std::to_string(stats.workspace_allocations),
                 std::to_string(stats.workspace_reuses),
                 std::to_string(stats.merge_batches),
                 std::to_string(stats.pairs_peak),
                 std::to_string(stats.arena_bytes_peak),
                 std::to_string(cdf_diff), converged ? "1" : "0"});
}

void print_stats(const EngineStats& s) {
  std::printf("    %llu contact extensions, %llu pairs kept, %llu dominated, "
              "%llu frontier copies avoided\n",
              static_cast<unsigned long long>(s.contacts_examined),
              static_cast<unsigned long long>(s.pairs_inserted),
              static_cast<unsigned long long>(s.pairs_dominated),
              static_cast<unsigned long long>(s.frontier_copies_avoided));
  std::printf("    %llu cdf pairs integrated, %llu workspace allocations, "
              "%llu workspace reuses\n",
              static_cast<unsigned long long>(s.cdf_pairs_integrated),
              static_cast<unsigned long long>(s.workspace_allocations),
              static_cast<unsigned long long>(s.workspace_reuses));
  if (s.merge_batches > 0)
    std::printf("    %llu merge batches, %llu pairs peak, %llu arena bytes "
                "peak\n",
                static_cast<unsigned long long>(s.merge_batches),
                static_cast<unsigned long long>(s.pairs_peak),
                static_cast<unsigned long long>(s.arena_bytes_peak));
}

TemporalGraph make_scaling_trace(double scale) {
  SyntheticTraceSpec spec;
  spec.num_internal = 30;
  spec.duration = 2 * kDay;
  spec.pair_contacts_mean = 2.0 * scale;
  spec.num_communities = 4;
  spec.gatherings = {80.0 * scale, 0.35, 0.06, 12 * kMinute, 0.8, 0.06};
  spec.profile = ActivityProfile::conference();
  return generate_trace(spec, 4242).graph;
}

/// Campus-style trace with N >= 200 nodes for the headline speedup
/// measurement: community-structured and sparse, so propagation reaches
/// the fixpoint over many hop levels with small per-level active sets --
/// the regime opportunistic traces live in (Reality Mining, Table 1).
TemporalGraph make_large_trace() {
  SyntheticTraceSpec spec;
  spec.num_internal = 240;
  spec.duration = 3 * kDay;
  spec.pair_contacts_mean = 0.06;
  spec.num_communities = 12;
  spec.gatherings = {25.0, 0.18, 0.04, 10 * kMinute, 0.75, 0.05};
  spec.profile = ActivityProfile::conference();
  return generate_trace(spec, 1717).graph;
}

/// Campus workload for the accumulation section: diurnal class schedule,
/// community-structured and sparse like Reality Mining, over a five-day
/// observation window.
TemporalGraph make_campus_trace() {
  SyntheticTraceSpec spec;
  spec.name = "campus_accum";
  spec.num_internal = 160;
  spec.duration = 5 * kDay;
  spec.pair_contacts_mean = 0.10;
  spec.num_communities = 10;
  spec.gatherings = {30.0, 0.22, 0.04, 15 * kMinute, 0.8, 0.05};
  spec.profile = ActivityProfile::campus();
  return generate_trace(spec, 2024).graph;
}

/// Day-time-only start windows (08:00-20:00 each day), the paper's
/// §5.3.1 traffic model: messages are created during waking hours only.
/// Integration cost scales with the window count while propagation work
/// is unchanged -- exactly the accumulation-bound regime this section
/// measures.
std::vector<std::pair<double, double>> day_time_windows(
    const TemporalGraph& g) {
  std::vector<std::pair<double, double>> w;
  for (double day = g.start_time(); day + 20 * kHour <= g.end_time();
       day += kDay)
    w.emplace_back(day + 8 * kHour, day + 20 * kHour);
  return w;
}

bool check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  return ok;
}

int section_scaling(CsvWriter& csv) {
  std::printf("\n-- scaling: single-source fixpoint by trace density --\n");
  std::printf("%8s %10s %14s %14s %9s\n", "scale", "contacts",
              "sweep(ms)", "pooled(ms)", "speedup");
  for (const double scale : {1.0, 2.0, 4.0, 8.0}) {
    const auto g = make_scaling_trace(scale);
    double wall[2];
    EngineStats stats[2];
    const EngineMode modes[2] = {EngineMode::kLevelSweep,
                                 EngineMode::kPooled};
    for (int m = 0; m < 2; ++m) {
      const double t0 = now_ms();
      SingleSourceEngine engine(g, 0, modes[m]);
      engine.run_to_fixpoint();
      wall[m] = now_ms() - t0;
      stats[m] = engine.stats();
    }
    const double speedup = wall[0] / std::max(wall[1], 1e-9);
    std::printf("%8.1f %10zu %14.2f %14.2f %8.2fx\n", scale,
                g.num_contacts(), wall[0], wall[1], speedup);
    const std::string trace = "synthetic_x" + std::to_string(scale);
    for (int m = 0; m < 2; ++m)
      write_row(csv, "scaling", trace, g, engine_name(modes[m]), wall[m],
                wall[0] / std::max(wall[m], 1e-9), stats[m], 0.0, true);
  }
  return 0;
}

int section_perf(CsvWriter& csv) {
  std::printf("\n-- perf: all-pairs delay CDF, N >= 200 synthetic trace --\n");
  const auto g = make_large_trace();
  std::printf("  trace: %zu nodes, %zu contacts, %s\n", g.num_nodes(),
              g.num_contacts(), format_duration(g.duration()).c_str());
  DelayCdfOptions opt;
  opt.grid = make_log_grid(2 * kMinute, kDay, 32);
  opt.max_hops = 8;

  // Direct accumulation on both sides: this section gates the two
  // propagation schemes against each other bit for bit.
  const CdfRun sweep = run_cdf_best(g, opt, EngineMode::kLevelSweep,
                                    CdfAccumulation::kDirect, 2);
  const CdfRun pooled = run_cdf_best(g, opt, EngineMode::kPooled,
                                     CdfAccumulation::kDirect, 2);
  const double speedup = sweep.wall_ms / std::max(pooled.wall_ms, 1e-9);
  const double diff = max_cdf_diff(sweep.result, pooled.result);

  std::printf("  level-sweep: %10.1f ms\n", sweep.wall_ms);
  print_stats(sweep.result.stats);
  std::printf("  pooled:      %10.1f ms  (%.2fx)\n", pooled.wall_ms, speedup);
  print_stats(pooled.result.stats);
  std::printf("  max |CDF diff| = %.3g, diameter %d vs %d, fixpoint %d\n",
              diff, pooled.result.diameter(0.01), sweep.result.diameter(0.01),
              pooled.result.fixpoint_hops);

  write_row(csv, "perf", "synthetic_n220", g, "level_sweep+direct",
            sweep.wall_ms, 1.0, sweep.result.stats, 0.0,
            sweep.result.converged);
  write_row(csv, "perf", "synthetic_n220", g, "pooled+direct",
            pooled.wall_ms, speedup, pooled.result.stats, diff,
            pooled.result.converged);

  int failures = 0;
  if (!check(diff <= 1e-12, "CDF vectors identical within 1e-12")) ++failures;
  check(speedup >= 2.0, "pooled engine >= 2x faster than level-sweep");
  return failures;
}

int section_fig09(CsvWriter& csv) {
  std::printf("\n-- fig09 configs: pooled vs level-sweep CDF equality --\n");
  int failures = 0;
  struct Config {
    DatasetPreset preset;
    bool use_external;
  };
  const Config configs[] = {{dataset_infocom05(), false},
                            {dataset_reality_mining(), false},
                            {dataset_hong_kong(), true}};
  for (const Config& cfg : configs) {
    const auto trace = cfg.preset.generate();
    TemporalGraph graph = cfg.use_external
                              ? trace.graph
                              : keep_internal_contacts(trace.graph,
                                                       trace.num_internal);
    DelayCdfOptions opt;
    opt.grid = make_log_grid(2 * kMinute, kWeek, 48);
    opt.max_hops = 12;
    if (cfg.use_external) opt.endpoints = trace.internal_nodes();

    const CdfRun sweep = run_cdf(graph, opt, EngineMode::kLevelSweep,
                                 CdfAccumulation::kDirect);
    const CdfRun pooled = run_cdf(graph, opt, EngineMode::kPooled,
                                  CdfAccumulation::kDirect);
    const double speedup = sweep.wall_ms / std::max(pooled.wall_ms, 1e-9);
    const double diff = max_cdf_diff(sweep.result, pooled.result);

    std::printf("  %-16s %7zu contacts: sweep %8.1f ms, pooled %8.1f ms "
                "(%.2fx), max |diff| %.3g\n",
                cfg.preset.spec.name.c_str(), graph.num_contacts(),
                sweep.wall_ms, pooled.wall_ms, speedup, diff);
    print_stats(pooled.result.stats);

    write_row(csv, "fig09", cfg.preset.spec.name, graph, "level_sweep+direct",
              sweep.wall_ms, 1.0, sweep.result.stats, 0.0,
              sweep.result.converged);
    write_row(csv, "fig09", cfg.preset.spec.name, graph, "pooled+direct",
              pooled.wall_ms, speedup, pooled.result.stats, diff,
              pooled.result.converged);

    if (!check(diff <= 1e-12,
               (cfg.preset.spec.name + ": CDF identical within 1e-12").c_str()))
      ++failures;
  }
  return failures;
}

/// One accumulation-section record, mirrored into BENCH_pr3.json.
struct AccumRecord {
  std::string workload;
  std::string scheme;
  int max_hops = 0;
  double wall_ms = 0.0;
  double speedup_vs_direct = 1.0;
  EngineStats stats;
  double max_abs_cdf_diff_vs_direct = 0.0;
  bool diameters_match = true;
  bool zero_steady_state_allocs = true;
};

/// Diameters must be bit-identical between the two accumulation schemes
/// at every eps/tol of interest (the headline numbers of Figs. 9-12).
bool diameters_match(const DelayCdfResult& a, const DelayCdfResult& b) {
  for (const double eps : {0.001, 0.01, 0.05, 0.1, 0.5}) {
    if (a.diameter(eps) != b.diameter(eps)) return false;
    if (a.diameter_per_delay(eps) != b.diameter_per_delay(eps)) return false;
  }
  for (const double tol : {0.001, 0.01, 0.05})
    if (a.diameter_absolute(tol) != b.diameter_absolute(tol)) return false;
  return true;
}

int section_accumulation(CsvWriter& csv, std::vector<AccumRecord>& records) {
  std::printf("\n-- accum: hop-incremental accumulation + engine reuse vs "
              "direct reference --\n");
  int failures = 0;
  struct Workload {
    const char* name;
    TemporalGraph graph;
    // Hop-budget sweep depths: direct accumulation pays a full
    // re-integration per budget (O(K * sum |frontier|)) while the
    // incremental scheme pays only the level deltas, so the gap widens
    // with K -- the tentpole's complexity claim, measured directly. The
    // deepest sweep is the gated config: the budget range one needs when
    // the trace's fixpoint level is not known a priori (max_levels
    // defaults to 64; this trace's fixpoint is ~14).
    std::vector<int> budgets;
    // The >= 1.5x end-to-end gate applies at budgets >= this depth.
    int gate_at;
  };
  const Workload workloads[] = {
      {"conference_n240", make_large_trace(), {8, 16, 32}, 32},
      {"campus_n160", make_campus_trace(), {16}, 0}};
  const unsigned workers = shared_thread_pool().num_workers();
  for (const Workload& wl : workloads) {
    std::printf("  %-16s %zu nodes, %zu contacts, %s, day-time windows\n",
                wl.name, wl.graph.num_nodes(), wl.graph.num_contacts(),
                format_duration(wl.graph.duration()).c_str());
    for (const int max_hops : wl.budgets) {
      DelayCdfOptions opt;
      opt.grid = make_log_grid(2 * kMinute, kDay, 48);
      opt.max_hops = max_hops;
      // Paper's day-time-only traffic model (§5.3.1): messages are
      // created during waking hours only (one window per day).
      opt.windows = day_time_windows(wl.graph);

      const bool gated = wl.gate_at > 0 && max_hops >= wl.gate_at;
      const int reps = gated ? 3 : 2;
      const CdfRun direct = run_cdf_best(wl.graph, opt, EngineMode::kPooled,
                                         CdfAccumulation::kDirect, reps);
      const CdfRun inc = run_cdf_best(wl.graph, opt, EngineMode::kPooled,
                                      CdfAccumulation::kIncremental, reps);
      const double speedup = direct.wall_ms / std::max(inc.wall_ms, 1e-9);
      const double diff = max_cdf_diff(direct.result, inc.result);
      const bool diam_ok = diameters_match(direct.result, inc.result);
      // Zero steady-state allocations: each worker materializes exactly
      // one engine workspace; every further source is a capacity-keeping
      // reset.
      const EngineStats& is = inc.result.stats;
      const std::uint64_t sources = wl.graph.num_nodes();
      const bool alloc_ok =
          is.workspace_allocations <= workers &&
          is.workspace_allocations + is.workspace_reuses == sources;

      std::printf("  K=%-2d direct %8.1f ms, incremental %8.1f ms (%.2fx), "
                  "max |diff| %.3g, diameter(0.01) %d vs %d, fixpoint %d, "
                  "%llu/%llu pairs integrated (%.1fx less), "
                  "%llu allocs / %llu reuses\n",
                  max_hops, direct.wall_ms, inc.wall_ms, speedup, diff,
                  inc.result.diameter(0.01), direct.result.diameter(0.01),
                  inc.result.fixpoint_hops,
                  static_cast<unsigned long long>(is.cdf_pairs_integrated),
                  static_cast<unsigned long long>(
                      direct.result.stats.cdf_pairs_integrated),
                  static_cast<double>(
                      direct.result.stats.cdf_pairs_integrated) /
                      std::max<double>(1.0, is.cdf_pairs_integrated),
                  static_cast<unsigned long long>(is.workspace_allocations),
                  static_cast<unsigned long long>(is.workspace_reuses));

      const std::string trace =
          std::string(wl.name) + "_k" + std::to_string(max_hops);
      write_row(csv, "accum", trace, wl.graph, "pooled+direct",
                direct.wall_ms, 1.0, direct.result.stats, 0.0,
                direct.result.converged);
      write_row(csv, "accum", trace, wl.graph, "pooled+incremental",
                inc.wall_ms, speedup, inc.result.stats, diff,
                inc.result.converged);
      records.push_back({wl.name, "direct", max_hops, direct.wall_ms, 1.0,
                         direct.result.stats, 0.0, true, false});
      records.push_back({wl.name, "incremental", max_hops, inc.wall_ms,
                         speedup, inc.result.stats, diff, diam_ok, alloc_ok});

      if (!check(diff <= 1e-9,
                 "incremental CDFs match direct within 1e-9")) ++failures;
      if (!check(diam_ok, "diameters bit-identical at every eps/tol"))
        ++failures;
      if (!check(alloc_ok,
                 "zero steady-state workspace allocations after first "
                 "source per worker")) ++failures;
      if (gated)
        check(speedup >= 1.5,
              "incremental + engine reuse >= 1.5x faster than direct on the "
              "trace-scale budget sweep");
    }
  }
  return failures;
}

/// One kernels-section record, mirrored into BENCH_pr6.json.
struct KernelRecord {
  std::string name;
  std::string workload;
  double baseline_ms = 0.0;
  double optimized_ms = 0.0;
  double speedup = 1.0;
  /// Minimum speedup this record is gated on; 0 means ungated, and the
  /// JSON then omits the gate fields entirely (a literal `false` on an
  /// ungated record reads as a failed gate).
  double gate_min_speedup = 0.0;
  bool semantics_ok = true;
  /// Real counters for the measured workload: engine stats for the
  /// end-to-end and propagation records, kernel-side tallies (batches,
  /// kept/dominated pairs, integrated pairs) for the micros -- never
  /// default-initialized zeros.
  EngineStats stats;
};

/// Synthetic frontier + candidate batches for the insert-vs-merge micro.
/// Frontiers are built directly in double-monotone order (random uniform
/// pairs would Pareto-collapse to O(log n) survivors); candidates land in
/// the same value range so a realistic fraction survives dominance. The
/// SoA lanes are precomputed: in the engine the frontier is permanently
/// arena-resident, so lane extraction is not part of the merge path.
struct MicroRound {
  DeliveryFunction frontier;
  std::vector<double> f_ld, f_ea;
  std::vector<PathPair> cands;
};

std::vector<MicroRound> make_micro_rounds(int rounds, int fsize, int csize) {
  std::vector<MicroRound> out(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    Rng rng = Rng::keyed(0xbead5, static_cast<std::uint64_t>(r));
    MicroRound& mr = out[static_cast<std::size_t>(r)];
    double ld = 0.0, ea = -1000.0;
    mr.frontier.reserve(static_cast<std::size_t>(fsize));
    for (int i = 0; i < fsize; ++i) {
      ld += rng.uniform(0.1, 10.0);
      ea += rng.uniform(0.1, 10.0);
      mr.frontier.insert({ld, ea});
    }
    for (const PathPair& p : mr.frontier.pairs()) {
      mr.f_ld.push_back(p.ld);
      mr.f_ea.push_back(p.ea);
    }
    // Mirror the engine's publish regime: candidates reach the merge only
    // after surviving the offer-time dominance filter, so the batch is
    // mostly-kept. Unfiltered batches would instead measure the
    // mostly-rejected regime the offer path already handles.
    mr.cands.reserve(static_cast<std::size_t>(csize));
    while (mr.cands.size() < static_cast<std::size_t>(csize)) {
      const PathPair p{rng.uniform(0.0, ld + 5.0),
                       rng.uniform(-1000.0, ea + 5.0)};
      if (!mr.frontier.is_dominated(p)) mr.cands.push_back(p);
    }
  }
  return out;
}

/// Microbenchmark 1: frontier maintenance. Per-candidate insert() into a
/// copy of the frontier vs prune + one two-way merge into fresh arrays.
int micro_insert_vs_merge(std::vector<KernelRecord>& records) {
  // Engine-shaped publish step: a sizable resident frontier receives a
  // small surviving batch per level. The insert baseline pays what a
  // heap-frontier engine pays at publish under change tracking -- a
  // pre-change snapshot copy plus per-candidate positional inserts; the
  // pooled path pays prune + merge into fresh space (the snapshot is the
  // superseded span, free).
  const int kRounds = 200, kF = 96, kC = 8;
  const auto rounds = make_micro_rounds(kRounds, kF, kC);
  DeliveryFunction ref;
  std::vector<PathPair> batch;
  std::vector<double> out_ld(kF + kC), out_ea(kF + kC);
  std::vector<double> d_ld(kC), d_ea(kC), d_succ(kC);

  double insert_ms = 0.0, merge_ms = 0.0;
  for (int rep = 0; rep < 30; ++rep) {
    double t0 = now_ms();
    for (const MicroRound& mr : rounds) {
      ref = mr.frontier;  // the snapshot copy change tracking pays
      for (const PathPair& p : mr.cands) ref.insert(p);
    }
    insert_ms = rep == 0 ? now_ms() - t0 : std::min(insert_ms, now_ms() - t0);
    t0 = now_ms();
    for (const MicroRound& mr : rounds) {
      batch = mr.cands;
      const std::size_t m = prune_candidate_batch(batch.data(), batch.size());
      merge_frontier(mr.f_ld.data(), mr.f_ea.data(), mr.f_ld.size(),
                     batch.data(), m, out_ld.data(), out_ea.data(),
                     d_ld.data(), d_ea.data(), d_succ.data());
    }
    merge_ms = rep == 0 ? now_ms() - t0 : std::min(merge_ms, now_ms() - t0);
  }

  // Semantics: the merge output must equal the insert() result bit for
  // bit on every round. The same pass tallies the real kernel counters
  // for the bench record.
  bool identical = true;
  EngineStats st{};
  for (const MicroRound& mr : rounds) {
    ref = mr.frontier;
    for (const PathPair& p : mr.cands) ref.insert(p);
    batch = mr.cands;
    const std::size_t m = prune_candidate_batch(batch.data(), batch.size());
    const FrontierMerge r = merge_frontier(
        mr.f_ld.data(), mr.f_ea.data(), mr.f_ld.size(), batch.data(), m,
        out_ld.data(), out_ea.data(), d_ld.data(), d_ea.data(),
        d_succ.data());
    const std::size_t off = mr.f_ld.size() + m - r.kept;
    const DeliveryFunction merged = materialize(
        FrontierView(out_ld.data() + off, out_ea.data() + off, r.kept));
    identical = identical && merged == ref;
    st.merge_batches += 1;
    st.pairs_inserted += r.kept_new;
    st.pairs_dominated += mr.f_ld.size() + m - r.kept;
    st.pairs_peak = std::max<std::uint64_t>(st.pairs_peak,
                                            mr.f_ld.size() + m);
  }

  const double speedup = insert_ms / std::max(merge_ms, 1e-9);
  const double per_cand = 1e6 * merge_ms / (double(kRounds) * kC);
  std::printf("  insert-vs-merge: insert %7.2f ms, merge %7.2f ms (%.2fx), "
              "%.0f ns/candidate, F=%d C=%d x%d rounds\n",
              insert_ms, merge_ms, speedup, per_cand, kF, kC, kRounds);
  records.push_back({"micro_insert_vs_merge", "synthetic_frontiers",
                     insert_ms, merge_ms, speedup, 0.0, identical, st});
  return check(identical, "merge kernel bit-identical to insert() reference")
             ? 0
             : 1;
}

/// Microbenchmark 2: CDF integration. Per-pair AoS accumulation vs the
/// SoA add_delivery_segments streaming path, identical segment stream.
/// The stream cycles through 64 DISTINCT frontiers: the all-pairs loop
/// integrates a different destination's frontier every call, so a
/// single-frontier loop would let the branch predictor memorize the
/// baseline's binary-search paths -- a regime the engine never sees.
int micro_integrate(std::vector<KernelRecord>& records) {
  const int kF = 384, kRounds = 4000, kVariants = 64;
  struct Variant {
    DeliveryFunction f;
    std::vector<double> ld, ea;
    double t_hi = 0.0;
  };
  std::vector<Variant> vars(static_cast<std::size_t>(kVariants));
  for (int v = 0; v < kVariants; ++v) {
    Rng rng = Rng::keyed(0xcdf5, static_cast<std::uint64_t>(v));
    Variant& vr = vars[static_cast<std::size_t>(v)];
    // Real frontiers have ea >= ld (a path arrives no earlier than it
    // departs), so the delay keys (arrival minus start time) fed to the
    // grid searches are non-negative and cluster at the low end of the
    // log grid -- the regime both search strategies actually see.
    double l = 0.0, e = 0.0;
    vr.f.reserve(kF);
    for (int i = 0; i < kF; ++i) {
      l += rng.uniform(0.1, 8.0);
      e = std::max(e + rng.uniform(0.1, 8.0), l + rng.uniform(0.0, 4.0));
      vr.f.insert({l, e});
      vr.ld.push_back(l);
      vr.ea.push_back(e);
    }
    vr.t_hi = l * 0.9;
  }
  const std::vector<double> grid = make_log_grid(1.0, 4000.0, 48);
  const double t_lo = 0.0;

  MeasureCdfAccumulator aos(grid), soa(grid);
  double aos_ms = 0.0, soa_ms = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    double t0 = now_ms();
    for (int r = 0; r < kRounds; ++r) {
      const Variant& vr = vars[static_cast<std::size_t>(r % kVariants)];
      vr.f.accumulate_delay_measure(aos, t_lo, vr.t_hi);
    }
    aos_ms = rep == 0 ? now_ms() - t0 : std::min(aos_ms, now_ms() - t0);
    t0 = now_ms();
    for (int r = 0; r < kRounds; ++r) {
      const Variant& vr = vars[static_cast<std::size_t>(r % kVariants)];
      soa.add_delivery_segments(vr.ld.data(), vr.ea.data(), vr.ld.size(),
                                t_lo, vr.t_hi);
    }
    soa_ms = rep == 0 ? now_ms() - t0 : std::min(soa_ms, now_ms() - t0);
  }
  aos.add_observation_measure(1.0);
  soa.add_observation_measure(1.0);
  const bool identical = aos.cdf() == soa.cdf();
  const double speedup = aos_ms / std::max(soa_ms, 1e-9);
  std::printf("  integrate:       per-pair %7.2f ms, SoA stream %7.2f ms "
              "(%.2fx), F=%d x%d rounds, simd %s\n",
              aos_ms, soa_ms, speedup, kF, kRounds,
              simd::level_name(simd::active_level()));
  EngineStats st{};
  st.cdf_pairs_integrated =
      static_cast<std::uint64_t>(kF) * static_cast<std::uint64_t>(kRounds);
  st.pairs_peak = static_cast<std::uint64_t>(kF);
  // The PR 5 regression this PR recovers: the SoA stream must now be at
  // least as fast as the per-pair path (its batched grid searches go
  // through the dispatched lower_bound4).
  records.push_back({"micro_integrate", "synthetic_frontier", aos_ms, soa_ms,
                     speedup, 1.0, identical, st});
  check(speedup >= 1.0, "SoA integration >= 1.0x vs per-pair path");
  return check(identical, "SoA integration bit-identical to per-pair path")
             ? 0
             : 1;
}

/// Microbenchmark 3: batch dominance collapse, dispatched vs the scalar
/// reference, on PRESORTED sawtooth batches. The sort half of
/// prune_candidate_batch is shared verbatim by both arms and dominates
/// ~7/8 of the full prune's cost, so the full kernel is NOT the bench
/// seam -- collapse_sorted_batch is. The sawtooth makes every tooth end
/// in one long dominance pop, the regime the vectorized tail scan is
/// built for (the engine hits it whenever a late low-EA path retires a
/// whole ridge of candidates at once).
int micro_prune(std::vector<KernelRecord>& records) {
  const int kBatches = 64, kTeeth = 12, kTooth = 32;
  const int kM = kTeeth * kTooth;
  std::vector<std::vector<PathPair>> batches(
      static_cast<std::size_t>(kBatches));
  for (int b = 0; b < kBatches; ++b) {
    Rng rng = Rng::keyed(0x9f0e, static_cast<std::uint64_t>(b));
    auto& batch = batches[static_cast<std::size_t>(b)];
    batch.reserve(static_cast<std::size_t>(kM));
    double ld = 0.0;
    double base_ea = 1e4;
    for (int t = 0; t < kTeeth; ++t) {
      // Each tooth starts below ALL of the previous tooth: its first
      // element pops the whole stacked tooth in one run.
      base_ea -= 1000.0;
      double ea = base_ea;
      for (int i = 0; i < kTooth; ++i) {
        ld += rng.uniform(0.01, 1.0);
        ea += rng.uniform(0.01, 1.0);
        batch.push_back({ld, ea});
      }
    }
  }
  // The collapse is destructive, so each timed pass runs on a working
  // copy refilled OUTSIDE the timed region -- the restore memcpy is not
  // part of either kernel.
  const std::size_t bytes = sizeof(PathPair) * static_cast<std::size_t>(kM);
  std::vector<PathPair> work(static_cast<std::size_t>(kBatches * kM));
  auto refill = [&] {
    for (int b = 0; b < kBatches; ++b)
      std::memcpy(work.data() + static_cast<std::size_t>(b) * kM,
                  batches[static_cast<std::size_t>(b)].data(), bytes);
  };

  const int kInner = 10;
  double scalar_ms = 0.0, simd_ms = 0.0;
  for (int rep = 0; rep < 20; ++rep) {
    double acc = 0.0;
    for (int it = 0; it < kInner; ++it) {
      refill();
      const double t0 = now_ms();
      for (int b = 0; b < kBatches; ++b)
        collapse_sorted_batch_scalar(
            work.data() + static_cast<std::size_t>(b) * kM,
            static_cast<std::size_t>(kM));
      acc += now_ms() - t0;
    }
    scalar_ms = rep == 0 ? acc : std::min(scalar_ms, acc);
    acc = 0.0;
    for (int it = 0; it < kInner; ++it) {
      refill();
      const double t0 = now_ms();
      for (int b = 0; b < kBatches; ++b)
        collapse_sorted_batch(work.data() + static_cast<std::size_t>(b) * kM,
                              static_cast<std::size_t>(kM));
      acc += now_ms() - t0;
    }
    simd_ms = rep == 0 ? acc : std::min(simd_ms, acc);
  }

  // Semantics + real counters: dispatched output bit-identical to the
  // scalar reference on every batch.
  bool identical = true;
  EngineStats st{};
  std::vector<PathPair> scratch(static_cast<std::size_t>(kM));
  std::vector<PathPair> scratch2(static_cast<std::size_t>(kM));
  for (const auto& b : batches) {
    std::memcpy(scratch.data(), b.data(), bytes);
    std::memcpy(scratch2.data(), b.data(), bytes);
    const std::size_t ns =
        collapse_sorted_batch_scalar(scratch.data(), scratch.size());
    const std::size_t nv = collapse_sorted_batch(scratch2.data(),
                                                 scratch2.size());
    identical = identical && ns == nv &&
                std::memcmp(scratch.data(), scratch2.data(),
                            ns * sizeof(PathPair)) == 0;
    st.merge_batches += 1;
    st.pairs_inserted += ns;
    st.pairs_dominated += static_cast<std::uint64_t>(kM) - ns;
    st.pairs_peak = std::max<std::uint64_t>(st.pairs_peak,
                                            static_cast<std::uint64_t>(kM));
  }

  const bool vec = simd::active_level() != simd::Level::kScalar;
  const double speedup = scalar_ms / std::max(simd_ms, 1e-9);
  std::printf("  prune collapse:  scalar %7.2f ms, %s %7.2f ms (%.2fx), "
              "m=%d x%d batches, sawtooth\n",
              scalar_ms, simd::level_name(simd::active_level()), simd_ms,
              speedup, kM, kBatches);
  records.push_back({"micro_prune", "sawtooth_batches", scalar_ms, simd_ms,
                     speedup, vec ? 1.2 : 0.0, identical, st});
  if (vec)
    check(speedup >= 1.2, "dispatched collapse >= 1.2x vs scalar reference");
  return check(identical,
               "dispatched collapse bit-identical to scalar reference")
             ? 0
             : 1;
}

/// Microbenchmark 4: merge_frontier, dispatched run-structured walk vs
/// the scalar element walk, on a large resident frontier with a small
/// candidate batch spread evenly through it -- long all-survivor runs,
/// where the dispatched path's bulk copies replace the scalar per-
/// element compare-and-store loop.
int micro_merge(std::vector<KernelRecord>& records) {
  const int kF = 512, kC = 16, kRounds = 400;
  Rng rng = Rng::keyed(0x3e46e, 0);
  std::vector<double> f_ld, f_ea;
  double ld = 0.0, ea = -2000.0;
  for (int i = 0; i < kF; ++i) {
    ld += rng.uniform(0.5, 4.0);
    ea += rng.uniform(0.5, 4.0);
    f_ld.push_back(ld);
    f_ea.push_back(ea);
  }
  // Candidates strictly interleaved between frontier neighbors in BOTH
  // lanes: every candidate is kept, nothing is dominated, and the merge
  // becomes kC long survivor runs of ~kF/kC elements each.
  std::vector<PathPair> cands;
  const int stride = kF / kC;
  for (int c = 0; c < kC; ++c) {
    const std::size_t i = static_cast<std::size_t>(c * stride + stride / 2);
    cands.push_back({0.5 * (f_ld[i] + f_ld[i + 1]),
                     0.5 * (f_ea[i] + f_ea[i + 1])});
  }

  std::vector<double> out_ld(kF + kC), out_ea(kF + kC);
  std::vector<double> d_ld(kC), d_ea(kC), d_succ(kC);
  double scalar_ms = 0.0, simd_ms = 0.0;
  for (int rep = 0; rep < 40; ++rep) {
    double t0 = now_ms();
    for (int r = 0; r < kRounds; ++r)
      merge_frontier_scalar(f_ld.data(), f_ea.data(), f_ld.size(),
                            cands.data(), cands.size(), out_ld.data(),
                            out_ea.data(), d_ld.data(), d_ea.data(),
                            d_succ.data());
    scalar_ms =
        rep == 0 ? now_ms() - t0 : std::min(scalar_ms, now_ms() - t0);
    t0 = now_ms();
    for (int r = 0; r < kRounds; ++r)
      merge_frontier(f_ld.data(), f_ea.data(), f_ld.size(), cands.data(),
                     cands.size(), out_ld.data(), out_ea.data(), d_ld.data(),
                     d_ea.data(), d_succ.data());
    simd_ms = rep == 0 ? now_ms() - t0 : std::min(simd_ms, now_ms() - t0);
  }

  // Semantics: dispatched output bit-identical to the scalar walk.
  std::vector<double> s_out_ld(kF + kC), s_out_ea(kF + kC);
  std::vector<double> s_d_ld(kC), s_d_ea(kC), s_d_succ(kC);
  const FrontierMerge rs = merge_frontier_scalar(
      f_ld.data(), f_ea.data(), f_ld.size(), cands.data(), cands.size(),
      s_out_ld.data(), s_out_ea.data(), s_d_ld.data(), s_d_ea.data(),
      s_d_succ.data());
  const FrontierMerge rv = merge_frontier(
      f_ld.data(), f_ea.data(), f_ld.size(), cands.data(), cands.size(),
      out_ld.data(), out_ea.data(), d_ld.data(), d_ea.data(), d_succ.data());
  const std::size_t off = f_ld.size() + cands.size() - rs.kept;
  const std::size_t doff = cands.size() - rs.kept_new;
  const bool identical =
      rs.kept == rv.kept && rs.kept_new == rv.kept_new &&
      std::memcmp(out_ld.data() + off, s_out_ld.data() + off,
                  rs.kept * sizeof(double)) == 0 &&
      std::memcmp(out_ea.data() + off, s_out_ea.data() + off,
                  rs.kept * sizeof(double)) == 0 &&
      std::memcmp(d_succ.data() + doff, s_d_succ.data() + doff,
                  rs.kept_new * sizeof(double)) == 0;
  EngineStats st{};
  st.merge_batches = kRounds;
  st.pairs_inserted = static_cast<std::uint64_t>(kRounds) * rs.kept_new;
  st.pairs_dominated = static_cast<std::uint64_t>(kRounds) *
                       (f_ld.size() + cands.size() - rs.kept);
  st.pairs_peak = static_cast<std::uint64_t>(kF + kC);

  const bool vec = simd::active_level() != simd::Level::kScalar;
  const double speedup = scalar_ms / std::max(simd_ms, 1e-9);
  std::printf("  merge runs:      scalar %7.2f ms, %s %7.2f ms (%.2fx), "
              "F=%d C=%d x%d rounds\n",
              scalar_ms, simd::level_name(simd::active_level()), simd_ms,
              speedup, kF, kC, kRounds);
  records.push_back({"micro_merge", "interleaved_frontier", scalar_ms,
                     simd_ms, speedup, vec ? 1.2 : 0.0, identical, st});
  if (vec)
    check(speedup >= 1.2, "dispatched merge >= 1.2x vs scalar reference");
  return check(identical, "dispatched merge bit-identical to scalar walk")
             ? 0
             : 1;
}

/// Microbenchmark 5 (ungated): the diff-trim prefix/suffix scan of the
/// hop-incremental CDF path -- two long nearly-equal frontier snapshots
/// differing in a narrow middle window, the shape successive hop levels
/// actually produce.
int micro_difftrim(std::vector<KernelRecord>& records) {
  const int kN = 4096, kRounds = 600;
  Rng rng = Rng::keyed(0xd1ff, 0);
  std::vector<double> o_ld, o_ea;
  double ld = 0.0, ea = -5000.0;
  for (int i = 0; i < kN; ++i) {
    ld += rng.uniform(0.1, 2.0);
    ea += rng.uniform(0.1, 2.0);
    o_ld.push_back(ld);
    o_ea.push_back(ea);
  }
  std::vector<double> n_ld = o_ld, n_ea = o_ea;
  for (int i = kN / 2; i < kN / 2 + 24; ++i)
    n_ea[static_cast<std::size_t>(i)] += 0.5;  // the changed window

  const simd::Ops& vops = simd::ops();
  const simd::Ops& sops = simd::ops_for(simd::Level::kScalar);
  const std::size_t n = o_ld.size();
  volatile std::size_t sink = 0;
  double scalar_ms = 0.0, simd_ms = 0.0;
  for (int rep = 0; rep < 40; ++rep) {
    double t0 = now_ms();
    for (int r = 0; r < kRounds; ++r) {
      const std::size_t p = sops.equal_prefix2(o_ld.data(), o_ea.data(),
                                               n_ld.data(), n_ea.data(), n);
      sink += p + sops.equal_suffix2(o_ld.data(), o_ea.data(), n,
                                     n_ld.data(), n_ea.data(), n, n - p);
    }
    scalar_ms =
        rep == 0 ? now_ms() - t0 : std::min(scalar_ms, now_ms() - t0);
    t0 = now_ms();
    for (int r = 0; r < kRounds; ++r) {
      const std::size_t p = vops.equal_prefix2(o_ld.data(), o_ea.data(),
                                               n_ld.data(), n_ea.data(), n);
      sink += p + vops.equal_suffix2(o_ld.data(), o_ea.data(), n,
                                     n_ld.data(), n_ea.data(), n, n - p);
    }
    simd_ms = rep == 0 ? now_ms() - t0 : std::min(simd_ms, now_ms() - t0);
  }
  const bool identical =
      vops.equal_prefix2(o_ld.data(), o_ea.data(), n_ld.data(), n_ea.data(),
                         n) == sops.equal_prefix2(o_ld.data(), o_ea.data(),
                                                  n_ld.data(), n_ea.data(),
                                                  n) &&
      vops.equal_suffix2(o_ld.data(), o_ea.data(), n, n_ld.data(),
                         n_ea.data(), n, n) ==
          sops.equal_suffix2(o_ld.data(), o_ea.data(), n, n_ld.data(),
                             n_ea.data(), n, n);
  EngineStats st{};
  st.frontier_copies_avoided = static_cast<std::uint64_t>(kRounds);
  st.pairs_peak = static_cast<std::uint64_t>(kN);
  const double speedup = scalar_ms / std::max(simd_ms, 1e-9);
  std::printf("  diff trim:       scalar %7.2f ms, %s %7.2f ms (%.2fx), "
              "n=%d x%d rounds\n",
              scalar_ms, simd::level_name(simd::active_level()), simd_ms,
              speedup, kN, kRounds);
  records.push_back({"micro_difftrim", "near_equal_snapshots", scalar_ms,
                     simd_ms, speedup, 0.0, identical, st});
  return check(identical, "dispatched trim scans match scalar reference")
             ? 0
             : 1;
}

/// Bit-identical frontier cross-check on sampled sources: the pooled
/// engine must reproduce the level-sweep oracle's frontiers exactly at
/// every hop level.
bool frontiers_bit_identical(const TemporalGraph& g) {
  const NodeId stride =
      static_cast<NodeId>(std::max<std::size_t>(1, g.num_nodes() / 8));
  for (NodeId src = 0; src < g.num_nodes(); src += stride) {
    SingleSourceEngine pooled(g, src, EngineMode::kPooled);
    SingleSourceEngine sweep(g, src, EngineMode::kLevelSweep);
    for (int level = 0; level < 64; ++level) {
      const bool pc = pooled.step(), sc = sweep.step();
      if (pc != sc) return false;
      for (NodeId v = 0; v < g.num_nodes(); ++v)
        if (pooled.frontier(v) != sweep.frontier(v)) return false;
      if (!pc) break;
    }
  }
  return true;
}

/// Steady-state arena flatness: one pooled engine recycled over every
/// source twice; the second (steady-state) pass must not grow any arena
/// and must never re-allocate the workspace.
bool arena_flat_across_sources(const TemporalGraph& g,
                               std::uint64_t* peak_bytes) {
  SingleSourceEngine engine(g, 0, EngineMode::kPooled);
  auto pass = [&] {
    for (NodeId src = 0; src < g.num_nodes(); ++src) {
      engine.reset(src);
      engine.run_to_fixpoint();
    }
  };
  pass();  // warm: slabs grow to the high-water capacity
  const std::uint64_t warm_bytes = engine.stats().arena_bytes_peak;
  pass();  // steady state: must be allocation-free and growth-free
  *peak_bytes = engine.stats().arena_bytes_peak;
  return engine.stats().arena_bytes_peak == warm_bytes &&
         engine.stats().workspace_allocations == 1;
}

int section_kernels(CsvWriter& csv, std::vector<KernelRecord>& records) {
  std::printf("\n-- kernels: pooled-arena engine kernels vs their references "
              "--\n");
  int failures = 0;
  failures += micro_insert_vs_merge(records);
  failures += micro_integrate(records);
  failures += micro_prune(records);
  failures += micro_merge(records);
  failures += micro_difftrim(records);

  // BENCH_SECTIONS=kernels_micro: per-kernel micros only, skipping the
  // heavy propagation / end-to-end workloads (fast gate iteration).
  const char* only = std::getenv("BENCH_SECTIONS");
  if (only != nullptr && std::strstr(only, "kernels_micro") != nullptr)
    return failures;

  // End-to-end check: single-thread all-pairs compute_delay_cdf, the
  // pooled production path (incremental accumulation) vs the level-sweep
  // oracle (direct accumulation), day-time windows.
  struct Workload {
    const char* name;
    TemporalGraph graph;
    int max_hops;
  };
  const Workload workloads[] = {
      {"conference_n240_k32", make_large_trace(), 32},
      {"campus_n160_k16", make_campus_trace(), 16}};
  for (const Workload& wl : workloads) {
    DelayCdfOptions opt;
    opt.grid = make_log_grid(2 * kMinute, kDay, 48);
    opt.max_hops = wl.max_hops;
    opt.windows = day_time_windows(wl.graph);
    opt.num_threads = 1;  // single-thread: kernel cost, not scheduling

    // Both runs are single-threaded, so CPU time is the faithful
    // compute measure; wall time (reported alongside) additionally
    // absorbs whatever else the host is running.
    const CdfRun sweep = run_cdf(wl.graph, opt, EngineMode::kLevelSweep,
                                 CdfAccumulation::kDirect);
    const CdfRun pooled = run_cdf(wl.graph, opt, EngineMode::kPooled,
                                  CdfAccumulation::kIncremental);
    const double speedup = sweep.cpu_ms / std::max(pooled.cpu_ms, 1e-9);
    const double diff = max_cdf_diff(sweep.result, pooled.result);
    const bool diam_ok = diameters_match(sweep.result, pooled.result);
    const bool bits_ok = frontiers_bit_identical(wl.graph);
    std::uint64_t peak_bytes = 0;
    const bool flat_ok = arena_flat_across_sources(wl.graph, &peak_bytes);

    std::printf("  %-20s level-sweep %8.1f ms cpu (%.1f wall), pooled %8.1f "
                "ms cpu (%.1f wall) -> %.2fx, max |diff| %.3g, "
                "diameter(0.01) %d vs %d, arena peak %.1f KiB\n",
                wl.name, sweep.cpu_ms, sweep.wall_ms, pooled.cpu_ms,
                pooled.wall_ms, speedup, diff,
                pooled.result.diameter(0.01), sweep.result.diameter(0.01),
                static_cast<double>(peak_bytes) / 1024.0);
    print_stats(pooled.result.stats);

    write_row(csv, "kernels", wl.name, wl.graph, "level_sweep+direct",
              sweep.cpu_ms, 1.0, sweep.result.stats, 0.0,
              sweep.result.converged);
    write_row(csv, "kernels", wl.name, wl.graph, "pooled+incremental",
              pooled.cpu_ms, speedup, pooled.result.stats, diff,
              pooled.result.converged);

    const bool sem_ok = diff <= 1e-9 && diam_ok && bits_ok && flat_ok;
    records.push_back({"end_to_end", wl.name, sweep.cpu_ms, pooled.cpu_ms,
                       speedup, 0.0, sem_ok, pooled.result.stats});

    if (!check(bits_ok, "pooled frontiers bit-identical to level sweep "
                        "(sampled sources, every level)")) ++failures;
    if (!check(diff <= 1e-9, "pooled CDFs match level sweep within 1e-9"))
      ++failures;
    if (!check(diam_ok, "diameters bit-identical at every eps/tol"))
      ++failures;
    if (!check(flat_ok, "zero arena growth across steady-state sources "
                        "(workspace_allocations == 1)")) ++failures;
  }
  return failures;
}

/// Machine-readable perf trajectory record for CI (PR 3 onward).
void write_bench_json(const std::vector<AccumRecord>& records) {
  const std::string path = "bench_out/BENCH_pr3.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::printf("[json] could not open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_perf_engine\",\n  \"pr\": 3,\n"
                  "  \"metric\": \"all-pairs delay CDF accumulation\",\n"
                  "  \"records\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const AccumRecord& r = records[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"scheme\": \"%s\", \"max_hops\": %d, "
        "\"wall_ms\": %.3f, \"speedup_vs_direct\": %.3f, "
        "\"pairs_integrated\": %llu, \"workspace_allocations\": %llu, "
        "\"workspace_reuses\": %llu, \"max_abs_cdf_diff_vs_direct\": %.3g, "
        "\"diameters_match\": %s, \"zero_steady_state_allocs\": %s}%s\n",
        r.workload.c_str(), r.scheme.c_str(), r.max_hops, r.wall_ms,
        r.speedup_vs_direct,
        static_cast<unsigned long long>(r.stats.cdf_pairs_integrated),
        static_cast<unsigned long long>(r.stats.workspace_allocations),
        static_cast<unsigned long long>(r.stats.workspace_reuses),
        r.max_abs_cdf_diff_vs_direct, r.diameters_match ? "true" : "false",
        r.zero_steady_state_allocs ? "true" : "false",
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("[json] wrote %s\n", path.c_str());
}

/// Machine-readable record of the kernels section (PR 6 onward; the
/// committed BENCH_pr5.json stays untouched as the PR 5 baseline). Gate
/// fields are emitted ONLY on gated records and name the threshold --
/// a literal false on an ungated record used to read as a failed gate.
void write_bench_json_pr6(const std::vector<KernelRecord>& records) {
  const std::string path = "bench_out/BENCH_pr6.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::printf("[json] could not open %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"bench_perf_engine\",\n  \"pr\": 6,\n"
               "  \"metric\": \"runtime-dispatched SIMD frontier kernels\",\n"
               "  \"simd\": \"%s\",\n  \"simd_best_supported\": \"%s\",\n"
               "  \"records\": [\n",
               simd::level_name(simd::active_level()),
               simd::level_name(simd::best_supported()));
  for (std::size_t i = 0; i < records.size(); ++i) {
    const KernelRecord& r = records[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"workload\": \"%s\", "
                 "\"baseline_ms\": %.3f, \"optimized_ms\": %.3f, "
                 "\"speedup\": %.3f, ",
                 r.name.c_str(), r.workload.c_str(), r.baseline_ms,
                 r.optimized_ms, r.speedup);
    if (r.gate_min_speedup > 0.0)
      std::fprintf(f, "\"gate_min_speedup\": %.2f, \"gate_pass\": %s, ",
                   r.gate_min_speedup,
                   r.speedup >= r.gate_min_speedup ? "true" : "false");
    std::fprintf(
        f,
        "\"semantics_ok\": %s, \"pairs_inserted\": %llu, "
        "\"pairs_dominated\": %llu, \"cdf_pairs_integrated\": %llu, "
        "\"merge_batches\": %llu, \"pairs_peak\": %llu, "
        "\"arena_bytes_peak\": %llu}%s\n",
        r.semantics_ok ? "true" : "false",
        static_cast<unsigned long long>(r.stats.pairs_inserted),
        static_cast<unsigned long long>(r.stats.pairs_dominated),
        static_cast<unsigned long long>(r.stats.cdf_pairs_integrated),
        static_cast<unsigned long long>(r.stats.merge_batches),
        static_cast<unsigned long long>(r.stats.pairs_peak),
        static_cast<unsigned long long>(r.stats.arena_bytes_peak),
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("[json] wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  bench::banner("Engine perf",
                "pooled-arena engine, its kernels and hop-incremental "
                "accumulation vs the reference schemes");
  CsvWriter csv(bench::csv_path("perf_engine"));
  csv.write_row({"section", "trace", "nodes", "contacts", "scheme", "wall_ms",
                 "speedup_vs_baseline", "contacts_examined", "pairs_inserted",
                 "pairs_dominated", "frontier_copies_avoided",
                 "cdf_pairs_integrated", "workspace_allocations",
                 "workspace_reuses", "merge_batches", "pairs_peak",
                 "arena_bytes_peak", "max_abs_cdf_diff_vs_baseline",
                 "converged"});

  // BENCH_SECTIONS=perf,accum (comma list) restricts the run -- handy
  // when iterating on one section; default runs everything.
  const char* only = std::getenv("BENCH_SECTIONS");
  auto enabled = [&](const char* name) {
    return only == nullptr || std::strstr(only, name) != nullptr;
  };

  int failures = 0;
  std::vector<AccumRecord> records;
  std::vector<KernelRecord> kernel_records;
  if (enabled("scaling")) failures += section_scaling(csv);
  if (enabled("perf")) failures += section_perf(csv);
  if (enabled("fig09")) failures += section_fig09(csv);
  if (enabled("accum")) failures += section_accumulation(csv, records);
  if (enabled("kernels")) failures += section_kernels(csv, kernel_records);
  write_bench_json(records);
  write_bench_json_pr6(kernel_records);
  std::printf("[csv] wrote %s\n", bench::csv_path("perf_engine").c_str());
  if (failures) {
    std::printf("\n%d equivalence/allocation check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nall equivalence and allocation checks passed\n");
  return 0;
}
