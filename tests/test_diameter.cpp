// Tests of the delay-CDF computation and the (1-eps)-diameter (§4.1).
#include "core/diameter.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <thread>

#include "core/source_cdf.hpp"
#include "sim/flooding.hpp"
#include "stats/log_grid.hpp"
#include "trace/datasets.hpp"
#include "trace/transforms.hpp"
#include "util/rng.hpp"
#include "util/time_format.hpp"

namespace odtn {
namespace {

DelayCdfOptions base_options() {
  DelayCdfOptions opt;
  opt.grid = make_log_grid(0.1, 100.0, 32);
  opt.max_hops = 6;
  opt.num_threads = 2;
  return opt;
}

TEST(DelayCdf, SingleContactPairExactValues) {
  // Two nodes, one contact [10, 20], window [0, 40].
  TemporalGraph g(2, {{0, 1, 10.0, 20.0}});
  auto opt = base_options();
  opt.grid = {1.0, 5.0, 10.0, 50.0};
  opt.t_lo = 0.0;
  opt.t_hi = 40.0;
  const auto r = compute_delay_cdf(g, opt);
  // For each ordered pair (both identical by symmetry): delay(t) =
  // max(0, 10 - t) for t <= 20, inf for t > 20.
  //   delay <= 1 : t in [9, 20]  -> 11 of 40.
  //   delay <= 5 : t in [5, 20]  -> 15 of 40.
  //   delay <= 10: t in [0, 20]  -> 20 of 40.
  //   delay <= 50: same (cannot exceed 10). -> 20 of 40.
  for (const auto& cdf : {r.cdf_by_hops[0], r.cdf_unbounded}) {
    EXPECT_NEAR(cdf[0], 11.0 / 40.0, 1e-12);
    EXPECT_NEAR(cdf[1], 15.0 / 40.0, 1e-12);
    EXPECT_NEAR(cdf[2], 20.0 / 40.0, 1e-12);
    EXPECT_NEAR(cdf[3], 20.0 / 40.0, 1e-12);
  }
  EXPECT_EQ(r.diameter(0.01), 1);
  EXPECT_EQ(r.fixpoint_hops, 1);
  EXPECT_DOUBLE_EQ(r.denominator, 2.0 * 40.0);
}

TEST(DelayCdf, CdfsAreMonotoneInDelayAndHops) {
  Rng rng(7);
  std::vector<Contact> contacts;
  for (int i = 0; i < 120; ++i) {
    const auto u = static_cast<NodeId>(rng.below(8));
    auto v = static_cast<NodeId>(rng.below(7));
    if (v >= u) ++v;
    const double b = rng.uniform(0, 90);
    contacts.push_back({u, v, b, b + rng.uniform(0, 5)});
  }
  TemporalGraph g(8, std::move(contacts));
  const auto r = compute_delay_cdf(g, base_options());
  for (std::size_t k = 0; k < r.cdf_by_hops.size(); ++k) {
    for (std::size_t j = 1; j < r.grid.size(); ++j)
      ASSERT_GE(r.cdf_by_hops[k][j], r.cdf_by_hops[k][j - 1]);
    if (k > 0) {
      for (std::size_t j = 0; j < r.grid.size(); ++j)
        ASSERT_GE(r.cdf_by_hops[k][j], r.cdf_by_hops[k - 1][j]);
    }
    for (std::size_t j = 0; j < r.grid.size(); ++j)
      ASSERT_LE(r.cdf_by_hops[k][j], r.cdf_unbounded[j] + 1e-12);
  }
}

TEST(DelayCdf, MatchesMonteCarloFlooding) {
  Rng rng(21);
  std::vector<Contact> contacts;
  for (int i = 0; i < 80; ++i) {
    const auto u = static_cast<NodeId>(rng.below(6));
    auto v = static_cast<NodeId>(rng.below(5));
    if (v >= u) ++v;
    const double b = rng.uniform(0, 50);
    contacts.push_back({u, v, b, b + rng.uniform(0, 8)});
  }
  TemporalGraph g(6, std::move(contacts));
  auto opt = base_options();
  opt.t_lo = g.start_time();
  opt.t_hi = g.end_time();
  const auto r = compute_delay_cdf(g, opt);

  // Monte Carlo with 3-hop flooding at uniform (src, dst, t).
  const int samples = 30000;
  std::vector<int> hits(r.grid.size(), 0);
  for (int s = 0; s < samples; ++s) {
    const auto src = static_cast<NodeId>(rng.below(6));
    auto dst = static_cast<NodeId>(rng.below(5));
    if (dst >= src) ++dst;
    const double t0 = rng.uniform(opt.t_lo, opt.t_hi);
    const auto fr = flood(g, src, t0, 3);
    const double delay = fr.arrival_with_hops(dst, 3) - t0;
    for (std::size_t j = 0; j < r.grid.size(); ++j)
      if (delay <= r.grid[j]) ++hits[j];
  }
  for (std::size_t j = 0; j < r.grid.size(); ++j)
    EXPECT_NEAR(r.cdf_by_hops[2][j], hits[j] / static_cast<double>(samples),
                0.015)
        << "x=" << r.grid[j];
}

TEST(DelayCdf, EndpointRestrictionIgnoresExternalPairs) {
  // Nodes 0,1 internal; node 2 external relay. 0-1 never meet directly;
  // both meet 2.
  TemporalGraph g(3, {{0, 2, 0.0, 5.0}, {2, 1, 10.0, 15.0}});
  auto opt = base_options();
  opt.endpoints = {0, 1};
  opt.t_lo = 0.0;
  opt.t_hi = 20.0;
  const auto r = compute_delay_cdf(g, opt);
  EXPECT_DOUBLE_EQ(r.denominator, 2.0 * 20.0);
  // One hop: unreachable; two hops: reachable via the external relay.
  EXPECT_DOUBLE_EQ(r.cdf_by_hops[0].back(), 0.0);
  EXPECT_GT(r.cdf_by_hops[1].back(), 0.0);
  EXPECT_EQ(r.diameter(0.01), 2);
}

TEST(DelayCdf, DiameterDefinition) {
  // Force a case where 1 hop achieves clearly less than flooding: direct
  // contact exists but relay route covers far more start times.
  TemporalGraph g(3, {{0, 1, 50.0, 51.0},
                      {0, 2, 0.0, 40.0},
                      {2, 1, 0.0, 40.0}});
  auto opt = base_options();
  opt.endpoints = {0, 1};
  opt.t_lo = 0.0;
  opt.t_hi = 51.0;
  const auto r = compute_delay_cdf(g, opt);
  EXPECT_EQ(r.diameter(0.01), 2);
  // With a huge epsilon every hop count qualifies.
  EXPECT_EQ(r.diameter(1.0), 1);
}

TEST(DelayCdf, DiameterPerDelayIsBoundedByFixpoint) {
  Rng rng(5);
  std::vector<Contact> contacts;
  for (int i = 0; i < 60; ++i) {
    const auto u = static_cast<NodeId>(rng.below(7));
    auto v = static_cast<NodeId>(rng.below(6));
    if (v >= u) ++v;
    const double b = rng.uniform(0, 60);
    contacts.push_back({u, v, b, b + 1.0});
  }
  TemporalGraph g(7, std::move(contacts));
  const auto r = compute_delay_cdf(g, base_options());
  const auto per_delay = r.diameter_per_delay(0.01);
  ASSERT_EQ(per_delay.size(), r.grid.size());
  for (int k : per_delay) {
    EXPECT_GE(k, 0);
    EXPECT_LE(k, r.fixpoint_hops);
  }
  // The global diameter dominates every per-delay diameter.
  const int d = r.diameter(0.01);
  for (int k : per_delay) EXPECT_LE(k, d);
}

TEST(DelayCdf, MultiWindowEqualsUnionOfSingleWindows) {
  TemporalGraph g(2, {{0, 1, 10.0, 20.0}, {0, 1, 50.0, 60.0}});
  auto base = base_options();
  base.grid = {1.0, 100.0};
  // Two windows covering [0, 15] and [40, 55].
  auto multi = base;
  multi.windows = {{0.0, 15.0}, {40.0, 55.0}};
  const auto r = compute_delay_cdf(g, multi);
  EXPECT_DOUBLE_EQ(r.denominator, 2.0 * 30.0);
  // Manual: window 1: delay(t)=max(0,10-t) for t in (0,15]; <=1 on
  // [9,15] -> 6; always <=100 -> 15. Window 2: arrival 50 for t<=50,
  // instantaneous in (50,55]; <=1 on [49,55] -> 6; <=100 -> 15.
  EXPECT_NEAR(r.cdf_unbounded[0], (6.0 + 6.0) / 30.0, 1e-12);
  EXPECT_NEAR(r.cdf_unbounded[1], (15.0 + 15.0) / 30.0, 1e-12);
}

TEST(DelayCdf, WindowsMustBeDisjointIncreasing) {
  TemporalGraph g(2, {{0, 1, 0.0, 1.0}});
  auto opt = base_options();
  opt.windows = {{10.0, 20.0}, {15.0, 25.0}};  // overlapping
  EXPECT_THROW(compute_delay_cdf(g, opt), std::invalid_argument);
  opt.windows = {{10.0, 5.0}};  // reversed
  EXPECT_THROW(compute_delay_cdf(g, opt), std::invalid_argument);
  opt.windows = {{0.0, 0.5}, {10.0, 10.0}};  // an entry of measure zero
  EXPECT_THROW(compute_delay_cdf(g, opt), std::invalid_argument);
}

TEST(DelayCdf, InvalidOptionsThrow) {
  TemporalGraph g(2, {{0, 1, 0.0, 1.0}});
  DelayCdfOptions opt;
  EXPECT_THROW(compute_delay_cdf(g, opt), std::invalid_argument);  // no grid
  opt.grid = {1.0};
  opt.max_hops = 0;
  EXPECT_THROW(compute_delay_cdf(g, opt), std::invalid_argument);
  opt.max_hops = 2;
  opt.endpoints = {0, 9};
  EXPECT_THROW(compute_delay_cdf(g, opt), std::invalid_argument);
  opt.endpoints.clear();
  // A reversed window, and an explicit one of measure zero (it used to
  // give CDFs of zeros and diameter 1).
  for (const double hi : {1.0, 5.0}) {
    opt.t_lo = 5.0;
    opt.t_hi = hi;
    EXPECT_THROW(compute_delay_cdf(g, opt), std::invalid_argument) << hi;
  }
  // One explicit bound whose window resolves to zero length against the
  // span [0, 1]: t_lo at the end time, or t_hi at the start time.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double, double> zero_span[] = {{1.0, nan}, {nan, 0.0}};
  for (const auto& [lo, hi] : zero_span) {
    opt.t_lo = lo;
    opt.t_hi = hi;
    EXPECT_THROW(compute_delay_cdf(g, opt), std::invalid_argument)
        << lo << " " << hi;
  }
}

TEST(DelayCdf, InfiniteWindowBoundsThrow) {
  // An infinite bound makes the observation measure infinite; it used to
  // yield NaN or all-zero CDFs instead of an error. NaN still means the
  // graph's span.
  TemporalGraph g(2, {{0, 1, 0.0, 1.0}});
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double, double> bad[] = {
      {0.0, inf}, {inf, inf}, {-inf, inf}, {-inf, 0.5}, {nan, inf},
      {-inf, nan}};
  for (const auto& [lo, hi] : bad) {
    auto opt = base_options();
    opt.t_lo = lo;
    opt.t_hi = hi;
    EXPECT_THROW(compute_delay_cdf(g, opt), std::invalid_argument)
        << lo << " " << hi;
    opt.t_lo = opt.t_hi = nan;
    opt.windows = {{-1.0, 0.0}, {lo, hi}};
    EXPECT_THROW(compute_delay_cdf(g, opt), std::invalid_argument)
        << "windows " << lo << " " << hi;
  }
  auto opt = base_options();
  opt.t_hi = 0.5;  // t_lo NaN: the graph's start
  const TimeWindows w = resolve_cdf_windows(g, opt);
  EXPECT_EQ(w, (TimeWindows{{0.0, 0.5}}));
}

TEST(DelayCdf, ConvergedFlagReportsFixpointTruncation) {
  // A 5-hop chain with strictly increasing contact times: the DP needs 5
  // levels from node 0, so max_levels = 3 cannot converge.
  TemporalGraph g(6, {{0, 1, 0.0, 1.0},
                      {1, 2, 2.0, 3.0},
                      {2, 3, 4.0, 5.0},
                      {3, 4, 6.0, 7.0},
                      {4, 5, 8.0, 9.0}});
  auto opt = base_options();
  opt.max_hops = 2;
  opt.max_levels = 3;
  const auto truncated = compute_delay_cdf(g, opt);
  EXPECT_FALSE(truncated.converged);
  // fixpoint_hops degrades to max_levels + 1 (a lower bound, flagged).
  EXPECT_EQ(truncated.fixpoint_hops, 4);

  opt.max_levels = 64;
  const auto full = compute_delay_cdf(g, opt);
  EXPECT_TRUE(full.converged);
  EXPECT_EQ(full.fixpoint_hops, 5);
}

/// Pooled and level-sweep engines, both on the direct accumulation path,
/// must produce the same CDFs to the bit.
void expect_engine_modes_identical(const TemporalGraph& g,
                                   DelayCdfOptions pooled_opt,
                                   const std::string& what) {
  pooled_opt.num_threads = 1;
  // Pin the direct accumulation path on both sides: this isolates the
  // two propagation schemes, which must agree to the bit. (Under kAuto
  // the pooled engine would use incremental accumulation, which agrees
  // to the bit as well -- covered by the tests below.)
  pooled_opt.accumulation = CdfAccumulation::kDirect;
  auto sweep_opt = pooled_opt;
  sweep_opt.engine = EngineMode::kLevelSweep;
  const auto a = compute_delay_cdf(g, pooled_opt);
  const auto b = compute_delay_cdf(g, sweep_opt);
  ASSERT_EQ(a.cdf_by_hops.size(), b.cdf_by_hops.size()) << what;
  for (std::size_t k = 0; k < a.cdf_by_hops.size(); ++k)
    for (std::size_t j = 0; j < a.grid.size(); ++j)
      ASSERT_EQ(a.cdf_by_hops[k][j], b.cdf_by_hops[k][j])
          << what << " " << k << " " << j;
  for (std::size_t j = 0; j < a.grid.size(); ++j)
    ASSERT_EQ(a.cdf_unbounded[j], b.cdf_unbounded[j]) << what;
  EXPECT_EQ(a.fixpoint_hops, b.fixpoint_hops) << what;
  EXPECT_TRUE(a.converged) << what;
  // The pooled engine must examine no more contacts than the sweep.
  EXPECT_LE(a.stats.contacts_examined, b.stats.contacts_examined) << what;
  EXPECT_GT(a.stats.pairs_inserted, 0u) << what;
}

TEST(DelayCdf, EngineModesProduceIdenticalCdfs) {
  Rng rng(77);
  std::vector<Contact> contacts;
  for (int i = 0; i < 140; ++i) {
    const auto u = static_cast<NodeId>(rng.below(10));
    auto v = static_cast<NodeId>(rng.below(9));
    if (v >= u) ++v;
    const double b = rng.uniform(0, 80);
    contacts.push_back({u, v, b, b + rng.uniform(0, 6)});
  }
  expect_engine_modes_identical(TemporalGraph(10, std::move(contacts)),
                                base_options(), "random");

  // The three Figure 9 data set presets, shrunk to test scale (14
  // devices, two days) but keeping each one's structure: Infocom05 and
  // Reality Mining restricted to internal contacts, Hong-Kong with its
  // external devices as relays and only internal nodes as endpoints.
  const std::pair<DatasetPreset, bool> presets[] = {
      {dataset_infocom05(), false},
      {dataset_reality_mining(), false},
      {dataset_hong_kong(), true}};
  for (auto [preset, relay_external] : presets) {
    preset.spec.num_internal = 14;
    preset.spec.num_communities =
        std::min<std::size_t>(preset.spec.num_communities, 14);
    preset.spec.num_external = relay_external ? 40 : 0;
    preset.spec.duration = 2 * kDay;
    const SyntheticTrace trace = preset.generate();
    DelayCdfOptions opt = base_options();
    opt.grid = make_log_grid(2 * kMinute, kWeek, 48);
    opt.max_hops = 12;
    if (relay_external) opt.endpoints = trace.internal_nodes();
    expect_engine_modes_identical(
        relay_external ? trace.graph
                       : keep_internal_contacts(trace.graph,
                                                trace.num_internal),
        opt, preset.spec.name);
  }
}

// Randomized property test for the hop-incremental accumulation scheme:
// on random temporal networks (order-independent seeds via Rng::keyed),
// the incremental CDFs, the denominator and the paper's headline numbers
// -- diameter() at every eps, diameter_absolute(), diameter_per_delay()
// -- must equal the direct reference to the bit: both schemes sum the
// same fixed-point addends, and integer sums do not depend on order.
TEST(DelayCdf, IncrementalMatchesDirectOnRandomNetworks) {
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng = Rng::keyed(20260807, trial);
    const std::size_t n = 6 + rng.below(8);
    const int m = 80 + static_cast<int>(rng.below(160));
    std::vector<Contact> contacts;
    for (int i = 0; i < m; ++i) {
      const auto u = static_cast<NodeId>(rng.below(n));
      auto v = static_cast<NodeId>(rng.below(n - 1));
      if (v >= u) ++v;
      const double b = rng.uniform(0, 120);
      contacts.push_back({u, v, b, b + rng.uniform(0, 6)});
    }
    TemporalGraph g(n, std::move(contacts));

    auto direct_opt = base_options();
    direct_opt.max_hops = 5;
    direct_opt.accumulation = CdfAccumulation::kDirect;
    if (trial % 2 == 1)  // exercise the multi-window integration path too
      direct_opt.windows = {{0.0, 50.0}, {70.0, 110.0}};
    auto inc_opt = direct_opt;
    inc_opt.accumulation = CdfAccumulation::kAuto;

    const auto d = compute_delay_cdf(g, direct_opt);
    const auto i = compute_delay_cdf(g, inc_opt);
    ASSERT_EQ(d.cdf_by_hops.size(), i.cdf_by_hops.size());
    for (std::size_t k = 0; k < d.cdf_by_hops.size(); ++k)
      for (std::size_t j = 0; j < d.grid.size(); ++j)
        ASSERT_EQ(d.cdf_by_hops[k][j], i.cdf_by_hops[k][j])
            << "trial " << trial << " k=" << k << " j=" << j;
    for (std::size_t j = 0; j < d.grid.size(); ++j)
      ASSERT_EQ(d.cdf_unbounded[j], i.cdf_unbounded[j]) << "trial " << trial;
    for (const double eps : {0.001, 0.01, 0.05, 0.1, 0.5, 1.0}) {
      EXPECT_EQ(d.diameter(eps), i.diameter(eps)) << "trial " << trial;
      EXPECT_EQ(d.diameter_per_delay(eps), i.diameter_per_delay(eps))
          << "trial " << trial;
    }
    for (const double tol : {0.001, 0.01, 0.05, 0.1})
      EXPECT_EQ(d.diameter_absolute(tol), i.diameter_absolute(tol))
          << "trial " << trial;
    EXPECT_EQ(d.fixpoint_hops, i.fixpoint_hops) << "trial " << trial;
    EXPECT_EQ(d.converged, i.converged) << "trial " << trial;
    // Direct adds the window measure per (destination, level); the
    // incremental scheme adds it once per source, times the destination
    // count -- the same integer total.
    EXPECT_EQ(d.denominator, i.denominator) << "trial " << trial;
  }
}

// Delay-horizon pruning (DESIGN.md §2): process_source runs its engine
// under cdf_horizon(w, grid) and drops every candidate that no start
// time in the windows' hull sees within the grid's last point. Random
// networks with integer times, so that delays land exactly on
// grid.back() and departures exactly on the window start; grids ending
// well below the trace span; single, multi, explicit and NaN windows;
// some runs truncated by max_levels. Per source:
//   - at every level, the pruned pooled frontier is the unpruned level
//     sweep's minus exactly its pairs past the horizon (the definition,
//     written out here);
//   - every lane of the pruned partial, under both schemes, equals an
//     integration of the unpruned engine under operator== (the overflow
//     slot included);
//   - fixpoint_hops is the level at which the filtered frontiers stop
//     changing, never above the unpruned one, and converged only moves
//     from false to true.
TEST(DelayCdf, HorizonPruningKeepsEveryAccumulatorBit) {
  std::size_t on_window_lo = 0, on_max_delay = 0, past = 0, moved = 0;
  for (std::uint64_t trial = 0; trial < 32; ++trial) {
    Rng rng = Rng::keyed(20261019, 100 + trial);
    const std::size_t n = 5 + rng.below(6);
    const int m = 40 + static_cast<int>(rng.below(100));
    std::vector<Contact> contacts;
    for (int i = 0; i < m; ++i) {
      const auto u = static_cast<NodeId>(rng.below(n));
      auto v = static_cast<NodeId>(rng.below(n - 1));
      if (v >= u) ++v;
      const auto b = static_cast<double>(rng.below(60));
      contacts.push_back({u, v, b, b + static_cast<double>(rng.below(4))});
    }
    const TemporalGraph g(n, std::move(contacts), trial % 5 == 4);
    DelayCdfOptions opt;
    double top = 0.0;
    for (std::size_t j = 2 + rng.below(5); j > 0; --j) {
      top += static_cast<double>(1 + rng.below(5));
      opt.grid.push_back(top);
    }
    opt.max_hops = 1 + static_cast<int>(rng.below(5));
    opt.max_levels = trial % 3 == 2 ? opt.max_hops : 64;
    // Window starts on a contact end, so some pairs depart exactly at it.
    const double lo = g.contacts()[rng.below(g.num_contacts())].end;
    switch (trial % 4) {
      case 0:  // NaN bounds: the trace span
        break;
      case 1:
        opt.t_lo = lo;
        opt.t_hi = lo + static_cast<double>(5 + rng.below(20));
        break;
      case 2:
        opt.windows = {
            {lo, lo + static_cast<double>(2 + rng.below(6))},
            {lo + 10.0, lo + static_cast<double>(12 + rng.below(9))}};
        break;
      default:  // explicit start, NaN end
        opt.t_lo = lo;
        break;
    }
    const TimeWindows w = resolve_cdf_windows(g, opt);
    const double w_lo = w.front().first, w_hi = w.back().second;
    const double max_delay = opt.grid.back();
    const auto visible = [&](const FrontierView& f) {
      std::vector<PathPair> out;
      for (std::size_t i = 0; i < f.size(); ++i) {
        const double ld = f.ld(i), ea = f.ea(i);
        on_window_lo += ld == w_lo;
        on_max_delay += ea - std::min(ld, w_hi) == max_delay;
        if (ld >= w_lo && ea - std::min(ld, w_hi) <= max_delay)
          out.push_back(f.pair(i));
        else
          ++past;
      }
      return out;
    };
    const std::vector<NodeId> endpoints = resolve_cdf_endpoints(g, opt);
    const std::vector<std::uint8_t> is_endpoint(n, 1);
    for (const NodeId src : endpoints) {
      SingleSourceEngine full(g, src, EngineMode::kLevelSweep);
      SingleSourceEngine pruned(g, src);
      pruned.set_horizon(cdf_horizon(w, opt.grid));
      SourceCdfPartial want(opt.grid, opt.max_hops);
      const auto integrate = [&](MeasureCdfAccumulator& acc) {
        for (NodeId d = 0; d < n; ++d) {
          if (d == src) continue;
          const FrontierView f = full.frontier_view(d);
          acc.add_delivery_segments(f.ld_data(), f.ea_data(), f.size(),
                                    w.data(), w.size());
        }
        acc.add_observation_measure(total_window_measure(w),
                                    static_cast<std::int64_t>(n) - 1);
      };
      std::vector<std::vector<PathPair>> seen(n);
      for (NodeId d = 0; d < n; ++d) seen[d] = visible(full.frontier_view(d));
      int last_change = 0;
      for (int k = 1; k <= opt.max_levels; ++k) {
        const bool grew = full.step();
        pruned.step();
        for (NodeId d = 0; d < n; ++d) {
          std::vector<PathPair> now = visible(full.frontier_view(d));
          ASSERT_EQ(pruned.frontier(d).to_pairs(), now)
              << "trial " << trial << " source " << src << " node " << d
              << " level " << k;
          if (now != seen[d]) last_change = k;
          seen[d] = std::move(now);
        }
        if (k <= opt.max_hops) integrate(want.by_hops[k - 1]);
        if (!grew && k >= opt.max_hops) break;  // steps past it are no-ops
      }
      integrate(want.unbounded);
      const bool full_converged = full.at_fixpoint();
      const int full_fixpoint =
          full_converged ? full.hops() : opt.max_levels + 1;
      const int want_fixpoint =
          last_change < opt.max_levels ? last_change : opt.max_levels + 1;
      moved += want_fixpoint != full_fixpoint;

      const std::pair<bool, EngineMode> runs[] = {
          {false, EngineMode::kPooled},
          {false, EngineMode::kLevelSweep},
          {true, EngineMode::kPooled}};
      for (const auto& [incremental, mode] : runs) {
        SourceCdfWorker worker;
        SourceCdfPartial got(opt.grid, opt.max_hops);
        process_source(g, src, endpoints, is_endpoint, w, opt.max_hops,
                       opt.max_levels, mode, incremental, worker, got);
        if (incremental) {
          MeasureCdfAccumulator::prefix_merge(got.by_hops);
          got.unbounded.merge(got.by_hops.back());
        }
        const std::string where = "trial " + std::to_string(trial) +
                                  " source " + std::to_string(src) +
                                  (incremental ? " incremental" : " direct");
        for (int k = 0; k < opt.max_hops; ++k)
          ASSERT_TRUE(got.by_hops[k] == want.by_hops[k]) << where << " k=" << k;
        ASSERT_TRUE(got.unbounded == want.unbounded) << where;
        EXPECT_EQ(got.fixpoint_hops, want_fixpoint) << where;
        EXPECT_LE(got.fixpoint_hops, full_fixpoint) << where;
        EXPECT_TRUE(got.converged || !full_converged) << where;
      }
    }
  }
  // The boundaries the filter compares against were hit, pairs were
  // dropped, and the fixpoint moved somewhere.
  EXPECT_GT(on_window_lo, 0u);
  EXPECT_GT(on_max_delay, 0u);
  EXPECT_GT(past, 0u);
  EXPECT_GT(moved, 0u);
}

TEST(DelayCdf, FolderIsOrderFree) {
  // The folder merges in arrival order; the exact sums make a shuffled
  // submission order give the same bits as the ascending one. Non-integral
  // contact times and windows give every addend a rounding.
  Rng rng = Rng::keyed(20261019, 0);
  std::vector<Contact> contacts;
  for (int i = 0; i < 150; ++i) {
    const auto u = static_cast<NodeId>(rng.below(9));
    auto v = static_cast<NodeId>(rng.below(8));
    if (v >= u) ++v;
    const double b = rng.uniform(0, 90);
    contacts.push_back({u, v, b, b + rng.uniform(0, 5)});
  }
  const TemporalGraph g(9, std::move(contacts));
  DelayCdfOptions opt = base_options();
  opt.windows = {{0.3, 41.7}, {50.1, 87.9}};
  const TimeWindows w = resolve_cdf_windows(g, opt);
  const std::vector<NodeId> endpoints = resolve_cdf_endpoints(g, opt);
  const std::vector<std::uint8_t> is_endpoint(g.num_nodes(), 1);
  for (const bool incremental : {false, true}) {
    SourceCdfWorker worker;
    std::vector<SourceCdfPartial> partials;
    for (const NodeId src : endpoints) {
      SourceCdfPartial& p = partials.emplace_back(opt.grid, opt.max_hops);
      process_source(g, src, endpoints, is_endpoint, w, opt.max_hops,
                     opt.max_levels, opt.engine, incremental, worker, p);
    }
    std::vector<std::size_t> order(partials.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const auto fold = [&] {
      OrderedCdfFolder folder(opt.grid, opt.max_hops, partials.size());
      for (const std::size_t i : order) folder.submit(i, partials[i]);
      return finalize_delay_cdf(folder.total(), {}, opt, incremental);
    };
    const DelayCdfResult ascending = fold();
    for (int round = 0; round < 4; ++round) {
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
      const DelayCdfResult shuffled = fold();
      ASSERT_EQ(ascending.cdf_by_hops, shuffled.cdf_by_hops) << round;
      ASSERT_EQ(ascending.cdf_unbounded, shuffled.cdf_unbounded) << round;
      ASSERT_EQ(ascending.denominator, shuffled.denominator) << round;
    }
    EXPECT_EQ(ascending.cdf_unbounded,
              compute_delay_cdf(g, [&] {
                DelayCdfOptions o = opt;
                o.accumulation = incremental ? CdfAccumulation::kAuto
                                             : CdfAccumulation::kDirect;
                return o;
              }()).cdf_unbounded);
  }

  // An incomplete fold -- a missing index, or one submitted twice in its
  // place -- throws.
  const SourceCdfPartial zero(opt.grid, opt.max_hops);
  OrderedCdfFolder missing(opt.grid, opt.max_hops, 3);
  missing.submit(2, zero);
  missing.submit(0, zero);
  EXPECT_THROW(missing.total(), std::logic_error);
  missing.submit(1, zero);
  EXPECT_NO_THROW(missing.total());
  OrderedCdfFolder repeated(opt.grid, opt.max_hops, 2);
  repeated.submit(1, zero);
  repeated.submit(1, zero);
  EXPECT_THROW(repeated.total(), std::logic_error);
}

TEST(DelayCdf, WindowOutsideFixedPointRangeThrows) {
  // 3 nodes: 6 ordered pairs. The sums are fixed point at 2^-20 s and
  // hold below 2^43 s of pair-seconds: a 2e12 s window (1.2e13) is out,
  // before any source runs; a 1e12 s one (6e12) is in and exact.
  const TemporalGraph g(3, {{0, 1, 10.0, 20.0}});
  DelayCdfOptions opt = base_options();
  opt.grid = {1.0, 5.0, 10.0, 100.0};
  opt.t_lo = 0.0;
  opt.t_hi = 2e12;
  EXPECT_THROW(compute_delay_cdf(g, opt), std::invalid_argument);
  opt.t_hi = 1e12;
  const DelayCdfResult r = compute_delay_cdf(g, opt);
  // Pairs (0,1) and (1,0): start times in (0, 20] are delivered at
  // max(t, 10), so delay <= x on a measure of 10 + min(x, 10).
  for (std::size_t j = 0; j < opt.grid.size(); ++j) {
    const double want =
        2.0 * (10.0 + std::min(opt.grid[j], 10.0)) / (6.0 * opt.t_hi);
    EXPECT_EQ(r.cdf_unbounded[j], want) << j;
    EXPECT_EQ(r.cdf_by_hops[0][j], want) << j;
  }
  EXPECT_EQ(r.denominator, 6.0 * opt.t_hi);
  // Explicit windows and an endpoint subset count the same way.
  opt.t_lo = opt.t_hi = std::numeric_limits<double>::quiet_NaN();
  opt.windows = {{0.0, 1e12}, {1.5e12, 2e12}};
  EXPECT_THROW(compute_delay_cdf(g, opt), std::invalid_argument);
  opt.endpoints = {0, 1};
  EXPECT_NO_THROW(compute_delay_cdf(g, opt));
  // One endpoint has no pairs, but its window still bounds the addends.
  opt.endpoints = {0};
  opt.windows = {{0.0, 1e300}};
  EXPECT_THROW(compute_delay_cdf(g, opt), std::invalid_argument);
}

TEST(DelayCdf, IncrementalReusesOneWorkspacePerWorker) {
  Rng rng = Rng::keyed(20260807, 99);
  std::vector<Contact> contacts;
  for (int i = 0; i < 120; ++i) {
    const auto u = static_cast<NodeId>(rng.below(9));
    auto v = static_cast<NodeId>(rng.below(8));
    if (v >= u) ++v;
    const double b = rng.uniform(0, 80);
    contacts.push_back({u, v, b, b + rng.uniform(0, 5)});
  }
  TemporalGraph g(9, std::move(contacts));
  auto opt = base_options();
  opt.num_threads = 1;

  // Incremental: one workspace allocation total, every further source is
  // a capacity-keeping reset -- the zero-steady-state-alloc contract.
  opt.accumulation = CdfAccumulation::kAuto;
  const auto inc = compute_delay_cdf(g, opt);
  EXPECT_EQ(inc.stats.workspace_allocations, 1u);
  EXPECT_EQ(inc.stats.workspace_reuses, g.num_nodes() - 1);
  EXPECT_GT(inc.stats.cdf_pairs_integrated, 0u);

  // With several workers: at most one allocation per worker, and every
  // source is either an allocation or a reuse.
  opt.num_threads = 3;
  const auto par = compute_delay_cdf(g, opt);
  EXPECT_LE(par.stats.workspace_allocations, 3u);
  EXPECT_EQ(par.stats.workspace_allocations + par.stats.workspace_reuses,
            g.num_nodes());
  opt.num_threads = 1;

  // Direct keeps the reference fresh-engine-per-source behavior.
  opt.accumulation = CdfAccumulation::kDirect;
  const auto dir = compute_delay_cdf(g, opt);
  EXPECT_EQ(dir.stats.workspace_allocations, g.num_nodes());
  EXPECT_EQ(dir.stats.workspace_reuses, 0u);
  EXPECT_GT(dir.stats.cdf_pairs_integrated, 0u);
}

TEST(DelayCdf, IncrementalRequiresPooledEngine) {
  TemporalGraph g(2, {{0, 1, 0.0, 1.0}});
  auto opt = base_options();
  opt.engine = EngineMode::kLevelSweep;
  // kAuto degrades to direct accumulation for the level-sweep engine.
  opt.accumulation = CdfAccumulation::kAuto;
  EXPECT_NO_THROW(compute_delay_cdf(g, opt));
  // The per-source entry point refuses the combination too, instead of
  // integrating the level sweep's (always empty) change sets.
  const TimeWindows w = resolve_cdf_windows(g, opt);
  SourceCdfWorker worker;
  SourceCdfPartial partial(opt.grid, opt.max_hops);
  EXPECT_THROW(process_source(g, 0, {0, 1}, {1, 1}, w, opt.max_hops,
                              opt.max_levels, EngineMode::kLevelSweep,
                              /*incremental=*/true, worker, partial),
               std::invalid_argument);
}

TEST(DelayCdf, UnconvergedDiameterIsSentinel) {
  // 5-hop chain with strictly increasing contact times, truncated at
  // max_levels = 3: pairs needing 4-5 hops are reachable by flooding
  // beyond the evaluated budgets, so no k <= max_hops satisfies the
  // criterion and the old fixpoint_hops fallback would have silently
  // understated the diameter.
  TemporalGraph g(6, {{0, 1, 0.0, 1.0},
                      {1, 2, 2.0, 3.0},
                      {2, 3, 4.0, 5.0},
                      {3, 4, 6.0, 7.0},
                      {4, 5, 8.0, 9.0}});
  auto opt = base_options();
  opt.max_hops = 2;
  opt.max_levels = 3;
  const auto r = compute_delay_cdf(g, opt);
  ASSERT_FALSE(r.converged);
  EXPECT_EQ(r.diameter(0.01), DelayCdfResult::kUnknownDiameter);
  EXPECT_EQ(r.diameter_absolute(0.01), DelayCdfResult::kUnknownDiameter);
  // A criterion every evaluated budget satisfies still resolves: with
  // eps = 1 the very first hop budget qualifies.
  EXPECT_EQ(r.diameter(1.0), 1);

  // The same network without truncation names the true diameter.
  opt.max_levels = 64;
  opt.max_hops = 6;
  const auto full = compute_delay_cdf(g, opt);
  ASSERT_TRUE(full.converged);
  EXPECT_EQ(full.fixpoint_hops, 5);
  EXPECT_NE(full.diameter(0.01), DelayCdfResult::kUnknownDiameter);
}

TEST(DelayCdf, SingleThreadAndMultiThreadAgree) {
  Rng rng(31);
  std::vector<Contact> contacts;
  for (int i = 0; i < 100; ++i) {
    const auto u = static_cast<NodeId>(rng.below(9));
    auto v = static_cast<NodeId>(rng.below(8));
    if (v >= u) ++v;
    const double b = rng.uniform(0, 70);
    contacts.push_back({u, v, b, b + rng.uniform(0, 4)});
  }
  TemporalGraph g(9, std::move(contacts));
  auto opt1 = base_options();
  opt1.num_threads = 1;
  const auto r1 = compute_delay_cdf(g, opt1);
  // BIT-identical, not merely close: per-source partials hold exact
  // fixed-point sums, so merging them in whatever order the workers
  // finish gives the same total (see core/source_cdf.hpp).
  for (const unsigned threads : {2u, 3u, 4u}) {
    auto optn = base_options();
    optn.num_threads = threads;
    const auto rn = compute_delay_cdf(g, optn);
    ASSERT_EQ(r1.cdf_by_hops.size(), rn.cdf_by_hops.size());
    for (std::size_t k = 0; k < r1.cdf_by_hops.size(); ++k)
      ASSERT_EQ(r1.cdf_by_hops[k], rn.cdf_by_hops[k])
          << threads << " threads, hop budget " << k + 1;
    ASSERT_EQ(r1.cdf_unbounded, rn.cdf_unbounded) << threads << " threads";
    EXPECT_EQ(r1.denominator, rn.denominator);
    EXPECT_EQ(r1.fixpoint_hops, rn.fixpoint_hops);
    EXPECT_EQ(r1.converged, rn.converged);
  }
}

TEST(DelayCdf, SingleSourceFoldRunsOnTheCaller) {
  // A one-source fold (a serve cdf query) runs inline: on the calling
  // thread, with no pool threads alive while its callback runs, however
  // many workers the options ask for.
  const std::filesystem::path tasks = "/proc/self/task";
  if (!std::filesystem::exists(tasks))
    GTEST_SKIP() << "no per-thread listing to count threads with";
  const auto thread_count = [&] {
    return std::distance(std::filesystem::directory_iterator(tasks),
                         std::filesystem::directory_iterator());
  };
  const TemporalGraph g(3, {{0, 1, 1.0, 2.0}, {1, 2, 3.0, 4.0}});
  DelayCdfOptions opt = base_options();
  opt.num_threads = 4;
  const auto before = thread_count();
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  const DelayCdfResult r = fold_sources(
      1, opt, /*incremental=*/false,
      [&](std::size_t i, SourceCdfWorker&, SourceCdfPartial& scratch,
          OrderedCdfFolder& folder) {
        ++calls;
        EXPECT_EQ(i, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(thread_count(), before);
        scratch.unbounded.add_observation_measure(1.0);
        folder.submit(i, scratch);
      });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(r.denominator, 1.0);
  // An empty fold calls nothing and still finalizes.
  EXPECT_EQ(fold_sources(0, opt, false,
                         [&](std::size_t, SourceCdfWorker&,
                             SourceCdfPartial&, OrderedCdfFolder&) {
                           ++calls;
                         })
                .denominator,
            0.0);
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace odtn
