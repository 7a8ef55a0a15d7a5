// Network diameter of a temporal network (paper §4.1, §5.3, §6).
//
// For hop budget k and delay budget t, let P_k(t) be the probability that
// a message between a uniformly chosen (source, destination) pair with a
// uniformly chosen start time is delivered within t using at most k hops.
// The (1-eps)-diameter is the least k such that
//     P_k(t) >= (1 - eps) * P_inf(t)   for every t,
// i.e. k hops achieve at least a (1-eps) fraction of flooding's success
// rate under any time constraint. The paper uses eps = 0.01 ("99% of the
// success rate of flooding").
#pragma once

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "core/optimal_paths.hpp"
#include "core/temporal_graph.hpp"

namespace odtn {

/// How compute_delay_cdf turns per-source frontiers into per-hop CDFs.
enum class CdfAccumulation {
  /// Hop-incremental scheme for the pooled engine, kDirect for the level
  /// sweep (which has no change tracking). Each accumulator k receives
  /// only the level-k delta -- for destinations whose frontier changed
  /// at level k, the old frontier's segments are retracted (weight -1)
  /// and the new one's added -- and the per-hop CDFs are reconstructed
  /// by one prefix_merge at finalization. Workers recycle a single
  /// engine workspace across sources via SingleSourceEngine::reset, so
  /// steady state allocates nothing (the pre-change frontiers are free
  /// arena spans rather than copies). O(sum |changed frontier|)
  /// integration work, up to ~K x less than kDirect.
  kAuto,
  /// Reference semantics: after each of the max_hops levels (and once
  /// more at the fixpoint), re-integrate EVERY destination's full
  /// delivery function into that hop budget's accumulator, with a fresh
  /// engine per source. O(K * sum |frontier|) integration work.
  kDirect,
};

/// Options for the all-pairs delay-CDF computation.
struct DelayCdfOptions {
  /// Delay values at which the CDFs are evaluated. Must be positive and
  /// strictly increasing (use make_log_grid for paper-style axes).
  std::vector<double> grid;

  /// CDFs are produced for every hop budget 1..max_hops plus unbounded.
  int max_hops = 12;

  /// Safety cap on DP levels when searching for the fixpoint.
  int max_levels = 64;

  /// Sources/destinations to aggregate over; empty means all nodes.
  /// Relays are always unrestricted (e.g. Hong-Kong paths may traverse
  /// external devices while endpoints are experimental devices only).
  std::vector<NodeId> endpoints;

  /// Start-time window; NaN means the graph's [start_time, end_time].
  /// Infinite bounds (here or in `windows`) are rejected.
  double t_lo = std::numeric_limits<double>::quiet_NaN();
  double t_hi = std::numeric_limits<double>::quiet_NaN();

  /// Optional explicit start-time windows (disjoint, increasing). When
  /// non-empty these REPLACE [t_lo, t_hi]: message creation times are
  /// uniform over their union. Used e.g. to study day-time-only traffic
  /// (paper §5.3.1).
  std::vector<std::pair<double, double>> windows;

  /// Worker threads (sources are independent). 0 = hardware concurrency
  /// (the process-wide shared pool). Sources are handed out dynamically,
  /// so heterogeneous per-source cost does not imbalance the workers.
  unsigned num_threads = 0;

  /// Propagation scheme for the per-source engines. kPooled is the
  /// production engine; kLevelSweep is the reference (seed) semantics,
  /// kept as the oracle for cross-checks and benches.
  EngineMode engine = EngineMode::kPooled;

  /// Accumulation scheme. Both schemes sum the same fixed-point addends
  /// exactly (stats/measure_cdf.hpp), so their results are bit-identical
  /// (DelayCdf.IncrementalMatchesDirectOnRandomNetworks); they differ
  /// only in cost.
  CdfAccumulation accumulation = CdfAccumulation::kAuto;
};

/// All-pairs/all-start-times delay CDFs per hop budget.
struct DelayCdfResult {
  std::vector<double> grid;
  /// cdf_by_hops[k-1][j] = P[delay <= grid[j]] with at most k hops.
  std::vector<std::vector<double>> cdf_by_hops;
  /// P[delay <= grid[j]] with unlimited hops (flooding success rate).
  std::vector<double> cdf_unbounded;
  /// Largest per-source fixpoint level of the DP under the delay horizon
  /// (the windows' hull and the grid's last point; DESIGN.md §2): the
  /// level past which no delivery the grid and windows can see changes,
  /// so every CDF at this hop budget equals the unbounded one. No
  /// delay-optimal path with a delay on the grid for a start time in the
  /// windows uses more hops. Never above the fixpoint of the DP without
  /// the horizon. Only meaningful when `converged` is true; otherwise it
  /// is max_levels + 1, a LOWER bound on that level, and diameter() may
  /// underestimate.
  int fixpoint_hops = 0;
  /// True iff every source's DP reached its fixpoint (as above) within
  /// max_levels; a run the horizon lets converge may be one whose
  /// unbounded DP would not. Check this before trusting fixpoint_hops or
  /// a diameter() value that fell through to it.
  bool converged = true;
  /// Engine instrumentation summed over all sources.
  EngineStats stats;
  /// Total observation measure (num ordered pairs * window length).
  double denominator = 0.0;

  /// Sentinel returned by diameter()/diameter_absolute() when the DP was
  /// truncated (`converged == false`) and no evaluated hop budget meets
  /// the criterion: the true diameter is some k > max_hops that the
  /// truncated run cannot name. Callers must not feed it into hop-count
  /// arithmetic; compare against it explicitly (the CLI prints
  /// "undetermined").
  static constexpr int kUnknownDiameter = -1;

  /// The (1-eps)-diameter over the evaluation grid: least k with
  /// cdf_k(t) >= (1-eps) * cdf_inf(t) for every grid point t. This is
  /// the paper's strict relative criterion; at time scales where the
  /// flooding success itself is tiny, it can demand hops whose absolute
  /// contribution is far below plot resolution. When no k <= max_hops
  /// qualifies, falls back to fixpoint_hops (which always qualifies) if
  /// the DP converged, and returns kUnknownDiameter otherwise -- a
  /// truncated fixpoint_hops would silently understate the diameter.
  int diameter(double eps) const;

  /// Plot-resolution diameter: least k whose CDF is within `tol`
  /// ABSOLUTE probability of the flooding CDF at every grid point --
  /// the k at which the curves of Figures 9-11 become visually
  /// indistinguishable from flooding. Same unconverged-fallback contract
  /// as diameter(): kUnknownDiameter when truncated.
  int diameter_absolute(double tol) const;

  /// Diameter as a function of the delay constraint (paper Figure 12):
  /// element j is the least k with cdf_k(grid[j]) >= (1-eps)*cdf_inf(grid[j]),
  /// or 0 when even flooding has zero success at grid[j]. Entries that
  /// fall through to fixpoint_hops are lower bounds when `converged` is
  /// false.
  std::vector<int> diameter_per_delay(double eps) const;
};

/// Computes exact delay CDFs for every hop budget by running the
/// single-source engine from every endpoint and integrating each
/// destination's delivery function over all start times -- either in
/// full at every hop budget (CdfAccumulation::kDirect) or, by default
/// with the pooled engine, incrementally from the engine's per-level
/// change sets (CdfAccumulation::kAuto). One code path: sources are
/// handed out dynamically to the workers and their partials' exact sums
/// folded as they arrive, so the result is bit-identical for every
/// thread count. Throws std::invalid_argument on a bad window, including
/// one whose (endpoint pairs x measure) exceeds the fixed-point range.
DelayCdfResult compute_delay_cdf(const TemporalGraph& graph,
                                 const DelayCdfOptions& options);

}  // namespace odtn
