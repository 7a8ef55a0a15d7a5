// Per-source delay-CDF processing and the one all-pairs driver,
// fold_sources, behind every all-pairs computation: compute_delay_cdf
// (core/diameter.cpp), QueryEngine and the live
// IncrementalAllPairsEngine each supply only a per-source callback.
//
// One source's contribution to the all-pairs CDFs is integrated into a
// private zeroed SourceCdfPartial, and the partials are merged into one
// total as they arrive. The accumulators sum integer fixed-point
// addends (stats/measure_cdf.hpp), and integer addition is associative,
// so neither the fold order nor the order of the segments within a
// partial can change a bit: results are identical across thread counts,
// cache hit subsets, the direct and incremental schemes, and the live
// engine's epoch updates, by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/diameter.hpp"
#include "core/optimal_paths.hpp"
#include "core/temporal_graph.hpp"
#include "stats/measure_cdf.hpp"

namespace odtn {

class ThreadPool;

/// Disjoint increasing start-time windows (resolved form of
/// DelayCdfOptions::{windows, t_lo, t_hi}).
using TimeWindows = std::vector<std::pair<double, double>>;

/// Checks the explicit part of a [t_lo, t_hi] start-time window before
/// any graph is known (NaN = the graph's start / end time, resolved
/// later): throws std::invalid_argument on an infinite bound or on
/// t_lo >= t_hi. resolve_cdf_windows applies the same check, with the
/// same messages, to explicit bounds and windows entries.
void check_window_bounds(double t_lo, double t_hi);

/// Resolves the options' start-time windows against the graph span (a
/// NaN t_lo / t_hi is the graph's start / end time). Throws
/// std::invalid_argument on overlapping/decreasing windows, an explicit
/// window or windows entry with lo >= hi, a resolved one with lo >= hi
/// unless both bounds are NaN (an empty or instantaneous graph resolves
/// those to lo == hi), an infinite bound, or when (endpoint pairs x
/// window measure) reaches the accumulators' fixed-point range
/// (MeasureCdfAccumulator::kMaxMeasure).
TimeWindows resolve_cdf_windows(const TemporalGraph& graph,
                                const DelayCdfOptions& options);

/// Total Lebesgue measure of the window union.
double total_window_measure(const TimeWindows& windows);

/// The delay horizon of a delay-CDF computation (DESIGN.md §2, "Delay
/// horizon"): the hull of the resolved windows `w` and the last point of
/// `grid`. A pair past it adds nothing to any accumulator on that grid
/// over those windows, so dropping it keeps every lane bit-identical.
DelayHorizon cdf_horizon(const TimeWindows& w, const std::vector<double>& grid);

/// Resolves the options' endpoint set (empty = every node) and validates
/// ids against the graph.
std::vector<NodeId> resolve_cdf_endpoints(const TemporalGraph& graph,
                                          const DelayCdfOptions& options);

/// Whether the options select the incremental accumulation scheme:
/// kAuto with the pooled engine.
bool use_incremental_accumulation(const DelayCdfOptions& options);

/// One source's contribution to the all-pairs accumulators: one
/// accumulator per hop budget plus the past-max_hops residual. Under the
/// incremental scheme by_hops[k-1] holds only the level-k delta (the
/// driver prefix-merges once after the fold); under the direct scheme it
/// holds the source's full hop-k integration.
struct SourceCdfPartial {
  std::vector<MeasureCdfAccumulator> by_hops;
  MeasureCdfAccumulator unbounded;
  int fixpoint_hops = 0;
  bool converged = true;

  SourceCdfPartial(const std::vector<double>& grid, int max_hops);

  /// Back to the zeroed state (grid and capacity kept) so one scratch
  /// partial serves many sources.
  void clear();

  /// Fold step: numerators/denominators add, fixpoint levels max,
  /// convergence ANDs.
  void merge_from(const SourceCdfPartial& other);
};

/// Reusable per-worker state: the recycled engine workspace (incremental
/// scheme) and the CDF-side counters. Engine counters are folded in by
/// take_stats() -- additive counters are order-invariant, so worker
/// totals merge into the same aggregate regardless of how sources were
/// distributed.
struct SourceCdfWorker {
  std::optional<SingleSourceEngine> engine;
  EngineStats stats;

  /// Worker counters plus the recycled engine's counters (if any).
  EngineStats take_stats() const;
};

/// The hop-delta primitive: adds I(new_f) - I(old_f) to `acc`, where I
/// integrates a frontier's delivery segments over the windows `w`
/// (retract the old frontier at weight -1, add the new one at +1), and
/// counts the pairs it integrated into `pairs_integrated`. The common
/// prefix and suffix of the two frontiers would cancel exactly, so only
/// the differing middle slice is integrated; the suffix is shortened by
/// one pair when its start boundary (the predecessor's ld) differs. With
/// an empty `old_f` it adds I(new_f). The incremental scheme feeds it
/// each changed destination's consecutive levels; the live engine, each
/// destination's consecutive versions and each epoch's old and new
/// frontier.
void integrate_frontier_delta(const FrontierView& old_f,
                              const FrontierView& new_f, const TimeWindows& w,
                              MeasureCdfAccumulator& acc,
                              std::uint64_t& pairs_integrated);

/// Integrates one source into `out` (which must be zeroed/cleared).
/// `is_endpoint` is a num_nodes-sized membership mask of `endpoints`
/// (used by the incremental scheme's change filter). The direct scheme
/// runs a fresh engine per source (reference semantics); the incremental
/// scheme recycles worker.engine across calls. Either engine runs under
/// cdf_horizon(w, out's grid): the lanes are those of an engine without
/// it, and `out.fixpoint_hops` / `out.converged` describe the level past
/// which no delivery on the grid over `w` changes.
void process_source(const TemporalGraph& graph, NodeId src,
                    const std::vector<NodeId>& endpoints,
                    const std::vector<std::uint8_t>& is_endpoint,
                    const TimeWindows& w, int max_hops, int max_levels,
                    EngineMode mode, bool incremental,
                    SourceCdfWorker& worker, SourceCdfPartial& out);

/// Thread-safe folder: submit(i, partial) merges the partial into the
/// total under a mutex, in arrival order (the exact sums make any order
/// give the same bits). total() is the sum once every index in
/// [0, count) was submitted exactly once.
class OrderedCdfFolder {
 public:
  OrderedCdfFolder(const std::vector<double>& grid, int max_hops,
                   std::size_t count);

  void submit(std::size_t index, const SourceCdfPartial& partial);

  /// The folded total; throws std::logic_error unless every index in
  /// [0, count) was submitted exactly once.
  SourceCdfPartial& total();

 private:
  SourceCdfPartial total_;
  std::mutex mutex_;
  std::vector<bool> submitted_;
  std::size_t distinct_ = 0;
  bool repeated_ = false;
};

/// Shared finalization of every all-pairs computation: prefix-merges the
/// incremental deltas, evaluates the per-hop CDFs, clamps the hop
/// monotonicity invariant (both schemes: a level that splits a segment
/// rounds its two pieces separately, so CDF_k may sit a few quanta below
/// CDF_{k-1}), and fills the result scalars. `total` is
/// consumed (its accumulators are prefix-merged in place).
DelayCdfResult finalize_delay_cdf(SourceCdfPartial& total,
                                  const EngineStats& stats,
                                  const DelayCdfOptions& options,
                                  bool incremental);

/// Per-source step of fold_sources: handles source index `index` with
/// the calling worker's state and submits exactly one partial for
/// `index` to the folder -- `scratch` (zeroed on entry), a cached copy
/// or one the caller keeps. Counters go to `worker.stats`.
using FoldSourceFn = std::function<void(std::size_t index,
                                        SourceCdfWorker& worker,
                                        SourceCdfPartial& scratch,
                                        OrderedCdfFolder& folder)>;

/// The one all-pairs driver: runs `source` for every index in
/// [0, count), handed out dynamically over `pool` when the caller owns
/// one, else over a pool of options.num_threads workers (0 = the shared
/// pool), with one SourceCdfWorker and one scratch partial per worker.
/// A fold of at most one source runs on the calling thread, with no
/// pool. The result is bit-identical across thread counts. Merges
/// every worker's take_stats() and finalizes (finalize_delay_cdf) with
/// `incremental`.
DelayCdfResult fold_sources(std::size_t count, const DelayCdfOptions& options,
                            bool incremental, const FoldSourceFn& source,
                            ThreadPool* pool = nullptr);

}  // namespace odtn
