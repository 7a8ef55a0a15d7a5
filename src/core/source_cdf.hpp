// Per-source delay-CDF processing behind every all-pairs computation
// (compute_delay_cdf in core/diameter.cpp, QueryEngine and the live
// IncrementalAllPairsEngine).
//
// One source's contribution to the all-pairs CDFs is integrated into a
// private zeroed SourceCdfPartial, and partials are folded into the
// running total in CANONICAL order: ascending endpoint index, one left
// chain. Floating-point addition is not associative, so this fold order
// -- not the execution order -- is the contract that makes results
// bit-identical across thread counts and cache hit subsets: however the
// sources were distributed, the same per-source doubles are merged in
// the same sequence. Per-source partials themselves are bitwise
// reproducible anywhere because every worker runs the identical
// deterministic DP over the same contact array.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/diameter.hpp"
#include "core/optimal_paths.hpp"
#include "core/temporal_graph.hpp"
#include "stats/measure_cdf.hpp"

namespace odtn {

/// Disjoint increasing start-time windows (resolved form of
/// DelayCdfOptions::{windows, t_lo, t_hi}).
using TimeWindows = std::vector<std::pair<double, double>>;

/// Resolves the options' start-time windows against the graph span.
/// Throws std::invalid_argument on overlapping/decreasing windows or an
/// empty [t_lo, t_hi].
TimeWindows resolve_cdf_windows(const TemporalGraph& graph,
                                const DelayCdfOptions& options);

/// Total Lebesgue measure of the window union.
double total_window_measure(const TimeWindows& windows);

/// Resolves the options' endpoint set (empty = every node) and validates
/// ids against the graph.
std::vector<NodeId> resolve_cdf_endpoints(const TemporalGraph& graph,
                                          const DelayCdfOptions& options);

/// Whether the options select the incremental accumulation scheme.
/// Throws std::invalid_argument for kIncremental with the level-sweep
/// engine (which has no change tracking).
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

  /// Left-chain fold step: numerators/denominators add, fixpoint levels
  /// max, convergence ANDs. Adding onto a zeroed partial reproduces the
  /// operand bit-for-bit (0 + x == x exactly).
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

/// Integrates one source into `out` (which must be zeroed/cleared).
/// `is_endpoint` is a num_nodes-sized membership mask of `endpoints`
/// (used by the incremental scheme's change filter). The direct scheme
/// runs a fresh engine per source (reference semantics); the incremental
/// scheme recycles worker.engine across calls.
void process_source(const TemporalGraph& graph, NodeId src,
                    const std::vector<NodeId>& endpoints,
                    const std::vector<std::uint8_t>& is_endpoint,
                    const TimeWindows& w, int max_hops, int max_levels,
                    EngineMode mode, bool incremental,
                    SourceCdfWorker& worker, SourceCdfPartial& out);

/// Thread-safe canonical-order folder: submit(i, partial) merges the
/// partials into one total in ascending index order no matter the
/// arrival order (out-of-order arrivals are buffered by copy until the
/// gap fills -- rare under the dynamic hand-out, impossible with one
/// worker). After every index in [0, count) was submitted exactly once,
/// total() is the left-chain fold.
class OrderedCdfFolder {
 public:
  OrderedCdfFolder(const std::vector<double>& grid, int max_hops,
                   std::size_t count);

  void submit(std::size_t index, const SourceCdfPartial& partial);

  /// The folded total; only meaningful once all `count` submissions
  /// happened (throws std::logic_error otherwise).
  SourceCdfPartial& total();

 private:
  SourceCdfPartial total_;
  std::size_t count_;
  std::mutex mutex_;
  std::size_t next_ = 0;
  std::map<std::size_t, SourceCdfPartial> pending_;
};

/// Shared finalization of every all-pairs computation: prefix-merges the
/// incremental deltas, evaluates the per-hop CDFs, clamps the hop
/// monotonicity invariant, and fills the result scalars. `total` is
/// consumed (its accumulators are prefix-merged in place).
DelayCdfResult finalize_delay_cdf(SourceCdfPartial& total,
                                  const EngineStats& stats,
                                  const DelayCdfOptions& options,
                                  bool incremental);

}  // namespace odtn
