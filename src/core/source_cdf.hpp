// Per-source delay-CDF processing and the one all-pairs driver,
// fold_sources, behind every all-pairs computation: compute_delay_cdf
// (core/diameter.cpp), QueryEngine and the live
// IncrementalAllPairsEngine each supply only a per-source callback.
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
//
// Within a partial, the direct scheme (CdfAccumulation::kDirect) adds
// each hop lane's segments in one canonical order too: by day block of
// the pair's earliest arrival, then destination, then pair
// (integrate_lane). The cold driver and the live IncrementalAllPairsEngine
// both integrate through that one function; the block-major order is
// what lets the live engine keep every addend below the watermark's day
// as a checkpoint and re-integrate only the rest after an append.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/diameter.hpp"
#include "core/optimal_paths.hpp"
#include "core/temporal_graph.hpp"
#include "stats/measure_cdf.hpp"
#include "util/time_format.hpp"

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

/// Day block of an earliest-arrival time, floor(ea / kDay): the outer key
/// of the canonical kDirect addend order below.
inline double time_block(double t) { return std::floor(t / kDay); }

/// Where the live engine keeps one lane's settled prefix: the
/// accumulator numerators after every block below the capture block
/// (MeasureCdfAccumulator::numerator_size() doubles) and, per
/// destination, the index of its first pair at or past that block.
struct LaneCheckpoint {
  double* numerators = nullptr;
  std::uint32_t* resume = nullptr;
};

/// Reusable buffers of integrate_lane (one per worker). The caller fills
/// `frontiers` with one view per destination, in destination order.
struct LaneScratch {
  /// One frontier pair with its segment's lower boundary (the previous
  /// pair's ld, -infinity for the first pair).
  struct Pair {
    double prev_ld, ld, ea;
  };
  std::vector<FrontierView> frontiers;
  std::vector<std::vector<Pair>> buckets;  // walked pairs per block
  std::vector<double> blocks;  // distinct blocks, when too sparse to index
};

/// Integrates one hop lane (a hop budget's accumulator, or `unbounded`)
/// of one source under the direct scheme, in the canonical addend order
/// (day block of the pair's ea, destination, pair): one walk over the
/// frontiers buckets every pair by time_block(ea), appending in walk
/// order, and the buckets' segments are then streamed in block order
/// through one SegmentBatcher. The observation measure of every
/// destination is added last. Returns the number of frontier pairs
/// walked.
///
/// With `checkpoint`, the walk starts from the state an earlier call
/// stored there (all zeros: from the start) and stores the state just
/// before the first pair at or past `capture_block`. Every addend below
/// the capture block is final once `capture_block` is the block of the
/// graph's watermark: an append only adds or removes pairs with ea at or
/// past the watermark, and a pair below it keeps its segment because its
/// predecessor is below it too.
std::uint64_t integrate_lane(const TimeWindows& w, LaneScratch& scratch,
                             MeasureCdfAccumulator& acc,
                             const LaneCheckpoint* checkpoint = nullptr,
                             double capture_block = 0.0);

/// Reusable per-worker state: the recycled engine workspace (incremental
/// scheme), the lane buffers (direct scheme) and the CDF-side counters.
/// Engine counters are folded in by take_stats() -- additive counters are
/// order-invariant, so worker totals merge into the same aggregate
/// regardless of how sources were distributed.
struct SourceCdfWorker {
  std::optional<SingleSourceEngine> engine;
  EngineStats stats;
  LaneScratch lane;  // direct scheme

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

/// Per-source step of fold_sources: handles source index `index` with
/// the calling worker's state and submits exactly one partial for
/// `index` to the folder -- `scratch` (zeroed on entry), a cached copy
/// or one the caller keeps. Counters go to `worker.stats`.
using FoldSourceFn = std::function<void(std::size_t index,
                                        SourceCdfWorker& worker,
                                        SourceCdfPartial& scratch,
                                        OrderedCdfFolder& folder)>;

/// The one all-pairs driver: runs `source` for every index in
/// [0, count), handed out dynamically over a pool of
/// options.num_threads workers (0 = the shared pool), with one
/// SourceCdfWorker and one scratch partial per worker. The folder merges
/// the submitted partials in ascending index order, so the result is
/// bit-identical across thread counts. Merges every worker's
/// take_stats() and finalizes (finalize_delay_cdf) with `incremental`.
DelayCdfResult fold_sources(std::size_t count, const DelayCdfOptions& options,
                            bool incremental, const FoldSourceFn& source);

}  // namespace odtn
