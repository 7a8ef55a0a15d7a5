// Incremental all-pairs recompute for live contact ingestion (ROADMAP
// north star; streaming template: Whitbeck et al., Temporal Reachability
// Graphs, arXiv:1207.7103).
//
// The batch pipeline recomputes every source's hop-level DP from scratch
// whenever the trace changes. A live monitor appends contacts in time
// order, and canonical order makes appended work LOCAL: a new contact
// [begin, end] arrives with the largest begin seen so far, so it can only
// extend journeys whose earliest arrival is <= end -- the engine
// watermark. IncrementalSourceDp therefore keeps, per source and node,
// the full HISTORY of that node's Pareto frontier as a version list
// (one version per productive hop level, exactly the levels where
// L_k != L_{k-1}), and per append epoch advances only
//
//   - extensions of the previous level's FRESH pairs, those that entered
//     the frontier at that level and were not there before the epoch
//     (the pooled engine's change deltas, persisted across epochs
//     instead of within one run; a pair is extended once, at the level
//     after it enters),
//   - extensions of existing frontiers through the NEW contacts, and
//   - a rewrite of a changed node's higher levels only where the node
//     had a pre-epoch version,
//
// so epoch cost is O(new contacts x affected frontiers), not O(trace).
// A level runs through the pooled engine's kernels
// (core/frontier_kernels.hpp): fresh pairs extend by
// for_each_delta_extension, and each node's candidates are pruned and
// merged into Pareto(L'_{k-1} u old L_k), whose new pairs, with their
// successor EAs, are the next level's fresh pairs.
//
// Frontier pairs are exact copies/min/max of contact endpoints and the
// version merge is plain Pareto-set maintenance, so after any sequence
// of epochs every stored frontier is BIT-identical to the one a cold
// SingleSourceEngine computes on the concatenated trace under the same
// delay horizon (core/optimal_paths.hpp): every source's DP drops the
// candidates no start time in the explicit window (unbounded where it
// is NaN) sees within the grid's last point, as the cold all-pairs runs
// do, so the versions hold only what the CDFs can see.
//
// Each source keeps one accumulator per hop budget k holding
// sum_d I(L_k(src, d)), and `unbounded` holding sum_d I(L_cap), where I
// integrates a frontier's delivery segments. append() brings them up to
// date in the same per-source task that advances the DP, through
// integrate_frontier_delta, the hop-delta primitive of batch and serve:
//
//   - the epoch update adds I(L'_j) - I(L_j) per changed node and lane,
//     reading the pre-epoch L_j through the records apply() saved in the
//     worker's scratch;
//   - the full pass (after bootstrap, and at the epoch an explicit
//     window first opens) feeds each destination's consecutive versions
//     through the primitive and prefix-merges the level deltas.
//
// The sums are exact (stats/measure_cdf.hpp), so either way a lane holds
// exactly the addends a cold run adds, and all_pairs() only resolves the
// window and folds the partials through fold_sources, as every
// all-pairs path does: each epoch's DelayCdfResult is bit-identical to
// a cold compute_delay_cdf on the trace so far, under either
// accumulation scheme. The IncrementalEngine tests and `odtn_fuzz --live`
// gate the identity; the epoch cost is the `live_tail` workload of
// odtnbench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/delivery_function.hpp"
#include "core/diameter.hpp"
#include "core/source_cdf.hpp"
#include "core/temporal_graph.hpp"
#include "util/arena.hpp"
#include "util/thread_pool.hpp"

namespace odtn {

/// Heap bytes of a live engine by part, from container capacities
/// (allocator overhead excluded).
struct LiveHeapBytes {
  std::size_t versions = 0;  // every source's records and pair arena
  std::size_t scratch = 0;   // the per-worker apply scratch, saved records
                             // and marks included
};

/// Persistent per-source DP state: each node's frontier history as a
/// version list indexed by hop level. frontier_at(d, k) is L_k(src, d)
/// for any k, bit-identical to a cold engine's frontier at that level.
///
/// A version is a record {level, span} into the source's one PairArena.
/// A write appends the new frontier and leaves the old span in place as
/// garbage, so the pre-apply state of a node is its record list before
/// its first write, which apply() saves (records, never pairs). The
/// working state of an apply(), saved records included, lives in an
/// ApplyScratch the caller owns, one per worker, so a source keeps only
/// its versions between epochs.
class IncrementalSourceDp {
  /// One productive level's frontier: a span of arena_.
  struct Version {
    int level = 0;
    PairSpan span;
  };
  static constexpr std::uint32_t kNotSaved =
      std::numeric_limits<std::uint32_t>::max();
  struct NodeMark {
    // saved[saved, saved + saved_count) if the apply wrote the node.
    std::uint32_t saved = kNotSaved;
    std::uint32_t saved_count = 0;
    bool changed = false;  // listed in `changed`
  };

 public:
  /// Working state of apply(), reused across sources and epochs: a
  /// worker runs one apply() at a time, so one scratch per worker
  /// serves every source it advances. apply() resets it, and the fresh
  /// spans are only read at the level after the one that filled them.
  /// What the apply saved and changed stays readable until the
  /// scratch's next apply(): lookup_original() and `changed`.
  struct ApplyScratch {
    struct Node {
      bool active = false;  // publishes at the current level
      std::vector<PathPair> batch;  // the level's surviving candidates
    };
    std::vector<Node> nodes;
    /// Fresh pairs of L'_{k-1} (in neither L'_{k-2} nor old L_{k-1}: the
    /// new pairs of the level's merge) with their successor EA in the aux
    /// lane; spans aligned with fresh_active.
    PairArena fresh{true};
    PairArena next_fresh{true};
    std::vector<NodeId> fresh_active;
    std::vector<PairSpan> fresh_spans;
    std::vector<NodeId> next_fresh_active;
    std::vector<PairSpan> next_fresh_spans;
    /// Nodes whose L'_{k-1} differs from old L_{k-1}: rewritten at level
    /// k only where they had a pre-epoch version at exactly k.
    std::vector<NodeId> carry;
    std::vector<NodeId> next_carry;
    std::vector<NodeId> level_active;
    /// Pareto(L'_{k-1} u old L_k) of the node being published, and the
    /// lanes its merge with the batch is written to.
    DeliveryFunction base;
    std::vector<double> merged_ld;
    std::vector<double> merged_ea;
    /// Where compaction and bootstrap pack a source's live pairs.
    PairArena pairs;
    /// The records of each node the apply wrote, as they were before its
    /// first write, and per node where its run starts.
    std::vector<Version> saved;
    std::vector<NodeMark> marks;
    /// The nodes whose frontier the apply changed at some level.
    std::vector<NodeId> changed;

    /// Heap bytes held, from capacities.
    std::size_t heap_bytes() const noexcept;
  };

  /// `level_cap` bounds the DP depth, matching the cold driver's
  /// max(max_hops, max_levels) (levels beyond it are never inspected).
  /// Every level runs under `horizon`, as a cold SingleSourceEngine with
  /// the same horizon does (default: none).
  IncrementalSourceDp(NodeId source, std::size_t num_nodes, int level_cap,
                      const DelayHorizon& horizon = {});

  /// Advances the DP over the contacts appended at [old_count, end) of
  /// `graph` (which must already contain them; canonical order is the
  /// graph's append invariant), working in `scratch`, which then lists
  /// the nodes whose frontier changed at some level (`changed`).
  void apply(const TemporalGraph& graph, std::size_t old_count,
             ApplyScratch& scratch);

  /// Seeds the version lists from a cold pooled engine run over `graph`:
  /// one version per (node, productive level), straight from the
  /// engine's per-level change tracking. Bit-identical to apply()ing the
  /// same contacts -- the pooled engine computes the same frontiers --
  /// but at batch DP cost, so the first (bulk/backlog) batch of a live
  /// session loads at cold-run speed instead of through the epoch
  /// machinery. Only valid while the DP is empty (no batch applied yet).
  void bootstrap(const TemporalGraph& graph, ApplyScratch& scratch);

  /// L_k(source, node) as a zero-copy SoA view into the arena (levels
  /// above the cap clamp to the cap; the fixpoint frontier for converged
  /// sources). Every view into the arena is valid until the next
  /// apply().
  FrontierView frontier_at(NodeId node, int level) const;

  /// Largest productive level across nodes: L_k == L_{k-1} for every
  /// k > max_version_level(). Capped at level_cap, mirroring what a
  /// cold bounded run can observe.
  int max_version_level() const noexcept { return max_level_; }
  int level_cap() const noexcept { return cap_; }
  NodeId source() const noexcept { return source_; }

  /// L_level(source, node) as it was before the last apply(), which
  /// worked in `scratch`: a search of the node's saved records where
  /// that apply wrote the node, of its live records otherwise. Where the
  /// apply left the level untouched it is the same span frontier_at
  /// returns. Valid until the scratch's next apply().
  FrontierView lookup_original(const ApplyScratch& scratch, NodeId node,
                               int level) const;

  /// Calls f(level, frontier) for each of `node`'s versions, ascending:
  /// L_k(source, node) is the last one at or below k (empty below the
  /// first).
  template <class F>
  void for_each_version(NodeId node, F&& f) const {
    for (const Version& v : nodes_[node]) f(v.level, view(v.span));
  }

  /// headroom() h is kCompactShare of the live pairs plus
  /// kCompactFloorPairs. apply() compacts the arena before its first
  /// write once less than h/2 is free or more than 3h is spare, keeping
  /// the capacity while the spare stays within [h, 3h]; otherwise, and
  /// after a bootstrap, it reallocates with 5h/2 spare. The wide band
  /// keeps reallocations, which fragment the heap, rare.
  static constexpr double kCompactShare = 0.125;
  static constexpr std::size_t kCompactFloorPairs = 256;
  std::size_t headroom() const noexcept {
    return kCompactFloorPairs +
           static_cast<std::size_t>(kCompactShare * static_cast<double>(live_));
  }
  /// Pairs the versions hold; the arena holds them plus garbage.
  std::size_t live_pairs() const noexcept { return live_; }
  const PairArena& arena() const noexcept { return arena_; }
  std::size_t compactions() const noexcept { return compactions_; }

  /// Heap bytes of this source's versions: records and pair arena.
  std::size_t heap_bytes() const noexcept;

 private:
  using VersionList = std::vector<Version>;  // ascending level

  FrontierView view(PairSpan s) const noexcept {
    return FrontierView(arena_.ld() + s.offset, arena_.ea() + s.offset,
                        s.length);
  }
  FrontierView lookup(std::span<const Version> versions, int level) const;
  /// Saves `node`'s records before its first modification this apply.
  void save(ApplyScratch& scratch, NodeId node) const;
  void write_version(ApplyScratch& scratch, NodeId node, int level,
                     const FrontierView& f);
  void erase_exact_version(ApplyScratch& scratch, NodeId node, int level);
  /// The version at exactly `level`, if any.
  const Version* version_at(NodeId node, int level) const;
  /// Copies the live spans into `to`, back to back, and points the
  /// records there; install() copies them back to the arena's start.
  void pack(PairArena& to);
  void install(const PairArena& packed);

  NodeId source_;
  int cap_;
  DelayHorizon horizon_;
  int max_level_ = 0;
  std::vector<VersionList> nodes_;
  PairArena arena_;
  std::size_t live_ = 0;  // pairs in the spans of nodes_
  std::size_t compactions_ = 0;
};


/// Options of the live all-pairs monitor. The delay grid is fixed for
/// the engine's lifetime (it keys every per-epoch result); the
/// start-time window may be explicit or NaN = the growing trace span.
struct IncrementalCdfOptions {
  std::vector<double> grid;
  int max_hops = 10;
  int max_levels = 64;
  double t_lo = std::numeric_limits<double>::quiet_NaN();
  double t_hi = std::numeric_limits<double>::quiet_NaN();
  /// Worker threads for the per-source fan-out and the fold; 0 = the
  /// shared pool. Otherwise the engine builds its own pool once and runs
  /// every epoch on it.
  unsigned num_threads = 0;
};

/// Live all-pairs engine: an owned growing TemporalGraph plus one
/// IncrementalSourceDp per source and a per-source CDF partial (full
/// lanes: by_hops[k-1] holds sum_d I(L_k)). append() advances every
/// source by one epoch and, in the same per-source task, brings its
/// partial up to date under the window resolved over the contacts so
/// far; all_pairs() resolves that window and folds the partials,
/// yielding a result bit-identical to a cold compute_delay_cdf(graph(),
/// ...) on the contacts ingested so far. The constructor rejects an
/// infinite or empty explicit window (check_window_bounds) before any
/// contact arrives.
class IncrementalAllPairsEngine {
 public:
  IncrementalAllPairsEngine(std::size_t num_nodes, bool directed,
                            IncrementalCdfOptions options);

  /// Appends one canonical-order batch (validated by
  /// TemporalGraph::append_contacts), advances every source's DP and
  /// updates its partial. Returns the graph epoch after the append.
  std::uint64_t append(std::span<const Contact> batch);

  /// All-pairs delay CDFs / diameter over everything ingested so far.
  /// Throws as a cold run does where the window does not resolve.
  /// stats.cdf_pairs_integrated counts the pairs integrated since the
  /// previous call.
  DelayCdfResult all_pairs();

  /// Whether the start-time window resolves over the contacts so far
  /// (resolve_cdf_windows): all_pairs() throws exactly when it does not,
  /// e.g. while an explicit t_lo lies at or past the end time and t_hi
  /// follows it.
  bool window_open() const noexcept { return current_; }

  const TemporalGraph& graph() const noexcept { return graph_; }
  const IncrementalCdfOptions& options() const noexcept { return options_; }
  std::uint64_t epoch() const noexcept { return graph_.epoch(); }

  /// Canonical-order watermark: begin of the last ingested contact
  /// (-infinity while empty). Appended batches may not sort before it.
  double watermark() const noexcept;

  /// The DP state of one source (its version lists).
  const IncrementalSourceDp& source_dp(NodeId src) const { return dps_[src]; }

  /// The delay horizon every source's DP runs under: the grid's last
  /// point and the explicit window, a NaN bound read as unbounded. A
  /// cold run over the resolved window drops the same pairs (every ld
  /// lies in [start_time, end_time]), so its frontiers and fixpoint
  /// equal the versions and fixpoint of this engine.
  DelayHorizon horizon() const;

  /// Heap bytes of the DP state by part (the CDF partials excluded).
  LiveHeapBytes heap_bytes() const noexcept;

 private:
  /// One pool worker's apply scratch and the pairs its integrations
  /// counted since the last all_pairs().
  struct Worker {
    IncrementalSourceDp::ApplyScratch scratch;
    std::uint64_t pairs_integrated = 0;
  };

  DelayCdfOptions cdf_options() const;
  /// The resolved window; none where resolve_cdf_windows throws.
  std::optional<TimeWindows> resolved_windows() const;
  /// Rebuilds partials_[src] from every destination's version list.
  void full_pass(NodeId src, const TimeWindows& w,
                 std::uint64_t& pairs_integrated);
  /// Adds I(L'_j) - I(L_j) over the apply that worked in `scratch` to
  /// every lane of partials_[src] (lane j for j <= max_hops, `unbounded`
  /// at the cap), for each node that apply changed.
  void epoch_update(NodeId src,
                    const IncrementalSourceDp::ApplyScratch& scratch,
                    const TimeWindows& w, std::uint64_t& pairs_integrated);
  /// The engine's own pool, or the shared one when num_threads is 0.
  ThreadPool& pool() const;

  TemporalGraph graph_;
  IncrementalCdfOptions options_;
  // Built once when options_.num_threads != 0; a pointer keeps the
  // engine movable.
  std::unique_ptr<ThreadPool> pool_;
  int cap_;
  std::vector<IncrementalSourceDp> dps_;
  // One per pool worker, indexed by the worker id of append's fan-out.
  std::vector<Worker> workers_;
  std::vector<SourceCdfPartial> partials_;
  // The window every partial is integrated under, while current_: true
  // exactly when the window resolves over the graph as it stands.
  TimeWindows windows_;
  bool current_ = false;
};

}  // namespace odtn
