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
//
// Frontier pairs are exact copies/min/max of contact endpoints and the
// version merge is plain Pareto-set maintenance, so after any sequence
// of epochs every stored frontier is BIT-identical to the one a cold
// SingleSourceEngine computes on the concatenated trace. The per-epoch
// CDF emission sums the same fixed-point addends as a cold run
// (stats/measure_cdf.hpp: exact, so in any order) and folds sources
// through the same driver (fold_sources), which makes each epoch's
// DelayCdfResult bit-identical to a cold compute_delay_cdf on the trace
// so far, under kDirect and kIncremental alike.
//
// The sums are checkpointed. An append only adds or removes frontier
// pairs with ea at or past the pre-append watermark W, and a pair with
// ea < W keeps its segment (its predecessor is below W too), so its
// addend is final. Per (source, lane) the engine keeps the numerators
// of the settled pairs, each destination's resume index (its first pair
// with ea >= W) and the lane's OPEN destinations (those with pairs past
// the resume index). A dirty source re-integrates only the pairs from
// there, and walks only the open destinations plus those whose frontier
// changed: a fraction of a percent of a full pass on the live_tail
// workload. The IncrementalEngine tests and `odtn_fuzz --live` gate the
// identity; the epoch cost is the `live_tail` workload of odtnbench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/delivery_function.hpp"
#include "core/diameter.hpp"
#include "core/source_cdf.hpp"
#include "core/temporal_graph.hpp"
#include "util/thread_pool.hpp"

namespace odtn {

/// Persistent per-source DP state: each node's frontier history as a
/// version list indexed by hop level. frontier_at(d, k) is L_k(src, d)
/// for any k, bit-identical to a cold engine's frontier at that level.
class IncrementalSourceDp {
 public:
  /// `level_cap` bounds the DP depth, matching the cold driver's
  /// max(max_hops, max_levels) (levels beyond it are never inspected).
  IncrementalSourceDp(NodeId source, std::size_t num_nodes, int level_cap);

  /// Advances the DP over the contacts appended at [old_count, end) of
  /// `graph` (which must already contain them; canonical order is the
  /// graph's append invariant). Returns true iff any frontier at any
  /// level changed -- i.e. any cached integration of this source is now
  /// stale.
  bool apply(const TemporalGraph& graph, std::size_t old_count);

  /// Seeds the version lists from a cold pooled engine run over `graph`:
  /// one version per (node, productive level), straight from the
  /// engine's per-level change tracking. Bit-identical to apply()ing the
  /// same contacts -- the pooled engine computes the same frontiers --
  /// but at batch DP cost, so the first (bulk/backlog) batch of a live
  /// session loads at cold-run speed instead of through the epoch
  /// machinery. Only valid while the DP is empty (no batch applied yet).
  void bootstrap(const TemporalGraph& graph);

  /// L_k(source, node) as a zero-copy SoA view (levels above the cap
  /// clamp to the cap; the fixpoint frontier for converged sources).
  FrontierView frontier_at(NodeId node, int level) const;

  /// Largest productive level across nodes: L_k == L_{k-1} for every
  /// k > max_version_level(). Capped at level_cap, mirroring what a
  /// cold bounded run can observe.
  int max_version_level() const noexcept { return max_level_; }
  int level_cap() const noexcept { return cap_; }
  NodeId source() const noexcept { return source_; }

  /// Moves into `out`, ascending, the nodes whose frontier changed at
  /// some level since the previous call. Returns false instead when
  /// every node may have changed (nothing taken since construction or
  /// bootstrap); `out` is then empty.
  bool take_changed(std::vector<NodeId>& out);

 private:
  /// One productive level's frontier.
  struct Version {
    int level = 0;
    DeliveryFunction frontier;
  };
  struct NodeState {
    std::vector<Version> versions;  // ascending level, one per change
  };
  /// Pre-epoch state of one level this epoch modified: the displaced
  /// version (buffer-swapped out of the live list, so stashing is O(1)
  /// and the displaced slot inherits a recycled buffer to refill) or a
  /// tombstone recording that the level had no version before.
  struct SavedVersion {
    int level = 0;
    bool existed = false;
    Version version;
  };
  /// Per-epoch working state of one node (recycled across epochs).
  /// `saved` slots are reused via `saved_count` rather than cleared, so
  /// steady-state epochs allocate nothing in the stash path.
  struct Scratch {
    bool touched = false;  // has stashes to reset next epoch
    bool active = false;   // working initialized at the current level
    bool reported = false;  // listed in changed_
    std::size_t saved_count = 0;      // live prefix of `saved`
    std::vector<SavedVersion> saved;  // copy-on-write pre-epoch overlay
    DeliveryFunction working;         // L'_k being assembled
    /// Fresh pairs of L'_{k-1}: in neither L'_{k-2} nor old L_{k-1}.
    std::vector<PathPair> fresh;
    std::vector<PathPair> next_fresh;
  };

  DeliveryFunction& ensure_working(NodeId node, int level);
  FrontierView lookup(const std::vector<Version>& versions, int level) const;
  /// Latest PRE-epoch version at or below `level`: the live list with
  /// this epoch's stashed levels overlaid back in. Levels are modified
  /// at most once per epoch (each in its own level iteration), so both
  /// lists ascend and one merge walk suffices.
  FrontierView lookup_original(NodeId node, int level) const;
  /// Records the pre-epoch state of (node, level) before its first (and
  /// only) modification this epoch; moves `old_entry` out when the level
  /// had a version.
  void stash(NodeId node, int level, Version* old_entry);
  void write_version(NodeId node, int level, const FrontierView& f);
  void erase_exact_version(NodeId node, int level);
  /// The version at exactly `level`, if any.
  const Version* version_at(NodeId node, int level) const;

  NodeId source_;
  std::size_t num_nodes_;
  int cap_;
  int max_level_ = 0;
  std::vector<NodeState> nodes_;

  // Nodes changed since the last take_changed(); all of them when
  // all_changed_.
  bool all_changed_ = true;
  std::vector<NodeId> changed_;

  // Epoch scratch.
  std::vector<Scratch> scratch_;
  std::vector<NodeId> touched_;
  std::vector<NodeId> fresh_active_;
  std::vector<NodeId> next_fresh_active_;
  /// Nodes whose L'_{k-1} differs from old L_{k-1}: rewritten at level k
  /// only where they had a pre-epoch version at exactly k.
  std::vector<NodeId> carry_;
  std::vector<NodeId> next_carry_;
  std::vector<NodeId> level_active_;
  std::vector<double> succ_ea_;
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
/// IncrementalSourceDp per source, a per-source cache of integrated CDF
/// partials and per-lane checkpoints. append() advances every source by
/// one epoch; all_pairs() re-integrates only the sources whose frontiers
/// (or resolved windows) changed, each from its checkpoint at the
/// watermark, and folds all partials, yielding a result bit-identical to
/// a cold compute_delay_cdf(graph(), ...) on the contacts ingested so
/// far. The constructor rejects an infinite or empty explicit window
/// (check_window_bounds) before any contact arrives.
class IncrementalAllPairsEngine {
 public:
  IncrementalAllPairsEngine(std::size_t num_nodes, bool directed,
                            IncrementalCdfOptions options);

  /// Appends one canonical-order batch (validated by
  /// TemporalGraph::append_contacts) and advances every source's DP.
  /// Returns the graph epoch after the append.
  std::uint64_t append(std::span<const Contact> batch);

  /// All-pairs delay CDFs / diameter over everything ingested so far.
  DelayCdfResult all_pairs();

  const TemporalGraph& graph() const noexcept { return graph_; }
  const IncrementalCdfOptions& options() const noexcept { return options_; }
  std::uint64_t epoch() const noexcept { return graph_.epoch(); }

  /// Canonical-order watermark: begin of the last ingested contact
  /// (-infinity while empty). Appended batches may not sort before it.
  double watermark() const noexcept;

  /// The DP state of one source (its version lists).
  const IncrementalSourceDp& source_dp(NodeId src) const { return dps_[src]; }

 private:
  DelayCdfOptions cdf_options() const;
  /// Whether checkpoints taken under `last_windows_` stay valid under `w`.
  bool windows_keep_checkpoints(const TimeWindows& w) const;
  /// Re-integrates partials_[src] from its checkpoints with the
  /// worker's lane buffers, settling the pairs with ea < settle_before,
  /// counting into worker.stats.
  void integrate_source(NodeId src, const TimeWindows& w,
                        double settle_before, SourceCdfWorker& worker);
  /// The engine's own pool, or the shared one when num_threads is 0.
  ThreadPool& pool() const;

  TemporalGraph graph_;
  IncrementalCdfOptions options_;
  // Built once when options_.num_threads != 0; a pointer keeps the
  // engine movable.
  std::unique_ptr<ThreadPool> pool_;
  int cap_;
  std::vector<IncrementalSourceDp> dps_;
  std::vector<SourceCdfPartial> partials_;
  std::vector<std::uint8_t> dirty_;
  TimeWindows last_windows_;
  bool have_windows_ = false;
  double last_end_time_ = -std::numeric_limits<double>::infinity();
  // Checkpoints, one slot per (source, lane) with lane max_hops standing
  // for `unbounded`: the settled pairs' numerator state in one flat
  // buffer, resume indices (one per destination) in another. All zeros
  // is the empty checkpoint.
  // Per slot, the open destinations after its last integration (resume
  // slots, ascending) and their count; kNoOpenSet when unknown.
  static constexpr std::uint32_t kNoOpenSet = ~std::uint32_t{0};
  std::vector<std::uint64_t> checkpoint_numerators_;
  std::vector<std::uint32_t> checkpoint_resume_;
  std::vector<std::uint32_t> open_destinations_;
  std::vector<std::uint32_t> open_counts_;
};

}  // namespace odtn
