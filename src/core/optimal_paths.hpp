// Exhaustive computation of delay-optimal paths (paper §4.4).
//
// For a fixed source s, the engine computes for every destination d and
// every hop budget k the delivery function L_k(s, d) describing ALL
// delay-optimal paths from s to d that use at most k contacts, by a
// monotone dynamic program over hop levels:
//
//   L_0(s, s) = { identity (LD = +inf, EA = -inf) },    L_0(s, d) = {}
//   L_{k+1}(s, d) = prune( L_k(s, d)
//        union { (min(LD, end), max(EA, begin)) :
//                (LD, EA) in L_k(s, w), contact (w, d, [begin, end]),
//                EA <= end } )
//
// Extending only frontier (non-dominated) prefixes is lossless because the
// extension map is monotone with respect to dominance. The fixpoint of the
// iteration is L_infinity, and the level at which it is reached upper-
// bounds the number of hops any delay-optimal path ever needs.
//
// Two propagation schemes compute IDENTICAL frontiers at every level:
//
//   kLevelSweep -- the seed reference semantics and the test oracle:
//       full frontier snapshot + global contact rescan per level.
//   kPooled (default, the production engine) -- delta propagation over
//       the per-node by-end contact index: only pairs newly kept at the
//       previous level are re-extended, with by-end window pruning and
//       wait-candidate suppression (for_each_delta_extension). Every pair
//       of the engine lives in one arena (util/arena.hpp) in SoA form and
//       publication is batched: one level's candidates per destination
//       are pruned and merged against the existing frontier by a single
//       two-way sorted merge emitted into fresh arena space -- no
//       per-pair element shifting, no snapshot copies (the superseded
//       span IS the pre-change snapshot), zero steady-state allocations
//       across reset(). The three kernels live in core/frontier_kernels.hpp
//       and the live engine (core/incremental_engine.hpp) runs its levels
//       through the same ones.
//
// Per contact and per source, the extension step touches
// O(log F + #useful pairs) frontier entries thanks to the double-monotone
// (LD and EA both increasing) frontier order -- this is what makes traces
// with hundreds of thousands of contacts tractable (§4.4).
//
// Both schemes can run under a DelayHorizon: the hull [W_lo, W_hi] of
// the start-time windows and the last delay grid point G of a delay-CDF
// computation. A candidate no start time in the windows can use within
// G is dropped where it is offered (DESIGN.md §2, "Delay horizon"), so
// every frontier is exactly the one computed without the horizon minus
// its pairs past the horizon, and every delay-CDF addend is unchanged.
// The default horizon drops nothing: reachability, journeys and the
// cross-checks see the full L_k.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/delivery_function.hpp"
#include "core/temporal_graph.hpp"
#include "util/arena.hpp"

namespace odtn {

/// Hop budget value meaning "unbounded" (compute the fixpoint).
inline constexpr int kUnboundedHops = std::numeric_limits<int>::max();

/// Propagation scheme of the hop-level DP. All modes compute identical
/// frontiers at every level; see the file comment for the differences.
enum class EngineMode {
  kPooled,
  kLevelSweep,
};

/// The delay horizon of a DP run (see the file comment). A candidate
/// (ld, ea) is past it when it departs before every window
/// (ld < window_lo) or when even its latest usable start time,
/// min(ld, window_hi), waits longer than max_delay for it. Being past
/// the horizon survives extension (ld never grows, ea never shrinks)
/// and dominance (a pair dominated by one past the horizon is past it
/// too), so dropping such pairs removes no live pair's ancestor. The
/// default is no horizon.
struct DelayHorizon {
  double window_lo = -std::numeric_limits<double>::infinity();
  double window_hi = std::numeric_limits<double>::infinity();
  double max_delay = std::numeric_limits<double>::infinity();

  bool past(double ld, double ea) const noexcept {
    return ld < window_lo || ea - std::min(ld, window_hi) > max_delay;
  }
};

/// Instrumentation counters of one engine run (or an aggregate over
/// runs). All counts are exact, not sampled.
struct EngineStats {
  /// Contact-direction extensions attempted (one per usable (frontier,
  /// contact, direction) triple examined).
  std::uint64_t contacts_examined = 0;
  /// Candidate pairs kept by the frontier maintenance (insert or merge).
  std::uint64_t pairs_inserted = 0;
  /// Candidate pairs rejected as dominated (by the existing frontier at
  /// offer time, or by a same-level candidate at publish time).
  std::uint64_t pairs_dominated = 0;
  /// Candidate pairs dropped at offer time as past the engine's
  /// DelayHorizon (never counted as dominated too).
  std::uint64_t pairs_past_horizon = 0;
  /// Workspace allocations: +1 each time an engine materializes its
  /// per-node arrays (construction). reset() never re-allocates, so a
  /// worker that recycles one engine across sources stays at 1.
  std::uint64_t workspace_allocations = 0;
  /// reset() calls, i.e. sources served by an already-allocated
  /// workspace. In steady state sources = allocations + reuses.
  std::uint64_t workspace_reuses = 0;
  /// Pareto pairs fed to delay-CDF accumulators (counted by
  /// compute_delay_cdf for both accumulation schemes; incremental
  /// retractions count too). The work the incremental scheme saves shows
  /// up here.
  std::uint64_t cdf_pairs_integrated = 0;
  /// Batched frontier merges performed (one per destination whose
  /// candidate batch reached publish). kPooled only.
  std::uint64_t merge_batches = 0;
  /// Peak pairs resident in the engine's arenas (frontier + delta slabs,
  /// including per-merge slack). kPooled only. merge() takes the max, so
  /// an aggregate reports the largest single-engine footprint -- flat
  /// across sources once the first source warmed the slabs up.
  std::uint64_t pairs_peak = 0;
  /// Peak bytes committed to the engine's arenas. kPooled only; merged
  /// by max, like pairs_peak.
  std::uint64_t arena_bytes_peak = 0;
  /// Serve-path result cache (core/query_engine.hpp): sources answered
  /// from a cached CDF partial without touching a propagation engine.
  std::uint64_t cache_hits = 0;
  /// Sources computed fresh (and then offered to the cache). Zero when
  /// no cache is in play, so batch runs satisfy
  /// sources = cache_hits + cache_misses only on the serve path.
  std::uint64_t cache_misses = 0;
  /// Cache entries evicted to make room, attributed to the query whose
  /// insert triggered them.
  std::uint64_t cache_evictions = 0;
  void merge(const EngineStats& other) noexcept {
    contacts_examined += other.contacts_examined;
    pairs_inserted += other.pairs_inserted;
    pairs_dominated += other.pairs_dominated;
    pairs_past_horizon += other.pairs_past_horizon;
    workspace_allocations += other.workspace_allocations;
    workspace_reuses += other.workspace_reuses;
    cdf_pairs_integrated += other.cdf_pairs_integrated;
    merge_batches += other.merge_batches;
    if (other.pairs_peak > pairs_peak) pairs_peak = other.pairs_peak;
    if (other.arena_bytes_peak > arena_bytes_peak)
      arena_bytes_peak = other.arena_bytes_peak;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    cache_evictions += other.cache_evictions;
  }
};

/// Extends every usable pair of `from` through one contact edge
/// [begin, end] and inserts the (pruned set of) results into `into`,
/// except candidates past `horizon`. Returns true iff `into` changed.
/// When `stats` is non-null the kept/dominated/past-horizon candidate
/// counts are accumulated into it. Exposed for tests and for building
/// custom propagation schemes.
bool extend_frontier(const DeliveryFunction& from, double begin, double end,
                     DeliveryFunction& into, EngineStats* stats = nullptr,
                     const DelayHorizon& horizon = {});

/// Enumerates the candidate pairs that extending the frontier `from`
/// through one contact window [begin, end] yields, calling `offer` on
/// each in order. `from` must be a canonical frontier (both lanes
/// strictly ascending). extend_frontier inserts exactly these candidates;
/// the live engine offers them straight from its stored versions.
template <typename Offer>
void for_each_frontier_extension(const FrontierView& from, double begin,
                                 double end, Offer&& offer) {
  // Pairs with ea <= begin all extend to (min(ld, end), begin); the one
  // with the largest ld dominates the rest -- the last pair before
  // `first_late` (pairs ascend in ea).
  std::size_t lo = 0, hi = from.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (begin < from.ea(mid))
      hi = mid;
    else
      lo = mid + 1;
  }
  const std::size_t first_late = lo;
  if (first_late > 0)
    offer(PathPair{std::min(from.ld(first_late - 1), end), begin});
  // Pairs with begin < ea <= end extend to (min(ld, end), ea). Once a
  // pair has ld >= end, later pairs (larger ld AND larger ea) only yield
  // dominated (end, larger-ea) candidates.
  for (std::size_t i = first_late; i < from.size() && from.ea(i) <= end;
       ++i) {
    offer(PathPair{std::min(from.ld(i), end), from.ea(i)});
    if (from.ld(i) >= end) break;
  }
}

/// Hop-level dynamic program from one source.
///
/// After construction the engine is at hop budget 0 (only the source's
/// identity frontier). Each step() raises the budget by one; the
/// frontier accessors then describe all delay-optimal paths with at most
/// hops() contacts.
class SingleSourceEngine {
 public:
  SingleSourceEngine(const TemporalGraph& graph, NodeId source,
                     EngineMode mode = EngineMode::kPooled);

  /// Rebinds the engine to a new source on the same graph: hop budget
  /// back to 0, every frontier and delta emptied. All buffers keep their
  /// capacity (kPooled recycles its arenas, kLevelSweep clears its
  /// frontier lanes in place), so a worker that processes many sources through
  /// one engine allocates its workspace exactly once -- reset() itself
  /// never allocates once the slabs reached their high-water capacity.
  /// Counted in stats().workspace_reuses.
  void reset(NodeId source);

  /// Runs every following level under `horizon` (see DelayHorizon); the
  /// default drops nothing. Set it at hop budget 0, after construction
  /// or reset(): it is not applied to frontiers already built. reset()
  /// keeps it.
  void set_horizon(const DelayHorizon& horizon) noexcept {
    horizon_ = horizon;
  }

  /// Nodes whose frontier changed at the last completed level, in
  /// publication order (empty once the fixpoint step ran). kPooled only;
  /// always empty in kLevelSweep.
  const std::vector<NodeId>& last_changed() const noexcept {
    return active_;
  }

  /// View of last_changed()[i]'s frontier as it was BEFORE the last
  /// level (std::out_of_range past last_changed().size()). kPooled only:
  /// the superseded arena span stays addressable until the next reset,
  /// so pre-change snapshots cost nothing.
  FrontierView previous_frontier_view(std::size_t i) const;

  /// Advances the hop budget by one. Returns false (and does nothing)
  /// once the fixpoint has been reached.
  bool step();

  /// Runs step() until the fixpoint or `max_levels` levels, whichever
  /// comes first. Returns the hop budget at which the frontiers stopped
  /// changing (i.e. L_k == L_infinity), or max_levels+1 if not converged.
  /// Under a horizon the frontiers are the ones computed without it
  /// minus their pairs past it, so the fixpoint is the level past which
  /// no delivery the horizon can see changes, never above the fixpoint
  /// without it.
  int run_to_fixpoint(int max_levels = 64);

  /// Current hop budget.
  int hops() const noexcept { return level_; }

  /// True iff the last step produced no change (frontiers == L_infinity).
  bool at_fixpoint() const noexcept { return fixpoint_; }

  /// Frontier (delivery function) for `dst` at the current hop budget,
  /// BY VALUE: a lane copy of frontier_view(dst) in either mode.
  /// Convenient; hot loops use frontier_view.
  DeliveryFunction frontier(NodeId dst) const;

  /// Zero-copy read view of `dst`'s frontier in any mode. Invalidated
  /// by the next step() or reset().
  FrontierView frontier_view(NodeId dst) const;

  /// All frontiers at the current hop budget, by value (one delivery
  /// function per node).
  std::vector<DeliveryFunction> frontiers() const;

  NodeId source() const noexcept { return source_; }

  /// Counters accumulated since construction.
  const EngineStats& stats() const noexcept { return stats_; }

  /// Total number of stored Pareto pairs across destinations (a measure
  /// of the representation size; used by the ablation bench).
  std::size_t total_pairs() const noexcept;

 private:
  bool step_level_sweep();
  bool step_pooled();
  void finish_level(bool changed);
  void seed_pooled();
  void record_arena_peaks() noexcept;

  const TemporalGraph* graph_;
  NodeId source_;
  EngineMode mode_;
  DelayHorizon horizon_;
  int level_ = 0;
  bool fixpoint_ = false;
  EngineStats stats_;
  // kLevelSweep: per-node frontier objects, and their full snapshot at
  // the start of each level.
  std::vector<DeliveryFunction> frontiers_;
  std::vector<DeliveryFunction> scratch_;

  // --- kPooled state ---------------------------------------------------
  // All frontier pairs live in arena_ as SoA lanes; fspan_[v] addresses
  // node v's current frontier. Superseded versions stay in the arena as
  // free pre-change snapshots (retired_spans_, aligned with active_).
  PairArena arena_;
  std::vector<PairSpan> fspan_;
  std::vector<PairSpan> retired_spans_;
  // The nodes whose frontier changed at the previous level (whose deltas
  // are extended now), the ones being collected at the current level,
  // and a dedup mark for next_active_.
  std::vector<NodeId> active_;
  std::vector<NodeId> next_active_;
  std::vector<std::uint8_t> dirty_mark_;
  // Deltas (pairs newly kept at the previous level) ping-pong between
  // two arenas whose aux lane carries each pair's successor EA; spans
  // are aligned with active_ / next_active_.
  PairArena delta_arena_[2]{PairArena(true), PairArena(true)};
  std::vector<PairSpan> delta_spans_;
  std::vector<PairSpan> next_delta_spans_;
  int delta_parity_ = 0;
  // One level's raw candidates: flat (ld, ea, target) triples collected
  // during extension, then counting-sorted by target and merged batch by
  // batch at publish. One vector, so the hot offer path pays a single
  // push_back.
  struct RawCandidate {
    double ld;
    double ea;
    NodeId to;
  };
  std::vector<RawCandidate> cand_;
  std::vector<NodeId> dirty_;
  std::vector<std::uint32_t> cand_count_;
  std::vector<std::uint32_t> grp_begin_;
  std::vector<std::uint32_t> grp_pos_;
  std::vector<PathPair> grp_pairs_;
  /// Per-node copy of the frontier's LAST pair ({-inf, +inf} while
  /// empty): the offer-time dominance probe resolves its two common
  /// outcomes from this one dense array without touching the (much
  /// larger) arena lanes.
  std::vector<PathPair> last_pair_;
};

/// Convenience: frontiers from `source` at each requested hop budget.
/// `budgets` entries are >= 1 or kUnboundedHops; the result has one
/// vector of num_nodes delivery functions per requested budget, in the
/// same order.
std::vector<std::vector<DeliveryFunction>> compute_hop_profiles(
    const TemporalGraph& graph, NodeId source, const std::vector<int>& budgets,
    int max_levels = 64);

}  // namespace odtn
