// Batched Pareto-frontier kernels over structure-of-arrays pair storage:
// the level step of the hop DP (paper §4.4). Both production DPs, the
// pooled SingleSourceEngine and the live IncrementalSourceDp, extend and
// publish through these; only the level-sweep oracle still inserts one
// candidate at a time.
//
// DeliveryFunction, the reference, maintains its two lanes by
// per-candidate `insert()`: a binary search plus a mid-lane element
// shift, i.e. O(F) moved bytes PER KEPT CANDIDATE. These kernels replace
// that with batched operations exploiting the double-monotone invariant
// (both LD and EA strictly increase along a frontier):
//
//   for_each_delta_extension -- offers the candidates one node's delta
//       (the pairs newly kept at the previous level) yields through the
//       node's end-sorted contact windows.
//   prune_candidate_batch -- collapses one level's raw candidates for a
//       single destination into a Pareto front (sort + one stack pass).
//   merge_frontier        -- a single descending two-way merge of the
//       existing frontier with the pruned batch, emitting the merged
//       frontier AND the delta (pairs newly kept, with the successor EA
//       needed for wait-candidate suppression) in one pass: O(F + m)
//       total, independent of how many candidates are kept.
//
// Prune and merge reproduce `DeliveryFunction::insert` semantics bit for
// bit (the Pareto front of a pair set is unique); this is gated by
// tests/test_frontier_kernels.cpp and `odtn_fuzz --kernel`.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "core/path_pair.hpp"
#include "core/temporal_graph.hpp"

namespace odtn {

/// First index in ld[0, n) whose value is >= x (ld ascending). Defined
/// inline: this is the per-candidate probe of the engine's offer-time
/// dominance filter, the single hottest call of the extension phase.
inline std::size_t frontier_lower_bound(const double* ld, std::size_t n,
                                        double x) noexcept {
  std::size_t lo = 0;
  while (n > 0) {
    const std::size_t half = n / 2;
    if (ld[lo + half] < x) {
      lo += half + 1;
      n -= half + 1;
    } else {
      n = half;
    }
  }
  return lo;
}

/// True iff some pair of the frontier (SoA, both lanes ascending)
/// dominates (ld, ea): departs no earlier AND arrives no later.
/// Mirrors DeliveryFunction::is_dominated.
inline bool frontier_dominates(const double* f_ld, const double* f_ea,
                               std::size_t n, double ld, double ea) noexcept {
  if (n == 0) return false;
  // The last pair settles most probes in O(1). ld beyond the last
  // departure: nothing dominates. Otherwise some pair with ld' >= ld
  // exists, and if even the LAST arrival (the frontier's maximum, ea
  // ascends) is <= ea, that pair's arrival is too.
  if (ld > f_ld[n - 1]) return false;
  if (f_ea[n - 1] <= ea) return true;
  // Among pairs with ld' >= ld the first one has the smallest ea (ea
  // ascends with ld), so it is the only candidate to check.
  const std::size_t i = frontier_lower_bound(f_ld, n, ld);
  return i < n && f_ea[i] <= ea;
}

/// Extends one node's delta -- lanes ld/ea/succ of length n >= 1: a
/// subsequence of its frontier, succ[i] the EA of pair i's successor
/// there (+infinity for the last) -- through the node's end-sorted
/// windows `nbrs`, calling offer(to, ld, ea) per candidate in window
/// order. The cases of for_each_frontier_extension, with two lossless
/// prunes: windows ending before the delta's first ea (no pair rides
/// them) or before `window_lo` (every candidate departs before it) are
/// skipped by one binary search; and a window whose begin reaches
/// succ[i-1] draws its wait candidate from the successor chain, whose
/// extensions were offered the level after it entered, so the delta's
/// own is provably dominated and not offered. Returns the number of
/// windows examined.
template <typename Offer>
__attribute__((always_inline)) inline std::size_t for_each_delta_extension(
    std::span<const NodeContact> nbrs, const double* ld, const double* ea,
    const double* succ, std::size_t n, double window_lo, Offer&& offer) {
  const double min_ea = std::max(ea[0], window_lo);
  auto it = std::lower_bound(
      nbrs.begin(), nbrs.end(), min_ea,
      [](const NodeContact& nc, double t) { return nc.end < t; });
  const auto examined = static_cast<std::size_t>(nbrs.end() - it);
  // Ends ascend, so the count of pairs ridable within the window only
  // grows. Begins are only roughly ordered by end, so the arrival cursor
  // (first pair arriving after the window opens) moves both ways; it
  // drifts little, which beats re-scanning the delta per window.
  std::size_t ride_hi = 0;
  std::size_t arr = 0;
  for (; it != nbrs.end(); ++it) {
    const NodeId to = it->to;
    const double wb = it->begin, we = it->end;
    while (ride_hi < n && ea[ride_hi] <= we) ++ride_hi;
    while (arr < n && ea[arr] <= wb) ++arr;
    while (arr > 0 && ea[arr - 1] > wb) --arr;
    std::size_t i = arr;
    if (i > 0 && wb < succ[i - 1]) offer(to, std::min(ld[i - 1], we), wb);
    for (; i < ride_hi; ++i) {
      offer(to, std::min(ld[i], we), ea[i]);
      if (ld[i] >= we) break;
    }
  }
  return examined;
}

/// Sorts `batch[0, m)` in place and collapses it to its Pareto front
/// (strictly increasing ld AND ea; at equal ld only the minimal ea
/// survives). Returns the pruned length; the survivors occupy the
/// prefix of `batch`.
std::size_t prune_candidate_batch(PathPair* batch, std::size_t m);

/// Outcome of one merge_frontier call.
struct FrontierMerge {
  /// Size of the merged frontier; it occupies out_ld/out_ea indices
  /// [fn + m - kept, fn + m).
  std::size_t kept = 0;
  /// Pairs of the merged frontier that came from the candidate batch
  /// (exact duplicates of existing pairs do not count); they occupy
  /// delta_* indices [m - kept_new, m). kept_new == 0 means the batch
  /// was fully dominated and the frontier is unchanged.
  std::size_t kept_new = 0;
};

/// Merges a Pareto frontier (SoA lanes f_ld/f_ea, both strictly
/// ascending, length fn) with a PRUNED candidate batch (cand[0, m), as
/// produced by prune_candidate_batch) into the Pareto front of their
/// union.
///
/// The merge walks both inputs in descending LD order keeping a running
/// minimum EA, so each element is visited once. Outputs are written
/// back-to-front: out_ld/out_ea must hold fn + m doubles and receive the
/// merged frontier in ascending order in the LAST `kept` slots -- the
/// unused prefix is deliberate slack (the pooled engine leaves it as
/// arena garbage rather than shifting elements, the whole point of the
/// layout). delta_ld/delta_ea/delta_succ must hold m doubles and receive
/// the newly kept pairs in the last `kept_new` slots, with delta_succ[i]
/// the EA of the pair's successor in the merged frontier (+infinity for
/// the last pair) -- exactly the value the engine's wait-candidate
/// suppression needs. Output regions must not alias the inputs.
FrontierMerge merge_frontier(const double* f_ld, const double* f_ea,
                             std::size_t fn, const PathPair* cand,
                             std::size_t m, double* out_ld, double* out_ea,
                             double* delta_ld, double* delta_ea,
                             double* delta_succ) noexcept;

}  // namespace odtn
