// DeliveryFunction: the concise representation of ALL delay-optimal paths
// between one (source, destination) pair (paper §4.3-4.4, Figure 5).
//
// The function del(t) = min{ max(t, EA_k) : t <= LD_k } is fully described
// by the subset of (LD, EA) pairs satisfying the paper's condition (4):
// with pairs sorted by increasing LD, keep the k-th pair iff
// EA_k = min{ EA_l : l >= k }. The surviving list is a Pareto frontier:
// both LD and EA strictly increase along it, and each surviving pair is
// exactly one delay-optimal path (one discontinuity of del).
//
// Every frontier in the repository has one layout: two parallel lanes
// of doubles, ld and ea (structure of arrays). DeliveryFunction owns its
// lanes (API values, scratch); the engines keep frontiers as PairArena
// spans. FrontierView reads any lane pair -- a DeliveryFunction or an
// arena span -- so the CDF integration and the dominance probes never
// convert layouts.
#pragma once

#include <cstddef>
#include <vector>

#include "core/path_pair.hpp"

namespace odtn {

/// Non-owning read view of one Pareto frontier: two parallel lanes
/// (ld, ea), both strictly ascending. The one layout every frontier of
/// the repository uses -- DeliveryFunction's lanes and the arena spans
/// of the pooled and the live engine -- so hot kernels take the lanes
/// straight from ld_data()/ea_data().
class FrontierView {
 public:
  FrontierView() = default;

  /// Parallel ld/ea lanes of length n, both ascending.
  FrontierView(const double* ld, const double* ea, std::size_t n) noexcept
      : ld_(ld), ea_(ea), n_(n) {}

  std::size_t size() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }

  double ld(std::size_t i) const noexcept { return ld_[i]; }
  double ea(std::size_t i) const noexcept { return ea_[i]; }
  PathPair pair(std::size_t i) const noexcept { return {ld_[i], ea_[i]}; }

  /// The raw lanes (size() doubles each).
  const double* ld_data() const noexcept { return ld_; }
  const double* ea_data() const noexcept { return ea_; }

  /// Optimal delivery time del(t); +infinity when no pair departs at or
  /// after `t`. Same contract as DeliveryFunction::deliver_at.
  double deliver_at(double t) const noexcept;

  /// Latest useful departure time (-infinity when empty).
  double last_departure() const noexcept;

 private:
  const double* ld_ = nullptr;
  const double* ea_ = nullptr;
  std::size_t n_ = 0;
};

/// Pareto frontier of (LD, EA) pairs for one source-destination pair,
/// stored as two lanes.
///
/// Invariant: pairs are sorted with strictly increasing ld AND strictly
/// increasing ea (later departure always costs later arrival).
///
/// This class is the reference the batched kernels of
/// core/frontier_kernels.hpp are tested against, so its search is its
/// own std::lower_bound and shares no code with them.
class DeliveryFunction {
 public:
  DeliveryFunction() = default;

  /// Inserts a candidate pair, keeping the frontier minimal.
  /// Returns true iff the candidate was kept (it was not dominated);
  /// pairs the candidate dominates are removed. Amortized O(log F) plus
  /// the number of removed pairs.
  bool insert(PathPair p);

  /// True iff inserting `p` would be a no-op (an existing pair departs no
  /// earlier... i.e. some kept pair dominates `p`).
  bool is_dominated(const PathPair& p) const noexcept;

  /// Optimal delivery time del(t) for a message created at `t`;
  /// +infinity when no path departs at or after `t`.
  double deliver_at(double t) const noexcept;

  /// Number of delay-optimal paths (frontier size).
  std::size_t size() const noexcept { return ld_.size(); }
  bool empty() const noexcept { return ld_.empty(); }

  /// Heap bytes the two lanes hold (their capacity).
  std::size_t heap_bytes() const noexcept {
    return (ld_.capacity() + ea_.capacity()) * sizeof(double);
  }

  /// Removes every pair (capacity is kept, for reusable scratch buffers).
  void clear() noexcept {
    ld_.clear();
    ea_.clear();
  }

  /// Replaces the contents with an already-canonical frontier (strictly
  /// ascending in both lanes, e.g. an engine's arena span). O(n) lane
  /// copy with no dominance checks -- the caller vouches for the
  /// invariant (asserted in debug builds). Capacity is reused like
  /// clear().
  void assign_canonical(const FrontierView& v);

  /// Replaces the contents with the Pareto front of the union of two
  /// canonical frontiers, in one linear merge. Bit-identical to
  /// assign_canonical(base) followed by insert() of every pair of
  /// `other`: the front of a union is unique, and where two pairs share
  /// an ld the one with the smaller ea survives (`base` on a tie, as an
  /// insert keeps the pair already present).
  void assign_union(const FrontierView& base, const FrontierView& other);

  /// Read view over the two lanes. Invalidated by any mutation.
  FrontierView view() const noexcept {
    return FrontierView(ld_.data(), ea_.data(), ld_.size());
  }

  /// The pairs as an owning list, ascending (a copy: bind it to a local
  /// before taking iterators).
  std::vector<PathPair> to_pairs() const;

  /// Latest useful departure time (+infinity never occurs; -infinity when
  /// empty).
  double last_departure() const noexcept;

  friend bool operator==(const DeliveryFunction&,
                         const DeliveryFunction&) = default;

 private:
  /// First index whose ld is >= x -- the one binary search shared by
  /// is_dominated / insert / deliver_at (the pair there has the minimal
  /// ea among all pairs usable at departure x).
  std::size_t lower_bound_ld(double x) const noexcept;

  std::vector<double> ld_;
  std::vector<double> ea_;
};

/// Copies a (canonical) view's lanes into an owning DeliveryFunction.
DeliveryFunction materialize(const FrontierView& view);

/// Reference implementation of del(t) straight from Eq. (3), evaluated
/// over an arbitrary (unpruned) pair list. Used by tests to validate the
/// pruned representation.
double deliver_at_bruteforce(const std::vector<PathPair>& pairs, double t);

}  // namespace odtn
