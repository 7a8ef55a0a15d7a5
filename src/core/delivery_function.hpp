// DeliveryFunction: the concise representation of ALL delay-optimal paths
// between one (source, destination) pair (paper §4.3-4.4, Figure 5).
//
// The function del(t) = min{ max(t, EA_k) : t <= LD_k } is fully described
// by the subset of (LD, EA) pairs satisfying the paper's condition (4):
// with pairs sorted by increasing LD, keep the k-th pair iff
// EA_k = min{ EA_l : l >= k }. The surviving list is a Pareto frontier:
// both LD and EA strictly increase along it, and each surviving pair is
// exactly one delay-optimal path (one discontinuity of del).
#pragma once

#include <cstddef>
#include <vector>

#include "core/path_pair.hpp"
#include "stats/measure_cdf.hpp"

namespace odtn {

/// Non-owning read view of one Pareto frontier, over either layout the
/// repository uses: the seed array-of-structs (DeliveryFunction's
/// std::vector<PathPair>) or the pooled engine's structure-of-arrays
/// arena spans. The layout branch inside each accessor is perfectly
/// predicted (a given view never changes layout), so views are the
/// uniform cheap accessor for engine consumers; the pooled hot kernels
/// bypass views and touch the SoA lanes directly.
class FrontierView {
 public:
  FrontierView() = default;

  /// SoA view: parallel ld/ea arrays of length n, both ascending.
  FrontierView(const double* ld, const double* ea, std::size_t n) noexcept
      : ld_(ld), ea_(ea), n_(n) {}

  /// AoS view over a (sorted, pruned) pair list.
  explicit FrontierView(const std::vector<PathPair>& pairs) noexcept
      : aos_(pairs.data()), n_(pairs.size()) {}

  std::size_t size() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }

  double ld(std::size_t i) const noexcept {
    return aos_ ? aos_[i].ld : ld_[i];
  }
  double ea(std::size_t i) const noexcept {
    return aos_ ? aos_[i].ea : ea_[i];
  }

  /// Raw SoA lanes, nullptr when the view wraps an AoS pair list. The
  /// incremental CDF scheme uses these to diff two arena-resident
  /// frontier versions without materializing either.
  const double* soa_ld() const noexcept { return aos_ ? nullptr : ld_; }
  const double* soa_ea() const noexcept { return aos_ ? nullptr : ea_; }
  PathPair pair(std::size_t i) const noexcept { return {ld(i), ea(i)}; }

  /// Optimal delivery time del(t); +infinity when no pair departs at or
  /// after `t`. Same contract as DeliveryFunction::deliver_at.
  double deliver_at(double t) const noexcept;

  /// Latest useful departure time (-infinity when empty).
  double last_departure() const noexcept;

  /// Exact delay-distribution integration over start times uniform on
  /// [t_lo, t_hi]; same contract as
  /// DeliveryFunction::accumulate_delay_measure. SoA views stream both
  /// lanes straight into MeasureCdfAccumulator::add_delivery_segments.
  void accumulate_delay_measure(MeasureCdfAccumulator& acc, double t_lo,
                                double t_hi, double weight = 1.0) const;

 private:
  const double* ld_ = nullptr;
  const double* ea_ = nullptr;
  const PathPair* aos_ = nullptr;
  std::size_t n_ = 0;
};

/// Pareto frontier of (LD, EA) pairs for one source-destination pair.
///
/// Invariant: pairs are sorted with strictly increasing ld AND strictly
/// increasing ea (later departure always costs later arrival).
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

  /// Optimal delay del(t) - t (0 when the pair is contemporaneously
  /// connected at t; +infinity when unreachable).
  double delay(double t) const noexcept;

  /// Number of delay-optimal paths (frontier size).
  std::size_t size() const noexcept { return pairs_.size(); }
  bool empty() const noexcept { return pairs_.empty(); }

  /// Removes every pair (capacity is kept, for reusable scratch buffers).
  void clear() noexcept { pairs_.clear(); }

  /// Replaces the contents with an already-canonical frontier (strictly
  /// ascending in both lanes, e.g. a stored frontier version). O(n) copy
  /// with no dominance checks -- the caller vouches for the invariant
  /// (asserted in debug builds). Capacity is reused like clear().
  void assign_canonical(const FrontierView& v);

  /// Replaces the contents with the Pareto front of the union of two
  /// canonical frontiers, in one linear merge. Bit-identical to
  /// assign_canonical(base) followed by insert() of every pair of
  /// `other`: the front of a union is unique, and where two pairs share
  /// an ld the one with the smaller ea survives (`base` on a tie, as an
  /// insert keeps the pair already present).
  void assign_union(const FrontierView& base, const FrontierView& other);

  /// Ensures capacity for at least `n` pairs without changing contents.
  void reserve(std::size_t n) { pairs_.reserve(n); }

  const std::vector<PathPair>& pairs() const noexcept { return pairs_; }

  /// Read view over this frontier's pair list. Invalidated by any
  /// mutation.
  FrontierView view() const noexcept { return FrontierView(pairs_); }

  /// Integrates this function's delay distribution for start times
  /// uniform on [t_lo, t_hi] into `acc` (numerator only; the caller adds
  /// the (t_hi - t_lo) observation measure), scaled by `weight`. Exact,
  /// no sampling. weight = -1 retracts an earlier weight = +1
  /// integration of the same frontier exactly (see
  /// MeasureCdfAccumulator::add_segment), which is how the incremental
  /// all-pairs scheme swaps a changed destination's old frontier for its
  /// new one.
  void accumulate_delay_measure(MeasureCdfAccumulator& acc, double t_lo,
                                double t_hi, double weight = 1.0) const;

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

  std::vector<PathPair> pairs_;
};

/// Materializes a view (any layout) into an owning DeliveryFunction with
/// identical pair list.
DeliveryFunction materialize(const FrontierView& view);

/// Reference implementation of del(t) straight from Eq. (3), evaluated
/// over an arbitrary (unpruned) pair list. Used by tests to validate the
/// pruned representation.
double deliver_at_bruteforce(const std::vector<PathPair>& pairs, double t);

}  // namespace odtn
