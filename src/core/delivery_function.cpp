#include "core/delivery_function.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/frontier_kernels.hpp"

namespace odtn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

double FrontierView::deliver_at(double t) const noexcept {
  if (aos_) {
    const std::size_t i = static_cast<std::size_t>(
        std::lower_bound(aos_, aos_ + n_, t,
                         [](const PathPair& p, double x) { return p.ld < x; }) -
        aos_);
    if (i == n_) return kInf;
    return std::max(t, aos_[i].ea);
  }
  const std::size_t i = frontier_lower_bound(ld_, n_, t);
  if (i == n_) return kInf;
  return std::max(t, ea_[i]);
}

double FrontierView::last_departure() const noexcept {
  return n_ == 0 ? -kInf : ld(n_ - 1);
}

void FrontierView::accumulate_delay_measure(MeasureCdfAccumulator& acc,
                                            double t_lo, double t_hi,
                                            double weight) const {
  assert(t_lo <= t_hi);
  if (!aos_) {
    acc.add_delivery_segments(ld_, ea_, n_, t_lo, t_hi, weight);
    return;
  }
  double prev_ld = -kInf;
  for (std::size_t i = 0; i < n_; ++i) {
    const double a = std::max(prev_ld, t_lo);
    const double b = std::min(aos_[i].ld, t_hi);
    if (a < b) acc.add_segment(a, b, aos_[i].ea, weight);
    prev_ld = aos_[i].ld;
    if (prev_ld >= t_hi) break;
  }
}

std::size_t DeliveryFunction::lower_bound_ld(double x) const noexcept {
  return static_cast<std::size_t>(
      std::lower_bound(pairs_.begin(), pairs_.end(), x,
                       [](const PathPair& p, double v) { return p.ld < v; }) -
      pairs_.begin());
}

bool DeliveryFunction::is_dominated(const PathPair& p) const noexcept {
  // A dominating pair has ld >= p.ld and ea <= p.ea. Among pairs with
  // ld >= p.ld the first one has the smallest ea (ea increases with ld),
  // so it is the only candidate to check.
  const std::size_t i = lower_bound_ld(p.ld);
  return i < pairs_.size() && pairs_[i].ea <= p.ea;
}

bool DeliveryFunction::insert(PathPair p) {
  assert(!std::isnan(p.ld) && !std::isnan(p.ea));
  const std::size_t pos = lower_bound_ld(p.ld);
  if (pos < pairs_.size() && pairs_[pos].ea <= p.ea) return false;
  // Remove pairs dominated by p: they have ld <= p.ld and ea >= p.ea.
  // Those are a suffix of [0, pos) (ea increases along the list), plus
  // possibly the pair at pos itself when it shares p's ld (its ea is
  // necessarily larger, otherwise p would have been dominated above).
  std::size_t last_removed = pos;
  if (last_removed < pairs_.size() && pairs_[last_removed].ld == p.ld)
    ++last_removed;
  std::size_t first_removed = pos;
  while (first_removed > 0 && pairs_[first_removed - 1].ea >= p.ea)
    --first_removed;
  if (first_removed < last_removed) {
    pairs_[first_removed] = p;
    pairs_.erase(
        pairs_.begin() + static_cast<std::ptrdiff_t>(first_removed) + 1,
        pairs_.begin() + static_cast<std::ptrdiff_t>(last_removed));
  } else {
    // Explicit geometric growth so a reallocation never happens inside
    // the positional insert below (reallocate-then-shift would copy the
    // suffix twice) and frontiers that grow pair by pair -- the engine's
    // publish path -- stay amortized O(1) per kept pair.
    if (pairs_.size() == pairs_.capacity())
      pairs_.reserve(std::max<std::size_t>(8, pairs_.capacity() * 2));
    pairs_.insert(pairs_.begin() + static_cast<std::ptrdiff_t>(pos), p);
  }
  return true;
}

void DeliveryFunction::assign_canonical(const FrontierView& v) {
  pairs_.clear();
  pairs_.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    assert(pairs_.empty() ||
           (pairs_.back().ld < v.ld(i) && pairs_.back().ea < v.ea(i)));
    pairs_.push_back(v.pair(i));
  }
}

void DeliveryFunction::assign_union(const FrontierView& base,
                                    const FrontierView& other) {
  // Ascending merge by ld. In a canonical frontier the first pair with
  // ld >= x has the smallest ea of all pairs departing at or after x, so
  // a pair survives iff the other frontier's next pair (the first with a
  // larger ld) arrives strictly later. Where both share an ld, the
  // smaller ea wins and always survives: both successors arrive later.
  pairs_.clear();
  std::size_t i = 0, j = 0;
  const std::size_t bn = base.size(), on = other.size();
  while (i < bn || j < on) {
    if (j == on || (i < bn && base.ld(i) < other.ld(j))) {
      if (j == on || other.ea(j) > base.ea(i)) pairs_.push_back(base.pair(i));
      ++i;
    } else if (i == bn || other.ld(j) < base.ld(i)) {
      if (i == bn || base.ea(i) > other.ea(j)) pairs_.push_back(other.pair(j));
      ++j;
    } else {
      pairs_.push_back(base.ea(i) <= other.ea(j) ? base.pair(i)
                                                 : other.pair(j));
      ++i;
      ++j;
    }
  }
}

double DeliveryFunction::deliver_at(double t) const noexcept {
  // del(t) = max(t, ea_i) for the first pair with ld_i >= t: its ea is
  // minimal among all usable pairs.
  const std::size_t i = lower_bound_ld(t);
  if (i == pairs_.size()) return kInf;
  return std::max(t, pairs_[i].ea);
}

double DeliveryFunction::delay(double t) const noexcept {
  const double d = deliver_at(t);
  return d == kInf ? kInf : d - t;
}

double DeliveryFunction::last_departure() const noexcept {
  return pairs_.empty() ? -kInf : pairs_.back().ld;
}

void DeliveryFunction::accumulate_delay_measure(MeasureCdfAccumulator& acc,
                                                double t_lo, double t_hi,
                                                double weight) const {
  assert(t_lo <= t_hi);
  // Start times in (ld_{i-1}, ld_i] are served by pair i: arrival
  // max(t, ea_i). Clip each segment to [t_lo, t_hi]; start times past the
  // last departure have no path and contribute nothing to the numerator.
  double prev_ld = -kInf;
  for (const PathPair& p : pairs_) {
    const double a = std::max(prev_ld, t_lo);
    const double b = std::min(p.ld, t_hi);
    if (a < b) acc.add_segment(a, b, p.ea, weight);
    prev_ld = p.ld;
    if (prev_ld >= t_hi) break;
  }
}

DeliveryFunction materialize(const FrontierView& view) {
  DeliveryFunction out;
  out.reserve(view.size());
  // Views are already sorted Pareto fronts, so each insert lands at the
  // end without shifting or removals.
  for (std::size_t i = 0; i < view.size(); ++i) out.insert(view.pair(i));
  return out;
}

double deliver_at_bruteforce(const std::vector<PathPair>& pairs, double t) {
  double best = kInf;
  for (const PathPair& p : pairs) best = std::min(best, deliver_at(p, t));
  return best;
}

}  // namespace odtn
