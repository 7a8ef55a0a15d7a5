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
  const std::size_t i = frontier_lower_bound(ld_, n_, t);
  if (i == n_) return kInf;
  return std::max(t, ea_[i]);
}

double FrontierView::last_departure() const noexcept {
  return n_ == 0 ? -kInf : ld_[n_ - 1];
}

std::size_t DeliveryFunction::lower_bound_ld(double x) const noexcept {
  return static_cast<std::size_t>(
      std::lower_bound(ld_.begin(), ld_.end(), x) - ld_.begin());
}

bool DeliveryFunction::is_dominated(const PathPair& p) const noexcept {
  // A dominating pair has ld >= p.ld and ea <= p.ea. Among pairs with
  // ld >= p.ld the first one has the smallest ea (ea increases with ld),
  // so it is the only candidate to check.
  const std::size_t i = lower_bound_ld(p.ld);
  return i < size() && ea_[i] <= p.ea;
}

bool DeliveryFunction::insert(PathPair p) {
  assert(!std::isnan(p.ld) && !std::isnan(p.ea));
  const std::size_t pos = lower_bound_ld(p.ld);
  if (pos < size() && ea_[pos] <= p.ea) return false;
  // Remove pairs dominated by p: they have ld <= p.ld and ea >= p.ea.
  // Those are a suffix of [0, pos) (ea increases along the list), plus
  // possibly the pair at pos itself when it shares p's ld (its ea is
  // necessarily larger, otherwise p would have been dominated above).
  std::size_t last_removed = pos;
  if (last_removed < size() && ld_[last_removed] == p.ld) ++last_removed;
  std::size_t first_removed = pos;
  while (first_removed > 0 && ea_[first_removed - 1] >= p.ea) --first_removed;
  if (first_removed < last_removed) {
    ld_[first_removed] = p.ld;
    ea_[first_removed] = p.ea;
    const auto from = static_cast<std::ptrdiff_t>(first_removed) + 1;
    const auto to = static_cast<std::ptrdiff_t>(last_removed);
    ld_.erase(ld_.begin() + from, ld_.begin() + to);
    ea_.erase(ea_.begin() + from, ea_.begin() + to);
  } else {
    // Explicit geometric growth so a reallocation never happens inside
    // the positional insert below (reallocate-then-shift would copy the
    // suffix twice) and frontiers that grow pair by pair -- the engine's
    // publish path -- stay amortized O(1) per kept pair.
    if (ld_.size() == ld_.capacity()) {
      const std::size_t grown = std::max<std::size_t>(8, ld_.capacity() * 2);
      ld_.reserve(grown);
      ea_.reserve(grown);
    }
    const auto at = static_cast<std::ptrdiff_t>(pos);
    ld_.insert(ld_.begin() + at, p.ld);
    ea_.insert(ea_.begin() + at, p.ea);
  }
  return true;
}

void DeliveryFunction::assign_canonical(const FrontierView& v) {
  for (std::size_t i = 1; i < v.size(); ++i)
    assert(v.ld(i - 1) < v.ld(i) && v.ea(i - 1) < v.ea(i));
  ld_.assign(v.ld_data(), v.ld_data() + v.size());
  ea_.assign(v.ea_data(), v.ea_data() + v.size());
}

void DeliveryFunction::assign_union(const FrontierView& base,
                                    const FrontierView& other) {
  // Ascending merge by ld. In a canonical frontier the first pair with
  // ld >= x has the smallest ea of all pairs departing at or after x, so
  // a pair survives iff the other frontier's next pair (the first with a
  // larger ld) arrives strictly later. Where both share an ld, the
  // smaller ea wins and always survives: both successors arrive later.
  clear();
  const auto keep = [this](const FrontierView& v, std::size_t i) {
    ld_.push_back(v.ld(i));
    ea_.push_back(v.ea(i));
  };
  std::size_t i = 0, j = 0;
  const std::size_t bn = base.size(), on = other.size();
  while (i < bn || j < on) {
    if (j == on || (i < bn && base.ld(i) < other.ld(j))) {
      if (j == on || other.ea(j) > base.ea(i)) keep(base, i);
      ++i;
    } else if (i == bn || other.ld(j) < base.ld(i)) {
      if (i == bn || base.ea(i) > other.ea(j)) keep(other, j);
      ++j;
    } else {
      if (base.ea(i) <= other.ea(j))
        keep(base, i);
      else
        keep(other, j);
      ++i;
      ++j;
    }
  }
}

double DeliveryFunction::deliver_at(double t) const noexcept {
  // del(t) = max(t, ea_i) for the first pair with ld_i >= t: its ea is
  // minimal among all usable pairs.
  const std::size_t i = lower_bound_ld(t);
  if (i == size()) return kInf;
  return std::max(t, ea_[i]);
}

std::vector<PathPair> DeliveryFunction::to_pairs() const {
  std::vector<PathPair> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) out.push_back({ld_[i], ea_[i]});
  return out;
}

double DeliveryFunction::last_departure() const noexcept {
  return ld_.empty() ? -kInf : ld_.back();
}

DeliveryFunction materialize(const FrontierView& view) {
  DeliveryFunction out;
  out.assign_canonical(view);
  return out;
}

double deliver_at_bruteforce(const std::vector<PathPair>& pairs, double t) {
  double best = kInf;
  for (const PathPair& p : pairs) best = std::min(best, deliver_at(p, t));
  return best;
}

}  // namespace odtn
