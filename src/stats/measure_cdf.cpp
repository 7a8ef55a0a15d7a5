#include "stats/measure_cdf.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "util/simd.hpp"

namespace odtn {

namespace {

// Clipped segments pending integration: the grid searches of two
// segments (four lower_bound keys) run as one dispatched lower_bound4
// call, which is where the SoA integration path recovers the
// micro_integrate regression -- the diff-array updates themselves are
// then applied in the original per-segment order, so the accumulator
// state stays bit-identical to the scalar path.
struct SegmentBatcher {
  double a[2], b[2], arrival[2];
  std::size_t pending = 0;
};

}  // namespace

MeasureCdfAccumulator::MeasureCdfAccumulator(std::vector<double> grid)
    : grid_(std::move(grid)),
      const_diff_(grid_.size() + 1, 0.0),
      slope_diff_(grid_.size() + 1, 0.0) {
  if (grid_.empty()) throw std::invalid_argument("MeasureCdf: empty grid");
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    if (grid_[i] < 0.0 || (i > 0 && grid_[i] <= grid_[i - 1]))
      throw std::invalid_argument("MeasureCdf: grid must be >= 0, increasing");
  }
}

void MeasureCdfAccumulator::add_delivery_segments(const double* ld,
                                                  const double* ea,
                                                  std::size_t n, double t_lo,
                                                  double t_hi, double weight,
                                                  double prev_ld) {
  assert(t_lo <= t_hi);
  if (simd::active_level() == simd::Level::kScalar) {
    // Mandatory fallback: the original per-segment walk, verbatim.
    for (std::size_t i = 0; i < n; ++i) {
      const double a = std::max(prev_ld, t_lo);
      const double b = std::min(ld[i], t_hi);
      if (a < b) add_segment(a, b, ea[i], weight);
      prev_ld = ld[i];
      if (prev_ld >= t_hi) break;
    }
    return;
  }
  const simd::Ops& ops = simd::ops();
  SegmentBatcher sb;
  auto push = [&](double a, double b, double arrival) {
    sb.a[sb.pending] = a;
    sb.b[sb.pending] = b;
    sb.arrival[sb.pending] = arrival;
    if (++sb.pending < 2) return;
    const double keys[4] = {sb.arrival[0] - sb.b[0], sb.arrival[0] - sb.a[0],
                            sb.arrival[1] - sb.b[1], sb.arrival[1] - sb.a[1]};
    std::uint32_t idx[4];
    ops.lower_bound4(grid_.data(), grid_.size(), keys, idx);
    add_segment_at(sb.a[0], sb.b[0], sb.arrival[0], weight, idx[0], idx[1]);
    add_segment_at(sb.a[1], sb.b[1], sb.arrival[1], weight, idx[2], idx[3]);
    sb.pending = 0;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const double a = std::max(prev_ld, t_lo);
    const double b = std::min(ld[i], t_hi);
    if (a < b) push(a, b, ea[i]);
    prev_ld = ld[i];
    if (prev_ld >= t_hi) break;
  }
  if (sb.pending == 1) add_segment(sb.a[0], sb.b[0], sb.arrival[0], weight);
}

void MeasureCdfAccumulator::add_delivery_segments(
    const double* ld, const double* ea, std::size_t n,
    const std::pair<double, double>* windows, std::size_t num_windows,
    double weight, double prev_ld) {
  // Pair segments (prev_ld, ld[i]] ascend, so the window cursor only
  // moves forward; windows fully below the current segment are dropped
  // for good, and the walk ends once every window is behind prev_ld.
  if (simd::active_level() == simd::Level::kScalar) {
    // Mandatory fallback: the original per-segment walk, verbatim.
    std::size_t w0 = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double lo = prev_ld, hi = ld[i];
      prev_ld = ld[i];
      while (w0 < num_windows && windows[w0].second <= lo) ++w0;
      if (w0 == num_windows) break;
      for (std::size_t w = w0; w < num_windows && windows[w].first < hi; ++w) {
        const double a = std::max(lo, windows[w].first);
        const double b = std::min(hi, windows[w].second);
        if (a < b) add_segment(a, b, ea[i], weight);
      }
    }
    return;
  }
  const simd::Ops& ops = simd::ops();
  SegmentBatcher sb;
  auto push = [&](double a, double b, double arrival) {
    sb.a[sb.pending] = a;
    sb.b[sb.pending] = b;
    sb.arrival[sb.pending] = arrival;
    if (++sb.pending < 2) return;
    const double keys[4] = {sb.arrival[0] - sb.b[0], sb.arrival[0] - sb.a[0],
                            sb.arrival[1] - sb.b[1], sb.arrival[1] - sb.a[1]};
    std::uint32_t idx[4];
    ops.lower_bound4(grid_.data(), grid_.size(), keys, idx);
    add_segment_at(sb.a[0], sb.b[0], sb.arrival[0], weight, idx[0], idx[1]);
    add_segment_at(sb.a[1], sb.b[1], sb.arrival[1], weight, idx[2], idx[3]);
    sb.pending = 0;
  };
  std::size_t w0 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lo = prev_ld, hi = ld[i];
    prev_ld = ld[i];
    while (w0 < num_windows && windows[w0].second <= lo) ++w0;
    if (w0 == num_windows) break;
    for (std::size_t w = w0; w < num_windows && windows[w].first < hi; ++w) {
      const double a = std::max(lo, windows[w].first);
      const double b = std::min(hi, windows[w].second);
      if (a < b) push(a, b, ea[i]);
    }
  }
  if (sb.pending == 1) add_segment(sb.a[0], sb.b[0], sb.arrival[0], weight);
}

void MeasureCdfAccumulator::clear() noexcept {
  std::fill(const_diff_.begin(), const_diff_.end(), 0.0);
  std::fill(slope_diff_.begin(), slope_diff_.end(), 0.0);
  denominator_ = 0.0;
}

void MeasureCdfAccumulator::add_observation_measure(double measure) {
  assert(measure >= 0.0);
  denominator_ += measure;
}

void MeasureCdfAccumulator::merge(const MeasureCdfAccumulator& other) {
  if (other.grid_ != grid_)
    throw std::invalid_argument("MeasureCdf: merging different grids");
  for (std::size_t i = 0; i < const_diff_.size(); ++i) {
    const_diff_[i] += other.const_diff_[i];
    slope_diff_[i] += other.slope_diff_[i];
  }
  denominator_ += other.denominator_;
}

void MeasureCdfAccumulator::prefix_merge(
    std::vector<MeasureCdfAccumulator>& levels) {
  for (std::size_t k = 1; k < levels.size(); ++k)
    levels[k].merge(levels[k - 1]);
}

std::vector<double> MeasureCdfAccumulator::cdf() const {
  std::vector<double> out(grid_.size(), 0.0);
  if (denominator_ <= 0.0) return out;
  double c = 0.0, s = 0.0;
  for (std::size_t j = 0; j < grid_.size(); ++j) {
    c += const_diff_[j];
    s += slope_diff_[j];
    out[j] = std::clamp((c + s * grid_[j]) / denominator_, 0.0, 1.0);
  }
  return out;
}

}  // namespace odtn
