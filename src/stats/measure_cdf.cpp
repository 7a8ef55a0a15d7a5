#include "stats/measure_cdf.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace odtn {

MeasureCdfAccumulator::MeasureCdfAccumulator(std::vector<double> grid)
    : grid_(std::move(grid)),
      const_diff_(grid_.size() + 1, 0),
      slope_diff_(grid_.size() + 1, 0) {
  if (grid_.empty()) throw std::invalid_argument("MeasureCdf: empty grid");
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    // Negated so a NaN anywhere fails too.
    if (!(grid_[i] >= 0.0) || (i > 0 && !(grid_[i] > grid_[i - 1])))
      throw std::invalid_argument("MeasureCdf: grid must be >= 0, increasing");
  }
  if (!(grid_.back() < kMaxMeasure))
    throw std::invalid_argument("MeasureCdf: grid values must be below 2^43 s");
}

void MeasureCdfAccumulator::add_delivery_segments(
    const double* ld, const double* ea, std::size_t n,
    const std::pair<double, double>* windows, std::size_t num_windows,
    int weight, double prev_ld) {
  // Pair segments (prev_ld, ld[i]] ascend, so the window cursor only
  // moves forward; windows fully below the current segment are dropped
  // for good, and the walk ends once every window is behind prev_ld.
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
}

void MeasureCdfAccumulator::clear() noexcept {
  std::fill(const_diff_.begin(), const_diff_.end(), 0);
  std::fill(slope_diff_.begin(), slope_diff_.end(), 0);
  denominator_ = 0;
}

void MeasureCdfAccumulator::add_observation_measure(double measure,
                                                    std::int64_t count) {
  assert(measure >= 0.0);
  denominator_ += static_cast<std::uint64_t>(fix(measure)) *
                  static_cast<std::uint64_t>(count);
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
  const auto den = static_cast<std::int64_t>(denominator_);
  if (den <= 0) return out;
  std::uint64_t c = 0, s = 0;
  for (std::size_t j = 0; j < grid_.size(); ++j) {
    c += const_diff_[j];
    s += slope_diff_[j];
    // c + s * fix(x) is exact modulo 2^64, and the true numerator fits
    // int64 (it is bounded by the denominator), so the cast recovers it.
    // The grid point itself is not an addend: its sub-quantum remainder
    // enters once per partially covered segment, in double.
    const std::int64_t x = fix(grid_[j]);
    const auto num = static_cast<std::int64_t>(
        c + s * static_cast<std::uint64_t>(x));
    const double numerator =
        static_cast<double>(num) +
        static_cast<double>(static_cast<std::int64_t>(s)) *
            (grid_[j] * kQuantaPerSecond - static_cast<double>(x));
    out[j] = std::clamp(numerator / static_cast<double>(den), 0.0, 1.0);
  }
  return out;
}

}  // namespace odtn
