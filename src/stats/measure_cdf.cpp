#include "stats/measure_cdf.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "util/simd.hpp"

namespace odtn {

MeasureCdfAccumulator::MeasureCdfAccumulator(std::vector<double> grid)
    : grid_(std::move(grid)),
      const_diff_(grid_.size() + 1, 0),
      slope_diff_(grid_.size() + 1, 0) {
  if (grid_.empty()) throw std::invalid_argument("MeasureCdf: empty grid");
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    if (grid_[i] < 0.0 || (i > 0 && grid_[i] <= grid_[i - 1]))
      throw std::invalid_argument("MeasureCdf: grid must be >= 0, increasing");
  }
  if (!(grid_.back() < kMaxMeasure))
    throw std::invalid_argument("MeasureCdf: grid values must be below 2^43 s");
}

void MeasureCdfAccumulator::add_delivery_segments(
    const double* ld, const double* ea, std::size_t n,
    const std::pair<double, double>* windows, std::size_t num_windows,
    int weight, double prev_ld) {
  SegmentBatcher sb(*this, weight);
  sb.push_frontier(ld, ea, n, windows, num_windows, prev_ld);
  sb.flush();
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

SegmentBatcher::SegmentBatcher(MeasureCdfAccumulator& acc, int weight)
    : acc_(acc),
      weight_(weight),
      lower_bound4_(simd::active_level() == simd::Level::kScalar
                        ? nullptr
                        : simd::ops().lower_bound4) {}

void SegmentBatcher::apply_pair() {
  const std::vector<double>& grid = acc_.grid_;
  const double keys[4] = {arrival_[0] - b_[0], arrival_[0] - a_[0],
                          arrival_[1] - b_[1], arrival_[1] - a_[1]};
  std::uint32_t idx[4];
  lower_bound4_(grid.data(), grid.size(), keys, idx);
  acc_.add_segment_at(a_[0], b_[0], arrival_[0], weight_, idx[0], idx[1]);
  acc_.add_segment_at(a_[1], b_[1], arrival_[1], weight_, idx[2], idx[3]);
  pending_ = 0;
}

}  // namespace odtn
