// Exact (Lebesgue-measure) delay-CDF accumulation.
//
// The paper's delay distributions (Figures 9-11) combine observations "for
// every starting time": the message generation time t is uniform over the
// trace interval. For a delivery function represented by Pareto pairs
// (LD_i, EA_i), the start-time axis splits into intervals (LD_{i-1}, LD_i]
// on which the arrival time is the constant EA_i, so the delay is
// max(0, EA_i - t). This accumulator integrates P[delay <= x] *exactly*
// over such segments (no start-time sampling), evaluated on a fixed grid
// of delay values x.
//
// Complexity: O(log M) amortized per segment plus O(M) at finalization,
// where M is the grid size, using range-update difference arrays: over the
// x-range where a segment contributes partially, the contribution is the
// affine function (b - arrival) + x.
//
// Fixed point. Numerators and the denominator are integers counting
// quanta of 2^-20 s. Each addend -- (b - arrival), (b - a), an
// observation measure -- is rounded to the nearest quantum once, where it
// is added; weights and slopes are integer counts. Integer addition is
// associative, so the accumulator state depends only on the SET of
// addends, never on the order they arrive in: merging partials in any
// order, retracting a segment and adding it back, or reaching CDF_k as
// CDF_{k-1} + delta_k (the incremental scheme and the live engine's
// epoch updates) all give the same bits.
// The difference arrays are uint64_t and wrap modulo 2^64; a grid point's
// numerator c_j + s_j * fix(x_j) is evaluated in that ring and is exact
// once it fits int64.
//
// Range: the denominator of an all-pairs computation is (pairs x window
// measure), and every numerator is bounded by it, so the total must stay
// below 2^43 s (about 8.8e12 s; 1000 nodes x 30 days is about 2.6e12 s).
// resolve_cdf_windows (core/source_cdf.hpp) checks that bound before any
// source runs. Every addend is bounded by the window measure or a grid
// value, and grid values must lie below 2^43 s too (the constructor
// checks).
#pragma once

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <emmintrin.h>
#endif

namespace odtn {

/// std::lower_bound's index of two keys in one ascending grid of n >= 1
/// values: for each key, the index of the first grid value not below it
/// (n when every value is), for every key, ±0.0, ±infinity and exact
/// grid hits included. One branchless halving search: both keys take the
/// same ceil(log2 n) steps, each a compare and a conditional move, and
/// every read stays inside [0, n). On the ~48-point delay grid the
/// branchy std::lower_bound made the all-pairs delay CDF about 7% slower.
inline std::pair<std::size_t, std::size_t> grid_index(
    const double* grid, std::size_t n, double key0, double key1) noexcept {
  assert(n > 0);
  const double* b0 = grid;
  const double* b1 = grid;
  // Invariant: each key's index lies in [b, b + n].
  while (n > 1) {
    const std::size_t half = n / 2;
    b0 = b0[half] < key0 ? b0 + half : b0;
    b1 = b1[half] < key1 ? b1 + half : b1;
    n -= half;
  }
  return {static_cast<std::size_t>(b0 - grid) + (*b0 < key0),
          static_cast<std::size_t>(b1 - grid) + (*b1 < key1)};
}

/// Accumulates exact measure of {start times t : delay(t) <= x} over many
/// piecewise-constant-arrival segments, normalized by an explicitly
/// accumulated denominator.
class MeasureCdfAccumulator {
 public:
  /// Fixed-point scale: quanta per second (the quantum is 2^-20 s).
  static constexpr double kQuantaPerSecond = 0x1p20;
  /// Range bound in seconds: the total observation measure of one
  /// computation, and every grid value, must stay below it.
  static constexpr double kMaxMeasure = 0x1p43;

  /// `grid` holds strictly increasing delay values 0 <= x < kMaxMeasure.
  explicit MeasureCdfAccumulator(std::vector<double> grid);

  /// Seconds to quanta, rounded to nearest (ties to even) once. On
  /// x86-64 one cvtsd2si, which rounds like std::nearbyint (both follow
  /// the current rounding mode) without its libm call (g++ 12 -O2 emits
  /// one for both std::nearbyint and std::llrint): about 6 ns less per
  /// segment.
  static std::int64_t fix(double seconds) noexcept {
    assert(std::fabs(seconds) < kMaxMeasure);
#if defined(__x86_64__)
    return _mm_cvtsd_si64(_mm_set_sd(seconds * kQuantaPerSecond));
#else
    return static_cast<std::int64_t>(
        std::nearbyint(seconds * kQuantaPerSecond));
#endif
  }

  /// Accounts for start times t in (a, b] delivered at time
  /// max(t, arrival), i.e. delay(t) = max(0, arrival - t), scaled by
  /// `weight`. A negative weight RETRACTS a previously added segment:
  /// adding the same (a, b, arrival) with weights +1 and -1 cancels
  /// exactly, which is what the incremental all-pairs scheme relies on to
  /// replace a destination's stale integration with its refreshed one.
  /// Requires a <= b; empty segments are ignored. Does NOT touch the
  /// denominator (see add_observation_measure). Defined inline: this is
  /// the hottest non-engine call of the all-pairs delay CDF.
  void add_segment(double a, double b, double arrival, int weight = 1) {
    assert(a <= b);
    if (!(a < b)) return;
    // Contribution to P[delay <= x] for x = grid[j]:
    //   measure{ t in (a, b] : arrival - t <= x }
    //   = b - max(a, arrival - x), clamped to [0, b - a]
    //   = 0                       when x <  arrival - b   (no coverage)
    //   = (b - arrival) + x       when arrival - b <= x < arrival - a
    //   = b - a                   when x >= arrival - a   (full coverage).
    const auto [lo, hi] =
        grid_index(grid_.data(), grid_.size(), arrival - b, arrival - a);
    const auto w = static_cast<std::uint64_t>(weight);
    // Partial coverage on [lo, hi): affine in x.
    if (lo < hi) {
      const std::uint64_t c = static_cast<std::uint64_t>(fix(b - arrival)) * w;
      const_diff_[lo] += c;
      const_diff_[hi] -= c;
      slope_diff_[lo] += w;
      slope_diff_[hi] -= w;
    }
    // Full coverage on [hi, end).
    if (hi < grid_.size()) {
      const std::uint64_t f = static_cast<std::uint64_t>(fix(b - a)) * w;
      const_diff_[hi] += f;
      const_diff_[grid_.size()] -= f;
    }
  }

  /// Streams a whole structure-of-arrays delivery function (parallel
  /// ld/ea lanes, both ascending -- the one frontier layout, see
  /// core/delivery_function.hpp) in one call, feeding every start-time
  /// window it overlaps (`windows` sorted, disjoint; one window is the
  /// one-element array). Start times in (ld[i-1], ld[i]] are served by
  /// pair i at arrival ea[i]; each segment is clipped to every window
  /// and fed to add_segment, one walk over the lanes for all windows:
  /// O(n + W) rather than O(n * W). `prev_ld` is the lower start-time
  /// boundary of the FIRST pair -- -infinity for a whole frontier; a real
  /// departure time when `ld`/`ea` are an interior slice of a larger
  /// frontier (the incremental scheme integrates only the slice where
  /// consecutive hop levels differ, with prev_ld = the last pair of the
  /// shared prefix).
  void add_delivery_segments(
      const double* ld, const double* ea, std::size_t n,
      const std::pair<double, double>* windows, std::size_t num_windows,
      int weight = 1,
      double prev_ld = -std::numeric_limits<double>::infinity());

  /// Adds `count` x fix(measure) to the normalization denominator.
  /// Callers add the window measure (t_hi - t_lo) once per (source,
  /// destination) pair, so start times with no path at all (including
  /// entire pairs that are never connected) correctly dilute the CDF.
  /// Passing the pair count here, rather than a pre-multiplied measure,
  /// keeps the sum independent of how the pairs are grouped. A negative
  /// `count` RETRACTS measure added before, exactly, as a negative
  /// segment weight retracts a segment (the live engine swaps a grown
  /// window's measure in this way); the denominator must not be negative
  /// when it is read.
  void add_observation_measure(double measure, std::int64_t count = 1);

  /// Merges another accumulator over the same grid (numerators and
  /// denominators add). Used to combine per-source partial results.
  void merge(const MeasureCdfAccumulator& other);

  /// In-place prefix sum over hop-indexed accumulators: levels[k]
  /// becomes the sum of levels[0..k] (numerator difference arrays and
  /// denominators alike). The incremental all-pairs scheme stores in
  /// levels[k] only the level-(k+1) delta (changed destinations'
  /// retracted old segments plus their new ones, with the full
  /// observation measure parked in levels[0]); one prefix_merge at
  /// finalization reconstructs CDF_{k+1} = CDF_k + delta_{k+1} for every
  /// hop budget at O(K * M) cost, independent of the trace size.
  static void prefix_merge(std::vector<MeasureCdfAccumulator>& levels);

  /// Resets numerators and denominator to the just-constructed state
  /// while keeping the grid and buffer capacity, so a worker can recycle
  /// one accumulator as per-source scratch.
  void clear() noexcept;

  /// Equal grids, numerator states and denominators: the sums are
  /// exact, so equal sets of addends compare equal.
  bool operator==(const MeasureCdfAccumulator&) const = default;

  /// The evaluation grid.
  const std::vector<double>& grid() const noexcept { return grid_; }

  /// Total denominator accumulated so far, in seconds.
  double denominator() const noexcept {
    return static_cast<double>(static_cast<std::int64_t>(denominator_)) /
           kQuantaPerSecond;
  }

  /// P[delay <= grid[j]] for every j. Returns zeros when the denominator
  /// is zero. Values are clamped to [0, 1]: a segment split by a later
  /// hop level rounds as two addends, so a CDF can sit a few quanta off
  /// the exact value. Meaningless on an accumulator still holding a bare
  /// inter-level delta -- prefix_merge first.
  std::vector<double> cdf() const;

 private:
  std::vector<double> grid_;
  // Contribution at grid index j, in quanta and modulo 2^64:
  //   prefix(const_diff_)[j] + prefix(slope_diff_)[j] * fix(grid_[j]).
  std::vector<std::uint64_t> const_diff_;
  std::vector<std::uint64_t> slope_diff_;
  std::uint64_t denominator_ = 0;
};

}  // namespace odtn
