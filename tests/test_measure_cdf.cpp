#include "stats/measure_cdf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/delivery_function.hpp"
#include "stats/log_grid.hpp"
#include "util/rng.hpp"

namespace odtn {
namespace {

// One segment (a, b] with arrival time `arr`: the exact measure of
// {t in (a,b] : max(0, arr - t) <= x} is b - max(a, arr - x), clamped.
double exact_segment_measure(double a, double b, double arr, double x) {
  return std::max(0.0, b - std::max(a, arr - x));
}

TEST(MeasureCdf, SingleSegmentMatchesClosedForm) {
  const std::vector<double> grid = make_log_grid(1.0, 1000.0, 40);
  MeasureCdfAccumulator acc(grid);
  acc.add_segment(10.0, 50.0, 80.0);  // delays from 30 to 70
  acc.add_observation_measure(40.0);
  const auto cdf = acc.cdf();
  for (std::size_t j = 0; j < grid.size(); ++j) {
    EXPECT_NEAR(cdf[j], exact_segment_measure(10, 50, 80, grid[j]) / 40.0,
                1e-12)
        << "x=" << grid[j];
  }
}

TEST(MeasureCdf, DelayZeroSegmentFullyCovered) {
  const std::vector<double> grid{0.5, 1.0, 10.0};
  MeasureCdfAccumulator acc(grid);
  acc.add_segment(0.0, 100.0, 0.0);  // arrival before every start: delay 0
  acc.add_observation_measure(100.0);
  for (double v : acc.cdf()) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(MeasureCdf, EmptySegmentIgnored) {
  MeasureCdfAccumulator acc({1.0, 2.0});
  acc.add_segment(5.0, 5.0, 10.0);
  acc.add_observation_measure(1.0);
  for (double v : acc.cdf()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(MeasureCdf, ZeroDenominatorGivesZeros) {
  MeasureCdfAccumulator acc({1.0});
  acc.add_segment(0.0, 1.0, 0.5);
  EXPECT_DOUBLE_EQ(acc.cdf()[0], 0.0);
}

TEST(MeasureCdf, CdfIsMonotone) {
  const std::vector<double> grid = make_log_grid(0.1, 1e6, 100);
  MeasureCdfAccumulator acc(grid);
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform(0, 1000);
    const double b = a + rng.uniform(0, 100);
    const double arr = a + rng.uniform(0, 2000);
    acc.add_segment(a, b, arr);
    acc.add_observation_measure(b - a);
  }
  const auto cdf = acc.cdf();
  for (std::size_t j = 1; j < cdf.size(); ++j) ASSERT_GE(cdf[j], cdf[j - 1]);
  for (double v : cdf) {
    ASSERT_GE(v, 0.0);
    ASSERT_LE(v, 1.0);
  }
}

class MeasureCdfRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MeasureCdfRandom, MatchesMonteCarloSampling) {
  Rng rng(GetParam());
  const std::vector<double> grid = make_log_grid(1.0, 500.0, 16);
  MeasureCdfAccumulator acc(grid);

  struct Seg {
    double a, b, arr;
  };
  std::vector<Seg> segs;
  double total = 0.0;
  for (int i = 0; i < 20; ++i) {
    const double a = rng.uniform(0, 300);
    const double b = a + rng.uniform(1, 60);
    const double arr = rng.uniform(a - 50, a + 400);
    segs.push_back({a, b, arr});
    acc.add_segment(a, b, arr);
    acc.add_observation_measure(b - a);
    total += b - a;
  }
  const auto cdf = acc.cdf();

  // Monte-Carlo estimate: sample start times uniformly inside segments.
  const int samples = 200000;
  std::vector<int> hits(grid.size(), 0);
  for (int s = 0; s < samples; ++s) {
    // pick a segment weighted by length
    double pick = rng.uniform(0, total);
    const Seg* seg = &segs.back();
    for (const auto& sg : segs) {
      if (pick < sg.b - sg.a) {
        seg = &sg;
        break;
      }
      pick -= sg.b - sg.a;
    }
    const double t = rng.uniform(seg->a, seg->b);
    const double delay = std::max(0.0, seg->arr - t);
    for (std::size_t j = 0; j < grid.size(); ++j)
      if (delay <= grid[j]) ++hits[j];
  }
  for (std::size_t j = 0; j < grid.size(); ++j)
    EXPECT_NEAR(cdf[j], hits[j] / static_cast<double>(samples), 0.01)
        << "x=" << grid[j];
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeasureCdfRandom,
                         ::testing::Values(3u, 1234u, 777777u));

TEST(MeasureCdf, MergeAddsNumeratorsAndDenominators) {
  const std::vector<double> grid{1.0, 10.0};
  MeasureCdfAccumulator a(grid), b(grid);
  a.add_segment(0, 10, 5);
  a.add_observation_measure(10);
  b.add_segment(0, 10, 100);  // all delays > 10
  b.add_observation_measure(10);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.denominator(), 20.0);
  const auto cdf = a.cdf();
  // From segment a: delay <= 1 for t in [4,10] -> 6; delay <= 10 all 10.
  EXPECT_NEAR(cdf[0], 6.0 / 20.0, 1e-12);
  EXPECT_NEAR(cdf[1], 10.0 / 20.0, 1e-12);
}

TEST(MeasureCdf, MergeRejectsDifferentGrids) {
  MeasureCdfAccumulator a({1.0}), b({2.0});
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(MeasureCdf, RejectsBadGrids) {
  EXPECT_THROW(MeasureCdfAccumulator({}), std::invalid_argument);
  EXPECT_THROW(MeasureCdfAccumulator({-1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(MeasureCdfAccumulator({2.0, 2.0}), std::invalid_argument);
  // NaN compares false both ways, so it must not pass as "increasing",
  // wherever it sits.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(MeasureCdfAccumulator({1.0, kNaN, 3.0}), std::invalid_argument);
  EXPECT_THROW(MeasureCdfAccumulator({kNaN, 1.0}), std::invalid_argument);
  // Grid values must fit the fixed-point range.
  EXPECT_THROW(MeasureCdfAccumulator({1.0, 0x1p43}), std::invalid_argument);
  EXPECT_NO_THROW(MeasureCdfAccumulator({1.0, 0x1p42}));
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Adversarial search keys: zeros of both signs, denormals, values a ULP
/// apart, keys far outside any grid, and infinities.
double tricky_key(Rng& rng) {
  static const double pool[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      1.0,
      std::nextafter(1.0, 2.0),
      -1.0,
      2.5,
      1e300,
      -1e300,
      kInf,
      -kInf,
  };
  return pool[rng.below(sizeof(pool) / sizeof(pool[0]))];
}

TEST(MeasureCdf, GridIndexMatchesStdLowerBound) {
  for (const std::size_t n : {1, 2, 3, 7, 48, 100}) {
    Rng rng = Rng::keyed(0x51D2, n);
    // Strictly increasing, starting below zero so +/-0.0 and the
    // denormals fall inside the grid.
    std::vector<double> grid(n);
    double top = -3.0;
    for (double& g : grid) {
      top += 0.25 + rng.uniform(0.0, 2.0);
      g = top;
    }
    const auto key = [&] {
      switch (rng.below(4)) {
        case 0:
          return tricky_key(rng);
        case 1: {  // an exact grid hit or one of its neighbours
          const double g = grid[rng.below(n)];
          const int side = static_cast<int>(rng.below(3));
          return side == 0 ? g : std::nextafter(g, side == 1 ? -kInf : kInf);
        }
        case 2:
          return rng.uniform(-5.0, top + 5.0);
        default:
          return rng.bernoulli(0.5) ? kInf : -kInf;
      }
    };
    const auto lower_bound = [&](double k) {
      return static_cast<std::size_t>(
          std::lower_bound(grid.begin(), grid.end(), k) - grid.begin());
    };
    for (int round = 0; round < 200; ++round) {
      const double k0 = key(), k1 = key();
      const auto [i0, i1] = grid_index(grid.data(), n, k0, k1);
      ASSERT_EQ(i0, lower_bound(k0)) << "n=" << n << " key=" << k0;
      ASSERT_EQ(i1, lower_bound(k1)) << "n=" << n << " key=" << k1;
    }
  }
  // Zeros and denormals as exact grid hits: -0.0 equals 0.0, so both
  // land on index 0.
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<double> grid{0.0, tiny, 1.0};
  EXPECT_EQ(grid_index(grid.data(), 3, -0.0, 0.0),
            (std::pair<std::size_t, std::size_t>{0, 0}));
  EXPECT_EQ(grid_index(grid.data(), 3, tiny, -tiny),
            (std::pair<std::size_t, std::size_t>{1, 0}));
  EXPECT_EQ(grid_index(grid.data(), 3, 2 * tiny, kInf),
            (std::pair<std::size_t, std::size_t>{2, 3}));
}

/// The per-pair integration reference: start times in (ld[i-1], ld[i]]
/// are served at arrival ea[i], each segment clipped to every window on
/// its own and added by its own add_segment call.
void accumulate_per_pair(const std::vector<double>& ld,
                         const std::vector<double>& ea,
                         const std::vector<std::pair<double, double>>& windows,
                         int weight, MeasureCdfAccumulator& acc) {
  double prev_ld = -kInf;
  for (std::size_t i = 0; i < ld.size(); ++i) {
    for (const auto& [t_lo, t_hi] : windows) {
      const double a = std::max(prev_ld, t_lo);
      const double b = std::min(ld[i], t_hi);
      if (a < b) acc.add_segment(a, b, ea[i], weight);
    }
    prev_ld = ld[i];
  }
}

TEST(MeasureCdf, AddDeliverySegmentsEqualsOneAddSegmentPerClippedPair) {
  const std::vector<double> grid = make_log_grid(1.0, 500.0, 48);
  for (std::uint64_t trial = 0; trial < 60; ++trial) {
    Rng rng = Rng::keyed(0x51D4, trial);
    // Quantized coordinates, so equal-LD ties and dominance chains are
    // common, and window edges often coincide with departures.
    DeliveryFunction f;
    const std::size_t attempts = 1 + rng.below(120);
    for (std::size_t i = 0; i < attempts; ++i)
      f.insert({std::floor(rng.uniform(0.0, 40.0)) / 2.0,
                std::floor(rng.uniform(-10.0, 40.0)) / 2.0});
    const FrontierView v = f.view();
    const std::vector<double> ld(v.ld_data(), v.ld_data() + v.size());
    const std::vector<double> ea(v.ea_data(), v.ea_data() + v.size());
    const double t_lo = rng.uniform(-5.0, 5.0);
    const double t_hi = t_lo + rng.uniform(0.0, 30.0);
    const std::vector<std::vector<std::pair<double, double>>> window_sets = {
        {{t_lo, t_hi}},
        {{t_lo, t_lo + (t_hi - t_lo) / 3.0},
         {t_lo + (t_hi - t_lo) / 2.0, t_hi}}};
    for (const auto& windows : window_sets) {
      for (const int weight : {1, -2}) {
        MeasureCdfAccumulator lanes(grid), pairs(grid);
        lanes.add_delivery_segments(ld.data(), ea.data(), ld.size(),
                                    windows.data(), windows.size(), weight);
        accumulate_per_pair(ld, ea, windows, weight, pairs);
        ASSERT_EQ(lanes, pairs) << "trial=" << trial
                                << " windows=" << windows.size()
                                << " weight=" << weight;
      }
    }
  }
}

TEST(MeasureCdf, AddendsRoundToNearestQuantum) {
  // fix() rounds to the nearest 2^-20 s, ties to even, symmetric in sign.
  constexpr double q = 1.0 / MeasureCdfAccumulator::kQuantaPerSecond;
  EXPECT_EQ(MeasureCdfAccumulator::fix(0.75 * q), 1);
  EXPECT_EQ(MeasureCdfAccumulator::fix(-0.75 * q), -1);
  EXPECT_EQ(MeasureCdfAccumulator::fix(0.25 * q), 0);
  EXPECT_EQ(MeasureCdfAccumulator::fix(0.5 * q), 0);
  EXPECT_EQ(MeasureCdfAccumulator::fix(1.5 * q), 2);
  EXPECT_EQ(MeasureCdfAccumulator::fix(3.0), 3 << 20);
  // So the errors of many addends cancel instead of adding up: 2000
  // full-coverage segments of random length sit within 1e-9 of their
  // exact total (truncation would be ~5e-8 low).
  MeasureCdfAccumulator acc({1e6});
  Rng rng(5);
  long double exact = 0.0L;
  for (int i = 0; i < 2000; ++i) {
    const double a = rng.uniform(0.0, 100.0);
    const double b = a + rng.uniform(0.0, 10.0);
    acc.add_segment(a, b, a);  // delay 0: full coverage from x = 0
    exact += static_cast<long double>(b) - a;
  }
  acc.add_observation_measure(static_cast<double>(exact));
  EXPECT_NEAR(acc.cdf()[0], 1.0, 1e-9);
}

TEST(MeasureCdf, SumIsIndependentOfOrderAndGrouping) {
  // Non-representable coordinates: every addend rounds. Adding the same
  // segments in another order, or split over two accumulators that are
  // merged afterwards, must give the same state to the bit.
  const std::vector<double> grid = make_log_grid(0.1, 1000.0, 30);
  Rng rng(2026);
  struct Seg {
    double a, b, arr;
    int weight;
  };
  std::vector<Seg> segs;
  for (int i = 0; i < 300; ++i) {
    const double a = rng.uniform(-500.0, 500.0);
    const double b = a + rng.uniform(0.0, 80.0);
    segs.push_back({a, b, a + rng.uniform(-20.0, 900.0),
                    static_cast<int>(rng.below(5)) - 2});
  }
  MeasureCdfAccumulator forward(grid);
  for (const Seg& g : segs) forward.add_segment(g.a, g.b, g.arr, g.weight);
  forward.add_observation_measure(1000.0 / 3.0, 300);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = segs.size(); i > 1; --i)
      std::swap(segs[i - 1], segs[rng.below(i)]);
    MeasureCdfAccumulator left(grid), right(grid);
    for (std::size_t i = 0; i < segs.size(); ++i)
      (i % 3 == 0 ? left : right)
          .add_segment(segs[i].a, segs[i].b, segs[i].arr, segs[i].weight);
    for (int i = 0; i < 300; ++i)
      (i % 2 == 0 ? right : left).add_observation_measure(1000.0 / 3.0);
    right.merge(left);
    // Full state: numerator difference arrays and denominator.
    EXPECT_TRUE(right == forward) << round;
    EXPECT_EQ(right.denominator(), forward.denominator()) << round;
    EXPECT_EQ(right.cdf(), forward.cdf()) << round;
  }
}

TEST(MeasureCdf, SingleRetractionCancelsToTheBit) {
  // One +1 / -1 pair on an otherwise empty accumulator: the diff-array
  // entries receive exactly negated addends, so the numerator is bitwise
  // zero -- no tolerance needed even for awkward non-representable
  // coordinates.
  const std::vector<double> grid = make_log_grid(0.1, 1000.0, 25);
  MeasureCdfAccumulator acc(grid);
  acc.add_segment(0.3, 107.7, 209.13);
  acc.add_segment(0.3, 107.7, 209.13, -1);
  acc.add_observation_measure(107.4);
  for (double v : acc.cdf()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(MeasureCdf, SignedRetractionRoundTripsToZero) {
  // Many interleaved segments, then retract them all. Integer-valued
  // coordinates keep every intermediate sum exact, so the round trip is
  // exactly zero at every grid point, not merely within rounding.
  const std::vector<double> grid = make_log_grid(1.0, 4096.0, 30);
  MeasureCdfAccumulator acc(grid);
  Rng rng(42);
  struct Seg {
    double a, b, arr;
  };
  std::vector<Seg> segs;
  for (int i = 0; i < 100; ++i) {
    const double a = static_cast<double>(rng.below(2000));
    const double b = a + 1.0 + static_cast<double>(rng.below(500));
    const double arr = static_cast<double>(rng.below(4000));
    segs.push_back({a, b, arr});
    acc.add_segment(a, b, arr);
  }
  for (const Seg& s : segs) acc.add_segment(s.a, s.b, s.arr, -1);
  acc.add_observation_measure(1000.0);
  for (double v : acc.cdf()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(MeasureCdf, WeightEqualsRepeatedAddition) {
  // weight = 3 is the same contribution as adding the segment 3 times
  // (exact for integer coordinates). The denominator is not touched by
  // weights -- only add_observation_measure moves it.
  const std::vector<double> grid{1.0, 8.0, 64.0, 512.0};
  MeasureCdfAccumulator weighted(grid), repeated(grid);
  weighted.add_segment(10.0, 40.0, 55.0, 3);
  for (int i = 0; i < 3; ++i) repeated.add_segment(10.0, 40.0, 55.0);
  weighted.add_observation_measure(90.0);
  repeated.add_observation_measure(90.0);
  const auto w = weighted.cdf(), r = repeated.cdf();
  for (std::size_t j = 0; j < grid.size(); ++j) EXPECT_DOUBLE_EQ(w[j], r[j]);
  EXPECT_DOUBLE_EQ(weighted.denominator(), 90.0);
}

TEST(MeasureCdf, PrefixMergeReconstructsPerLevelCdfs) {
  // Simulates the incremental all-pairs scheme on one destination whose
  // frontier improves at level 2: levels[0] holds the level-1 state and
  // the full observation measure, levels[1] holds only the delta
  // (retract old, add new), levels[2] is an empty delta (no change).
  // After prefix_merge, each level's CDF must equal a directly built
  // accumulator for that level's frontier, and the parked denominator
  // must have propagated everywhere.
  const std::vector<double> grid = make_log_grid(1.0, 512.0, 20);
  std::vector<MeasureCdfAccumulator> levels(3, MeasureCdfAccumulator(grid));
  // Level-1 frontier: arrival 120 over (0, 100].
  levels[0].add_segment(0.0, 100.0, 120.0);
  levels[0].add_observation_measure(100.0);
  // Level 2: a relay path improves (40, 100] to arrival 70.
  levels[1].add_segment(40.0, 100.0, 120.0, -1);
  levels[1].add_segment(40.0, 100.0, 70.0, +1);
  MeasureCdfAccumulator::prefix_merge(levels);

  MeasureCdfAccumulator direct1(grid), direct2(grid);
  direct1.add_segment(0.0, 100.0, 120.0);
  direct1.add_observation_measure(100.0);
  direct2.add_segment(0.0, 40.0, 120.0);
  direct2.add_segment(40.0, 100.0, 70.0);
  direct2.add_observation_measure(100.0);

  const auto l0 = levels[0].cdf(), l1 = levels[1].cdf(), l2 = levels[2].cdf();
  const auto d1 = direct1.cdf(), d2 = direct2.cdf();
  for (std::size_t j = 0; j < grid.size(); ++j) {
    EXPECT_DOUBLE_EQ(l0[j], d1[j]) << "x=" << grid[j];
    EXPECT_DOUBLE_EQ(l1[j], d2[j]) << "x=" << grid[j];
    EXPECT_DOUBLE_EQ(l2[j], l1[j]) << "x=" << grid[j];  // unchanged level
  }
  for (const auto& lvl : levels) EXPECT_DOUBLE_EQ(lvl.denominator(), 100.0);
}

TEST(MeasureCdf, PrefixMergeAddsDenominatorsCumulatively) {
  // Denominators prefix-sum exactly like numerators: parking the full
  // observation measure in levels[0] (the incremental scheme's contract)
  // relies on later levels contributing zero.
  std::vector<MeasureCdfAccumulator> levels(3, MeasureCdfAccumulator({1.0}));
  levels[0].add_observation_measure(5.0);
  levels[1].add_observation_measure(2.0);
  MeasureCdfAccumulator::prefix_merge(levels);
  EXPECT_DOUBLE_EQ(levels[0].denominator(), 5.0);
  EXPECT_DOUBLE_EQ(levels[1].denominator(), 7.0);
  EXPECT_DOUBLE_EQ(levels[2].denominator(), 7.0);
}

}  // namespace
}  // namespace odtn
