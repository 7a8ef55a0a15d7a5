// Tests of the Pareto-frontier delivery function (paper §4.3-4.4,
// condition (4), Figure 5).
#include "core/delivery_function.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "stats/log_grid.hpp"
#include "stats/measure_cdf.hpp"
#include "util/rng.hpp"

namespace odtn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Integrates `f` over start times uniform on [t_lo, t_hi] through the
/// accumulator's lane stream, one window.
void accumulate(const DeliveryFunction& f, MeasureCdfAccumulator& acc,
                double t_lo, double t_hi) {
  const FrontierView v = f.view();
  const std::pair<double, double> window(t_lo, t_hi);
  acc.add_delivery_segments(v.ld_data(), v.ea_data(), v.size(), &window, 1);
}

void expect_invariants(const DeliveryFunction& f) {
  const std::vector<PathPair> ps = f.to_pairs();
  for (std::size_t i = 1; i < ps.size(); ++i) {
    ASSERT_LT(ps[i - 1].ld, ps[i].ld) << "LD must strictly increase";
    ASSERT_LT(ps[i - 1].ea, ps[i].ea) << "EA must strictly increase";
  }
}

TEST(DeliveryFunction, EmptyIsUnreachable) {
  DeliveryFunction f;
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.deliver_at(0.0), kInf);
  EXPECT_EQ(f.last_departure(), -kInf);
}

TEST(DeliveryFunction, SinglePair) {
  DeliveryFunction f;
  EXPECT_TRUE(f.insert({10.0, 4.0}));
  EXPECT_DOUBLE_EQ(f.deliver_at(0.0), 4.0);
  EXPECT_DOUBLE_EQ(f.deliver_at(7.0), 7.0);
  EXPECT_EQ(f.deliver_at(11.0), kInf);
}

TEST(DeliveryFunction, DominatedInsertRejected) {
  DeliveryFunction f;
  EXPECT_TRUE(f.insert({10.0, 4.0}));
  EXPECT_FALSE(f.insert({10.0, 4.0}));  // duplicate
  EXPECT_FALSE(f.insert({9.0, 5.0}));   // strictly worse
  EXPECT_FALSE(f.insert({10.0, 5.0}));  // worse arrival, same departure
  EXPECT_EQ(f.size(), 1u);
}

TEST(DeliveryFunction, DominatingInsertEvictsWorsePairs) {
  DeliveryFunction f;
  f.insert({5.0, 3.0});
  f.insert({8.0, 6.0});
  EXPECT_TRUE(f.insert({9.0, 2.0}));  // dominates both
  EXPECT_EQ(f.size(), 1u);
  EXPECT_DOUBLE_EQ(f.to_pairs()[0].ld, 9.0);
  expect_invariants(f);
}

TEST(DeliveryFunction, EqualLdBetterEaReplaces) {
  DeliveryFunction f;
  f.insert({5.0, 3.0});
  EXPECT_TRUE(f.insert({5.0, 1.0}));
  EXPECT_EQ(f.size(), 1u);
  EXPECT_DOUBLE_EQ(f.to_pairs()[0].ea, 1.0);
  expect_invariants(f);
}

TEST(DeliveryFunction, EqualEaLaterLdReplaces) {
  DeliveryFunction f;
  f.insert({5.0, 3.0});
  EXPECT_TRUE(f.insert({7.0, 3.0}));
  EXPECT_EQ(f.size(), 1u);
  EXPECT_DOUBLE_EQ(f.to_pairs()[0].ld, 7.0);
  expect_invariants(f);
}

TEST(DeliveryFunction, IncomparablePairsCoexist) {
  DeliveryFunction f;
  EXPECT_TRUE(f.insert({5.0, 1.0}));
  EXPECT_TRUE(f.insert({10.0, 7.0}));
  EXPECT_TRUE(f.insert({20.0, 15.0}));
  EXPECT_EQ(f.size(), 3u);
  expect_invariants(f);
}

// Figure 5: four (LD, EA) pairs; pairs 1-3 contemporaneous (EA <= LD),
// pair 4 is store-and-forward (LD4 < EA4).
TEST(DeliveryFunction, Figure5Shape) {
  DeliveryFunction f;
  f.insert({2.0, 1.0});    // (LD1, EA1)
  f.insert({5.0, 4.0});    // (LD2, EA2)
  f.insert({8.0, 7.0});    // (LD3, EA3)
  f.insert({10.0, 13.0});  // (LD4, EA4): EA4 > LD4
  EXPECT_EQ(f.size(), 4u);
  expect_invariants(f);
  // Within pair 1's window: instantaneous.
  EXPECT_DOUBLE_EQ(f.deliver_at(1.5), 1.5);
  // Between pairs: wait for the next EA.
  EXPECT_DOUBLE_EQ(f.deliver_at(2.5), 4.0);
  EXPECT_DOUBLE_EQ(f.deliver_at(5.5), 7.0);
  // The store-and-forward pair: depart by 10, arrive at 13.
  EXPECT_DOUBLE_EQ(f.deliver_at(9.0), 13.0);
  EXPECT_DOUBLE_EQ(f.deliver_at(10.0), 13.0);
  // After the last departure: infinity.
  EXPECT_EQ(f.deliver_at(10.1), kInf);
}

TEST(DeliveryFunction, IsDominatedQuery) {
  DeliveryFunction f;
  f.insert({5.0, 1.0});
  f.insert({10.0, 7.0});
  EXPECT_TRUE(f.is_dominated({4.0, 2.0}));
  EXPECT_TRUE(f.is_dominated({10.0, 7.0}));
  EXPECT_FALSE(f.is_dominated({11.0, 8.0}));
  EXPECT_FALSE(f.is_dominated({7.0, 3.0}));
}

class DeliveryFunctionRandom : public ::testing::TestWithParam<std::uint64_t> {
};

// Property: a frontier built from random pairs computes exactly the same
// del(t) as the brute-force Eq. (3) evaluation over ALL inserted pairs.
TEST_P(DeliveryFunctionRandom, MatchesBruteForceEquation3) {
  Rng rng(GetParam());
  DeliveryFunction f;
  std::vector<PathPair> all;
  for (int i = 0; i < 300; ++i) {
    const double ld = rng.uniform(0, 100);
    const double ea = rng.uniform(-20, 120);
    all.push_back({ld, ea});
    f.insert({ld, ea});
    expect_invariants(f);
  }
  for (int q = 0; q < 1000; ++q) {
    const double t = rng.uniform(-10, 110);
    ASSERT_EQ(f.deliver_at(t), deliver_at_bruteforce(all, t)) << "t=" << t;
  }
}

// Property: the kept list satisfies exactly the paper's condition (4) --
// with pairs sorted by LD, pair k is kept iff EA_k = min{EA_l : l >= k} --
// and every discarded pair is dominated by some kept pair.
TEST_P(DeliveryFunctionRandom, ConditionFourAndCompleteness) {
  Rng rng(GetParam() ^ 0xABCD);
  DeliveryFunction f;
  std::vector<PathPair> all;
  for (int i = 0; i < 120; ++i) {
    const PathPair p{rng.uniform(0, 50), rng.uniform(-10, 60)};
    all.push_back(p);
    f.insert(p);
  }
  // Condition (4): EA strictly increasing along the LD-sorted frontier.
  const std::vector<PathPair> ps = f.to_pairs();
  for (std::size_t k = 0; k + 1 < ps.size(); ++k) {
    ASSERT_LT(ps[k].ld, ps[k + 1].ld);
    ASSERT_LT(ps[k].ea, ps[k + 1].ea);
  }
  // Completeness: every inserted pair is dominated by some kept pair
  // (so no optimal path was lost).
  for (const PathPair& p : all) {
    bool covered = false;
    for (const PathPair& kept : ps)
      if (dominates(kept, p)) {
        covered = true;
        break;
      }
    EXPECT_TRUE(covered) << "pair (" << p.ld << ", " << p.ea << ") lost";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeliveryFunctionRandom,
                         ::testing::Values(1u, 77u, 2024u, 0xFEEDu));

/// Pair from a small quantized set, with zeros of both signs, so equal-ld
/// and equal-ea ties (including -0.0 against 0.0) are common.
PathPair tie_prone_pair(Rng& rng) {
  const auto value = [&rng](double lo, double hi) {
    const double v = std::floor(rng.uniform(lo, hi)) / 2.0;
    return v == 0.0 && rng.bernoulli(0.5) ? -0.0 : v;
  };
  const double ld = value(0.0, 24.0);
  return {ld, value(-6.0, 24.0)};
}

DeliveryFunction tie_prone_frontier(Rng& rng, std::size_t attempts) {
  DeliveryFunction f;
  for (std::size_t i = 0; i < attempts; ++i) f.insert(tie_prone_pair(rng));
  return f;
}

/// Equality down to the bit pattern: `==` on doubles cannot tell -0.0
/// from 0.0, and which of two tied pairs survives is part of the
/// contract.
void expect_same_bits(const DeliveryFunction& got, const DeliveryFunction& want,
                      const std::string& what) {
  const FrontierView a = got.view(), b = want.view();
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.ld(i)),
              std::bit_cast<std::uint64_t>(b.ld(i)))
        << what << " ld i=" << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.ea(i)),
              std::bit_cast<std::uint64_t>(b.ea(i)))
        << what << " ea i=" << i;
  }
}

// The header contract of assign_union: bit-identical to
// assign_canonical(base) followed by insert() of every pair of `other`.
// `other` mixes fresh pairs with copies of base pairs whose ea (equal-ld
// ties) or ld (equal-ea ties) is moved, or whose zero flips its sign.
TEST(DeliveryFunction, AssignUnionEqualsCanonicalPlusInserts) {
  for (std::uint64_t trial = 0; trial < 400; ++trial) {
    Rng rng = Rng::keyed(0xA55E, trial);
    const DeliveryFunction base = tie_prone_frontier(rng, rng.below(24));
    const std::vector<PathPair> base_pairs = base.to_pairs();
    DeliveryFunction other;
    const std::size_t extra = rng.below(24);
    for (std::size_t i = 0; i < extra; ++i) {
      PathPair p = tie_prone_pair(rng);
      if (!base_pairs.empty() && rng.bernoulli(0.6)) {
        p = base_pairs[rng.below(base_pairs.size())];
        switch (rng.below(4)) {
          case 0:  // equal ld, ea moved either way
            p.ea += rng.bernoulli(0.5) ? 0.5 : -0.5;
            break;
          case 1:  // equal ea, ld moved either way
            p.ld += rng.bernoulli(0.5) ? 0.5 : -0.5;
            break;
          case 2:  // the same pair, signs of zero flipped
            if (p.ld == 0.0) p.ld = -p.ld;
            if (p.ea == 0.0) p.ea = -p.ea;
            break;
          default:  // an exact copy
            break;
        }
      }
      other.insert(p);
    }
    const std::string what = "trial=" + std::to_string(trial);

    DeliveryFunction want;
    want.assign_canonical(base.view());
    expect_same_bits(want, base, what + " assign_canonical");
    for (const PathPair& p : other.to_pairs()) want.insert(p);

    DeliveryFunction got;
    got.insert({1e9, 1e9});  // stale contents must be replaced
    got.assign_union(base.view(), other.view());
    expect_same_bits(got, want, what);
    expect_invariants(got);
  }
}

TEST(DeliveryFunction, AccumulateMatchesClosedForm) {
  DeliveryFunction f;
  f.insert({10.0, 5.0});
  f.insert({30.0, 25.0});
  const std::vector<double> grid{1.0, 5.0, 20.0};
  MeasureCdfAccumulator acc(grid);
  accumulate(f, acc, 0.0, 40.0);
  acc.add_observation_measure(40.0);
  const auto cdf = acc.cdf();
  // Segment 1: t in (0, 10], arrival 5 -> delay max(0, 5-t).
  //   delay <= 1: t in [4, 10] -> 6.   delay <= 5: all 10.  <= 20: 10.
  // Segment 2: t in (10, 30], arrival 25.
  //   delay <= 1: t in [24, 30] -> 6.  delay <= 5: t in [20,30] -> 10.
  //   delay <= 20: t in (10, 30] -> 20.
  // Start times in (30, 40]: no path, contribute 0.
  EXPECT_NEAR(cdf[0], (6.0 + 6.0) / 40.0, 1e-12);
  EXPECT_NEAR(cdf[1], (10.0 + 10.0) / 40.0, 1e-12);
  EXPECT_NEAR(cdf[2], (10.0 + 20.0) / 40.0, 1e-12);
}

TEST(DeliveryFunction, AccumulateRespectsWindowClipping) {
  DeliveryFunction f;
  f.insert({10.0, 5.0});
  const std::vector<double> grid{100.0};
  MeasureCdfAccumulator acc(grid);
  accumulate(f, acc, 2.0, 6.0);  // only t in (2, 6]
  acc.add_observation_measure(4.0);
  EXPECT_NEAR(acc.cdf()[0], 1.0, 1e-12);  // all 4 units delivered
}

}  // namespace
}  // namespace odtn
