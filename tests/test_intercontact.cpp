#include "trace/intercontact.hpp"

#include <gtest/gtest.h>

#include "random/contact_process.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"
#include "util/time_format.hpp"

namespace odtn {
namespace {

TEST(InterContactTimes, PairGapsComputed) {
  TemporalGraph g(2, {{0, 1, 0.0, 10.0},
                      {0, 1, 30.0, 40.0},
                      {0, 1, 100.0, 101.0}});
  const auto gaps = pair_inter_contact_times(g, 0, 1);
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_DOUBLE_EQ(gaps[0], 20.0);
  EXPECT_DOUBLE_EQ(gaps[1], 60.0);
  // Symmetric in the pair order.
  EXPECT_EQ(pair_inter_contact_times(g, 1, 0), gaps);
}

TEST(InterContactTimes, NestedContactsDoNotRewindTheHighWaterMark) {
  // [10,20] and [30,40] are nested inside [0,100]: the pair is never
  // actually out of contact, so both gaps are zero. The pre-fix code
  // overwrote previous_end with 20 and reported a phantom 10 s gap.
  TemporalGraph g(2, {{0, 1, 0.0, 100.0},
                      {0, 1, 10.0, 20.0},
                      {0, 1, 30.0, 40.0}});
  const auto gaps = pair_inter_contact_times(g, 0, 1);
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_DOUBLE_EQ(gaps[0], 0.0);
  EXPECT_DOUBLE_EQ(gaps[1], 0.0);
  // And the real gap after the umbrella contact ends is measured from
  // its end, not from the last nested interval's.
  TemporalGraph g2(2, {{0, 1, 0.0, 100.0},
                       {0, 1, 10.0, 20.0},
                       {0, 1, 150.0, 160.0}});
  const auto gaps2 = pair_inter_contact_times(g2, 0, 1);
  ASSERT_EQ(gaps2.size(), 2u);
  EXPECT_DOUBLE_EQ(gaps2[0], 0.0);
  EXPECT_DOUBLE_EQ(gaps2[1], 50.0);  // 150 - 100, not 150 - 20
}

TEST(InterContactTimes, PairAndAggregateAgreeOnOverlappingTraces) {
  // Property: the multiset union of pair_inter_contact_times over all
  // pairs equals all_inter_contact_times, including on traces full of
  // nested and overlapping contacts.
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Rng rng(seed);
    const std::size_t nodes = 2 + rng.below(8);
    std::vector<Contact> contacts;
    const std::size_t count = 20 + rng.below(150);
    for (std::size_t i = 0; i < count; ++i) {
      const auto u = static_cast<NodeId>(rng.below(nodes));
      auto v = static_cast<NodeId>(rng.below(nodes - 1));
      if (v >= u) ++v;
      const double begin = rng.uniform(0.0, 300.0);
      // Heavy overlap on purpose: long umbrellas plus short bursts.
      const double length = rng.bernoulli(0.3) ? rng.uniform(50.0, 200.0)
                                               : rng.uniform(0.0, 10.0);
      contacts.push_back({u, v, begin, begin + length});
    }
    TemporalGraph g(nodes, std::move(contacts));
    std::vector<double> from_pairs;
    for (NodeId u = 0; u < g.num_nodes(); ++u)
      for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
        const auto gaps = pair_inter_contact_times(g, u, v);
        from_pairs.insert(from_pairs.end(), gaps.begin(), gaps.end());
      }
    auto aggregate = all_inter_contact_times(g);
    std::sort(from_pairs.begin(), from_pairs.end());
    std::sort(aggregate.begin(), aggregate.end());
    EXPECT_EQ(from_pairs, aggregate) << "seed " << seed;
  }
}

TEST(InterContactTimes, DirectedPairCountsBothDirections) {
  // A directed graph still meets the pair in both directions: u -> v
  // and v -> u contacts are one pair's contact process.
  TemporalGraph g(3, {{0, 1, 0.0, 10.0},
                      {1, 0, 30.0, 40.0},
                      {0, 2, 45.0, 46.0},
                      {0, 1, 100.0, 101.0}},
                  /*directed=*/true);
  const auto gaps = pair_inter_contact_times(g, 0, 1);
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_DOUBLE_EQ(gaps[0], 20.0);
  EXPECT_DOUBLE_EQ(gaps[1], 60.0);
  EXPECT_EQ(pair_inter_contact_times(g, 1, 0), gaps);
}

TEST(InterContactTimes, SingleContactPairHasNoGap) {
  TemporalGraph g(3, {{0, 1, 0.0, 1.0}, {1, 2, 2.0, 3.0}});
  EXPECT_TRUE(pair_inter_contact_times(g, 0, 1).empty());
}

TEST(InterContactTimes, BadPairThrows) {
  TemporalGraph g(2, {});
  EXPECT_THROW(pair_inter_contact_times(g, 0, 0), std::invalid_argument);
  EXPECT_THROW(pair_inter_contact_times(g, 0, 9), std::invalid_argument);
}

TEST(InterContactTimes, AggregationMatchesPerPairUnion) {
  TemporalGraph g(3, {{0, 1, 0.0, 1.0},
                      {0, 1, 5.0, 6.0},
                      {1, 2, 2.0, 3.0},
                      {1, 2, 10.0, 11.0},
                      {0, 2, 4.0, 5.0}});
  auto all = all_inter_contact_times(g);
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), 2u);  // one gap per multi-contact pair
  EXPECT_DOUBLE_EQ(all[0], 4.0);  // (0,1): 5 - 1
  EXPECT_DOUBLE_EQ(all[1], 7.0);  // (1,2): 10 - 3
}

TEST(InterContactTimes, ExponentialProcessHasExponentialGaps) {
  // For Poisson pairwise contacts, gaps are exponential: mean == stddev
  // (CV ~ 1) and the Hill tail exponent is large (light tail).
  Rng rng(8);
  ContactProcessOptions options;
  const auto g = make_contact_process_graph(20, 4.0, 2000.0, options, rng);
  const auto summary = summarize_inter_contact(g);
  ASSERT_GT(summary.count, 1000u);
  // Exponential: median = ln(2) * mean.
  EXPECT_NEAR(summary.median / summary.mean, 0.693, 0.08);
  EXPECT_GT(summary.tail_exponent, 2.0);  // light tail
}

TEST(InterContactTimes, HeavyTailedProcessHasSmallTailExponent) {
  Rng rng(9);
  ContactProcessOptions heavy;
  heavy.renewal.law = InterContactLaw::kBoundedPareto;
  heavy.renewal.pareto_alpha = 1.2;
  heavy.renewal.pareto_cap_factor = 1000.0;
  const auto g = make_contact_process_graph(20, 4.0, 2000.0, heavy, rng);
  const auto summary = summarize_inter_contact(g);
  ASSERT_GT(summary.count, 500u);
  Rng rng2(8);
  ContactProcessOptions light;
  const auto g2 = make_contact_process_graph(20, 4.0, 2000.0, light, rng2);
  EXPECT_LT(summary.tail_exponent,
            summarize_inter_contact(g2).tail_exponent);
  // Heavy tail: median far below the mean.
  EXPECT_LT(summary.median, 0.5 * summary.mean);
}

TEST(InterContactTimes, SummaryOnEmptyTrace) {
  TemporalGraph g(3, {});
  const auto summary = summarize_inter_contact(g);
  EXPECT_EQ(summary.count, 0u);
  EXPECT_THROW(summarize_inter_contact(g, 0.0), std::invalid_argument);
}

TEST(InterContactTimes, SyntheticConferenceHasDiurnalGaps) {
  // Conference traces should show a bimodal-ish gap structure: short
  // day-time gaps plus overnight gaps near 15-24 hours. At minimum the
  // p90 must exceed an hour while the median stays small.
  SyntheticTraceSpec spec;
  spec.num_internal = 20;
  spec.duration = 3 * kDay;
  spec.pair_contacts_mean = 2.0;
  spec.gatherings = {150.0, 0.4, 0.08, 10 * kMinute, 0.9, 0.1};
  spec.profile = ActivityProfile::conference();
  const auto trace = generate_trace(spec, 77);
  const auto summary = summarize_inter_contact(trace.graph);
  ASSERT_GT(summary.count, 100u);
  EXPECT_LT(summary.median, 6 * kHour);
  EXPECT_GT(summary.p90, kHour);
}

}  // namespace
}  // namespace odtn
