#include "random/contact_process.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "random/random_temporal_network.hpp"
#include "stats/summary.hpp"
#include "util/rng.hpp"
#include "util/time_format.hpp"

namespace odtn {
namespace {

class InterContactLaws
    : public ::testing::TestWithParam<InterContactLaw> {};

TEST_P(InterContactLaws, MeanMatchesAcrossLaws) {
  Rng rng(11);
  RenewalConfig config;
  config.law = GetParam();
  for (double mean : {1.0, 50.0}) {
    SummaryStats stats;
    for (int i = 0; i < 40000; ++i)
      stats.add(sample_inter_contact(rng, config, mean));
    EXPECT_NEAR(stats.mean(), mean,
                std::max(6.0 * stats.stderr_mean(), 1e-9 * mean))
        << inter_contact_law_name(GetParam()) << " mean=" << mean;
    EXPECT_GE(stats.min(), 0.0);
  }
}

TEST_P(InterContactLaws, EmpiricalCvMatchesAnalytic) {
  Rng rng(13);
  RenewalConfig config;
  config.law = GetParam();
  SummaryStats stats;
  for (int i = 0; i < 60000; ++i)
    stats.add(sample_inter_contact(rng, config, 1.0));
  const double empirical_cv = stats.stddev() / stats.mean();
  EXPECT_NEAR(empirical_cv, inter_contact_cv(config),
              0.05 * std::max(1.0, inter_contact_cv(config)))
      << inter_contact_law_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllLaws, InterContactLaws,
    ::testing::Values(InterContactLaw::kExponential,
                      InterContactLaw::kDeterministic,
                      InterContactLaw::kUniform,
                      InterContactLaw::kHyperExponential,
                      InterContactLaw::kBoundedPareto),
    [](const auto& param_info) {
      std::string name = inter_contact_law_name(param_info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST(InterContact, CvOrdering) {
  RenewalConfig hyper;
  hyper.law = InterContactLaw::kHyperExponential;
  hyper.hyper_cv = 4.0;
  RenewalConfig pareto;
  pareto.law = InterContactLaw::kBoundedPareto;
  EXPECT_DOUBLE_EQ(inter_contact_cv({InterContactLaw::kDeterministic}), 0.0);
  EXPECT_LT(inter_contact_cv({InterContactLaw::kUniform}), 1.0);
  EXPECT_DOUBLE_EQ(inter_contact_cv({InterContactLaw::kExponential}), 1.0);
  EXPECT_NEAR(inter_contact_cv(hyper), 4.0, 1e-9);
  EXPECT_GT(inter_contact_cv(pareto), 1.0);  // heavy tail
}

TEST(InterContact, LawNamesAreDistinct) {
  EXPECT_STRNE(inter_contact_law_name(InterContactLaw::kExponential),
               inter_contact_law_name(InterContactLaw::kBoundedPareto));
}

TEST(ContactProcessGraph, ExponentialMatchesBaseModel) {
  // With exponential gaps and no heterogeneity/profile, the process is
  // the continuous-time model of Section 3.1.2: check contact volume.
  Rng rng(17);
  ContactProcessOptions options;
  const std::size_t n = 40;
  const double lambda = 1.5, duration = 300.0;
  const auto g =
      make_contact_process_graph(n, lambda, duration, options, rng);
  const double expected = duration * lambda / n * num_pairs(n);
  EXPECT_NEAR(static_cast<double>(g.num_contacts()), expected,
              6.0 * std::sqrt(expected));
  for (const Contact& c : g.contacts()) {
    EXPECT_DOUBLE_EQ(c.duration(), 0.0);
    EXPECT_GE(c.begin, 0.0);
    EXPECT_LE(c.begin, duration);
  }
}

TEST(ContactProcessGraph, DeterministicGapsAreRegular) {
  Rng rng(19);
  ContactProcessOptions options;
  options.renewal.law = InterContactLaw::kDeterministic;
  const auto g = make_contact_process_graph(4, 1.0, 100.0, options, rng);
  // Each pair's events are spaced by exactly its mean (n/lambda = 4).
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = u + 1; v < 4; ++v) {
      double prev = -1.0;
      for (const Contact& c : g.contacts()) {
        if (std::min(c.u, c.v) != u || std::max(c.u, c.v) != v) continue;
        if (prev >= 0.0) {
          EXPECT_NEAR(c.begin - prev, 4.0, 1e-9);
        }
        prev = c.begin;
      }
    }
  }
}

TEST(ContactProcessGraph, HeterogeneityPreservesTotalVolume) {
  Rng rng(23);
  ContactProcessOptions homogeneous;
  ContactProcessOptions heterogeneous;
  heterogeneous.node_weight_sigma = 1.0;
  const std::size_t n = 60;
  const auto a = make_contact_process_graph(n, 2.0, 400.0, homogeneous, rng);
  const auto b =
      make_contact_process_graph(n, 2.0, 400.0, heterogeneous, rng);
  // Unit-mean weights keep the expected volume; heterogeneity widens the
  // per-node spread.
  EXPECT_NEAR(static_cast<double>(b.num_contacts()),
              static_cast<double>(a.num_contacts()),
              0.35 * static_cast<double>(a.num_contacts()));
  SummaryStats spread_a, spread_b;
  for (NodeId v = 0; v < n; ++v) {
    spread_a.add(static_cast<double>(a.neighbors_by_end(v).size()));
    spread_b.add(static_cast<double>(b.neighbors_by_end(v).size()));
  }
  EXPECT_GT(spread_b.stddev(), 2.0 * spread_a.stddev());
}

TEST(ContactProcessGraph, ProfileGatesContactsInTime) {
  Rng rng(29);
  const auto profile = ActivityProfile::conference();
  ContactProcessOptions options;
  options.profile = &profile;
  const auto g =
      make_contact_process_graph(30, 3.0, 2 * kDay, options, rng);
  std::size_t day = 0, night = 0;
  for (const Contact& c : g.contacts()) {
    const double hour = std::fmod(c.begin, kDay) / kHour;
    if (hour >= 9 && hour < 18) ++day;
    if (hour < 6) ++night;
  }
  EXPECT_GT(day, 20 * std::max<std::size_t>(night, 1));
}

TEST(ContactProcessGraph, InvalidArgumentsThrow) {
  Rng rng(31);
  ContactProcessOptions options;
  EXPECT_THROW(make_contact_process_graph(1, 1.0, 10.0, options, rng),
               std::invalid_argument);
  EXPECT_THROW(make_contact_process_graph(5, 0.0, 10.0, options, rng),
               std::invalid_argument);
  EXPECT_THROW(make_contact_process_graph(5, 1.0, -1.0, options, rng),
               std::invalid_argument);
  EXPECT_THROW(sample_inter_contact(rng, RenewalConfig{}, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace odtn
