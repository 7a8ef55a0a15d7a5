#include "core/journeys.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/optimal_paths.hpp"
#include "sim/flooding.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"
#include "util/time_format.hpp"

namespace odtn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Journeys, SourceIsTrivial) {
  TemporalGraph g(2, {{0, 1, 0.0, 1.0}});
  const auto j = compute_journeys(g, 0);
  EXPECT_EQ(j[0].shortest_hops, 0);
  EXPECT_DOUBLE_EQ(j[0].fastest_duration, 0.0);
}

TEST(Journeys, UnreachableDestination) {
  TemporalGraph g(3, {{0, 1, 0.0, 1.0}});
  const auto j = compute_journeys(g, 0);
  EXPECT_FALSE(j[2].reachable());
  EXPECT_EQ(j[2].shortest_hops, -1);
  EXPECT_EQ(j[2].fastest_duration, kInf);
}

TEST(Journeys, ForemostFastestShortestDisagree) {
  // Three different routes 0 -> 3, each optimal for a different notion:
  //  - relay chain early:    dep 0,  arr 10  (foremost from t=0)
  //  - overlapping mid-day:  dep 50, arr 50  (fastest: duration 0)
  //  - late direct contact:  dep 90, arr 90..91 (shortest: 1 hop)
  TemporalGraph g(4, {{0, 1, 0.0, 1.0},
                      {1, 2, 5.0, 6.0},
                      {2, 3, 10.0, 11.0},
                      {0, 2, 45.0, 55.0},
                      {2, 3, 48.0, 52.0},
                      {0, 3, 90.0, 91.0}});
  const auto j = compute_journeys(g, 0);
  EXPECT_EQ(j[3].shortest_hops, 1);  // the late direct contact
  EXPECT_DOUBLE_EQ(j[3].fastest_duration, 0.0);  // the overlapping window
  EXPECT_GE(j[3].fastest_departure, 48.0);
  EXPECT_LE(j[3].fastest_departure, 52.0);
  SingleSourceEngine engine(g, 0);
  engine.run_to_fixpoint();
  EXPECT_DOUBLE_EQ(engine.frontier_view(3).deliver_at(0.0), 10.0);  // chain
}

TEST(Journeys, FastestDurationOfStoreAndForward) {
  TemporalGraph g(3, {{0, 1, 0.0, 2.0}, {1, 2, 5.0, 7.0}});
  const auto j = compute_journeys(g, 0);
  // Depart at 2 (last moment), arrive at 5: duration 3.
  EXPECT_DOUBLE_EQ(j[2].fastest_duration, 3.0);
  EXPECT_DOUBLE_EQ(j[2].fastest_departure, 2.0);
  EXPECT_EQ(j[2].shortest_hops, 2);
}

TEST(Journeys, ShortestHopsMatchesFirstReachableLevel) {
  TemporalGraph g(4, {{0, 1, 0.0, 1.0}, {1, 2, 2.0, 3.0}, {2, 3, 4.0, 5.0}});
  const auto j = compute_journeys(g, 0);
  EXPECT_EQ(j[1].shortest_hops, 1);
  EXPECT_EQ(j[2].shortest_hops, 2);
  EXPECT_EQ(j[3].shortest_hops, 3);
}

TEST(Journeys, ForemostMatchesFloodingOracle) {
  SyntheticTraceSpec spec;
  spec.num_internal = 12;
  spec.duration = kDay;
  spec.pair_contacts_mean = 2.0;
  const auto g = generate_trace(spec, 3).graph;
  Rng rng(4);
  for (int q = 0; q < 20; ++q) {
    const auto src = static_cast<NodeId>(rng.below(g.num_nodes()));
    const double t0 = rng.uniform(g.start_time(), g.end_time());
    const auto fr = flood(g, src, t0);
    SingleSourceEngine engine(g, src);
    engine.run_to_fixpoint();
    for (NodeId dst = 0; dst < g.num_nodes(); ++dst)
      ASSERT_EQ(engine.frontier_view(dst).deliver_at(t0),
                fr.best_arrival(dst));
  }
}

TEST(Journeys, FastestNeverExceedsForemostDelay) {
  // The fastest journey's duration lower-bounds every journey's
  // duration, in particular the foremost one's.
  SyntheticTraceSpec spec;
  spec.num_internal = 14;
  spec.duration = kDay;
  spec.pair_contacts_mean = 1.5;
  spec.gatherings = {30.0, 0.4, 0.1, 10 * kMinute, 0.8, 0.1};
  const auto g = generate_trace(spec, 9).graph;
  const auto journeys = compute_journeys(g, 0);
  SingleSourceEngine engine(g, 0);
  engine.run_to_fixpoint();
  Rng rng(10);
  for (NodeId dst = 1; dst < g.num_nodes(); ++dst) {
    for (int q = 0; q < 10; ++q) {
      const double t0 = rng.uniform(g.start_time(), g.end_time());
      const double arrival = engine.frontier(dst).deliver_at(t0);
      if (arrival == kInf) continue;
      ASSERT_LE(journeys[dst].fastest_duration, arrival - t0 + 1e-9);
    }
  }
}

TEST(Journeys, ShortestHopsLowerBoundsEveryRouteLength) {
  SyntheticTraceSpec spec;
  spec.num_internal = 10;
  spec.duration = kDay;
  spec.pair_contacts_mean = 2.0;
  const auto g = generate_trace(spec, 21).graph;
  const auto journeys = compute_journeys(g, 0);
  Rng rng(22);
  for (int q = 0; q < 15; ++q) {
    const double t0 = rng.uniform(g.start_time(), g.end_time());
    const auto fr = flood(g, 0, t0);
    for (NodeId dst = 1; dst < g.num_nodes(); ++dst) {
      const int hops = fr.optimal_hops(dst);
      if (hops < 0) continue;
      ASSERT_LE(journeys[dst].shortest_hops, hops);
    }
  }
}

}  // namespace
}  // namespace odtn
