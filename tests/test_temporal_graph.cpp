#include "core/temporal_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.hpp"
#include "util/time_format.hpp"

namespace odtn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TemporalGraph small_graph() {
  return TemporalGraph(4, {{0, 1, 10.0, 20.0},
                           {1, 2, 15.0, 25.0},
                           {2, 3, 30.0, 40.0},
                           {0, 1, 50.0, 60.0}});
}

TEST(TemporalGraph, SortsContacts) {
  TemporalGraph g(3, {{1, 2, 5.0, 6.0}, {0, 1, 1.0, 2.0}});
  EXPECT_DOUBLE_EQ(g.contacts()[0].begin, 1.0);
  EXPECT_DOUBLE_EQ(g.contacts()[1].begin, 5.0);
}

TEST(TemporalGraph, RejectsMalformedContacts) {
  EXPECT_THROW(TemporalGraph(2, {{0, 0, 0.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(TemporalGraph(2, {{0, 1, 3.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(TemporalGraph(2, {{0, 5, 0.0, 1.0}}), std::invalid_argument);
}

TEST(TemporalGraph, EmptyGraph) {
  TemporalGraph g(5, {});
  EXPECT_EQ(g.num_contacts(), 0u);
  EXPECT_DOUBLE_EQ(g.duration(), 0.0);
  EXPECT_DOUBLE_EQ(g.contact_rate(kDay), 0.0);
  EXPECT_EQ(g.num_connected_pairs(), 0u);
}

TEST(TemporalGraph, TimeSpan) {
  const auto g = small_graph();
  EXPECT_DOUBLE_EQ(g.start_time(), 10.0);
  EXPECT_DOUBLE_EQ(g.end_time(), 60.0);
  EXPECT_DOUBLE_EQ(g.duration(), 50.0);
}

TEST(TemporalGraph, EndTimeHandlesNonMonotoneEnds) {
  // A long contact that starts first but ends last.
  TemporalGraph g(3, {{0, 1, 0.0, 100.0}, {1, 2, 10.0, 20.0}});
  EXPECT_DOUBLE_EQ(g.end_time(), 100.0);
}

TEST(TemporalGraph, ContactRateCountsBothEndpoints) {
  // 4 contacts over 50 s among 4 nodes: 8 logs / 4 nodes / 50 s.
  const auto g = small_graph();
  EXPECT_NEAR(g.contact_rate(1.0), 8.0 / 4.0 / 50.0, 1e-12);
  // Directed graphs log once.
  TemporalGraph d(4, small_graph().contacts_vector(), true);
  EXPECT_NEAR(d.contact_rate(1.0), 4.0 / 4.0 / 50.0, 1e-12);
}

TEST(TemporalGraph, NeighborsByEndOfNode) {
  const auto g = small_graph();
  EXPECT_EQ(g.neighbors_by_end(0).size(), 2u);
  EXPECT_EQ(g.neighbors_by_end(1).size(), 3u);
  EXPECT_EQ(g.neighbors_by_end(3).size(), 1u);
  EXPECT_THROW(g.neighbors_by_end(99), std::out_of_range);
  // A directed graph lists only the node's outgoing windows.
  const TemporalGraph d(4, small_graph().contacts_vector(), true);
  EXPECT_EQ(d.neighbors_by_end(0).size(), 2u);
  EXPECT_EQ(d.neighbors_by_end(1).size(), 1u);
  EXPECT_EQ(d.neighbors_by_end(3).size(), 0u);
}

TEST(TemporalGraph, NeighborsByEndIsEndOrdered) {
  const TemporalGraph g(3, {{0, 1, 0.0, 50.0},
                            {0, 2, 10.0, 20.0},
                            {1, 0, 15.0, 20.0},
                            {0, 1, 30.0, 40.0}});
  const auto run = g.neighbors_by_end(0);
  ASSERT_EQ(run.size(), 4u);
  for (std::size_t i = 1; i < run.size(); ++i) {
    EXPECT_LE(run[i - 1].end, run[i].end);
    if (run[i - 1].end == run[i].end) {
      EXPECT_LE(run[i - 1].begin, run[i].begin);
    }
  }
  EXPECT_EQ(run.back().end, 50.0);
}

TEST(TemporalGraph, NextContactTime) {
  const auto g = small_graph();
  // Before any contact: first contact of node 0 begins at 10.
  EXPECT_DOUBLE_EQ(g.next_contact_time(0, 0.0), 10.0);
  // During a contact: "now".
  EXPECT_DOUBLE_EQ(g.next_contact_time(0, 15.0), 15.0);
  // Between contacts.
  EXPECT_DOUBLE_EQ(g.next_contact_time(0, 25.0), 50.0);
  // After everything: never again.
  EXPECT_EQ(g.next_contact_time(0, 70.0), kInf);
}

/// Reference for next_contact_time: a direct scan of every contact.
double scan_next_contact(const TemporalGraph& g, NodeId node, double t) {
  double best = kInf;
  for (const Contact& c : g.contacts()) {
    const bool visible = c.u == node || (!g.directed() && c.v == node);
    if (visible && c.end >= t) best = std::min(best, std::max(c.begin, t));
  }
  return best;
}

TEST(TemporalGraph, NextContactTimeMatchesContactScan) {
  // Random directed and undirected graphs with nested and overlapping
  // windows (long umbrellas over short bursts, some instantaneous),
  // probed before the first contact, on every begin and end, between
  // them and past the trace.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::size_t nodes = 2 + rng.below(7);
    std::vector<Contact> contacts;
    const std::size_t count = rng.below(60);
    for (std::size_t i = 0; i < count; ++i) {
      const auto u = static_cast<NodeId>(rng.below(nodes));
      auto v = static_cast<NodeId>(rng.below(nodes - 1));
      if (v >= u) ++v;
      const double begin = std::floor(rng.uniform(0.0, 400.0));
      double length = std::floor(rng.uniform(0.0, 20.0));
      if (rng.bernoulli(0.3)) {
        length = rng.uniform(50.0, 300.0);  // umbrella
      } else if (rng.bernoulli(0.2)) {
        length = 0.0;  // instantaneous
      }
      contacts.push_back({u, v, begin, begin + length});
    }
    const TemporalGraph g(nodes, contacts, /*directed=*/seed % 2 == 0);
    std::vector<double> probes{-1.0, 1e6};
    for (const Contact& c : g.contacts())
      probes.insert(probes.end(), {c.begin, c.end, c.begin - 0.5, c.end + 0.5});
    for (NodeId n = 0; n < nodes; ++n)
      for (const double t : probes)
        ASSERT_EQ(g.next_contact_time(n, t), scan_next_contact(g, n, t))
            << "seed " << seed << " node " << n << " t " << t;
  }
}

TEST(TemporalGraph, ConnectedPairs) {
  const auto g = small_graph();
  EXPECT_EQ(g.num_connected_pairs(), 3u);  // (0,1), (1,2), (2,3)
}

TEST(TemporalGraph, ContactDurations) {
  const auto g = small_graph();
  const auto d = g.contact_durations();
  ASSERT_EQ(d.size(), 4u);
  EXPECT_DOUBLE_EQ(d[0], 10.0);
}

// Regression: end_time used to be seeded from 0.0 instead of the first
// contact, so an all-negative-time trace (e.g. an epoch-shifted import)
// reported end_time() == 0, inflating duration() and corrupting
// contact_rate() and the default CDF window.
TEST(TemporalGraph, AllNegativeTimesReportExactSpan) {
  TemporalGraph g(3, {{0, 1, -100.0, -90.0},
                      {1, 2, -80.0, -50.0},
                      {0, 2, -75.0, -60.0}});
  EXPECT_DOUBLE_EQ(g.start_time(), -100.0);
  EXPECT_DOUBLE_EQ(g.end_time(), -50.0);
  EXPECT_DOUBLE_EQ(g.duration(), 50.0);
  // 3 contacts, both endpoints logging, 3 nodes, 50 s span.
  EXPECT_DOUBLE_EQ(g.contact_rate(50.0), 2.0);
}

TEST(TemporalGraph, NegativeSpanInvariantUnderTimeShift) {
  const std::vector<Contact> base{{0, 1, 10.0, 20.0}, {1, 2, 15.0, 45.0}};
  const TemporalGraph g(3, base);
  std::vector<Contact> shifted = base;
  for (Contact& c : shifted) {
    c.begin -= 1e6;
    c.end -= 1e6;
  }
  const TemporalGraph h(3, shifted);
  EXPECT_DOUBLE_EQ(h.duration(), g.duration());
  EXPECT_DOUBLE_EQ(h.contact_rate(1.0), g.contact_rate(1.0));
}

}  // namespace
}  // namespace odtn
