// Property-based cross-checks of the Pareto-pair engine against two
// independent implementations: direct flooding at sampled start times,
// and the flooding-per-boundary baseline (the paper's comparator [8]).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/optimal_paths.hpp"
#include "random/contact_process.hpp"
#include "random/random_temporal_network.hpp"
#include "sim/flooding.hpp"
#include "trace/wlan_generator.hpp"
#include "util/rng.hpp"

namespace odtn {
namespace {

/// del(t) sampled at every contact boundary, from one source: the
/// flooding-per-boundary comparator of paper §4.4 (Zhang et al. [8]). A
/// probe "packet" is created at every contact boundary and flooded; del
/// only changes at contact ends, so this is the complete set of values
/// the delivery function takes -- at the cost of one full flooding pass
/// per boundary, the work the (LD, EA) representation avoids.
struct SampledProfiles {
  /// Sorted distinct sample times: trace start plus all contact begins
  /// and ends.
  std::vector<double> times;
  /// arrival[v][i] = optimal delivery time at node v of a message
  /// created at the source at times[i]; +infinity when unreachable.
  std::vector<std::vector<double>> arrival;
};

/// Floods from every boundary time with at most `max_hops` contacts.
SampledProfiles profiles_by_flooding(const TemporalGraph& graph,
                                     NodeId source, int max_hops = 64) {
  SampledProfiles out;
  out.times.reserve(2 * graph.num_contacts() + 1);
  out.times.push_back(graph.start_time());
  for (const Contact& c : graph.contacts()) {
    out.times.push_back(c.begin);
    out.times.push_back(c.end);
  }
  std::sort(out.times.begin(), out.times.end());
  out.times.erase(std::unique(out.times.begin(), out.times.end()),
                  out.times.end());

  out.arrival.assign(graph.num_nodes(),
                     std::vector<double>(out.times.size()));
  for (std::size_t i = 0; i < out.times.size(); ++i) {
    const FloodingResult fr = flood(graph, source, out.times[i], max_hops);
    for (NodeId v = 0; v < graph.num_nodes(); ++v)
      out.arrival[v][i] = fr.arrival_with_hops(v, max_hops);
  }
  return out;
}

/// Random trace with overlapping contacts, zero-duration contacts, and
/// boundary coincidences (integer-ish times), to stress edge cases.
/// `time_shift` moves every timestamp (negative shifts exercise the
/// all-negative-time regime of epoch-shifted imports).
TemporalGraph random_trace(Rng& rng, std::size_t nodes,
                           std::size_t num_contacts, double horizon,
                           bool directed = false, double time_shift = 0.0) {
  std::vector<Contact> contacts;
  contacts.reserve(num_contacts);
  for (std::size_t i = 0; i < num_contacts; ++i) {
    const auto u = static_cast<NodeId>(rng.below(nodes));
    auto v = static_cast<NodeId>(rng.below(nodes - 1));
    if (v >= u) ++v;
    // Quantize to integers so begin/end coincidences are common.
    const double begin = std::floor(rng.uniform(0.0, horizon)) + time_shift;
    const double extra =
        rng.bernoulli(0.2) ? 0.0 : std::floor(rng.uniform(1.0, horizon / 4));
    contacts.push_back({u, v, begin, begin + extra});
  }
  return TemporalGraph(nodes, std::move(contacts), directed);
}

/// Steps the pooled engine and the level-sweep oracle side by side
/// and requires identical frontiers at EVERY hop level, plus agreement
/// with flood() arrivals at sampled start times at every hop budget.
void expect_modes_and_flooding_agree(const TemporalGraph& g, NodeId src,
                                     Rng& rng, double t_lo, double t_hi) {
  SingleSourceEngine pooled(g, src, EngineMode::kPooled);
  SingleSourceEngine sweep(g, src, EngineMode::kLevelSweep);
  for (int hops = 1; hops <= 64; ++hops) {
    const bool pooled_grew = pooled.step();
    const bool sweep_grew = sweep.step();
    ASSERT_EQ(pooled_grew, sweep_grew) << "src=" << src << " hops=" << hops;
    ASSERT_EQ(pooled.hops(), sweep.hops());
    for (NodeId dst = 0; dst < g.num_nodes(); ++dst) {
      ASSERT_EQ(pooled.frontier(dst), sweep.frontier(dst))
          << "src=" << src << " dst=" << dst << " hops=" << hops;
    }
    for (int q = 0; q < 10; ++q) {
      const double t0 = rng.uniform(t_lo, t_hi);
      const FloodingResult fr = flood(g, src, t0, pooled.hops());
      for (NodeId dst = 0; dst < g.num_nodes(); ++dst) {
        ASSERT_EQ(pooled.frontier(dst).deliver_at(t0),
                  fr.arrival_with_hops(dst, pooled.hops()))
            << "src=" << src << " dst=" << dst << " t0=" << t0
            << " hops=" << pooled.hops();
      }
    }
    if (!pooled_grew) break;
  }
  ASSERT_TRUE(pooled.at_fixpoint());
  ASSERT_TRUE(sweep.at_fixpoint());
}

struct CrosscheckParam {
  std::uint64_t seed;
  std::size_t nodes;
  std::size_t contacts;
};

class EngineCrosscheck : public ::testing::TestWithParam<CrosscheckParam> {};

TEST_P(EngineCrosscheck, MatchesFloodingAtSampledTimes) {
  const auto param = GetParam();
  Rng rng(param.seed);
  const TemporalGraph g =
      random_trace(rng, param.nodes, param.contacts, 100.0);

  for (NodeId src = 0; src < std::min<std::size_t>(g.num_nodes(), 4); ++src) {
    SingleSourceEngine engine(g, src);
    for (int hops = 1; hops <= 6; ++hops) {
      engine.step();
      // Compare del(t0) for random and boundary start times.
      for (int q = 0; q < 40; ++q) {
        double t0;
        if (q % 3 == 0 && g.num_contacts() > 0) {
          const Contact& c = g.contacts()[rng.below(g.num_contacts())];
          t0 = (q % 2 == 0) ? c.begin : c.end;
        } else {
          t0 = rng.uniform(-5.0, 110.0);
        }
        const FloodingResult fr = flood(g, src, t0, hops);
        for (NodeId dst = 0; dst < g.num_nodes(); ++dst) {
          ASSERT_EQ(engine.frontier(dst).deliver_at(t0),
                    fr.arrival_with_hops(dst, hops))
              << "src=" << src << " dst=" << dst << " t0=" << t0
              << " hops=" << hops;
        }
      }
    }
  }
}

TEST_P(EngineCrosscheck, MatchesFloodingPerBoundaryBaseline) {
  const auto param = GetParam();
  Rng rng(param.seed ^ 0x5A5A5A5A);
  const TemporalGraph g =
      random_trace(rng, param.nodes, param.contacts, 60.0);

  const NodeId src = 0;
  SingleSourceEngine engine(g, src);
  engine.run_to_fixpoint();
  const SampledProfiles baseline = profiles_by_flooding(g, src);
  for (NodeId dst = 0; dst < g.num_nodes(); ++dst) {
    for (std::size_t i = 0; i < baseline.times.size(); ++i) {
      ASSERT_EQ(engine.frontier(dst).deliver_at(baseline.times[i]),
                baseline.arrival[dst][i])
          << "dst=" << dst << " t0=" << baseline.times[i];
    }
  }
}

TEST_P(EngineCrosscheck, UnboundedEqualsLargeHopFlooding) {
  const auto param = GetParam();
  Rng rng(param.seed ^ 0x1234);
  const TemporalGraph g =
      random_trace(rng, param.nodes, param.contacts, 80.0);
  SingleSourceEngine engine(g, 0);
  const int fixpoint = engine.run_to_fixpoint();
  EXPECT_LE(fixpoint, 64);
  for (int q = 0; q < 25; ++q) {
    const double t0 = rng.uniform(0.0, 90.0);
    const FloodingResult fr = flood(g, 0, t0);
    for (NodeId dst = 0; dst < g.num_nodes(); ++dst)
      ASSERT_EQ(engine.frontier(dst).deliver_at(t0), fr.best_arrival(dst));
  }
}

TEST_P(EngineCrosscheck, PooledMatchesLevelSweepUndirected) {
  const auto param = GetParam();
  Rng rng(param.seed ^ 0xD1EDC0DE);
  const TemporalGraph g =
      random_trace(rng, param.nodes, param.contacts, 100.0);
  for (NodeId src = 0; src < std::min<std::size_t>(g.num_nodes(), 3); ++src)
    expect_modes_and_flooding_agree(g, src, rng, -5.0, 110.0);
}

TEST_P(EngineCrosscheck, PooledMatchesLevelSweepDirected) {
  const auto param = GetParam();
  Rng rng(param.seed ^ 0xD1AEC7ED);
  const TemporalGraph g = random_trace(rng, param.nodes, param.contacts,
                                       100.0, /*directed=*/true);
  for (NodeId src = 0; src < std::min<std::size_t>(g.num_nodes(), 3); ++src)
    expect_modes_and_flooding_agree(g, src, rng, -5.0, 110.0);
}

TEST_P(EngineCrosscheck, PooledMatchesLevelSweepNegativeTimes) {
  const auto param = GetParam();
  Rng rng(param.seed ^ 0x4E6A71E5);
  // All timestamps strictly negative (epoch-shifted import regime).
  const TemporalGraph g =
      random_trace(rng, param.nodes, param.contacts, 100.0,
                   /*directed=*/false, /*time_shift=*/-1000.0);
  ASSERT_LT(g.end_time(), 0.0);
  for (NodeId src = 0; src < std::min<std::size_t>(g.num_nodes(), 3); ++src)
    expect_modes_and_flooding_agree(g, src, rng, -1005.0, -890.0);
}

TEST_P(EngineCrosscheck, DirectedNegativeTimeMatchesFlooding) {
  const auto param = GetParam();
  Rng rng(param.seed ^ 0xBADCAFE);
  const TemporalGraph g =
      random_trace(rng, param.nodes, param.contacts, 100.0,
                   /*directed=*/true, /*time_shift=*/-500.0);
  for (NodeId src = 0; src < std::min<std::size_t>(g.num_nodes(), 3); ++src)
    expect_modes_and_flooding_agree(g, src, rng, -505.0, -390.0);
}

INSTANTIATE_TEST_SUITE_P(
    RandomTraces, EngineCrosscheck,
    ::testing::Values(CrosscheckParam{1, 5, 15}, CrosscheckParam{2, 8, 40},
                      CrosscheckParam{3, 10, 80}, CrosscheckParam{4, 6, 25},
                      CrosscheckParam{5, 12, 120}, CrosscheckParam{6, 4, 60},
                      CrosscheckParam{7, 15, 150},
                      CrosscheckParam{8, 10, 10}));

// The engine must agree with flooding on every renewal-law substrate
// (deterministic gaps produce many exactly-coincident timestamps, the
// heavy-tailed law produces extreme gap ratios).
class EngineCrosscheckRenewal
    : public ::testing::TestWithParam<InterContactLaw> {};

TEST_P(EngineCrosscheckRenewal, MatchesFloodingOnRenewalGraphs) {
  Rng rng(0xC0FFEE);
  ContactProcessOptions options;
  options.renewal.law = GetParam();
  const TemporalGraph g =
      make_contact_process_graph(10, 1.2, 60.0, options, rng);
  SingleSourceEngine engine(g, 0);
  engine.run_to_fixpoint();
  for (int q = 0; q < 25; ++q) {
    const double t0 = rng.uniform(0.0, 70.0);
    const FloodingResult fr = flood(g, 0, t0);
    for (NodeId dst = 0; dst < g.num_nodes(); ++dst)
      ASSERT_EQ(engine.frontier(dst).deliver_at(t0), fr.best_arrival(dst))
          << inter_contact_law_name(GetParam()) << " t0=" << t0;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Laws, EngineCrosscheckRenewal,
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

// And on WLAN association traces (long overlapping intervals).
TEST(EngineCrosscheck, WlanAssociationTrace) {
  WlanTraceSpec spec;
  spec.num_devices = 15;
  spec.num_access_points = 5;
  spec.duration = 2 * 86400.0;
  spec.sessions_per_day = 8.0;
  const auto trace = generate_wlan_trace(spec, 55);
  const auto& g = trace.graph;
  Rng rng(56);
  SingleSourceEngine engine(g, 2);
  engine.run_to_fixpoint();
  for (int q = 0; q < 20; ++q) {
    const double t0 = rng.uniform(g.start_time(), g.end_time());
    const FloodingResult fr = flood(g, 2, t0);
    for (NodeId dst = 0; dst < g.num_nodes(); ++dst)
      ASSERT_EQ(engine.frontier(dst).deliver_at(t0), fr.best_arrival(dst));
  }
}

// The engine must also agree with flooding on the *continuous-time*
// random model (zero-duration contacts).
TEST(EngineCrosscheck, ContinuousTimeModel) {
  Rng rng(99);
  const TemporalGraph g = make_continuous_random_temporal_graph(12, 1.5,
                                                                40.0, rng);
  SingleSourceEngine engine(g, 0);
  engine.run_to_fixpoint();
  for (int q = 0; q < 30; ++q) {
    const double t0 = rng.uniform(0.0, 45.0);
    const FloodingResult fr = flood(g, 0, t0);
    for (NodeId dst = 0; dst < g.num_nodes(); ++dst)
      ASSERT_EQ(engine.frontier(dst).deliver_at(t0), fr.best_arrival(dst));
  }
}

}  // namespace
}  // namespace odtn
