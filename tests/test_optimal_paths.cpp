// Tests of the hop-indexed optimal-path engine on hand-built temporal
// graphs with known answers.
#include "core/optimal_paths.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace odtn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ExtendFrontier, IdentityThroughContactGivesContactPair) {
  DeliveryFunction identity;
  identity.insert({kInf, -kInf});
  DeliveryFunction out;
  EXPECT_TRUE(extend_frontier(identity, 3.0, 8.0, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out.to_pairs()[0].ld, 8.0);
  EXPECT_DOUBLE_EQ(out.to_pairs()[0].ea, 3.0);
}

TEST(ExtendFrontier, RespectsConcatenationCondition) {
  DeliveryFunction from;
  from.insert({5.0, 4.0});  // arrives earliest at 4
  DeliveryFunction out;
  // Contact ends at 3 < EA(4): concatenation impossible.
  EXPECT_FALSE(extend_frontier(from, 1.0, 3.0, out));
  EXPECT_TRUE(out.empty());
}

TEST(ExtendFrontier, ComposesMinMax) {
  DeliveryFunction from;
  from.insert({5.0, 3.0});
  DeliveryFunction out;
  ASSERT_TRUE(extend_frontier(from, 7.0, 9.0, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out.to_pairs()[0].ld, 5.0);  // min(5, 9)
  EXPECT_DOUBLE_EQ(out.to_pairs()[0].ea, 7.0);  // max(3, 7)
}

TEST(ExtendFrontier, ManyPairsKeepsOnlyUseful) {
  DeliveryFunction from;
  from.insert({5.0, 1.0});
  from.insert({10.0, 7.0});
  from.insert({20.0, 15.0});
  from.insert({30.0, 25.0});
  DeliveryFunction out;
  // Contact [8, 18]: usable by pairs with EA <= 18 (first three).
  ASSERT_TRUE(extend_frontier(from, 8.0, 18.0, out));
  // Candidates: (min(5,18), max(1,8))  = (5, 8)
  //             (min(10,18), max(7,8)) = (10, 8)  -- dominates (5, 8)
  //             (min(20,18), 15)       = (18, 15)
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out.to_pairs()[0].ld, 10.0);
  EXPECT_DOUBLE_EQ(out.to_pairs()[0].ea, 8.0);
  EXPECT_DOUBLE_EQ(out.to_pairs()[1].ld, 18.0);
  EXPECT_DOUBLE_EQ(out.to_pairs()[1].ea, 15.0);
}

TEST(Engine, DirectContactAtLevelOne) {
  TemporalGraph g(3, {{0, 1, 2.0, 5.0}});
  SingleSourceEngine e(g, 0);
  EXPECT_EQ(e.hops(), 0);
  EXPECT_TRUE(e.frontier(1).empty());
  EXPECT_TRUE(e.step());
  EXPECT_EQ(e.hops(), 1);
  ASSERT_EQ(e.frontier(1).size(), 1u);
  EXPECT_DOUBLE_EQ(e.frontier(1).to_pairs()[0].ld, 5.0);
  EXPECT_DOUBLE_EQ(e.frontier(1).to_pairs()[0].ea, 2.0);
  EXPECT_TRUE(e.frontier(2).empty());  // two hops away
}

TEST(Engine, UndirectedContactsWorkBothWays) {
  TemporalGraph g(2, {{1, 0, 2.0, 5.0}});
  SingleSourceEngine e(g, 0);
  e.step();
  EXPECT_FALSE(e.frontier(1).empty());
}

TEST(Engine, DirectedContactsOneWayOnly) {
  TemporalGraph g(2, {{1, 0, 2.0, 5.0}}, /*directed=*/true);
  SingleSourceEngine e(g, 0);
  e.run_to_fixpoint();
  EXPECT_TRUE(e.frontier(1).empty());  // contact points 1 -> 0 only
  SingleSourceEngine r(g, 1);
  r.run_to_fixpoint();
  EXPECT_FALSE(r.frontier(0).empty());
}

TEST(Engine, TwoHopStoreAndForward) {
  // 0 meets 1 during [0, 2]; later 1 meets 2 during [4, 6].
  TemporalGraph g(3, {{0, 1, 0.0, 2.0}, {1, 2, 4.0, 6.0}});
  SingleSourceEngine e(g, 0);
  e.step();
  EXPECT_TRUE(e.frontier(2).empty());
  e.step();
  ASSERT_EQ(e.frontier(2).size(), 1u);
  EXPECT_DOUBLE_EQ(e.frontier(2).to_pairs()[0].ld, 2.0);
  EXPECT_DOUBLE_EQ(e.frontier(2).to_pairs()[0].ea, 4.0);
  // Message created at 1 is delivered at 4; at 3 it is too late.
  EXPECT_DOUBLE_EQ(e.frontier(2).deliver_at(1.0), 4.0);
  EXPECT_EQ(e.frontier(2).deliver_at(3.0), kInf);
}

TEST(Engine, ContemporaneousChainNeedsMultipleLevelsButWorks) {
  // Overlapping contacts 0-1 [0,10], 1-2 [0,10], 2-3 [0,10]: a message
  // can cross all three instantly (long-contact case), using 3 hops.
  TemporalGraph g(4, {{0, 1, 0.0, 10.0}, {1, 2, 0.0, 10.0}, {2, 3, 0.0, 10.0}});
  SingleSourceEngine e(g, 0);
  e.step();
  EXPECT_TRUE(e.frontier(3).empty());
  e.step();
  EXPECT_TRUE(e.frontier(3).empty());
  e.step();
  ASSERT_FALSE(e.frontier(3).empty());
  EXPECT_DOUBLE_EQ(e.frontier(3).deliver_at(5.0), 5.0);  // instantaneous
  EXPECT_DOUBLE_EQ(e.frontier(3).to_pairs()[0].ld, 10.0);
  EXPECT_DOUBLE_EQ(e.frontier(3).to_pairs()[0].ea, 0.0);
}

TEST(Engine, BackwardInTimeRelayRejected) {
  // 1 meets 2 BEFORE 0 meets 1: no time-respecting path 0 -> 2.
  TemporalGraph g(3, {{1, 2, 0.0, 1.0}, {0, 1, 4.0, 6.0}});
  SingleSourceEngine e(g, 0);
  e.run_to_fixpoint();
  EXPECT_TRUE(e.frontier(2).empty());
}

TEST(Engine, FixpointDetected) {
  TemporalGraph g(3, {{0, 1, 0.0, 2.0}, {1, 2, 4.0, 6.0}});
  SingleSourceEngine e(g, 0);
  const int fixpoint = e.run_to_fixpoint();
  EXPECT_EQ(fixpoint, 2);  // nothing improves beyond 2 hops
  EXPECT_TRUE(e.at_fixpoint());
  EXPECT_FALSE(e.step());  // further steps are no-ops
}

TEST(Engine, ExtraHopsImproveDelayNotOnlyReachability) {
  // Direct contact 0-2 late at [10, 11]; relay route via 1 much earlier.
  TemporalGraph g(3, {{0, 2, 10.0, 11.0}, {0, 1, 0.0, 1.0}, {1, 2, 2.0, 3.0}});
  SingleSourceEngine e(g, 0);
  e.step();
  // One hop: only the late direct contact.
  EXPECT_DOUBLE_EQ(e.frontier(2).deliver_at(0.0), 10.0);
  e.step();
  // Two hops: the relay route delivers at 2.
  EXPECT_DOUBLE_EQ(e.frontier(2).deliver_at(0.0), 2.0);
  // But the direct pair must STILL be present (departing later than the
  // relay route allows): it serves start times in (1, 11].
  EXPECT_DOUBLE_EQ(e.frontier(2).deliver_at(5.0), 10.0);
  EXPECT_EQ(e.frontier(2).size(), 2u);
}

TEST(Engine, FrontiersGrowMonotonicallyWithHops) {
  TemporalGraph g(4, {{0, 1, 0.0, 1.0},
                      {1, 2, 2.0, 3.0},
                      {2, 3, 4.0, 5.0},
                      {0, 3, 8.0, 9.0}});
  SingleSourceEngine e(g, 0);
  std::vector<double> previous(4, kInf);
  while (e.step()) {
    for (NodeId v = 0; v < 4; ++v) {
      const double now = e.frontier(v).deliver_at(0.0);
      EXPECT_LE(now, previous[v]);  // more hops never hurt
      previous[v] = now;
    }
  }
}

TEST(Engine, SelfFrontierIsIdentity) {
  TemporalGraph g(2, {{0, 1, 0.0, 1.0}});
  SingleSourceEngine e(g, 0);
  e.run_to_fixpoint();
  EXPECT_DOUBLE_EQ(e.frontier(0).deliver_at(123.0), 123.0);
}

TEST(Engine, SourceOutOfRangeThrows) {
  TemporalGraph g(2, {});
  EXPECT_THROW(SingleSourceEngine(g, 5), std::out_of_range);
}

TEST(ComputeHopProfiles, CapturesRequestedBudgets) {
  TemporalGraph g(3, {{0, 1, 0.0, 2.0}, {1, 2, 4.0, 6.0}, {0, 2, 10.0, 12.0}});
  const auto profiles = compute_hop_profiles(g, 0, {1, 2, kUnboundedHops});
  ASSERT_EQ(profiles.size(), 3u);
  // 1 hop: only the direct contact to 2.
  EXPECT_DOUBLE_EQ(profiles[0][2].deliver_at(0.0), 10.0);
  // 2 hops: relay route delivers at 4.
  EXPECT_DOUBLE_EQ(profiles[1][2].deliver_at(0.0), 4.0);
  // Unbounded equals 2 hops here.
  EXPECT_EQ(profiles[2][2], profiles[1][2]);
}

TEST(ComputeHopProfiles, RejectsNonPositiveBudget) {
  TemporalGraph g(2, {});
  EXPECT_THROW(compute_hop_profiles(g, 0, {0}), std::invalid_argument);
}

TEST(Engine, TotalPairsCountsFrontiers) {
  TemporalGraph g(3, {{0, 1, 0.0, 2.0}, {1, 2, 4.0, 6.0}});
  SingleSourceEngine e(g, 0);
  e.run_to_fixpoint();
  // identity at source + one pair at node 1 + one pair at node 2.
  EXPECT_EQ(e.total_pairs(), 3u);
}

TEST(Engine, ResetMatchesFreshEngine) {
  TemporalGraph g(4, {{0, 1, 0.0, 1.0},
                      {1, 2, 2.0, 3.0},
                      {2, 3, 4.0, 5.0},
                      {0, 3, 8.0, 9.0}});
  SingleSourceEngine reused(g, 0);
  reused.run_to_fixpoint();
  for (NodeId src = 0; src < 4; ++src) {
    reused.reset(src);
    EXPECT_EQ(reused.hops(), 0);
    EXPECT_FALSE(reused.at_fixpoint());
    SingleSourceEngine fresh(g, src);
    const int fa = reused.run_to_fixpoint();
    const int fb = fresh.run_to_fixpoint();
    EXPECT_EQ(fa, fb) << "src " << src;
    for (NodeId v = 0; v < 4; ++v)
      EXPECT_EQ(reused.frontier(v), fresh.frontier(v))
          << "src " << src << " dst " << v;
  }
  // Counters: one construction, one reuse per reset.
  EXPECT_EQ(reused.stats().workspace_allocations, 1u);
  EXPECT_EQ(reused.stats().workspace_reuses, 4u);
}

TEST(Engine, ResetRejectsOutOfRangeSource) {
  TemporalGraph g(2, {{0, 1, 0.0, 1.0}});
  SingleSourceEngine e(g, 0);
  EXPECT_THROW(e.reset(7), std::out_of_range);
}

/// Checks the pooled engine's change lists right after a step against a
/// level-sweep engine still one level behind: last_changed() names
/// exactly the nodes whose frontier moved, and previous_frontier_view(i)
/// is last_changed()[i]'s frontier at the level the oracle still holds.
void expect_changes_match_oracle(const TemporalGraph& g,
                                 const SingleSourceEngine& pooled,
                                 const SingleSourceEngine& behind) {
  std::vector<bool> listed(g.num_nodes(), false);
  const std::vector<NodeId>& changed = pooled.last_changed();
  for (std::size_t i = 0; i < changed.size(); ++i) {
    listed[changed[i]] = true;
    EXPECT_EQ(materialize(pooled.previous_frontier_view(i)),
              behind.frontier(changed[i]))
        << "node " << changed[i];
    EXPECT_NE(pooled.frontier(changed[i]), behind.frontier(changed[i]));
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (listed[v]) continue;
    EXPECT_EQ(pooled.frontier(v), behind.frontier(v)) << "node " << v;
  }
}

TEST(Engine, ChangeTrackingExposesExactDeltas) {
  // Relay route improves node 2's frontier at level 2 while the direct
  // late contact created it at level 1: last_changed() must name exactly
  // the nodes whose frontier changed, and previous_frontier_view(i) must
  // be the pre-merge state so old + published == new.
  TemporalGraph g(3, {{0, 2, 10.0, 11.0}, {0, 1, 0.0, 1.0}, {1, 2, 2.0, 3.0}});
  SingleSourceEngine e(g, 0, EngineMode::kPooled);
  SingleSourceEngine behind(g, 0, EngineMode::kLevelSweep);

  e.step();  // level 1: nodes 1 and 2 gain their first pairs
  {
    const auto& changed = e.last_changed();
    ASSERT_EQ(changed.size(), 2u);
    for (std::size_t i = 0; i < changed.size(); ++i) {
      EXPECT_TRUE(e.previous_frontier_view(i).empty());  // born this level
      EXPECT_FALSE(e.frontier(changed[i]).empty());
    }
    expect_changes_match_oracle(g, e, behind);
  }
  behind.step();

  e.step();  // level 2: only node 2 improves (via the relay)
  {
    const auto& changed = e.last_changed();
    ASSERT_EQ(changed.size(), 1u);
    EXPECT_EQ(changed[0], NodeId{2});
    // Pre-change frontier: the single late direct pair.
    ASSERT_EQ(e.previous_frontier_view(0).size(), 1u);
    EXPECT_DOUBLE_EQ(e.previous_frontier_view(0).ea(0), 10.0);
    // Post-change frontier: relay pair joined the direct pair.
    EXPECT_EQ(e.frontier(2).size(), 2u);
    expect_changes_match_oracle(g, e, behind);
  }
  behind.step();

  e.step();  // fixpoint: nothing changes
  EXPECT_TRUE(e.at_fixpoint());
  EXPECT_TRUE(e.last_changed().empty());
  expect_changes_match_oracle(g, e, behind);
}

TEST(Engine, ChangeTrackingSurvivesReset) {
  TemporalGraph g(3, {{0, 1, 0.0, 1.0}, {1, 2, 2.0, 3.0}});
  SingleSourceEngine e(g, 0, EngineMode::kPooled);
  e.run_to_fixpoint();
  e.reset(2);
  SingleSourceEngine behind(g, 2, EngineMode::kLevelSweep);
  e.step();
  // From source 2 the level-1 delta is node 1 (undirected contact).
  ASSERT_EQ(e.last_changed().size(), 1u);
  EXPECT_EQ(e.last_changed()[0], NodeId{1});
  EXPECT_TRUE(e.previous_frontier_view(0).empty());
  expect_changes_match_oracle(g, e, behind);
}

TEST(Engine, ChangeTrackingIsPooledOnly) {
  // The level sweep has no delta machinery: it never lists a changed
  // node, and there is no pre-change frontier to address.
  TemporalGraph g(2, {{0, 1, 0.0, 1.0}});
  SingleSourceEngine e(g, 0, EngineMode::kLevelSweep);
  ASSERT_TRUE(e.step());
  EXPECT_TRUE(e.last_changed().empty());
  EXPECT_THROW(e.previous_frontier_view(0), std::out_of_range);
}

}  // namespace
}  // namespace odtn
