#include "core/query_engine.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/diameter.hpp"
#include "stats/log_grid.hpp"
#include "trace/generators.hpp"
#include "trace/snapshot.hpp"
#include "util/time_format.hpp"

namespace odtn {
namespace {

TemporalGraph workload_graph(std::uint64_t seed = 4242) {
  // Small but non-trivial synthetic conference trace: enough nodes for
  // caching and folding order to matter, small enough for quick tier-1.
  SyntheticTraceSpec spec;
  spec.name = "query_engine_test";
  spec.num_internal = 24;
  spec.duration = 2.0 * kDay;
  spec.pair_contacts_mean = 0.8;
  spec.num_communities = 4;
  return generate_trace(spec, seed).graph;
}

QueryEngineOptions small_options() {
  QueryEngineOptions qo;
  qo.grid = make_log_grid(60.0, 2.0 * kDay, 24);
  qo.max_hops = 5;
  qo.num_threads = 2;
  return qo;
}

void expect_bitwise_equal(const DelayCdfResult& a, const DelayCdfResult& b) {
  EXPECT_EQ(a.grid, b.grid);
  EXPECT_EQ(a.cdf_by_hops, b.cdf_by_hops);
  EXPECT_EQ(a.cdf_unbounded, b.cdf_unbounded);
  EXPECT_EQ(a.fixpoint_hops, b.fixpoint_hops);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.denominator, b.denominator);
  for (const double eps : {0.001, 0.01, 0.05, 0.1, 0.5}) {
    EXPECT_EQ(a.diameter(eps), b.diameter(eps));
    EXPECT_EQ(a.diameter_per_delay(eps), b.diameter_per_delay(eps));
  }
  for (const double tol : {0.001, 0.01, 0.05})
    EXPECT_EQ(a.diameter_absolute(tol), b.diameter_absolute(tol));
}

TEST(QueryEngine, ColdAllPairsMatchesComputeDelayCdfBitwise) {
  const TemporalGraph g = workload_graph();
  const QueryEngineOptions qo = small_options();

  DelayCdfOptions ref;
  ref.grid = qo.grid;
  ref.max_hops = qo.max_hops;
  ref.max_levels = qo.max_levels;
  ref.num_threads = qo.num_threads;
  const DelayCdfResult expected = compute_delay_cdf(g, ref);

  QueryEngine engine(g, qo);
  const DelayCdfResult got = engine.all_pairs();
  expect_bitwise_equal(expected, got);
  EXPECT_EQ(got.stats.cache_hits, 0u);
  EXPECT_EQ(got.stats.cache_misses, g.num_nodes());
}

TEST(QueryEngine, WarmAllPairsIsBitIdenticalToCold) {
  QueryEngine engine(workload_graph(), small_options());
  const DelayCdfResult cold = engine.all_pairs();
  const DelayCdfResult warm = engine.all_pairs();
  expect_bitwise_equal(cold, warm);
  EXPECT_EQ(warm.stats.cache_hits, engine.graph().num_nodes());
  EXPECT_EQ(warm.stats.cache_misses, 0u);
  // A warm run touches no propagation engine at all.
  EXPECT_EQ(warm.stats.contacts_examined, 0u);
}

TEST(QueryEngine, PartiallyWarmAllPairsIsBitIdentical) {
  const TemporalGraph g = workload_graph();
  QueryEngine cold_engine(g, small_options());
  const DelayCdfResult cold = cold_engine.all_pairs();

  // Warm only some sources via per-source queries, then fold all-pairs
  // from the mixed cache: identical bits either way.
  QueryEngine mixed(g, small_options());
  for (NodeId src = 0; src < g.num_nodes(); src += 3)
    (void)mixed.source_cdf(src);
  const DelayCdfResult folded = mixed.all_pairs();
  expect_bitwise_equal(cold, folded);
  EXPECT_GT(folded.stats.cache_hits, 0u);
  EXPECT_GT(folded.stats.cache_misses, 0u);
}

TEST(QueryEngine, TinyCacheBudgetStillBitIdentical) {
  const TemporalGraph g = workload_graph();
  QueryEngine reference(g, small_options());
  const DelayCdfResult expected = reference.all_pairs();

  // Room for roughly two partials: constant evictions, same answers.
  QueryEngineOptions qo = small_options();
  qo.cache_bytes = 2 * reference.cached_partial_bytes();
  QueryEngine engine(g, qo);
  const DelayCdfResult first = engine.all_pairs();
  const DelayCdfResult second = engine.all_pairs();
  expect_bitwise_equal(expected, first);
  expect_bitwise_equal(expected, second);
  EXPECT_GT(first.stats.cache_evictions, 0u);
  EXPECT_EQ(engine.cache_stats().evictions,
            first.stats.cache_evictions + second.stats.cache_evictions);
}

/// Heap bytes one cached partial holds: the object itself, the by_hops
/// header array, and per accumulator its grid copy plus both difference
/// arrays (grid().size() + 1 words each).
std::size_t partial_heap_bytes(const SourceCdfPartial& p) {
  const auto lanes = [](const MeasureCdfAccumulator& a) {
    return a.grid().capacity() * sizeof(double) +
           2 * (a.grid().size() + 1) * sizeof(std::uint64_t);
  };
  std::size_t bytes = sizeof(SourceCdfPartial) +
                      p.by_hops.capacity() * sizeof(MeasureCdfAccumulator) +
                      lanes(p.unbounded);
  for (const MeasureCdfAccumulator& a : p.by_hops) bytes += lanes(a);
  return bytes;
}

TEST(QueryEngine, CachedPartialChargeCoversItsHeapBytes) {
  const TemporalGraph g = workload_graph();
  // Small options, the CLI defaults (G = 40, max_hops = 10), and a fine grid.
  for (const auto& [points, hops] :
       std::vector<std::pair<std::size_t, int>>{{24, 5}, {40, 10}, {200, 20}}) {
    QueryEngineOptions qo = small_options();
    qo.grid = make_log_grid(60.0, 2.0 * kDay, points);
    qo.max_hops = hops;
    QueryEngine engine(g, qo);
    // The cache stores a copy of a partial shaped like this one.
    const SourceCdfPartial shape(qo.grid, qo.max_hops);
    const SourceCdfPartial stored(shape);
    const std::size_t heap = partial_heap_bytes(stored);
    EXPECT_GE(engine.cached_partial_bytes(), heap)
        << "G=" << points << " max_hops=" << hops;
    engine.source_cdf(0);
    EXPECT_EQ(engine.cache_stats().entries, 1u);
    EXPECT_GE(engine.cache_stats().bytes, heap)
        << "G=" << points << " max_hops=" << hops;
  }
}

TEST(QueryEngine, SourceCdfHitsAfterAllPairs) {
  QueryEngine engine(workload_graph(), small_options());
  (void)engine.all_pairs();
  const DelayCdfResult r = engine.source_cdf(5);
  EXPECT_EQ(r.stats.cache_hits, 1u);
  EXPECT_EQ(r.stats.cache_misses, 0u);

  // A different window is a different key: computed fresh.
  const double mid =
      engine.graph().start_time() + engine.graph().duration() / 2;
  const DelayCdfResult windowed =
      engine.source_cdf(5, engine.graph().start_time(), mid);
  EXPECT_EQ(windowed.stats.cache_hits, 0u);
  EXPECT_EQ(windowed.stats.cache_misses, 1u);
}

TEST(QueryEngine, WindowedQueriesRoundTripThroughCache) {
  QueryEngine engine(workload_graph(), small_options());
  const double lo = engine.graph().start_time();
  const double hi = lo + engine.graph().duration() / 3;
  const DelayCdfResult cold = engine.all_pairs(lo, hi);
  const DelayCdfResult warm = engine.all_pairs(lo, hi);
  expect_bitwise_equal(cold, warm);
  EXPECT_EQ(warm.stats.cache_misses, 0u);
}

TEST(QueryEngine, SnapshotViewMatchesOwnedGraphBitwise) {
  const TemporalGraph g = workload_graph();
  const TemporalGraph view = decode_snapshot(
      std::make_shared<const std::vector<std::uint8_t>>(encode_snapshot(g)));
  QueryEngine owned(g, small_options());
  QueryEngine mapped(view, small_options());
  expect_bitwise_equal(owned.all_pairs(), mapped.all_pairs());
}

TEST(QueryEngine, AllPairsIsBitIdenticalAcrossThreadCounts) {
  const TemporalGraph g = workload_graph();
  std::vector<DelayCdfResult> results;
  for (const unsigned threads : {1u, 3u}) {
    QueryEngineOptions qo = small_options();
    qo.num_threads = threads;
    QueryEngine engine(g, qo);
    for (int call = 0; call < 2; ++call) {  // cold, then warm
      DelayCdfResult r = engine.all_pairs();
      EXPECT_EQ(r.stats.cache_hits + r.stats.cache_misses, g.num_nodes())
          << "threads=" << threads << " call=" << call;
      results.push_back(std::move(r));
    }
  }
  for (std::size_t i = 1; i < results.size(); ++i)
    expect_bitwise_equal(results[0], results[i]);
  EXPECT_EQ(results[0].stats.contacts_examined,
            results[2].stats.contacts_examined);
}

bool same_journey(const JourneyOptima& a, const JourneyOptima& b) {
  return std::memcmp(&a.fastest_duration, &b.fastest_duration,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.fastest_departure, &b.fastest_departure,
                     sizeof(double)) == 0 &&
         a.shortest_hops == b.shortest_hops;
}

TEST(QueryEngine, ConcurrentQueriesMatchColdAnswers) {
  // The serve loop runs one batch's queries concurrently on one engine.
  // Four threads mix windowed source_cdf, all_pairs, reachable_count and
  // journey over a cache that holds two partials, so hits, misses and
  // evictions interleave; every answer must equal a cold engine's.
  const TemporalGraph g = workload_graph();
  const QueryEngineOptions qo = small_options();
  const double lo = g.start_time(), mid = lo + g.duration() / 2;
  constexpr double kAll = QueryEngine::kWholeSpan;
  const double windows[][2] = {{kAll, kAll}, {lo, mid}, {mid, g.end_time()}};
  const std::size_t n = g.num_nodes();

  QueryEngineOptions cold_options = qo;
  cold_options.cache_bytes = 0;
  QueryEngine cold(g, cold_options);
  std::vector<std::vector<DelayCdfResult>> want_cdf(3);
  for (int wi = 0; wi < 3; ++wi)
    for (NodeId src = 0; src < n; ++src)
      want_cdf[wi].push_back(
          cold.source_cdf(src, windows[wi][0], windows[wi][1]));
  const DelayCdfResult want_all = cold.all_pairs(lo, mid);
  std::vector<std::size_t> want_reach;
  std::vector<JourneyOptima> want_journey;
  for (NodeId src = 0; src < n; ++src) {
    want_reach.push_back(cold.reachable_count(src, mid));
    want_journey.push_back(cold.journey(src, (src + 5) % n));
  }

  QueryEngineOptions shared_options = qo;
  shared_options.cache_bytes = 2 * cold.cached_partial_bytes();
  QueryEngine engine(g, shared_options);
  constexpr int kThreads = 4;
  constexpr int kQueries = 24;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < kQueries; ++q) {
        const auto src = static_cast<NodeId>((7 * t + 5 * q) % n);
        switch ((t + q) % 4) {
          case 0: {
            const int wi = (t + q / 4) % 3;
            expect_bitwise_equal(
                want_cdf[wi][src],
                engine.source_cdf(src, windows[wi][0], windows[wi][1]));
            break;
          }
          case 1:
            if (q / 4 % 3 == 0)
              expect_bitwise_equal(want_all, engine.all_pairs(lo, mid));
            break;
          case 2:
            EXPECT_EQ(want_reach[src], engine.reachable_count(src, mid));
            break;
          default:
            EXPECT_TRUE(same_journey(want_journey[src],
                                     engine.journey(src, (src + 5) % n)));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const LruCacheStats cs = engine.cache_stats();
  EXPECT_GT(cs.hits + cs.misses, 0u);
  EXPECT_LE(cs.bytes, shared_options.cache_bytes);
}

TEST(QueryEngine, ReachableCountAndJourney) {
  // 0 -[10,20]- 1 -[30,40]- 2, node 3 isolated.
  const TemporalGraph g(4, {{0, 1, 10.0, 20.0}, {1, 2, 30.0, 40.0}});
  QueryEngineOptions qo;
  qo.grid = make_log_grid(1.0, 100.0, 8);
  QueryEngine engine(g, qo);

  EXPECT_EQ(engine.reachable_count(0, 0.0), 2u);   // 1 and 2
  EXPECT_EQ(engine.reachable_count(0, 25.0), 0u);  // 0-1 window passed
  EXPECT_EQ(engine.reachable_count(3, 0.0), 0u);   // isolated

  const JourneyOptima j = engine.journey(0, 2);
  EXPECT_TRUE(j.reachable());
  EXPECT_EQ(j.shortest_hops, 2);
  // Depart at 20 (end of the first window), arrive at 30: 10 s.
  EXPECT_DOUBLE_EQ(j.fastest_duration, 10.0);
  EXPECT_FALSE(engine.journey(0, 3).reachable());
}

TEST(QueryEngine, RejectsBadArguments) {
  const TemporalGraph g = workload_graph();
  EXPECT_THROW(QueryEngine(g, QueryEngineOptions{}), std::invalid_argument);
  QueryEngine engine(g, small_options());
  EXPECT_THROW(engine.source_cdf(9999), std::invalid_argument);
  EXPECT_THROW(engine.reachable_count(9999, 0.0), std::invalid_argument);
  EXPECT_THROW(engine.journey(0, 9999), std::invalid_argument);
}

TEST(QueryEngine, RejectsNonFiniteQueryTimes) {
  // Each of these used to answer silently: NaN or zero CDFs, a diameter
  // of 1, a reach count of 0.
  QueryEngine engine(workload_graph(), small_options());
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(engine.source_cdf(0, inf, inf), std::invalid_argument);
  EXPECT_THROW(engine.source_cdf(0, -inf, inf), std::invalid_argument);
  EXPECT_THROW(engine.source_cdf(0, 0.0, inf), std::invalid_argument);
  EXPECT_THROW(engine.all_pairs(inf, inf), std::invalid_argument);
  EXPECT_THROW(engine.all_pairs(nan, inf), std::invalid_argument);
  EXPECT_THROW(engine.reachable_count(0, nan), std::invalid_argument);
  // NaN windows keep meaning "the whole span".
  EXPECT_NO_THROW(engine.source_cdf(0, nan, nan));
}

TEST(QueryEngine, RejectsWindowOutsideFixedPointRange) {
  // 24 nodes: 552 ordered pairs, so a 2e10 s window is 1.1e13
  // pair-seconds, past the 2^43 s the fixed-point sums hold. Both verbs
  // check the all-pairs measure, so they accept the same windows.
  QueryEngine engine(workload_graph(), small_options());
  EXPECT_THROW(engine.all_pairs(0.0, 2e10), std::invalid_argument);
  EXPECT_THROW(engine.source_cdf(3, 0.0, 2e10), std::invalid_argument);
  EXPECT_EQ(engine.all_pairs(0.0, 1e10).cdf_unbounded,
            engine.all_pairs(0.0, 1e10).cdf_unbounded);
}

}  // namespace
}  // namespace odtn
