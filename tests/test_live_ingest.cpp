// Live ingestion tentpole: the epoch-versioned TemporalGraph append API,
// the push-mode StreamingTraceParser, the incremental all-pairs engine's
// bit-identity against cold recomputes, and the QueryEngine cache-key
// epoch bump.
#include "trace/live_ingest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/diameter.hpp"
#include "core/incremental_engine.hpp"
#include "core/query_engine.hpp"
#include "stats/log_grid.hpp"
#include "trace/generators.hpp"
#include "trace/snapshot.hpp"
#include "trace/trace_io.hpp"
#include "util/time_format.hpp"

namespace odtn {
namespace {

TemporalGraph sample_graph(unsigned seed = 11, std::size_t internal = 14) {
  SyntheticTraceSpec spec;
  spec.num_internal = internal;
  spec.duration = kDay;
  spec.pair_contacts_mean = 6.0;
  spec.num_communities = 3;
  return generate_trace(spec, seed).graph;
}

std::vector<double> test_grid(const TemporalGraph& g) {
  return make_log_grid(kMinute, std::max(2 * kMinute, g.duration()), 24);
}

/// Bitwise equality over everything a client can observe (counters
/// excluded: an incremental epoch examines fewer contacts by design).
void expect_bit_identical(const DelayCdfResult& a, const DelayCdfResult& b) {
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
}

// ---------------------------------------------------------------------
// TemporalGraph::append_contacts

TEST(AppendContacts, EpochAdvancesAndContactsLand) {
  TemporalGraph g(4, {}, false);
  EXPECT_EQ(g.epoch(), 0u);
  EXPECT_EQ(g.append_contacts(std::vector<Contact>{{0, 1, 1.0, 2.0}}), 1u);
  EXPECT_EQ(g.append_contacts(std::vector<Contact>{{1, 2, 2.0, 3.0},
                                                   {0, 3, 4.0, 5.0}}),
            2u);
  EXPECT_EQ(g.epoch(), 2u);
  EXPECT_EQ(g.num_contacts(), 3u);
  EXPECT_EQ(g.start_time(), 1.0);
  EXPECT_EQ(g.end_time(), 5.0);
  // Empty batch: no epoch tick.
  EXPECT_EQ(g.append_contacts({}), 2u);
}

TEST(AppendContacts, RejectsDisorderAndMalformedRecords) {
  TemporalGraph g(4, {{0, 1, 10.0, 12.0}}, false);
  // Sorts before the last committed contact.
  EXPECT_THROW(g.append_contacts(std::vector<Contact>{{1, 2, 5.0, 6.0}}),
               std::invalid_argument);
  // Disorder inside the batch itself.
  EXPECT_THROW(g.append_contacts(std::vector<Contact>{{0, 1, 20.0, 21.0},
                                                      {0, 1, 15.0, 16.0}}),
               std::invalid_argument);
  // Node out of range and malformed interval.
  EXPECT_THROW(g.append_contacts(std::vector<Contact>{{0, 7, 20.0, 21.0}}),
               std::invalid_argument);
  EXPECT_THROW(g.append_contacts(std::vector<Contact>{{0, 1, 21.0, 20.0}}),
               std::invalid_argument);
  // Nothing was committed by the failed batches.
  EXPECT_EQ(g.num_contacts(), 1u);
  EXPECT_EQ(g.epoch(), 0u);
}

TEST(AppendContacts, SnapshotViewsAreReadOnly) {
  const TemporalGraph g = sample_graph();
  const std::string path = testing::TempDir() + "/append_view.odtns";
  write_snapshot_file(path, g);
  TemporalGraph view = load_snapshot_file(path);
  ASSERT_TRUE(view.is_view());
  EXPECT_THROW(
      view.append_contacts(std::vector<Contact>{{0, 1, 1e9, 1e9 + 1}}),
      std::logic_error);
  std::remove(path.c_str());
}

TEST(AppendContacts, GrownIndexesMatchFreshBuild) {
  const TemporalGraph full = sample_graph(23);
  const auto contacts = full.contacts();
  for (const bool warm : {false, true}) {
    TemporalGraph grown(full.num_nodes(), {}, full.directed());
    // Warm path: indexes exist before the appends and must grow in
    // place; cold path builds them lazily at the end.
    if (warm) (void)grown.neighbor_offsets();
    const std::size_t step = contacts.size() / 5 + 1;
    for (std::size_t at = 0; at < contacts.size(); at += step)
      grown.append_contacts(
          contacts.subspan(at, std::min(step, contacts.size() - at)));
    ASSERT_EQ(grown.num_contacts(), full.num_contacts());
    ASSERT_TRUE(std::equal(grown.contacts().begin(), grown.contacts().end(),
                           full.contacts().begin()));
    ASSERT_TRUE(std::equal(grown.node_offsets().begin(),
                           grown.node_offsets().end(),
                           full.node_offsets().begin()));
    ASSERT_TRUE(std::equal(grown.node_contact_indices().begin(),
                           grown.node_contact_indices().end(),
                           full.node_contact_indices().begin()));
    ASSERT_TRUE(std::equal(grown.neighbor_offsets().begin(),
                           grown.neighbor_offsets().end(),
                           full.neighbor_offsets().begin()));
    const auto ga = grown.neighbor_records();
    const auto fa = full.neighbor_records();
    ASSERT_EQ(ga.size(), fa.size());
    for (std::size_t i = 0; i < ga.size(); ++i) {
      EXPECT_EQ(ga[i].begin, fa[i].begin);
      EXPECT_EQ(ga[i].end, fa[i].end);
      EXPECT_EQ(ga[i].to, fa[i].to);
    }
  }
}

// ---------------------------------------------------------------------
// StreamingTraceParser

std::string sample_trace_text() {
  std::ostringstream out;
  write_trace(out, sample_graph(31, 8));
  return out.str();
}

TEST(StreamingParser, ByteSplitsAreInvisible) {
  const std::string text = sample_trace_text();
  const auto one_shot = [&] {
    std::istringstream in(text);
    return read_trace(in);
  }();
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}}) {
    StreamingTraceParser parser;
    for (std::size_t at = 0; at < text.size(); at += chunk)
      parser.feed(text.data() + at, std::min(chunk, text.size() - at));
    const TemporalGraph g = parser.finish();
    EXPECT_EQ(g.num_nodes(), one_shot.num_nodes());
    EXPECT_EQ(g.directed(), one_shot.directed());
    ASSERT_TRUE(std::equal(g.contacts().begin(), g.contacts().end(),
                           one_shot.contacts().begin()));
  }
}

TEST(StreamingParser, FinalLineWithoutNewlineIsDelivered) {
  std::string text = sample_trace_text();
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();
  StreamingTraceParser parser;
  parser.feed(text.data(), text.size());
  ParseReport report;
  const TemporalGraph g = parser.finish(&report);
  std::istringstream in(text + "\n");
  const TemporalGraph ref = read_trace(in);
  EXPECT_EQ(g.num_contacts(), ref.num_contacts());
}

TEST(StreamingParser, DrainKeepsRunningTotals) {
  const std::string text = sample_trace_text();
  StreamingTraceParser parser;
  parser.feed(text.data(), text.size() / 2);
  const std::size_t first = parser.drain_contacts().size();
  parser.feed(text.data() + text.size() / 2, text.size() - text.size() / 2);
  parser.flush();
  const std::size_t second = parser.drain_contacts().size();
  EXPECT_EQ(parser.pending_contacts(), 0u);
  const ParseReport report = parser.report();
  EXPECT_EQ(report.contacts, first + second);
  std::istringstream in(text);
  EXPECT_EQ(report.contacts, read_trace(in).num_contacts());
}

// ---------------------------------------------------------------------
// IncrementalAllPairsEngine vs cold recompute

DelayCdfOptions cold_options(const IncrementalCdfOptions& io) {
  DelayCdfOptions o;
  o.grid = io.grid;
  o.max_hops = io.max_hops;
  o.max_levels = io.max_levels;
  o.t_lo = io.t_lo;
  o.t_hi = io.t_hi;
  o.accumulation = CdfAccumulation::kDirect;
  return o;
}

/// Appends `full` in the epochs delimited by `cuts` (ascending contact
/// indices; the last epoch runs to the end) and checks every epoch
/// against a cold kDirect run on the prefix.
void check_epoch_cuts(const TemporalGraph& full, std::vector<std::size_t> cuts,
                      IncrementalCdfOptions io) {
  io.grid = test_grid(full);
  IncrementalAllPairsEngine engine(full.num_nodes(), full.directed(), io);
  const auto contacts = full.contacts();
  cuts.push_back(contacts.size());
  std::size_t at = 0;
  for (const std::size_t cut : cuts) {
    if (cut <= at) continue;
    engine.append(contacts.subspan(at, cut - at));
    at = cut;
    const TemporalGraph prefix(
        full.num_nodes(),
        std::vector<Contact>(contacts.begin(),
                             contacts.begin() + static_cast<long>(at)),
        full.directed());
    const DelayCdfResult cold = compute_delay_cdf(prefix, cold_options(io));
    const DelayCdfResult live = engine.all_pairs();
    expect_bit_identical(live, cold);
    // A second call without an append must replay identically (the
    // partial cache path).
    expect_bit_identical(engine.all_pairs(), cold);
  }
}

void check_epoch_splits(const TemporalGraph& full, int epochs,
                        IncrementalCdfOptions io) {
  const std::size_t step = full.num_contacts() / epochs + 1;
  std::vector<std::size_t> cuts;
  for (std::size_t at = step; at < full.num_contacts(); at += step)
    cuts.push_back(at);
  check_epoch_cuts(full, cuts, io);
}

/// A synthetic trace over `days` days, every time shifted by
/// `offset_days` (so day blocks fall at arbitrary points of the trace).
TemporalGraph multi_day_graph(unsigned seed, double days, double offset_days,
                              bool directed, std::size_t internal = 10) {
  SyntheticTraceSpec spec;
  spec.num_internal = internal;
  spec.duration = days * kDay;
  spec.pair_contacts_mean = 4.0 * days;
  spec.num_communities = 3;
  std::vector<Contact> contacts = generate_trace(spec, seed).graph.contacts_vector();
  for (Contact& c : contacts) {
    c.begin += offset_days * kDay;
    c.end += offset_days * kDay;
  }
  return TemporalGraph(internal, std::move(contacts), directed);
}

TEST(IncrementalEngine, BitIdenticalToColdAcrossEpochSplits) {
  const TemporalGraph full = sample_graph(41);
  for (const int epochs : {1, 3, 7}) {
    IncrementalCdfOptions io;
    io.max_hops = 8;
    check_epoch_splits(full, epochs, io);
  }
}

TEST(IncrementalEngine, BitIdenticalWithExplicitWindowAndTightLevels) {
  const TemporalGraph full = sample_graph(43);
  IncrementalCdfOptions io;
  io.max_hops = 6;
  io.max_levels = 3;  // forces the truncated/unconverged path too
  io.t_lo = full.start_time();
  io.t_hi = full.end_time();
  check_epoch_splits(full, 4, io);
}

TEST(IncrementalEngine, MultiDayEpochSplitsAreBitIdentical) {
  // Many epochs over several day blocks: each epoch resumes every dirty
  // lane from its checkpoint at the previous watermark's block.
  unsigned seed = 61;
  for (const double offset : {2.37, -3.61}) {
    for (const bool directed : {false, true}) {
      const TemporalGraph full =
          multi_day_graph(seed++, offset > 0 ? 4.5 : 4.0, offset, directed);
      ASSERT_GT(full.duration(), 3 * kDay);
      IncrementalCdfOptions loose;
      loose.max_hops = 8;
      check_epoch_splits(full, 30, loose);
      IncrementalCdfOptions tight;
      tight.max_hops = 5;
      tight.max_levels = 2;  // unconverged sources, copied lanes
      tight.t_lo = full.start_time() + 0.3 * kDay;
      tight.t_hi = full.end_time() - 0.6 * kDay;
      check_epoch_splits(full, 30, tight);
    }
  }
}

TEST(IncrementalEngine, EpochStartingOnADayBoundary) {
  // Contacts beginning exactly at k * kDay, with epochs cut both just
  // before them (the new pairs open block k) and just after them (the
  // watermark, and so the capture block, sits exactly on the boundary).
  std::vector<Contact> contacts =
      multi_day_graph(67, 4.0, 0.0, false).contacts_vector();
  contacts.push_back({0, 1, 2 * kDay, 2 * kDay + 600.0});
  contacts.push_back({2, 3, 2 * kDay, 2 * kDay + 60.0});
  contacts.push_back({1, 4, 3 * kDay, 3 * kDay + 300.0});
  const TemporalGraph full(10, std::move(contacts), false);
  const auto all = full.contacts();
  std::vector<std::size_t> cuts;
  for (const double day : {1.0, 2.0, 3.0}) {
    const auto first = static_cast<std::size_t>(
        std::lower_bound(all.begin(), all.end(), day * kDay,
                         [](const Contact& c, double t) { return c.begin < t; }) -
        all.begin());
    ASSERT_LT(first, all.size());
    cuts.insert(cuts.end(), {first - 3, first, first + 1, first + 2});
  }
  std::sort(cuts.begin(), cuts.end());
  IncrementalCdfOptions io;
  io.max_hops = 6;
  check_epoch_cuts(full, cuts, io);
}

TEST(IncrementalEngine, GrowingDepthSwitchesCopiedLanesToIntegrated) {
  // Day d brings the chain 0-1-...-(d+1), so source 0's deepest
  // productive level grows every epoch: hop budgets that were copies of
  // the last productive one become integrated lanes, and later
  // `unbounded` does too. Each such lane starts from its own checkpoint
  // slot, which was never captured while the lane was a copy.
  std::vector<Contact> contacts;
  for (int d = 0; d < 6; ++d)
    for (int i = 0; i <= d; ++i)
      contacts.push_back({static_cast<NodeId>(i), static_cast<NodeId>(i + 1),
                          d * kDay + 600.0 * i + 100.0,
                          d * kDay + 600.0 * i + 400.0});
  const TemporalGraph full(7, std::move(contacts), false);
  std::vector<std::size_t> cuts;
  for (std::size_t d = 1, at = 0; d < 6; ++d) cuts.push_back(at += d);
  for (const int max_hops : {2, 4}) {
    IncrementalCdfOptions io;
    io.max_hops = max_hops;
    check_epoch_cuts(full, cuts, io);
  }
}

TEST(IncrementalEngine, NanWindowKeepsCheckpoints) {
  // A NaN t_hi resolves to the growing end time, so every epoch changes
  // the window; the checkpoints must survive that (only denominators
  // move) and stay bit-identical.
  const TemporalGraph full = multi_day_graph(71, 4.5, 1.25, false);
  IncrementalCdfOptions io;
  io.max_hops = 6;
  check_epoch_splits(full, 30, io);

  io.grid = test_grid(full);
  const auto contacts = full.contacts();
  const std::size_t bulk = contacts.size() - 4;
  IncrementalAllPairsEngine engine(full.num_nodes(), false, io);
  engine.append(contacts.subspan(0, bulk));
  const DelayCdfResult full_pass = engine.all_pairs();
  engine.append(contacts.subspan(bulk));
  const DelayCdfResult tail = engine.all_pairs();
  expect_bit_identical(tail, compute_delay_cdf(full, cold_options(io)));
  EXPECT_LT(2 * tail.stats.cdf_pairs_integrated,
            full_pass.stats.cdf_pairs_integrated);
}

TEST(IncrementalEngine, ThreadCountsGiveIdenticalEpochs) {
  // The same epoch split at 1 and 3 workers: every epoch folds the same
  // partials, re-integrated from the same checkpoints.
  const TemporalGraph full = multi_day_graph(73, 4.0, 0.5, false);
  const auto contacts = full.contacts();
  const std::size_t step = contacts.size() / 8 + 1;
  std::vector<std::vector<DelayCdfResult>> runs;
  for (const unsigned threads : {1u, 3u}) {
    IncrementalCdfOptions io;
    io.grid = test_grid(full);
    io.max_hops = 6;
    io.num_threads = threads;
    IncrementalAllPairsEngine engine(full.num_nodes(), full.directed(), io);
    std::vector<DelayCdfResult>& epochs = runs.emplace_back();
    for (std::size_t at = 0; at < contacts.size(); at += step) {
      engine.append(contacts.subspan(at, std::min(step, contacts.size() - at)));
      epochs.push_back(engine.all_pairs());
    }
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    expect_bit_identical(runs[0][i], runs[1][i]);
    EXPECT_EQ(runs[0][i].stats.cdf_pairs_integrated,
              runs[1][i].stats.cdf_pairs_integrated)
        << "epoch " << i;
  }
}

TEST(IncrementalEngine, EmptyAndSingleContactDegenerates) {
  IncrementalCdfOptions io;
  io.grid = make_log_grid(kMinute, kHour, 8);
  io.max_hops = 4;
  IncrementalAllPairsEngine engine(3, false, io);

  // Zero contacts: a defined all-zero answer, not a crash.
  const DelayCdfResult empty = engine.all_pairs();
  EXPECT_EQ(empty.denominator, 0.0);
  for (const double v : empty.cdf_unbounded) EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(std::isinf(-engine.watermark()));

  // One contact: matches the cold answer on the same one-contact graph.
  const std::vector<Contact> one{{0, 1, 100.0, 100.0 + kHour}};
  engine.append(one);
  EXPECT_EQ(engine.watermark(), 100.0);
  const TemporalGraph g(3, one, false);
  expect_bit_identical(engine.all_pairs(), compute_delay_cdf(g, cold_options(io)));
}

// ---------------------------------------------------------------------
// LiveIngestSession

TEST(LiveIngestSession, CommitsEpochsAndDropsBelowWatermark) {
  const TemporalGraph full = sample_graph(47, 8);
  std::ostringstream text;
  write_trace(text, full);
  const std::string feed = text.str();

  IncrementalCdfOptions io;
  io.grid = test_grid(full);
  io.max_hops = 6;
  LiveIngestSession session(io);
  const std::size_t half = feed.size() / 2;
  session.feed(feed.data(), half);
  ASSERT_TRUE(session.header_complete());
  session.commit_epoch();
  session.feed(feed.data() + half, feed.size() - half);
  session.flush();
  session.commit_epoch();

  ASSERT_NE(session.engine(), nullptr);
  EXPECT_EQ(session.stats().below_watermark, 0u);
  EXPECT_EQ(session.engine()->graph().num_contacts(), full.num_contacts());
  expect_bit_identical(session.engine()->all_pairs(),
                       compute_delay_cdf(full, cold_options(io)));

  // A record older than the committed watermark is refused and counted,
  // and later in-order traffic still lands.
  const double wm = session.engine()->watermark();
  const std::string stale = "0 1 " + std::to_string(wm - 1000.0) + " " +
                            std::to_string(wm - 900.0) + "\n";
  session.feed(stale.data(), stale.size());
  const std::string fresh = "0 1 " + std::to_string(wm + 1000.0) + " " +
                            std::to_string(wm + 1100.0) + "\n";
  session.feed(fresh.data(), fresh.size());
  session.commit_epoch();
  EXPECT_EQ(session.stats().below_watermark, 1u);
  EXPECT_EQ(session.engine()->graph().num_contacts(),
            full.num_contacts() + 1);
}

// ---------------------------------------------------------------------
// QueryEngine ingest: epoch-bumped cache keys

TEST(QueryEngineIngest, StaleCacheEntriesBecomeUnreachable) {
  const TemporalGraph full = sample_graph(53, 10);
  const auto contacts = full.contacts();
  const std::size_t half = contacts.size() / 2;

  QueryEngineOptions qo;
  qo.grid = test_grid(full);
  qo.max_hops = 6;
  QueryEngine engine(
      TemporalGraph(full.num_nodes(),
                    std::vector<Contact>(contacts.begin(),
                                         contacts.begin() +
                                             static_cast<long>(half)),
                    full.directed()),
      qo);

  // Warm the cache on the prefix graph, twice so hits are visible.
  (void)engine.all_pairs();
  const DelayCdfResult warm = engine.all_pairs();
  EXPECT_GT(warm.stats.cache_hits, 0u);
  EXPECT_EQ(warm.stats.cache_misses, 0u);

  const std::uint64_t epoch = engine.ingest(contacts.subspan(half));
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(engine.graph().num_contacts(), full.num_contacts());

  // Every pre-ingest partial must be unreachable: the first post-ingest
  // run misses for every source and the answer matches a cold engine on
  // the full graph bit for bit.
  const DelayCdfResult after = engine.all_pairs();
  EXPECT_EQ(after.stats.cache_hits, 0u);
  EXPECT_EQ(after.stats.cache_misses, full.num_nodes());
  QueryEngine cold(TemporalGraph(full.num_nodes(), full.contacts_vector(),
                                 full.directed()),
                   qo);
  expect_bit_identical(after, cold.all_pairs());
}

}  // namespace
}  // namespace odtn
