// Live ingestion tentpole: the epoch-versioned TemporalGraph append API,
// the push-mode StreamingTraceParser, the incremental all-pairs engine's
// bit-identity against cold recomputes, and the QueryEngine's ingest
// contract (a successful append empties its cache, a refused one keeps it).
#include "trace/live_ingest.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
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
    // Warm path: the index exists before the appends and must grow in
    // place; cold path builds it lazily at the end.
    if (warm) (void)grown.node_offsets();
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

/// Every source's version lists against a cold pooled engine stepped
/// level by level over `graph` under the live engine's delay horizon:
/// frontier_at(d, k) for every node and every level up to the cap, and
/// the deepest productive level.
void expect_versions_match_cold(const IncrementalAllPairsEngine& engine,
                                const TemporalGraph& graph) {
  const auto same = [](const FrontierView& a, const FrontierView& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (a.ld(i) != b.ld(i) || a.ea(i) != b.ea(i)) return false;
    return true;
  };
  for (NodeId src = 0; src < graph.num_nodes(); ++src) {
    const IncrementalSourceDp& dp = engine.source_dp(src);
    SingleSourceEngine cold(graph, src, EngineMode::kPooled);
    cold.set_horizon(engine.horizon());
    int deepest = 0;
    for (int k = 0; k <= dp.level_cap(); ++k) {
      if (k > 0 && cold.step() && !cold.last_changed().empty()) deepest = k;
      for (NodeId d = 0; d < graph.num_nodes(); ++d)
        ASSERT_TRUE(same(dp.frontier_at(d, k), cold.frontier_view(d)))
            << "source " << src << " node " << d << " level " << k;
    }
    ASSERT_EQ(dp.max_version_level(), deepest) << "source " << src;
  }
}

/// Appends `full` in the epochs delimited by `cuts` (ascending contact
/// indices; the last epoch runs to the end; a repeated cut is an empty
/// epoch) and checks every epoch not listed in `skip_all_pairs` against
/// cold kDirect and kAuto (incremental) runs on the prefix, and every
/// epoch's version lists against a cold engine. A skipped epoch calls no
/// all_pairs, so the next one folds several appends at once. The cold
/// run must reject the prefix's window exactly on the epochs listed in
/// `rejected`, and there all_pairs must throw the same error and
/// window_open() read false; a rejection anywhere else fails the test.
/// `on_epoch`, if set, sees the engine after every append. Returns the
/// results of the epochs that resolved.
std::vector<DelayCdfResult> check_epoch_cuts(
    const TemporalGraph& full, std::vector<std::size_t> cuts,
    IncrementalCdfOptions io,
    const std::vector<std::size_t>& skip_all_pairs = {},
    const std::vector<std::size_t>& rejected = {},
    const std::function<void(const IncrementalAllPairsEngine&)>& on_epoch =
        {}) {
  const auto listed = [](const std::vector<std::size_t>& list, std::size_t e) {
    return std::find(list.begin(), list.end(), e) != list.end();
  };
  if (io.grid.empty()) io.grid = test_grid(full);
  IncrementalAllPairsEngine engine(full.num_nodes(), full.directed(), io);
  const auto contacts = full.contacts();
  cuts.push_back(contacts.size());
  std::vector<DelayCdfResult> epochs;
  std::size_t at = 0;
  for (std::size_t e = 0; e < cuts.size(); ++e) {
    const std::size_t cut = cuts[e];
    if (cut < at) continue;
    EXPECT_NO_THROW(engine.append(contacts.subspan(at, cut - at)));
    at = cut;
    if (on_epoch) on_epoch(engine);
    const TemporalGraph prefix(
        full.num_nodes(),
        std::vector<Contact>(contacts.begin(),
                             contacts.begin() + static_cast<long>(at)),
        full.directed());
    expect_versions_match_cold(engine, prefix);
    if (listed(skip_all_pairs, e)) continue;
    EXPECT_EQ(engine.window_open(), !listed(rejected, e)) << "epoch " << e;
    if (listed(rejected, e)) {
      std::string cold_error;
      try {
        (void)compute_delay_cdf(prefix, cold_options(io));
      } catch (const std::invalid_argument& cold) {
        cold_error = cold.what();
      }
      EXPECT_FALSE(cold_error.empty()) << "epoch " << e << " resolved";
      try {
        (void)engine.all_pairs();
        ADD_FAILURE() << "epoch " << e << ": all_pairs did not throw";
      } catch (const std::invalid_argument& live) {
        EXPECT_EQ(live.what(), cold_error) << "epoch " << e;
      }
      continue;
    }
    const DelayCdfResult cold = compute_delay_cdf(prefix, cold_options(io));
    epochs.push_back(engine.all_pairs());
    expect_bit_identical(epochs.back(), cold);
    DelayCdfOptions auto_opt = cold_options(io);
    auto_opt.accumulation = CdfAccumulation::kAuto;
    expect_bit_identical(epochs.back(), compute_delay_cdf(prefix, auto_opt));
    // A second call without an append must replay identically (the
    // partial cache path).
    expect_bit_identical(engine.all_pairs(), cold);
  }
  return epochs;
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
/// `offset_days` (so day boundaries fall at arbitrary points of it).
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
  // Many epochs over several days: each epoch updates every changed
  // source's lanes by the old and new frontiers of its changed nodes.
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
      tight.max_levels = 2;  // unconverged sources, cap = max_hops
      tight.t_lo = full.start_time() + 0.3 * kDay;
      tight.t_hi = full.end_time() - 0.6 * kDay;
      check_epoch_splits(full, 30, tight);
    }
  }
}

TEST(IncrementalEngine, ShortGridPrunesLikeColdRuns) {
  // A delay grid ending hours into a multi-day trace, with the growing
  // NaN window, a narrow explicit one and truncated levels: the DPs run
  // under the live engine's delay horizon and drop pairs past it, and
  // every epoch still equals cold runs (which drop the same pairs).
  unsigned seed = 65;
  for (const bool directed : {false, true}) {
    const TemporalGraph full = multi_day_graph(seed++, 4.0, 0.4, directed);
    IncrementalCdfOptions nan_window;
    nan_window.grid = make_log_grid(kMinute, 3 * kHour, 12);
    nan_window.max_hops = 6;
    IncrementalCdfOptions narrow = nan_window;
    narrow.t_lo = full.start_time() + 1.2 * kDay;
    narrow.t_hi = narrow.t_lo + 0.5 * kDay;
    narrow.max_levels = 3;
    for (const IncrementalCdfOptions& io : {nan_window, narrow}) {
      ASSERT_GT(compute_delay_cdf(full, cold_options(io))
                    .stats.pairs_past_horizon,
                0u);
      check_epoch_splits(full, 20, io);
    }
  }
}

TEST(IncrementalEngine, EpochStartingOnADayBoundary) {
  // Contacts beginning exactly at k * kDay and at whole hours, with
  // epochs cut both just before them and just after them (the
  // watermark sits exactly on a contact's begin). The second 3-5
  // contact begins at the watermark the first one set and replaces its
  // pair, whose ea equals the watermark: the epoch update must retract
  // that pair's segment.
  std::vector<Contact> contacts =
      multi_day_graph(67, 4.0, 0.0, false).contacts_vector();
  contacts.push_back({0, 1, 2 * kDay, 2 * kDay + 600.0});
  contacts.push_back({2, 3, 2 * kDay, 2 * kDay + 60.0});
  contacts.push_back({1, 4, 3 * kDay, 3 * kDay + 300.0});
  contacts.push_back({3, 5, kDay + 7 * kHour, kDay + 7 * kHour + 900.0});
  contacts.push_back({3, 5, kDay + 7 * kHour, kDay + 7 * kHour + 2000.0});
  contacts.push_back({5, 6, 2 * kDay + 13 * kHour, 2 * kDay + 14 * kHour});
  const TemporalGraph full(10, std::move(contacts), false);
  const auto all = full.contacts();
  std::vector<std::size_t> cuts;
  for (const double t : {1.0 * kDay, kDay + 7 * kHour, 2.0 * kDay,
                         2 * kDay + 13 * kHour, 3.0 * kDay}) {
    const auto first = static_cast<std::size_t>(
        std::lower_bound(all.begin(), all.end(), t,
                         [](const Contact& c, double b) { return c.begin < b; }) -
        all.begin());
    ASSERT_LT(first, all.size());
    cuts.insert(cuts.end(), {first - 3, first, first + 1, first + 2});
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  IncrementalCdfOptions io;
  io.max_hops = 6;
  check_epoch_cuts(full, cuts, io);
}

TEST(IncrementalEngine, GrowingDepthUpdatesLanesPastTheOldDeepestLevel) {
  // Day d brings the chain 0-1-...-(d+1), so source 0's deepest
  // productive level grows every epoch: a new version appears past the
  // old deepest level, and every hop budget from there up -- later
  // `unbounded` too -- reads it. The epoch update must add its delta to
  // each of those lanes, not only to the lane of its level.
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

TEST(IncrementalEngine, DeepestLevelDropsAndReturns) {
  // Source 0's deepest level drops from 3 to 2 and comes back: the second
  // epoch's direct contact 0-3 (beginning at the watermark) dominates the
  // only level-3 pair, so that epoch erases node 3's level-3 version
  // while node 4 gains a pair at level 1, which every lane reads; the
  // third epoch's contact 2-5 makes level 3 productive again without
  // touching node 4. Each epoch update must read the erased version as
  // the old frontier of lane 3 (and, with two hop budgets, `unbounded`).
  const std::vector<Contact> contacts{
      {0, 1, 1 * kHour, 1 * kHour + 100},
      {0, 4, 1.5 * kHour, 1.5 * kHour + 100},
      {1, 2, 2 * kHour, 2 * kHour + 100},
      {2, 3, 5 * kHour, 5 * kHour + 100},
      {0, 3, 5 * kHour, 5 * kHour + 200},
      {0, 4, 5 * kHour + 60, 5 * kHour + 160},
      {2, 5, 6 * kHour, 6 * kHour + 100}};
  const TemporalGraph full(6, contacts, false);
  for (const int max_hops : {2, 3}) {
    IncrementalCdfOptions io;
    io.max_hops = max_hops;
    io.t_lo = full.start_time();
    io.t_hi = full.end_time();
    check_epoch_cuts(full, {4, 6}, io);
  }
}

TEST(IncrementalEngine, NanWindowMovesOnlyDenominators) {
  // A NaN t_hi resolves to the growing end time, so every epoch changes
  // the window. No stored segment is clipped by it, so the partials keep
  // their numerators and swap only their observation measure: a tail
  // epoch integrates far fewer pairs than the full pass, and stays
  // bit-identical.
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

TEST(IncrementalEngine, SeveralAppendsBetweenAllPairs) {
  // all_pairs skipped on chosen epochs, among them runs of two and three
  // and the epoch before an empty one: append keeps the partials up to
  // date whether or not anyone folds them, so the next call folds them
  // as they stand.
  unsigned seed = 91;
  for (const bool directed : {false, true}) {
    const TemporalGraph full = multi_day_graph(seed++, 3.5, 0.4, directed);
    const std::size_t step = full.num_contacts() / 24 + 1;
    std::vector<std::size_t> cuts;
    for (std::size_t at = step; at < full.num_contacts(); at += step)
      cuts.push_back(at);
    cuts.push_back(cuts.back());  // an empty epoch: no apply at all
    const std::vector<std::size_t> skip{1, 3, 4, 7, 8, 9, 12, 15, 17, 18,
                                        cuts.size() - 2};
    for (const bool explicit_window : {true, false}) {
      IncrementalCdfOptions io;
      io.max_hops = 5;
      if (explicit_window) {
        io.t_lo = full.start_time() + 0.2 * kDay;
        io.t_hi = full.end_time() - 0.5 * kDay;
      }
      check_epoch_cuts(full, cuts, io, skip);
    }
  }
}

TEST(IncrementalEngine, ExplicitStartPastTheEarlyTrace) {
  // t_lo lies past the first epochs' end time and t_hi is NaN: until the
  // trace reaches t_lo the window is empty, so all_pairs throws as a
  // cold run does, while appends (and a session's commits) go on. Once
  // the trace passes t_lo, every row must equal a cold run: nothing may
  // have been integrated under the window that never resolved.
  const TemporalGraph full = multi_day_graph(93, 3.0, 0.0, false);
  const std::size_t n = full.num_contacts();
  IncrementalCdfOptions io;
  io.max_hops = 5;
  io.t_lo = full.start_time() + 1.5 * kDay;
  std::vector<std::size_t> cuts;
  for (std::size_t k = 1; k < 12; ++k) cuts.push_back(k * n / 12);
  // The epochs whose prefix ends before t_lo: exactly these reject.
  std::vector<std::size_t> rejected;
  for (std::size_t e = 0; e < cuts.size(); ++e) {
    double end = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < cuts[e]; ++i)
      end = std::max(end, full.contacts()[i].end);
    if (end <= io.t_lo) rejected.push_back(e);
  }
  ASSERT_GE(rejected.size(), 2u);
  ASSERT_LE(rejected.size(), cuts.size() - 3);
  const std::vector<DelayCdfResult> rows =
      check_epoch_cuts(full, cuts, io, {}, rejected);
  EXPECT_EQ(rows.size(), cuts.size() + 1 - rejected.size());

  // The same through a session: commit_epoch never throws for it.
  std::ostringstream text;
  write_trace(text, full);
  const std::string feed = text.str();
  io.grid = test_grid(full);
  LiveIngestSession session(io);
  const std::size_t quarter = feed.size() / 4;
  session.feed(feed.data(), quarter);
  EXPECT_NO_THROW(session.commit_epoch());
  ASSERT_LT(session.engine()->graph().end_time(), io.t_lo);
  EXPECT_THROW(session.engine()->all_pairs(), std::invalid_argument);
  session.feed(feed.data() + quarter, feed.size() - quarter);
  session.flush();
  EXPECT_NO_THROW(session.commit_epoch());
  expect_bit_identical(session.engine()->all_pairs(),
                       compute_delay_cdf(full, cold_options(io)));
}

TEST(IncrementalEngine, VersionListsMatchColdEngineEveryEpoch) {
  // Directed and undirected splits, with tight max_levels (the level
  // loop runs into the cap, sources stay unconverged) and loose ones.
  unsigned seed = 81;
  for (const bool directed : {false, true}) {
    const TemporalGraph full = multi_day_graph(seed++, 3.0, 0.7, directed);
    for (const int max_levels : {2, 3, 64}) {
      IncrementalCdfOptions io;
      io.max_hops = 4;
      io.max_levels = max_levels;
      check_epoch_splits(full, 25, io);
    }
  }
  IncrementalCdfOptions io;
  io.max_hops = 8;
  check_epoch_splits(sample_graph(83), 9, io);
}

/// Appends `full` in the epochs delimited by `cuts` to a growing graph
/// and advances one IncrementalSourceDp per source over it, as the live
/// engine does with the NaN window (the first batch bootstraps), all in
/// one ApplyScratch. Checks, for every apply, that lookup_original(d, k)
/// right after it equals frontier_at(d, k) before it, bit for bit, for
/// every node and level 1..cap. Adds to `created` and `erased` how many
/// (source, node, level) versions the applies created and erased.
void check_lookup_original(const TemporalGraph& full,
                           std::vector<std::size_t> cuts,
                           const IncrementalCdfOptions& io,
                           std::size_t& created, std::size_t& erased) {
  const std::size_t n = full.num_nodes();
  const int cap = std::max(io.max_hops, io.max_levels);
  const double inf = std::numeric_limits<double>::infinity();
  const DelayHorizon horizon = cdf_horizon({{-inf, inf}}, test_grid(full));
  std::vector<IncrementalSourceDp> dps;
  for (NodeId src = 0; src < n; ++src) dps.emplace_back(src, n, cap, horizon);
  IncrementalSourceDp::ApplyScratch scratch;
  TemporalGraph graph(n, {}, full.directed());
  const auto pairs = [](const FrontierView& v) {
    std::vector<PathPair> out;
    for (std::size_t i = 0; i < v.size(); ++i) out.push_back(v.pair(i));
    return out;
  };
  const auto levels = [&](const IncrementalSourceDp& dp, NodeId d) {
    std::vector<int> out;
    dp.for_each_version(
        d, [&](int level, const FrontierView&) { out.push_back(level); });
    return out;
  };
  const auto contacts = full.contacts();
  cuts.push_back(contacts.size());
  std::size_t at = 0;
  for (const std::size_t cut : cuts) {
    if (cut == at) continue;
    const std::size_t old_count = at;
    graph.append_contacts(contacts.subspan(at, cut - at));
    at = cut;
    for (IncrementalSourceDp& dp : dps) {
      if (old_count == 0) {
        dp.bootstrap(graph, scratch);
        continue;
      }
      std::vector<std::vector<PathPair>> before;
      std::vector<std::vector<int>> versions_before;
      for (NodeId d = 0; d < n; ++d) {
        versions_before.push_back(levels(dp, d));
        for (int k = 1; k <= cap; ++k)
          before.push_back(pairs(dp.frontier_at(d, k)));
      }
      dp.apply(graph, old_count, scratch);
      std::size_t i = 0;
      for (NodeId d = 0; d < n; ++d) {
        const std::vector<int>& old_levels = versions_before[d];
        const std::vector<int> new_levels = levels(dp, d);
        for (const int l : new_levels)
          created += std::count(old_levels.begin(), old_levels.end(), l) == 0;
        for (const int l : old_levels)
          erased += std::count(new_levels.begin(), new_levels.end(), l) == 0;
        for (int k = 1; k <= cap; ++k)
          ASSERT_EQ(pairs(dp.lookup_original(scratch, d, k)), before[i++])
              << "cut " << cut << " source " << dp.source() << " node " << d
              << " level " << k;
      }
    }
  }
}

TEST(IncrementalEngine, LookupOriginalIsThePreApplyFrontier) {
  // The saved records are the epoch update's only source of the old
  // frontiers: after each apply, lookup_original must give back the
  // pre-apply frontier at every level, whether the apply rewrote it,
  // created a version there, erased one or left it alone. One-contact
  // epochs and multi-day ones, directed and undirected.
  std::size_t created = 0, erased = 0;
  unsigned seed = 95;
  for (const bool directed : {false, true}) {
    const TemporalGraph full = multi_day_graph(seed++, 5.0, 0.6, directed);
    const auto all = full.contacts();
    const std::size_t n = all.size();
    std::vector<std::size_t> cuts;
    for (std::size_t at = n / 5; at < n / 5 + 12; ++at) cuts.push_back(at);
    const std::size_t third = (n - cuts.back()) / 3;
    for (std::size_t e = 1; e < 3; ++e) cuts.push_back(cuts[11] + e * third);
    // The last two epochs each span more than a day of contacts.
    ASSERT_GT(all[cuts[13]].begin - all[cuts[12]].begin, kDay);
    ASSERT_GT(all[n - 1].begin - all[cuts[13]].begin, kDay);
    for (const int max_levels : {3, 64}) {
      IncrementalCdfOptions io;
      io.max_hops = 4;
      io.max_levels = max_levels;
      check_lookup_original(full, cuts, io, created, erased);
    }
  }
  // DeepestLevelDropsAndReturns' trace: its second epoch erases the only
  // level-3 version.
  const TemporalGraph drops(6,
                            {{0, 1, 1 * kHour, 1 * kHour + 100},
                             {0, 4, 1.5 * kHour, 1.5 * kHour + 100},
                             {1, 2, 2 * kHour, 2 * kHour + 100},
                             {2, 3, 5 * kHour, 5 * kHour + 100},
                             {0, 3, 5 * kHour, 5 * kHour + 200},
                             {0, 4, 5 * kHour + 60, 5 * kHour + 160},
                             {2, 5, 6 * kHour, 6 * kHour + 100}},
                            false);
  IncrementalCdfOptions io;
  io.max_hops = 3;
  check_lookup_original(drops, {4, 6}, io, created, erased);
  EXPECT_GT(created, 0u);
  EXPECT_GT(erased, 0u);
}

TEST(IncrementalEngine, EpochStateStaysSmallAgainstVersionLists) {
  // After a bulk load, 160 one-contact tail epochs: the apply scratch,
  // saved records included, is one per worker and holds one source's
  // epoch at a time, so it stays below a tenth of the versions however
  // many epochs ran. An epoch displaces every version of the nodes it
  // changes, about one per source here, so the trace needs enough nodes
  // (80) for that to be a small share; contacts are clipped to an hour
  // so that a days-long gathering does not carry each new pair to most
  // nodes.
  SyntheticTraceSpec spec;
  spec.num_internal = 80;
  spec.duration = 3 * kDay;
  spec.pair_contacts_mean = 0.6;
  spec.num_communities = 3;
  std::vector<Contact> generated =
      generate_trace(spec, 97).graph.contacts_vector();
  for (Contact& c : generated) c.end = std::min(c.end, c.begin + kHour);
  const TemporalGraph full(spec.num_internal, std::move(generated), false);
  const auto contacts = full.contacts();
  constexpr std::size_t kEpochs = 160, kPerEpoch = 1;
  ASSERT_GT(contacts.size(), 4 * kEpochs * kPerEpoch);
  IncrementalCdfOptions io;
  io.grid = test_grid(full);
  io.max_hops = 6;
  io.num_threads = 2;
  IncrementalAllPairsEngine engine(full.num_nodes(), false, io);
  std::size_t at = contacts.size() - kEpochs * kPerEpoch;
  engine.append(contacts.subspan(0, at));
  (void)engine.all_pairs();
  for (std::size_t e = 0; e < kEpochs; ++e, at += kPerEpoch) {
    engine.append(contacts.subspan(at, kPerEpoch));
    (void)engine.all_pairs();
    const LiveHeapBytes b = engine.heap_bytes();
    ASSERT_GT(b.scratch, 0u);
    ASSERT_LT(10 * b.scratch, b.versions)
        << "epoch " << e << ": scratch " << b.scratch << " versions "
        << b.versions;
  }
}

TEST(IncrementalEngine, CompactionReleasesALargeEpochsGarbage) {
  // One large tail epoch, then one-contact epochs. The pairs the large
  // epoch displaced stay in each source's arena as garbage, where the
  // saved records reach them, until an apply compacts the arena: the
  // next apply compacts exactly the sources with less than half their
  // headroom free or more than three times it spare, and drops their
  // garbage. After every epoch each arena stays within that band.
  SyntheticTraceSpec spec;
  spec.num_internal = 40;
  spec.duration = 3 * kDay;
  spec.pair_contacts_mean = 1.0;
  spec.num_communities = 3;
  const TemporalGraph full = generate_trace(spec, 99).graph;
  const auto contacts = full.contacts();
  const std::size_t n = contacts.size(), bulk = n / 3, tail = n - 12;
  ASSERT_GT(n, 400u);
  IncrementalCdfOptions io;
  io.grid = test_grid(full);
  io.max_hops = 6;
  io.num_threads = 1;
  IncrementalAllPairsEngine large(full.num_nodes(), false, io);
  large.append(contacts.subspan(0, bulk));
  large.append(contacts.subspan(bulk, tail - bulk));
  const auto garbage = [&](NodeId s) {
    const IncrementalSourceDp& dp = large.source_dp(s);
    return dp.arena().size() - dp.live_pairs();
  };
  std::vector<bool> compacts(full.num_nodes());
  std::vector<std::size_t> before(full.num_nodes());
  for (NodeId s = 0; s < full.num_nodes(); ++s) {
    const IncrementalSourceDp& dp = large.source_dp(s);
    const std::size_t h = dp.headroom();
    before[s] = garbage(s);
    compacts[s] = dp.arena().capacity() - dp.arena().size() < h / 2 ||
                  dp.arena().capacity() > dp.live_pairs() + 3 * h;
    ASSERT_EQ(dp.compactions(), 0u);
  }
  ASSERT_GT(std::count(compacts.begin(), compacts.end(), true), 0);
  std::size_t kept_before = 0, kept_after = 0;
  for (std::size_t at = tail; at < n; ++at) {
    large.append(contacts.subspan(at, 1));
    for (NodeId s = 0; s < full.num_nodes(); ++s) {
      const IncrementalSourceDp& dp = large.source_dp(s);
      if (at == tail) {
        EXPECT_EQ(dp.compactions(), compacts[s] ? 1u : 0u) << "source " << s;
        if (compacts[s]) {
          kept_before += before[s];
          kept_after += garbage(s);
        }
      }
      EXPECT_LE(dp.arena().capacity(), dp.live_pairs() + 3 * dp.headroom())
          << "source " << s << " contact " << at;
    }
  }
  EXPECT_LT(4 * kept_after, kept_before);
}

TEST(IncrementalEngine, CompactionKeepsEpochsBitIdentical) {
  // A bulk load, then one-contact tail epochs, enough for every source
  // to compact its arena more than once. A compaction moves every live
  // span; every epoch must still equal cold runs bit for bit. After
  // every append each arena's capacity exceeds its live pairs by at most
  // three times its headroom, unless that apply outgrew the arena (on
  // this small, dense trace one contact can rewrite most frontiers):
  // then the arena doubled to at most twice its pairs, and the next
  // apply must compact it.
  const TemporalGraph full = multi_day_graph(101, 4.0, 0.4, false);
  const std::size_t n = full.num_contacts();
  std::vector<std::size_t> cuts;
  for (std::size_t at = n / 2; at < n; ++at) cuts.push_back(at);
  IncrementalCdfOptions io;
  io.max_hops = 6;
  std::vector<std::size_t> compactions(full.num_nodes());
  std::vector<bool> over(full.num_nodes());
  check_epoch_cuts(
      full, cuts, io, {}, {}, [&](const IncrementalAllPairsEngine& engine) {
        for (NodeId s = 0; s < full.num_nodes(); ++s) {
          const IncrementalSourceDp& dp = engine.source_dp(s);
          if (over[s]) {
            EXPECT_GT(dp.compactions(), compactions[s]) << "source " << s;
          }
          compactions[s] = dp.compactions();
          const PairArena& a = dp.arena();
          over[s] = a.capacity() > dp.live_pairs() + 3 * dp.headroom();
          if (over[s]) {
            EXPECT_LE(a.capacity(), 2 * a.size()) << "source " << s;
          }
        }
      });
  for (NodeId s = 0; s < full.num_nodes(); ++s)
    EXPECT_GE(compactions[s], 2u) << "source " << s;
}

TEST(IncrementalEngine, EmptyFirstAppendThenBulkAndTail) {
  // An empty epoch first (every lane integrated over no pairs), then the
  // bulk backlog seeds the DPs through bootstrap, which saves no
  // records: its integration is a full pass over every destination the
  // bulk load gave pairs to, and the small tail epochs after it epoch
  // updates, with the explicit window and the growing NaN one.
  const TemporalGraph full = multi_day_graph(87, 3.0, 0.3, false);
  const std::size_t n = full.num_contacts();
  const std::vector<std::size_t> cuts{0, 0, n - 9, n - 6, n - 5, n - 2};
  for (const bool explicit_window : {true, false}) {
    IncrementalCdfOptions io;
    io.max_hops = 6;
    if (explicit_window) {
      io.t_lo = full.start_time();
      io.t_hi = full.end_time();
    }
    check_epoch_cuts(full, cuts, io);
  }
}

TEST(IncrementalEngine, OneContactTailEpochIntegratesFewPairs) {
  // A one-contact tail epoch on a multi-day trace integrates only the
  // pairs where the old and new frontiers of the nodes it changed differ.
  const TemporalGraph full = multi_day_graph(89, 4.5, 0.2, false, 14);
  const std::size_t n = full.num_contacts();
  IncrementalCdfOptions io;
  io.max_hops = 6;
  io.t_lo = full.start_time();
  io.t_hi = full.end_time();
  const std::vector<DelayCdfResult> epochs =
      check_epoch_cuts(full, {n - 1}, io);
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_LT(100 * epochs[1].stats.cdf_pairs_integrated,
            epochs[0].stats.cdf_pairs_integrated);
}

TEST(IncrementalEngine, PairsIntegratedDoNotDependOnAllPairsCalls) {
  // append() integrates each epoch whether or not all_pairs() follows,
  // so over the same epoch cuts the pairs all_pairs() reports add up to
  // the same count when it runs after every append as when it runs once
  // at the end, and the last results are bit-identical.
  const TemporalGraph full = multi_day_graph(103, 3.0, 0.4, false);
  const auto contacts = full.contacts();
  const std::size_t step = contacts.size() / 20 + 1;
  for (const bool explicit_window : {true, false}) {
    IncrementalCdfOptions io;
    io.grid = test_grid(full);
    io.max_hops = 5;
    if (explicit_window) {
      io.t_lo = full.start_time();
      io.t_hi = full.end_time();
    }
    IncrementalAllPairsEngine every(full.num_nodes(), false, io);
    IncrementalAllPairsEngine once(full.num_nodes(), false, io);
    std::uint64_t summed = 0;
    DelayCdfResult last;
    for (std::size_t at = 0; at < contacts.size(); at += step) {
      const auto batch =
          contacts.subspan(at, std::min(step, contacts.size() - at));
      every.append(batch);
      last = every.all_pairs();
      summed += last.stats.cdf_pairs_integrated;
      once.append(batch);
    }
    const DelayCdfResult folded_once = once.all_pairs();
    EXPECT_EQ(folded_once.stats.cdf_pairs_integrated, summed)
        << "explicit window " << explicit_window;
    expect_bit_identical(folded_once, last);
  }
}

TEST(IncrementalEngine, ThreadCountsGiveIdenticalEpochs) {
  // The same epoch split at 1 and 3 workers: every epoch folds the same
  // partials, brought up to date by the same integrations.
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

/// Threads of this process (entries of /proc/self/task); 0 where the
/// directory is unavailable.
std::size_t process_threads() {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec))
    ++n;
  return ec ? 0 : n;
}

/// process_threads() once joined threads have left the task list: two
/// reads 5 ms apart agree.
std::size_t settled_threads() {
  std::size_t prev = process_threads();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::size_t now = process_threads();
    if (now == prev) break;
    prev = now;
  }
  return prev;
}

TEST(IncrementalEngine, KeepsOnePoolAcrossEpochs) {
  // num_threads = 3: the engine builds one pool (the caller plus two
  // threads) and keeps it for its lifetime. Each epoch's DP fan-out and
  // fold run on that pool, so no epoch starts or joins threads.
  if (process_threads() == 0) GTEST_SKIP() << "no /proc/self/task";
  const TemporalGraph full = multi_day_graph(73, 2.0, 0.5, false);
  const auto contacts = full.contacts();
  const std::size_t step = contacts.size() / 4 + 1;
  IncrementalCdfOptions io;
  io.grid = test_grid(full);
  io.max_hops = 4;
  io.num_threads = 3;
  // The cold reference may start the shared pool: before the count.
  const DelayCdfResult cold = compute_delay_cdf(full, cold_options(io));
  const std::size_t before = settled_threads();
  {
    IncrementalAllPairsEngine engine(full.num_nodes(), full.directed(), io);
    EXPECT_EQ(settled_threads(), before + 2);
    for (std::size_t at = 0; at < contacts.size(); at += step) {
      engine.append(contacts.subspan(at, std::min(step, contacts.size() - at)));
      (void)engine.all_pairs();
      EXPECT_EQ(settled_threads(), before + 2) << "after contact " << at;
    }
    expect_bit_identical(engine.all_pairs(), cold);
  }
  EXPECT_EQ(settled_threads(), before);
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

TEST(IncrementalEngine, WindowOutsideFixedPointRangeThrows) {
  // 3 nodes: 6 ordered pairs, so a 2e12 s window is 1.2e13 pair-seconds,
  // past the accumulators' 2^43 s range; 1e12 s (6e12) is within it.
  IncrementalCdfOptions io;
  io.grid = {1.0, 5.0, 10.0, 100.0};
  io.max_hops = 2;
  io.t_lo = 0.0;
  io.t_hi = 2e12;
  const std::vector<Contact> one{{0, 1, 10.0, 20.0}};
  IncrementalAllPairsEngine over(3, false, io);
  over.append(one);
  EXPECT_THROW(over.all_pairs(), std::invalid_argument);
  io.t_hi = 1e12;
  IncrementalAllPairsEngine legal(3, false, io);
  legal.append(one);
  expect_bit_identical(legal.all_pairs(),
                       compute_delay_cdf(TemporalGraph(3, one, false),
                                         cold_options(io)));
}

// ---------------------------------------------------------------------
// LiveIngestSession

/// A followed feed file in a fresh temporary directory.
class FollowedFeed : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("odtn_follow_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    feed_ = (dir_ / "feed.trace").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static void write(const std::string& file, const std::string& text,
                    std::ios::openmode mode = std::ios::trunc) {
    std::ofstream out(file, std::ios::binary | std::ios::out | mode);
    out << text;
  }

  /// Reads exactly `bytes` bytes, the feed's whole current content.
  static void read_all(LiveTailReader& reader, std::size_t bytes) {
    char buf[64];
    for (std::size_t got = 0; got < bytes;)
      got += reader.read_chunk(buf, std::min(sizeof buf, bytes - got));
  }

  /// One read_chunk on another thread, waited for at most 5 s: the
  /// TraceError it throws, or what else happened. On a timeout `unblock`
  /// must give the stuck reader bytes, so the thread always ends.
  static std::string one_read(LiveTailReader& reader,
                              const std::function<void()>& unblock) {
    std::promise<std::string> result;
    std::future<std::string> done = result.get_future();
    std::thread t([&] {
      char buf[64];
      try {
        const std::size_t got = reader.read_chunk(buf, sizeof buf);
        result.set_value("read " + std::to_string(got) + " bytes");
      } catch (const TraceError& e) {
        result.set_value(e.what());
      }
    });
    if (done.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
      unblock();
      t.join();
      return "no error within 5 s (" + done.get() + ")";
    }
    t.join();
    return done.get();
  }

  std::filesystem::path dir_;
  std::string feed_;
};

const char kFeedHeader[] = "# odtn-trace v1\n# nodes 3\n# directed 0\n";

TEST_F(FollowedFeed, TruncatedFeedFailsInsteadOfGoingSilent) {
  const std::string before = std::string(kFeedHeader) +
                             "0 1 10 20\n1 2 30 40\n0 2 50 60\n";
  write(feed_, before);
  LiveTailReader reader(feed_, /*follow=*/true, /*poll_ms=*/5);
  read_all(reader, before.size());
  // Rewritten shorter in place (same inode) with two later contacts: the
  // reader's offset now lies past the end of the file.
  write(feed_, std::string(kFeedHeader) + "0 1 70 80\n1 2 90 95\n");
  const std::string outcome = one_read(reader, [&] {
    write(feed_, std::string(before.size(), '\n'), std::ios::app);
  });
  EXPECT_NE(outcome.find("truncated"), std::string::npos) << outcome;
  EXPECT_NE(outcome.find(feed_), std::string::npos) << outcome;
}

TEST_F(FollowedFeed, RotatedFeedFailsOnceThePathNamesAnotherFile) {
  const std::string before = std::string(kFeedHeader) + "0 1 10 20\n";
  write(feed_, before);
  LiveTailReader reader(feed_, /*follow=*/true, /*poll_ms=*/5);
  read_all(reader, before.size());
  // Renamed away: until a new file takes the path, the open file is
  // still the feed, and what is appended to it is read.
  const std::string rotated = (dir_ / "feed.trace.1").string();
  std::filesystem::rename(feed_, rotated);
  write(rotated, "1 2 30 40\n", std::ios::app);
  EXPECT_EQ(one_read(reader, [&] { write(rotated, "\n", std::ios::app); }),
            "read 10 bytes");
  // A new, longer file at the path: the open one will never grow again.
  write(feed_, before + "1 2 30 40\n0 2 50 60\n");
  const std::string outcome = one_read(reader, [&] {
    write(rotated, "\n", std::ios::app);
  });
  EXPECT_NE(outcome.find("replaced"), std::string::npos) << outcome;
}

TEST_F(FollowedFeed, GrowingFeedKeepsBeingRead) {
  const std::string before = std::string(kFeedHeader) + "0 1 10 20\n";
  write(feed_, before);
  LiveTailReader reader(feed_, /*follow=*/true, /*poll_ms=*/5);
  read_all(reader, before.size());
  write(feed_, "1 2 30 40\n", std::ios::app);
  EXPECT_EQ(one_read(reader, [&] { write(feed_, "\n", std::ios::app); }),
            "read 10 bytes");
}

TEST_F(FollowedFeed, FeedRewrittenInPlaceFails) {
  // Rewritten in place (same inode) with another contact of the same
  // length, then of a greater one: neither the size nor the path gives
  // it away, but the bytes before the read offset changed.
  const std::string before = std::string(kFeedHeader) + "0 1 10 20\n";
  for (const std::string after : {"1 2 30 40\n", "1 2 30 40\n0 2 50 60\n"}) {
    write(feed_, before);
    LiveTailReader reader(feed_, /*follow=*/true, /*poll_ms=*/5);
    read_all(reader, before.size());
    write(feed_, std::string(kFeedHeader) + after);
    const std::string outcome = one_read(reader, [&] {
      write(feed_, std::string(before.size(), '\n'), std::ios::app);
    });
    EXPECT_NE(outcome.find("was rewritten"), std::string::npos) << outcome;
  }
}

TEST(LiveIngestSession, RejectsBadWindowBeforeAnyFeed) {
  // An infinite bound or an empty explicit window fails at construction
  // -- not after the backlog's bootstrap DP -- with the messages
  // compute_delay_cdf gives. A NaN bound is resolved later.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  IncrementalCdfOptions io;
  io.grid = make_log_grid(kMinute, kHour, 8);
  const std::pair<double, double> bad[] = {
      {kNaN, kInf}, {-kInf, kNaN}, {0.0, kInf}, {10.0, 5.0}, {5.0, 5.0}};
  for (const auto& [lo, hi] : bad) {
    io.t_lo = lo;
    io.t_hi = hi;
    EXPECT_THROW(LiveIngestSession{io}, std::invalid_argument)
        << lo << " " << hi;
    EXPECT_THROW(IncrementalAllPairsEngine(3, false, io), std::invalid_argument)
        << lo << " " << hi;
    try {
      check_window_bounds(lo, hi);
      ADD_FAILURE() << "no throw for " << lo << " " << hi;
    } catch (const std::invalid_argument& e) {
      DelayCdfOptions o = cold_options(io);
      try {
        compute_delay_cdf(TemporalGraph(3, {{0, 1, 0.0, 20.0}}), o);
        ADD_FAILURE() << "compute_delay_cdf accepted " << lo << " " << hi;
      } catch (const std::invalid_argument& cold) {
        EXPECT_STREQ(e.what(), cold.what());
      }
    }
  }
  for (const auto& [lo, hi] :
       {std::pair{kNaN, kNaN}, std::pair{10.0, kNaN}, std::pair{5.0, 10.0}}) {
    io.t_lo = lo;
    io.t_hi = hi;
    EXPECT_NO_THROW(LiveIngestSession{io});
  }
}

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
// QueryEngine ingest: a successful append empties the cache, a refused
// one leaves graph and cache as they were

QueryEngineOptions ingest_options(const TemporalGraph& g) {
  QueryEngineOptions qo;
  qo.grid = test_grid(g);
  qo.max_hops = 6;
  return qo;
}

TEST(QueryEngineIngest, IngestEmptiesTheCache) {
  const TemporalGraph full = sample_graph(53, 10);
  const auto contacts = full.contacts();
  const std::size_t half = contacts.size() / 2;

  const QueryEngineOptions qo = ingest_options(full);
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
  const LruCacheStats before = engine.cache_stats();
  EXPECT_EQ(before.entries, full.num_nodes());

  const std::uint64_t epoch = engine.ingest(contacts.subspan(half));
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(engine.graph().num_contacts(), full.num_contacts());

  // No pre-ingest partial stays resident; the counters keep their totals.
  const LruCacheStats after_ingest = engine.cache_stats();
  EXPECT_EQ(after_ingest.entries, 0u);
  EXPECT_EQ(after_ingest.bytes, 0u);
  EXPECT_EQ(after_ingest.hits, before.hits);
  EXPECT_EQ(after_ingest.evictions, before.evictions);

  // The first post-ingest run misses for every source and matches a cold
  // engine on the full graph bit for bit.
  const DelayCdfResult after = engine.all_pairs();
  EXPECT_EQ(after.stats.cache_hits, 0u);
  EXPECT_EQ(after.stats.cache_misses, full.num_nodes());
  QueryEngine cold(TemporalGraph(full.num_nodes(), full.contacts_vector(),
                                 full.directed()),
                   qo);
  expect_bit_identical(after, cold.all_pairs());
}

/// Warms `engine`, has `refused` throw, then requires the next all_pairs
/// to be all hits, bit-identical to the warm answer, on an unchanged graph.
void expect_refusal_keeps_cache(QueryEngine& engine,
                                const std::function<void()>& refused) {
  const DelayCdfResult warm = engine.all_pairs();
  const std::size_t contacts = engine.graph().num_contacts();
  const LruCacheStats before = engine.cache_stats();
  ASSERT_EQ(before.entries, engine.graph().num_nodes());

  EXPECT_ANY_THROW(refused());
  EXPECT_EQ(engine.graph().num_contacts(), contacts);
  EXPECT_EQ(engine.graph().epoch(), 0u);
  EXPECT_EQ(engine.cache_stats().entries, before.entries);
  EXPECT_EQ(engine.cache_stats().bytes, before.bytes);

  const DelayCdfResult again = engine.all_pairs();
  EXPECT_EQ(again.stats.cache_hits, engine.graph().num_nodes());
  EXPECT_EQ(again.stats.cache_misses, 0u);
  expect_bit_identical(warm, again);
}

TEST(QueryEngineIngest, RefusedIngestKeepsTheCacheWarm) {
  const TemporalGraph g = sample_graph(53, 10);
  const QueryEngineOptions qo = ingest_options(g);
  const Contact last = g.contacts().back();
  const NodeId n = static_cast<NodeId>(g.num_nodes());
  // Each batch is refused: a contact below the watermark, and batches
  // whose first contact is valid but a later one breaks the order or
  // names a node outside the graph.
  const std::vector<std::vector<Contact>> batches = {
      {{0, 1, last.begin - 100.0, last.begin - 50.0}},
      {{0, 1, last.begin + 10.0, last.begin + 20.0},
       {0, 1, last.begin + 5.0, last.begin + 6.0}},
      {{0, 1, last.begin + 10.0, last.begin + 20.0},
       {0, n, last.begin + 30.0, last.begin + 40.0}},
  };
  for (const std::vector<Contact>& batch : batches) {
    QueryEngine engine(g, qo);
    expect_refusal_keeps_cache(engine, [&] { engine.ingest(batch); });
  }

  // A snapshot view is read-only: its ingest is refused as well.
  QueryEngine mapped(decode_snapshot(std::make_shared<
                                     const std::vector<std::uint8_t>>(
                         encode_snapshot(g))),
                     qo);
  const Contact late{0, 1, last.begin + 10.0, last.begin + 20.0};
  expect_refusal_keeps_cache(mapped, [&] {
    mapped.ingest(std::span<const Contact>(&late, 1));
  });
}

}  // namespace
}  // namespace odtn
