// live_tail: the `odtn tail` write path. A 120-node, 20-day conference
// trace arrives as text bytes through LiveIngestSession: the first 90%
// as one bulk backlog (set-up), then the rest as small tail epochs whose
// records are shuffled, plus a few stale records that sort below the
// watermark. Closed loop: each epoch is fed, committed, and its
// all-pairs row produced before the next epoch is fed. Bypasses the
// query engine, its cache, trace_io's file reader and snapshots.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/diameter.hpp"
#include "core/incremental_engine.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "stats/log_grid.hpp"
#include "trace/live_ingest.hpp"
#include "util/rng.hpp"
#include "util/time_format.hpp"
#include "workloads.hpp"

namespace odtnbench {

using namespace odtn;

namespace {

constexpr double kBacklogShare = 0.90;
constexpr std::size_t kTailEpochs = 200;
// Every kLateEvery-th epoch carries one stale record.
constexpr std::size_t kLateEvery = 10;

void append_line(std::string& out, const Contact& c) {
  char buf[96];
  const int n = std::snprintf(buf, sizeof buf, "%u %u %.17g %.17g\n", c.u,
                              c.v, c.begin, c.end);
  out.append(buf, static_cast<std::size_t>(n));
}

struct Feed {
  std::string backlog;              // header + bulk records
  std::vector<std::string> epochs;  // tail epochs, records shuffled
  std::vector<std::size_t> late;    // stale records per epoch
};

Feed make_feed(const TemporalGraph& trace, std::uint64_t seed) {
  const auto contacts = trace.contacts();
  const std::size_t bulk = static_cast<std::size_t>(
      kBacklogShare * static_cast<double>(contacts.size()));
  Feed feed;
  feed.backlog = "# odtn-trace v1\n# nodes " +
                 std::to_string(trace.num_nodes()) + "\n# directed 0\n";
  for (std::size_t i = 0; i < bulk; ++i) append_line(feed.backlog, contacts[i]);

  Rng rng = Rng::keyed(seed, 0x7a11);
  const std::size_t tail = contacts.size() - bulk;
  const double watermark = contacts[bulk - 1].begin;
  for (std::size_t e = 0; e < kTailEpochs; ++e) {
    std::vector<Contact> batch(contacts.begin() + bulk + e * tail / kTailEpochs,
                               contacts.begin() + bulk +
                                   (e + 1) * tail / kTailEpochs);
    std::size_t late = 0;
    if (e % kLateEvery == kLateEvery - 1) {
      // A record from the first half of the backlog: its begin is below
      // every later watermark, so the session must drop and count it.
      const Contact& stale = contacts[rng.below(bulk / 2)];
      if (stale.begin < watermark) {
        batch.push_back(stale);
        late = 1;
      }
    }
    for (std::size_t i = batch.size(); i > 1; --i)
      std::swap(batch[i - 1], batch[rng.below(i)]);
    std::string text;
    for (const Contact& c : batch) append_line(text, c);
    feed.epochs.push_back(std::move(text));
    feed.late.push_back(late);
  }
  return feed;
}

}  // namespace

void run_live_tail(const RunConfig& cfg, Report& report) {
  Tracer tracer;
  const TemporalGraph trace = live_trace(cfg.seed);
  const Feed feed = make_feed(trace, cfg.seed);

  IncrementalCdfOptions io;
  io.grid = make_log_grid(2 * kMinute, kDay, 48);
  io.max_hops = 10;
  // A fixed start-time window (the whole observation span) keeps clean
  // sources' partials valid across epochs, as a deployed monitor would.
  io.t_lo = trace.start_time();
  io.t_hi = trace.end_time();
  io.num_threads = 2;

  // Setup: bulk backlog feed, commit and first all-pairs row.
  reset_peak_rss();
  tracer.enabled = cfg.trace;
  SetupTimes setup;
  std::optional<LiveIngestSession> session;
  auto open_session = [&](std::uint64_t rep) {
    session.emplace(io);
    {
      ScopedSpan span(tracer, "live_ingest.backlog_feed", rep);
      constexpr std::size_t kChunk = 64 * 1024;
      const std::string& text = feed.backlog;
      for (std::size_t off = 0; off < text.size(); off += kChunk)
        session->feed(text.data() + off, std::min(kChunk, text.size() - off));
    }
    {
      ScopedSpan span(tracer, "live_ingest.bulk_commit", rep);
      session->commit_epoch();
    }
    ScopedSpan span(tracer, "incremental_engine.bulk_all_pairs", rep);
    session->engine()->all_pairs();
  };
  for (int rep = 0; rep < 3; ++rep) {
    const Stopwatch sw;
    open_session(rep);
    setup.add(sw);
  }
  std::printf("trace: %zu nodes, %zu contacts, backlog %zu bytes, %zu tail "
              "epochs\n",
              trace.num_nodes(), trace.num_contacts(), feed.backlog.size(),
              feed.epochs.size());

  std::vector<double> wall, cpu, traced, pairs, accepted;
  double tail_contacts = 0;  // accepted in untraced epochs
  std::size_t next = 0, injected = 0, restarts = 0;
  DelayCdfResult last;
  const double start = wall_ms();
  for (std::uint64_t i = 0; wall_ms() - start < cfg.seconds * 1e3; ++i) {
    if (next == feed.epochs.size()) {
      // Tail exhausted before the time was up: replay it on a fresh
      // session (untimed) so every epoch keeps the same cost profile.
      tracer.enabled = false;
      open_session(0);
      next = 0;
      injected = 0;
      ++restarts;
    }
    tracer.enabled = cfg.trace && i % 2 == 1;
    ++report.attempted;
    const std::size_t before = session->stats().contacts_ingested;
    const Stopwatch sw;
    try {
      ScopedSpan epoch(tracer, "epoch", i);
      const std::string& text = feed.epochs[next];
      {
        ScopedSpan span(tracer, "live_ingest.feed", i);
        session->feed(text.data(), text.size());
      }
      {
        ScopedSpan span(tracer, "incremental_engine.commit", i);
        session->commit_epoch();
      }
      ScopedSpan span(tracer, "incremental_engine.all_pairs", i);
      last = session->engine()->all_pairs();
    } catch (const std::exception& e) {
      std::printf("epoch %llu failed: %s\n",
                  static_cast<unsigned long long>(i), e.what());
      ++report.failed;
      ++next;
      continue;
    }
    const double dt = sw.wall();
    const double dc = sw.cpu();
    injected += feed.late[next];
    ++next;
    const double added =
        static_cast<double>(session->stats().contacts_ingested - before);
    if (tracer.enabled) {
      traced.push_back(dt);
    } else {
      wall.push_back(dt);
      cpu.push_back(dc);
      tail_contacts += added;
    }
    accepted.push_back(added);
    pairs.push_back(static_cast<double>(last.stats.cdf_pairs_integrated));
  }
  std::printf("tail epochs run %zu, replays %zu\n", wall.size() + traced.size(),
              restarts);

  // Checks: the last row equals a cold kDirect recompute over exactly
  // the accepted contacts, and every stale record was counted.
  const TemporalGraph accepted_graph(trace.num_nodes(),
                                     session->engine()->graph().contacts_vector());
  DelayCdfOptions cold;
  cold.grid = io.grid;
  cold.max_hops = io.max_hops;
  cold.max_levels = io.max_levels;
  cold.t_lo = io.t_lo;
  cold.t_hi = io.t_hi;
  cold.accumulation = CdfAccumulation::kDirect;
  cold.num_threads = 2;
  report.check(same_result(last, compute_delay_cdf(accepted_graph, cold)),
               "final epoch bit-identical to cold kDirect recompute");
  report.check(session->stats().below_watermark == injected,
               "below_watermark equals injected stale records (" +
                   std::to_string(injected) + ")");

  const double contacts_per_s =
      report.op_metrics(wall, cpu, tail_contacts, 90, setup);
  report.named("epoch_ms_p50", median(wall), "ms", wall.size());
  report.named("epoch_ms_p90", percentile(wall, 90), "ms", wall.size());
  report.named("tail_contacts_per_s", contacts_per_s, "1/s", wall.size());

  if (cfg.trace) {
    tracer.enabled = true;
    DelayCdfResult serial;
    report_engine_layers(report, accepted_graph, cold, 0.0, tracer, &serial);
    report.check(same_result(last, serial),
                 "final epoch bit-identical to serial re-drive");
    report.layer("live_ingest.feed_ms_p50",
                 median(tracer.durations("live_ingest.feed")), "ms");
    report.layer("live_ingest.bulk_commit_ms",
                 median(tracer.durations("live_ingest.bulk_commit")), "ms");
    report.layer("live_ingest.below_watermark",
                 static_cast<double>(session->stats().below_watermark), "count");
    const auto commits = tracer.durations("incremental_engine.commit");
    const auto rows = tracer.durations("incremental_engine.all_pairs");
    report.layer("incremental_engine.commit_ms_p50", median(commits), "ms");
    report.layer("incremental_engine.commit_ms_p90", percentile(commits, 90),
                 "ms");
    report.layer("incremental_engine.all_pairs_ms_p50", median(rows), "ms");
    report.layer("incremental_engine.all_pairs_ms_p90", percentile(rows, 90),
                 "ms");
    report.layer("incremental_engine.pairs_integrated_per_epoch",
                 median(pairs), "count");
    report.layer("incremental_engine.contacts_per_epoch", median(accepted),
                 "count");
    report_trace_overhead(report, wall, traced);
    tracer.write_jsonl(cfg.spans_path);
  }
}

}  // namespace odtnbench
