// serve_mixed: the `odtn serve` read path with its result cache. A
// 120-node, 3-day conference trace is parsed into one QueryEngine with
// 2 workers. One client runs a closed loop; every block of 100 queries
// holds 80 source_cdf (Zipf-popular sources over {whole span, each
// day}), 8 reachable_count, 8 journey, 3 all_pairs and 1 ingest of
// contacts past the watermark, which makes every cached key
// unreachable. The cache holds about half the distinct-key working set,
// so hits, misses and LRU evictions all occur. Bypasses live_ingest,
// incremental_engine and snapshots.
#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>
#include <optional>
#include <string>
#include <vector>

#include "core/query_engine.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "stats/log_grid.hpp"
#include "trace/trace_io.hpp"
#include "util/rng.hpp"
#include "util/time_format.hpp"
#include "workloads.hpp"

namespace odtnbench {

using namespace odtn;

namespace {

enum class Verb { kCdf, kReach, kJourney, kAllPairs, kIngest };

struct Query {
  Verb verb;
  NodeId a = 0;
  NodeId b = 0;
  double lo = QueryEngine::kWholeSpan;  // source_cdf window
  double hi = QueryEngine::kWholeSpan;
  double t = 0.0;  // reachable_count start time
};

/// Check every kCheckEvery-th query against a fresh engine's cold answer
/// (coprime to the block length, so every block position gets checked).
constexpr std::uint64_t kCheckEvery = 37;
constexpr std::size_t kIngestBatch = 5;
constexpr int kWindows = 4;

QueryEngineOptions engine_options(std::size_t cache_bytes) {
  QueryEngineOptions o;
  o.grid = make_log_grid(2 * kMinute, kDay, 48);
  o.max_hops = 10;
  o.num_threads = 2;
  o.cache_bytes = cache_bytes;
  return o;
}

/// What QueryEngine::all_pairs computes over the whole span.
DelayCdfOptions all_pairs_options() {
  const QueryEngineOptions q = engine_options(0);
  DelayCdfOptions o;
  o.grid = q.grid;
  o.max_hops = q.max_hops;
  o.max_levels = q.max_levels;
  o.num_threads = q.num_threads;
  return o;
}

/// Zipf(1) over a seeded popularity order of the nodes.
class ZipfSources {
 public:
  ZipfSources(std::size_t n, Rng& rng) : order_(n), cdf_(n) {
    for (std::size_t i = 0; i < n; ++i) order_[i] = static_cast<NodeId>(i);
    for (std::size_t i = n; i > 1; --i)
      std::swap(order_[i - 1], order_[rng.below(i)]);
    double sum = 0;
    for (std::size_t r = 0; r < n; ++r) cdf_[r] = sum += 1.0 / double(r + 1);
    for (double& c : cdf_) c /= sum;
  }
  NodeId draw(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.next_double());
    return order_[std::min<std::size_t>(it - cdf_.begin(), order_.size() - 1)];
  }

 private:
  std::vector<NodeId> order_;
  std::vector<double> cdf_;
};

/// The query mix, stratified: every block of 100 queries opens with
/// one ingest (a periodic write) followed by exactly these counts in a
/// seeded order, so runs with different seeds do the same amount of
/// each kind of work and every block pays one post-ingest cold path.
constexpr std::pair<Verb, int> kMix[] = {{Verb::kCdf, 80},
                                         {Verb::kReach, 8},
                                         {Verb::kJourney, 8},
                                         {Verb::kAllPairs, 3}};

class QueryStream {
 public:
  QueryStream(Rng& rng, std::size_t nodes, double t0, double t1)
      : rng_(rng), zipf_(nodes, rng), nodes_(nodes), t0_(t0), t1_(t1) {}

  Query next() {
    if (block_.empty()) {
      for (const auto& [verb, count] : kMix) block_.insert(block_.end(), count, verb);
      for (std::size_t i = block_.size(); i > 1; --i)
        std::swap(block_[i - 1], block_[rng_.below(i)]);
      block_.push_back(Verb::kIngest);  // popped first
    }
    Query q{block_.back()};
    block_.pop_back();
    q.a = zipf_.draw(rng_);
    if (q.verb == Verb::kCdf) {
      // Window 0 is the whole span, 1..3 the trace's days.
      if (const auto w = rng_.below(kWindows); w > 0) {
        q.lo = t0_ + static_cast<double>(w - 1) * kDay;
        q.hi = t0_ + static_cast<double>(w) * kDay;
      }
    }
    if (q.verb == Verb::kReach) q.t = rng_.uniform(t0_, t1_);
    if (q.verb == Verb::kJourney) {
      q.b = static_cast<NodeId>(rng_.below(nodes_ - 1));
      if (q.b >= q.a) ++q.b;
    }
    return q;
  }

 private:
  Rng& rng_;
  ZipfSources zipf_;
  std::size_t nodes_;
  double t0_, t1_;
  std::vector<Verb> block_;
};

/// kIngestBatch short canonical-order contacts just past the watermark,
/// so repeated ingests barely stretch the trace span.
std::vector<Contact> ingest_batch(Rng& rng, std::size_t nodes, double after) {
  std::vector<Contact> batch;
  double t = after;
  for (std::size_t i = 0; i < kIngestBatch; ++i) {
    t += rng.uniform(1.0, 10.0);
    const auto u = static_cast<NodeId>(rng.below(nodes));
    auto v = static_cast<NodeId>(rng.below(nodes - 1));
    if (v >= u) ++v;
    batch.push_back({u, v, t, t + rng.uniform(10.0, 120.0)});
  }
  std::sort(batch.begin(), batch.end(), contact_less);
  return batch;
}

/// What a client reads off one answer, for the cold comparison.
struct Answer {
  std::optional<DelayCdfResult> cdf;
  std::size_t reach = 0;
  JourneyOptima journey;
};

bool same_answer(const Answer& a, const Answer& b) {
  if (a.cdf.has_value() != b.cdf.has_value()) return false;
  if (a.cdf && !same_result(*a.cdf, *b.cdf)) return false;
  return a.reach == b.reach &&
         a.journey.shortest_hops == b.journey.shortest_hops &&
         a.journey.fastest_duration == b.journey.fastest_duration &&
         a.journey.fastest_departure == b.journey.fastest_departure;
}

/// Runs one query; `batch` holds the contacts of an ingest.
Answer ask(QueryEngine& engine, const Query& q,
           const std::vector<Contact>& batch) {
  Answer a;
  switch (q.verb) {
    case Verb::kCdf:
      a.cdf = engine.source_cdf(q.a, q.lo, q.hi);
      break;
    case Verb::kReach:
      a.reach = engine.reachable_count(q.a, q.t);
      break;
    case Verb::kJourney:
      a.journey = engine.journey(q.a, q.b);
      break;
    case Verb::kAllPairs:
      a.cdf = engine.all_pairs();
      break;
    case Verb::kIngest:
      engine.ingest(batch);
      break;
  }
  return a;
}

const char* verb_name(Verb v, bool hit) {
  switch (v) {
    case Verb::kCdf:
      return hit ? "query_engine.cdf_hit" : "query_engine.cdf_miss";
    case Verb::kReach:
      return "query_engine.reach";
    case Verb::kJourney:
      return "query_engine.journey";
    case Verb::kAllPairs:
      return "query_engine.all_pairs";
    case Verb::kIngest:
      return "query_engine.ingest";
  }
  return "";
}

}  // namespace

void run_serve_mixed(const RunConfig& cfg, Report& report) {
  Tracer tracer;
  const std::string path = cfg.workdir + "/serve_mixed.trace";
  const TemporalGraph original = serve_trace(cfg.seed);
  write_trace_file(path, original);

  // Cache budget: half the distinct-key working set, measured as the
  // bytes one cached partial (plus its key) is charged.
  std::size_t entry_bytes = 0;
  {
    QueryEngine probe(original, engine_options(64u << 20));
    probe.source_cdf(0);
    entry_bytes = probe.cache_stats().bytes;
  }
  const std::size_t working_set = original.num_nodes() * kWindows;
  const std::size_t budget = entry_bytes * working_set / 2;

  // Setup: parse + engine construction (+ its lazy index build).
  reset_peak_rss();
  tracer.enabled = cfg.trace;
  SetupTimes setup;
  std::optional<QueryEngine> engine;
  for (int rep = 0; rep < 51; ++rep) {
    engine.reset();
    const Stopwatch sw;
    TemporalGraph parsed(0, {});
    {
      ScopedSpan span(tracer, "trace_io.parse", rep);
      parsed = read_trace_file(path);
    }
    {
      ScopedSpan span(tracer, "query_engine.construct", rep);
      engine.emplace(std::move(parsed), engine_options(budget));
    }
    {
      ScopedSpan span(tracer, "temporal_graph.index_build", rep);
      engine->graph().node_offsets();
    }
    setup.add(sw);
  }
  std::printf("trace: %zu nodes, %zu contacts; cache %zu bytes = %zu of %zu "
              "keys\n",
              original.num_nodes(), original.num_contacts(), budget,
              working_set / 2, working_set);

  Rng rng = Rng::keyed(cfg.seed, 0x5e7e);
  QueryStream stream(rng, original.num_nodes(), original.start_time(),
                     original.end_time());
  std::vector<double> wall, cpu, traced;
  std::map<std::string, std::uint64_t> counts;
  std::uint64_t checks = 0, mismatches = 0;
  const double start = wall_ms();
  for (std::uint64_t i = 0; wall_ms() - start < cfg.seconds * 1e3; ++i) {
    const Query q = stream.next();
    std::vector<Contact> batch;
    if (q.verb == Verb::kIngest) {
      const auto contacts = engine->graph().contacts();
      batch = ingest_batch(rng, original.num_nodes(), contacts.back().begin);
    }

    // Traced runs alternate whole mix blocks, so every verb (the ingest
    // opens each block) is traced as often as it is not.
    tracer.enabled = cfg.trace && (i / 100) % 2 == 1;
    ++report.attempted;
    Answer answer;
    const Stopwatch sw;
    const int span = tracer.begin(verb_name(q.verb, false), i);
    try {
      answer = ask(*engine, q, batch);
    } catch (const std::exception& e) {
      tracer.end(span);
      std::printf("query %llu failed: %s\n",
                  static_cast<unsigned long long>(i), e.what());
      ++report.failed;
      continue;
    }
    const double dt = sw.wall();
    const double dc = sw.cpu();
    tracer.end(span);
    // A source_cdf call is a hit or a miss only once it returned.
    const bool hit = q.verb == Verb::kCdf && answer.cdf->stats.cache_hits > 0;
    if (hit) tracer.rename(span, verb_name(q.verb, true));
    ++counts[verb_name(q.verb, hit)];
    if (tracer.enabled) {
      traced.push_back(dt);
    } else {
      wall.push_back(dt);
      cpu.push_back(dc);
    }

    if (i % kCheckEvery == 0 && q.verb != Verb::kIngest) {
      QueryEngine fresh(TemporalGraph(engine->graph()), engine_options(0));
      ++checks;
      if (!same_answer(answer, ask(fresh, q, batch))) ++mismatches;
    }
  }

  report.check(checks > 0 && mismatches == 0,
               "sampled answers equal a fresh engine's cold answers (" +
                   std::to_string(checks) + ")");

  const double qps = report.op_metrics(
      wall, cpu, static_cast<double>(wall.size()), 99.5, setup);
  report.named("query_ms_p50", median(wall), "ms", wall.size());
  report.named("query_ms_p99", percentile(wall, 99), "ms", wall.size());
  report.named("queries_per_s", qps, "1/s", wall.size());

  if (cfg.trace) {
    tracer.enabled = true;
    report_engine_layers(report, original, all_pairs_options(), 0.0, tracer,
                         nullptr);
    for (const char* verb :
         {"cdf_hit", "cdf_miss", "all_pairs", "reach", "journey", "ingest"}) {
      const std::string name = std::string("query_engine.") + verb;
      report.layer(name + "_ms_p50", median(tracer.durations(name)), "ms");
      report.layer(name, static_cast<double>(counts[name]), "count");
    }
    const LruCacheStats cs = engine->cache_stats();
    report.layer("lru_cache.hits", double(cs.hits), "count");
    report.layer("lru_cache.misses", double(cs.misses), "count");
    report.layer("lru_cache.evictions", double(cs.evictions), "count");
    report.layer("lru_cache.hit_ratio",
                 cs.hits + cs.misses ? double(cs.hits) / double(cs.hits + cs.misses)
                                     : 0.0,
                 "ratio");
    report.layer("lru_cache.bytes", double(cs.bytes), "bytes");
    report.layer("lru_cache.entries", double(cs.entries), "count");
    report_parse_layers(report, tracer, path);
    report_trace_overhead(report, wall, traced);
    tracer.write_jsonl(cfg.spans_path);
  }
}

}  // namespace odtnbench
