#include "core/query_engine.hpp"

#include <cstdio>
#include <cstring>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.hpp"

namespace odtn {
namespace {

void append_bytes(std::string& out, const void* data, std::size_t n) {
  out.append(static_cast<const char*>(data), n);
}

template <typename T>
void append_pod(std::string& out, T v) {
  append_bytes(out, &v, sizeof v);
}

/// Cheap fingerprint of the served graph: identifies the trace and the
/// transform chain that produced it. num_nodes/num_contacts/directedness
/// plus the bit patterns of the span endpoints: stable across copies
/// (and across snapshot views of the same trace), and any trace
/// transform (filter, window restriction, import) perturbs at least one
/// field.
std::string graph_transform_key(const TemporalGraph& graph) {
  std::uint64_t start_bits = 0, end_bits = 0;
  const double start = graph.start_time(), end = graph.end_time();
  std::memcpy(&start_bits, &start, sizeof start_bits);
  std::memcpy(&end_bits, &end, sizeof end_bits);
  char buf[96];
  std::snprintf(buf, sizeof buf, "trace:n%zu:c%zu:d%d:s%016llx:e%016llx",
                graph.num_nodes(), graph.num_contacts(),
                graph.directed() ? 1 : 0,
                static_cast<unsigned long long>(start_bits),
                static_cast<unsigned long long>(end_bits));
  return buf;
}

}  // namespace

QueryEngine::QueryEngine(TemporalGraph graph, QueryEngineOptions options,
                         std::shared_ptr<ServeCache> cache)
    : graph_(std::move(graph)), options_(std::move(options)) {
  if (options_.grid.empty())
    throw std::invalid_argument("QueryEngine: empty delay grid");
  if (options_.max_hops < 1)
    throw std::invalid_argument("QueryEngine: max_hops must be >= 1");
  cache_ = cache ? std::move(cache)
                 : std::make_shared<ServeCache>(options_.cache_bytes,
                                                options_.cache_shards);
  rebuild_key_prefix();
  all_nodes_.resize(graph_.num_nodes());
  std::iota(all_nodes_.begin(), all_nodes_.end(), NodeId{0});
  is_endpoint_.assign(graph_.num_nodes(), 1);
}

// Everything that determines a partial's bytes, once per engine state.
// The tail appended per query (source + windows) is fixed-layout, so two
// keys agree iff every ingredient agrees -- no framing ambiguity. The
// graph epoch participates so an ingest invalidates every earlier key:
// stale partials become unreachable and age out of the LRU.
void QueryEngine::rebuild_key_prefix() {
  key_prefix_ = graph_transform_key(graph_);
  key_prefix_ += ':';
  append_pod(key_prefix_, graph_.epoch());
  append_pod(key_prefix_, static_cast<std::int32_t>(options_.max_hops));
  append_pod(key_prefix_, static_cast<std::int32_t>(options_.max_levels));
  // The full grid by bit pattern, not a hash: a hash collision would
  // silently fold a partial integrated on a different grid.
  append_pod(key_prefix_, static_cast<std::uint64_t>(options_.grid.size()));
  append_bytes(key_prefix_, options_.grid.data(),
               options_.grid.size() * sizeof(double));
}

std::uint64_t QueryEngine::ingest(std::span<const Contact> batch) {
  const std::uint64_t epoch = graph_.append_contacts(batch);
  rebuild_key_prefix();
  return epoch;
}

std::size_t QueryEngine::cached_partial_bytes() const noexcept {
  // A cached partial is a copy of SourceCdfPartial(grid, max_hops): the
  // object itself (holding `unbounded`), the max_hops accumulator headers
  // of by_hops, and per accumulator its own copy of the G-point grid plus
  // the two (G+1)-double difference arrays.
  const std::size_t hops = static_cast<std::size_t>(options_.max_hops);
  const std::size_t g = options_.grid.size();
  const std::size_t lanes = (hops + 1) * (g + 2 * (g + 1)) * sizeof(double);
  // The shared_ptr control block, the LRU list node and the hash-index
  // node; the key's two heap copies are charged per put.
  constexpr std::size_t kEntryOverhead = 160;
  return sizeof(SourceCdfPartial) + hops * sizeof(MeasureCdfAccumulator) +
         lanes + kEntryOverhead;
}

std::string QueryEngine::query_key(NodeId source,
                                   const TimeWindows& windows) const {
  std::string key = key_prefix_;
  append_pod(key, static_cast<std::uint32_t>(source));
  for (const auto& [lo, hi] : windows) {
    append_pod(key, lo);
    append_pod(key, hi);
  }
  return key;
}

DelayCdfOptions QueryEngine::cdf_options(double t_lo, double t_hi) const {
  DelayCdfOptions o;
  o.grid = options_.grid;
  o.max_hops = options_.max_hops;
  o.max_levels = options_.max_levels;
  o.t_lo = t_lo;
  o.t_hi = t_hi;
  o.num_threads = options_.num_threads;
  return o;
}

DelayCdfResult QueryEngine::run(const std::vector<NodeId>& sources,
                                const DelayCdfOptions& options) {
  const TimeWindows w = resolve_cdf_windows(graph_, options);
  const bool incremental = use_incremental_accumulation(options);
  const std::size_t partial_cost = cached_partial_bytes();

  std::optional<ThreadPool> local_pool;
  if (options.num_threads != 0) local_pool.emplace(options.num_threads);
  ThreadPool& pool = local_pool ? *local_pool : shared_thread_pool();

  struct CacheCounters {
    std::uint64_t hits = 0, misses = 0, evictions = 0;
  };
  std::vector<CacheCounters> counters(pool.num_workers());
  OrderedCdfFolder folder(options.grid, options.max_hops, sources.size());

  // Same shape as compute_delay_cdf's driver (core/diameter.cpp), with
  // a cache probe in front of process_source. Hits and misses all land
  // in the folder in ascending source order, so mixing them changes no
  // bit of the answer -- see the header's contract.
  std::vector<SourceCdfWorker> workers(pool.num_workers());
  std::vector<SourceCdfPartial> scratch;
  scratch.reserve(pool.num_workers());
  for (unsigned t = 0; t < pool.num_workers(); ++t)
    scratch.emplace_back(options.grid, options.max_hops);

  pool.parallel_for(sources.size(), [&](std::size_t i, unsigned worker) {
    const std::string key = query_key(sources[i], w);
    if (const std::shared_ptr<const SourceCdfPartial> hit = cache_->get(key)) {
      ++counters[worker].hits;
      folder.submit(i, *hit);
      return;
    }
    ++counters[worker].misses;
    SourceCdfPartial& partial = scratch[worker];
    partial.clear();
    process_source(graph_, sources[i], all_nodes_, is_endpoint_, w,
                   options.max_hops, options.max_levels, options.engine,
                   incremental, workers[worker], partial);
    counters[worker].evictions +=
        cache_->put(key, std::make_shared<SourceCdfPartial>(partial),
                    partial_cost + 2 * key.size());
    folder.submit(i, partial);
  });

  EngineStats stats;
  for (const SourceCdfWorker& worker : workers) stats.merge(worker.take_stats());
  for (const CacheCounters& c : counters) {
    stats.cache_hits += c.hits;
    stats.cache_misses += c.misses;
    stats.cache_evictions += c.evictions;
  }
  return finalize_delay_cdf(folder.total(), stats, options, incremental);
}

DelayCdfResult QueryEngine::source_cdf(NodeId source, double t_lo,
                                       double t_hi) {
  if (source >= graph_.num_nodes())
    throw std::invalid_argument("QueryEngine::source_cdf: bad source");
  return run({source}, cdf_options(t_lo, t_hi));
}

DelayCdfResult QueryEngine::all_pairs(double t_lo, double t_hi) {
  return run(all_nodes_, cdf_options(t_lo, t_hi));
}

std::size_t QueryEngine::reachable_count(NodeId source, double t) const {
  if (source >= graph_.num_nodes())
    throw std::invalid_argument("QueryEngine::reachable_count: bad source");
  SingleSourceEngine engine(graph_, source);
  engine.run_to_fixpoint(options_.max_levels);
  std::size_t reached = 0;
  for (NodeId n = 0; n < graph_.num_nodes(); ++n) {
    if (n == source) continue;
    if (engine.frontier_view(n).deliver_at(t) < 1e300) ++reached;
  }
  return reached;
}

JourneyOptima QueryEngine::journey(NodeId source, NodeId destination) const {
  if (source >= graph_.num_nodes() || destination >= graph_.num_nodes())
    throw std::invalid_argument("QueryEngine::journey: bad node id");
  return compute_journeys(graph_, source, options_.max_levels)[destination];
}

}  // namespace odtn
