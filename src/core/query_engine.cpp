#include "core/query_engine.hpp"

#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace odtn {
namespace {

template <typename T>
void append_pod(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// Fixed layout: two keys agree iff the source and every window bound
/// agree bit for bit.
std::string cache_key(NodeId source, const TimeWindows& windows) {
  std::string key;
  append_pod(key, static_cast<std::uint32_t>(source));
  for (const auto& [lo, hi] : windows) {
    append_pod(key, lo);
    append_pod(key, hi);
  }
  return key;
}

}  // namespace

QueryEngine::QueryEngine(TemporalGraph graph, QueryEngineOptions options)
    : graph_(std::move(graph)),
      options_(std::move(options)),
      cache_(options_.cache_bytes) {
  if (options_.grid.empty())
    throw std::invalid_argument("QueryEngine: empty delay grid");
  if (options_.max_hops < 1)
    throw std::invalid_argument("QueryEngine: max_hops must be >= 1");
  all_nodes_.resize(graph_.num_nodes());
  std::iota(all_nodes_.begin(), all_nodes_.end(), NodeId{0});
  is_endpoint_.assign(graph_.num_nodes(), 1);
}

// The cache holds partials of the current graph only, so a successful
// append empties it; a refused one throws first and keeps every entry.
std::uint64_t QueryEngine::ingest(std::span<const Contact> batch) {
  const std::uint64_t epoch = graph_.append_contacts(batch);
  cache_.clear();
  return epoch;
}

std::size_t QueryEngine::cached_partial_bytes() const noexcept {
  // A cached partial is a copy of SourceCdfPartial(grid, max_hops): the
  // object itself (holding `unbounded`), the max_hops accumulator headers
  // of by_hops, and per accumulator its own copy of the G-point grid plus
  // the two (G+1)-word difference arrays.
  const std::size_t hops = static_cast<std::size_t>(options_.max_hops);
  const std::size_t g = options_.grid.size();
  const std::size_t lanes =
      (hops + 1) * (g * sizeof(double) + 2 * (g + 1) * sizeof(std::uint64_t));
  // The shared_ptr control block, the LRU list node and the hash-index
  // node; the key's two heap copies are charged per put.
  constexpr std::size_t kEntryOverhead = 160;
  return sizeof(SourceCdfPartial) + hops * sizeof(MeasureCdfAccumulator) +
         lanes + kEntryOverhead;
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

  // A cache probe in front of process_source. Hits and misses land in
  // the folder in arrival order; its sums are exact, so mixing them
  // changes no bit of the answer -- see the header's contract.
  return fold_sources(
      sources.size(), options, incremental,
      [&](std::size_t i, SourceCdfWorker& worker, SourceCdfPartial& partial,
          OrderedCdfFolder& folder) {
        const std::string key = cache_key(sources[i], w);
        if (const std::shared_ptr<const SourceCdfPartial> hit =
                cache_.get(key)) {
          ++worker.stats.cache_hits;
          folder.submit(i, *hit);
          return;
        }
        ++worker.stats.cache_misses;
        process_source(graph_, sources[i], all_nodes_, is_endpoint_, w,
                       options.max_hops, options.max_levels, options.engine,
                       incremental, worker, partial);
        worker.stats.cache_evictions +=
            cache_.put(key, std::make_shared<SourceCdfPartial>(partial),
                       partial_cost + 2 * key.size());
        folder.submit(i, partial);
      });
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
  if (std::isnan(t))
    throw std::invalid_argument("QueryEngine::reachable_count: NaN time");
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
