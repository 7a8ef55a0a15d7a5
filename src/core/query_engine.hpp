// QueryEngine: the serving-path facade behind `odtn serve`. It owns (or
// borrows) a TemporalGraph -- typically a zero-copy snapshot view
// (trace/snapshot.hpp) -- and answers batched queries through a
// byte-budgeted LRU result cache (util/lru_cache.hpp).
//
// What is cached, and why the answers stay bit-identical:
//
//   The unit of caching is one source's PRE-FINALIZE SourceCdfPartial --
//   the raw difference-array lanes that compute_delay_cdf's workers
//   produce. All-pairs answers are the canonical ascending-endpoint
//   left-chain fold of those partials, run by the same driver
//   (fold_sources, core/source_cdf.hpp) with a cache probe in front of
//   each source, so a run that pulls some partials from cache and
//   computes the rest folds THE SAME DOUBLES IN THE SAME ORDER as a cold
//   run: every CDF value, diameter and denominator is bit-identical,
//   whatever subset hit. Finalization (prefix-merge + evaluation) always
//   happens fresh on the folded total. Only the instrumentation counters
//   differ between warm and cold runs -- a cache hit skips the
//   propagation engine, so contacts_examined et al. count only the
//   computed sources, and the cache_hits / cache_misses /
//   cache_evictions counters say why.
//
// Cache keys bind the partial to everything that determines its bytes:
// a generation drawn from a process-wide counter at construction and at
// every ingest (no two engine states share one), the hop budget, the
// level cap, the grid's exact bit patterns, the resolved start-time
// windows' bit patterns, and the source id. The serve path always runs
// the pooled engine with incremental accumulation, so neither is a key
// ingredient. Engines can therefore safely SHARE one cache (pass the
// same shared_ptr): keys of different engines never collide, even over
// graphs that agree in size and span.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/diameter.hpp"
#include "core/journeys.hpp"
#include "core/source_cdf.hpp"
#include "core/temporal_graph.hpp"
#include "util/lru_cache.hpp"

namespace odtn {

/// The serve-path result cache: key = query fingerprint (binary string),
/// value = one source's pre-finalize CDF partial.
using ServeCache = LruCache<std::string, SourceCdfPartial>;

struct QueryEngineOptions {
  /// Delay grid for CDF queries (positive, strictly increasing). Must be
  /// non-empty; the CLI defaults to make_log_grid over the trace span.
  std::vector<double> grid;
  int max_hops = 10;
  int max_levels = 64;
  /// Total cache budget in bytes. 0 disables caching (every query
  /// computes cold).
  std::size_t cache_bytes = 256u << 20;
  /// Worker threads for all-pairs fan-out; 0 = shared pool.
  unsigned num_threads = 0;
};

class QueryEngine {
 public:
  /// Takes the graph by value: a snapshot view copies in O(1) (shared
  /// mapping + indexes), an owned graph moves. Pass `cache` to share one
  /// LRU across engines (nullptr: the engine builds a private cache from
  /// the options).
  QueryEngine(TemporalGraph graph, QueryEngineOptions options,
              std::shared_ptr<ServeCache> cache = nullptr);

  static constexpr double kWholeSpan = std::numeric_limits<double>::quiet_NaN();

  /// Delay CDF aggregated over all destinations for one source, message
  /// creation times uniform over [t_lo, t_hi] (NaN = the whole trace
  /// span). Served from cache when this source was already computed
  /// under the same window -- including by a previous all_pairs call.
  DelayCdfResult source_cdf(NodeId source, double t_lo = kWholeSpan,
                            double t_hi = kWholeSpan);

  /// All-pairs delay CDFs / (1-eps)-diameter over a window, folding
  /// cached and freshly computed per-source partials in canonical order
  /// (bit-identical to compute_delay_cdf on a cold cache, and to itself
  /// on any warm subset).
  DelayCdfResult all_pairs(double t_lo = kWholeSpan, double t_hi = kWholeSpan);

  /// Number of nodes (excluding the source) reachable by a message
  /// created at `source` at time `t`, unlimited hops.
  std::size_t reachable_count(NodeId source, double t) const;

  /// Journey optima (foremost/fastest/shortest) from source to
  /// destination.
  JourneyOptima journey(NodeId source, NodeId destination) const;

  /// Appends one canonical-order contact batch to the served graph
  /// (TemporalGraph::append_contacts semantics) and draws a new cache-key
  /// generation, so every pre-append cached partial
  /// becomes unreachable -- stale entries age out of the LRU instead of
  /// ever being served. Snapshot-view engines cannot ingest (the view is
  /// read-only); the underlying append throws std::logic_error. Not
  /// thread-safe against concurrent queries on this engine: callers
  /// serialize ingest against query execution (the serve loop does).
  /// Returns the graph epoch after the append.
  std::uint64_t ingest(std::span<const Contact> batch);

  const TemporalGraph& graph() const noexcept { return graph_; }
  const QueryEngineOptions& options() const noexcept { return options_; }
  LruCacheStats cache_stats() const { return cache_->stats(); }

  /// Bytes charged to the cache per stored partial besides its key: the
  /// partial's heap footprint ((max_hops+1) accumulators, each owning a
  /// grid copy and two (grid+1)-double lanes, plus the headers) and a
  /// fixed estimate for the cache's own entry bookkeeping.
  std::size_t cached_partial_bytes() const noexcept;

 private:
  DelayCdfResult run(const std::vector<NodeId>& sources,
                     const DelayCdfOptions& options);
  DelayCdfOptions cdf_options(double t_lo, double t_hi) const;
  std::string query_key(NodeId source, const TimeWindows& windows) const;
  void rebuild_key_prefix();

  TemporalGraph graph_;
  QueryEngineOptions options_;
  std::shared_ptr<ServeCache> cache_;
  std::string key_prefix_;  // generation + hop/level budgets + grid bytes
  std::vector<NodeId> all_nodes_;
  std::vector<std::uint8_t> is_endpoint_;  // all-ones mask over nodes
};

}  // namespace odtn
