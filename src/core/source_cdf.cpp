#include "core/source_cdf.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace odtn {
namespace {

void record_fixpoint(SourceCdfPartial& out, int fixpoint, int max_levels) {
  if (fixpoint > max_levels) out.converged = false;
  out.fixpoint_hops = std::max(out.fixpoint_hops, fixpoint);
}

bool blocks_equal(const double* a, const double* b, std::size_t k) noexcept {
  return std::memcmp(a, b, k * sizeof(double)) == 0;
}

constexpr std::size_t kTrimBlock = 8;

/// Length of the longest common prefix of the lane pairs (a0, a1) and
/// (b0, b1)[0, n) under value equality. Bitwise-equal runs are found
/// block-first (memcmp), then refined per element under operator==, so a
/// lone +0.0/-0.0 flip inside a block does not end the prefix early.
std::size_t equal_prefix2(const double* a0, const double* a1,
                          const double* b0, const double* b1,
                          std::size_t n) noexcept {
  std::size_t p = 0;
  while (p + kTrimBlock <= n && blocks_equal(a0 + p, b0 + p, kTrimBlock) &&
         blocks_equal(a1 + p, b1 + p, kTrimBlock))
    p += kTrimBlock;
  while (p < n && a0[p] == b0[p] && a1[p] == b1[p]) ++p;
  return p;
}

/// Longest common suffix of (a0, a1)[0, an) and (b0, b1)[0, bn) under
/// value equality, capped at max_n.
std::size_t equal_suffix2(const double* a0, const double* a1, std::size_t an,
                          const double* b0, const double* b1, std::size_t bn,
                          std::size_t max_n) noexcept {
  std::size_t s = 0;
  while (s + kTrimBlock <= max_n &&
         blocks_equal(a0 + an - s - kTrimBlock, b0 + bn - s - kTrimBlock,
                      kTrimBlock) &&
         blocks_equal(a1 + an - s - kTrimBlock, b1 + bn - s - kTrimBlock,
                      kTrimBlock))
    s += kTrimBlock;
  while (s < max_n && a0[an - 1 - s] == b0[bn - 1 - s] &&
         a1[an - 1 - s] == b1[bn - 1 - s])
    ++s;
  return s;
}

/// One destination's incremental CDF update: retract the pre-change
/// frontier's integration (weight -1) and add the new one's (+1).
///
/// Both versions are pooled-engine arena spans whose shared pairs are
/// value-identical (merge_frontier copies doubles verbatim), so they are
/// first diffed: the common prefix and suffix would be retracted at -1
/// and re-added at +1 with identical segment arguments, so only the
/// differing middle slice is integrated. Skipping a cancelling +/- pair
/// never changes the exact sum, it only removes two rounding
/// round-trips; the slices stay exact because the suffix is extended by
/// one pair whenever its start boundary (the predecessor's ld) differs
/// between the versions.
void integrate_frontier_delta(const FrontierView& old_f,
                              const FrontierView& new_f, const TimeWindows& w,
                              MeasureCdfAccumulator& acc,
                              std::uint64_t& pairs_integrated) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const double* o_ld = old_f.soa_ld();
  const double* o_ea = old_f.soa_ea();
  const double* n_ld = new_f.soa_ld();
  const double* n_ea = new_f.soa_ea();
  const std::size_t on = old_f.size(), nn = new_f.size();
  const std::size_t match_max = std::min(on, nn);
  const std::size_t p = equal_prefix2(o_ld, o_ea, n_ld, n_ea, match_max);
  std::size_t s = equal_suffix2(o_ld, o_ea, on, n_ld, n_ea, nn, match_max - p);
  if (s > 0) {
    // The first suffix pair's segment starts at its predecessor's ld; if
    // the predecessors differ the pair belongs to the middle. One step
    // suffices: the next suffix pair's predecessor is then itself a
    // matched pair.
    const double ob = on - s > 0 ? o_ld[on - s - 1] : kNegInf;
    const double nb = nn - s > 0 ? n_ld[nn - s - 1] : kNegInf;
    if (ob != nb) --s;
  }
  const double boundary = p > 0 ? o_ld[p - 1] : kNegInf;
  const std::size_t om = on - p - s, nm = nn - p - s;
  if (om + nm > 0) {
    acc.add_delivery_segments(o_ld + p, o_ea + p, om, w.data(), w.size(),
                              -1.0, boundary);
    acc.add_delivery_segments(n_ld + p, n_ea + p, nm, w.data(), w.size(),
                              +1.0, boundary);
  }
  pairs_integrated += om + nm;
}

void process_source_direct(const TemporalGraph& graph, NodeId src,
                           const std::vector<NodeId>& endpoints,
                           const TimeWindows& w, int max_hops, int max_levels,
                           EngineMode mode, SourceCdfWorker& worker,
                           SourceCdfPartial& out) {
  SingleSourceEngine engine(graph, src, mode);
  LaneScratch& lane = worker.lane;
  auto integrate = [&](MeasureCdfAccumulator& acc) {
    lane.frontiers.clear();
    for (NodeId dst : endpoints)
      if (dst != src) lane.frontiers.push_back(engine.frontier_view(dst));
    worker.stats.cdf_pairs_integrated += integrate_lane(w, lane, acc);
  };
  for (int k = 1; k <= max_hops; ++k) {
    engine.step();  // no-op once at fixpoint; frontiers stay L_inf
    integrate(out.by_hops[k - 1]);
  }
  record_fixpoint(out, engine.run_to_fixpoint(max_levels), max_levels);
  integrate(out.unbounded);
  worker.stats.merge(engine.stats());
}

void process_source_incremental(const TemporalGraph& graph, NodeId src,
                                const std::vector<NodeId>& endpoints,
                                const std::vector<std::uint8_t>& is_endpoint,
                                const TimeWindows& w, int max_hops,
                                int max_levels, EngineMode mode,
                                SourceCdfWorker& worker,
                                SourceCdfPartial& out) {
  // Only the pooled engine publishes per-level change sets: under the
  // level sweep every delta would be empty and the partial silently zero.
  if (mode != EngineMode::kPooled)
    throw std::invalid_argument(
        "process_source: incremental accumulation requires the pooled "
        "engine (kPooled)");
  if (!worker.engine)
    worker.engine.emplace(graph, src, mode);
  else
    worker.engine->reset(src);
  SingleSourceEngine& engine = *worker.engine;

  // Observation measure for every (src, dst) pair of this source parks
  // in the hop-1 accumulator; prefix_merge propagates it to every hop
  // budget and to `unbounded`.
  out.by_hops[0].add_observation_measure(
      total_window_measure(w) * static_cast<double>(endpoints.size() - 1));

  // After each level, only destinations whose frontier changed move any
  // CDF: retract the pre-change frontier's integration and add the new
  // one (integrate_frontier_delta above). Everything else is carried
  // over by the finalization prefix sum.
  auto apply_level_deltas = [&](MeasureCdfAccumulator& acc) {
    const std::vector<NodeId>& changed = engine.last_changed();
    for (std::size_t i = 0; i < changed.size(); ++i) {
      const NodeId dst = changed[i];
      if (dst == src || !is_endpoint[dst]) continue;
      integrate_frontier_delta(engine.previous_frontier_view(i),
                               engine.frontier_view(dst), w, acc,
                               worker.stats.cdf_pairs_integrated);
    }
  };
  for (int k = 1; k <= max_hops; ++k) {
    engine.step();  // no-op once at fixpoint: last_changed() is empty
    apply_level_deltas(out.by_hops[k - 1]);
  }
  // Levels past the last budget feed the unbounded accumulator, which
  // finalization chains onto by_hops[max_hops - 1] -- reaching the
  // fixpoint costs only the residual deltas, never a full re-pass.
  while (!engine.at_fixpoint() && engine.hops() < max_levels) {
    engine.step();
    apply_level_deltas(out.unbounded);
  }
  record_fixpoint(out, engine.at_fixpoint() ? engine.hops() : max_levels + 1,
                  max_levels);
}

}  // namespace

std::uint64_t integrate_lane(const TimeWindows& w, LaneScratch& scratch,
                             MeasureCdfAccumulator& acc,
                             const LaneCheckpoint* checkpoint,
                             double capture_block) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const std::vector<FrontierView>& frontiers = scratch.frontiers;
  if (checkpoint)
    acc.load_numerators(checkpoint->numerators);
  else
    acc.clear();

  // ea ascends along a frontier, so each frontier's first and last walked
  // pairs bound its blocks, and its pairs below the capture block are a
  // prefix of its walk.
  const auto start_of = [&](std::size_t j) -> std::uint32_t {
    return checkpoint ? checkpoint->resume[j] : 0;
  };
  std::size_t total = 0;
  double lo = std::numeric_limits<double>::infinity(), hi = kNegInf;
  for (std::size_t j = 0; j < frontiers.size(); ++j) {
    const FrontierView& f = frontiers[j];
    const auto n = static_cast<std::uint32_t>(f.size());
    assert(start_of(j) <= n);
    if (start_of(j) == n) continue;
    lo = std::min(lo, time_block(f.ea(start_of(j))));
    hi = std::max(hi, time_block(f.ea(n - 1)));
    total += n - start_of(j);
  }
  // One bucket per block of [lo, hi], or per distinct block when that
  // range is sparse against the pair count.
  std::vector<double>& distinct = scratch.blocks;
  const bool dense = total == 0 || hi - lo < static_cast<double>(total) + 64.0;
  distinct.clear();
  if (!dense) {
    for (std::size_t j = 0; j < frontiers.size(); ++j)
      for (std::size_t i = start_of(j); i < frontiers[j].size(); ++i)
        distinct.push_back(time_block(frontiers[j].ea(i)));
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
  }
  const auto bucket_of = [&](double block) {
    return dense ? static_cast<std::size_t>(block - lo)
                 : static_cast<std::size_t>(
                       std::lower_bound(distinct.begin(), distinct.end(),
                                        block) -
                       distinct.begin());
  };
  const std::size_t num_buckets =
      total == 0 ? 0 : dense ? static_cast<std::size_t>(hi - lo) + 1
                             : distinct.size();
  std::vector<std::vector<LaneScratch::Pair>>& buckets = scratch.buckets;
  if (buckets.size() < num_buckets) buckets.resize(num_buckets);
  for (std::size_t b = 0; b < num_buckets; ++b) buckets[b].clear();

  // Walk in (destination, pair) order; appending keeps that order within
  // each bucket. Each pair carries its segment's lower boundary. The
  // resume index is read before the walk overwrites it.
  std::size_t settled = 0;  // walked pairs below the capture block
  for (std::size_t j = 0; j < frontiers.size(); ++j) {
    const FrontierView& f = frontiers[j];
    const auto n = static_cast<std::uint32_t>(f.size());
    const std::uint32_t start = start_of(j);
    std::uint32_t below = 0;
    double prev_ld = start > 0 ? f.ld(start - 1) : kNegInf;
    for (std::uint32_t i = start; i < n; ++i) {
      const double ld = f.ld(i), ea = f.ea(i);
      const double block = time_block(ea);
      buckets[bucket_of(block)].push_back({prev_ld, ld, ea});
      below += block < capture_block;
      prev_ld = ld;
    }
    settled += below;
    if (checkpoint) checkpoint->resume[j] = start + below;
  }

  // Stream the segments in block order, storing the checkpoint where the
  // first pair at or past the capture block begins.
  SegmentBatcher sb(acc);
  const auto capture = [&] {
    sb.flush();
    acc.store_numerators(checkpoint->numerators);
  };
  const std::pair<double, double>* windows = w.data();
  const std::size_t num_windows = w.size();
  std::size_t streamed = 0;
  for (std::size_t b = 0; b < num_buckets; ++b) {
    for (const LaneScratch::Pair& p : buckets[b]) {
      if (checkpoint && streamed++ == settled) capture();
      if (num_windows == 1) {
        const double lo_t = std::max(p.prev_ld, windows[0].first);
        const double hi_t = std::min(p.ld, windows[0].second);
        if (lo_t < hi_t) sb.push(lo_t, hi_t, p.ea);
        continue;
      }
      sb.push_frontier(&p.ld, &p.ea, 1, windows, num_windows, p.prev_ld);
    }
  }
  if (checkpoint && settled == total) capture();
  sb.flush();

  const double window_measure = total_window_measure(w);
  for (std::size_t j = 0; j < frontiers.size(); ++j)
    acc.add_observation_measure(window_measure);
  return total;
}

TimeWindows resolve_cdf_windows(const TemporalGraph& graph,
                                const DelayCdfOptions& options) {
  if (!options.windows.empty()) {
    double prev = -std::numeric_limits<double>::infinity();
    for (const auto& [lo, hi] : options.windows) {
      if (!(lo <= hi) || lo < prev)
        throw std::invalid_argument(
            "compute_delay_cdf: windows must be disjoint and increasing");
      prev = hi;
    }
    return options.windows;
  }
  double lo = options.t_lo, hi = options.t_hi;
  if (std::isnan(lo)) lo = graph.start_time();
  if (std::isnan(hi)) hi = graph.end_time();
  if (!(lo <= hi))
    throw std::invalid_argument("compute_delay_cdf: empty start-time window");
  return {{lo, hi}};
}

double total_window_measure(const TimeWindows& windows) {
  double total = 0.0;
  for (const auto& [lo, hi] : windows) total += hi - lo;
  return total;
}

std::vector<NodeId> resolve_cdf_endpoints(const TemporalGraph& graph,
                                          const DelayCdfOptions& options) {
  std::vector<NodeId> endpoints = options.endpoints;
  if (endpoints.empty()) {
    endpoints.resize(graph.num_nodes());
    for (std::size_t i = 0; i < endpoints.size(); ++i)
      endpoints[i] = static_cast<NodeId>(i);
  }
  for (NodeId n : endpoints) {
    if (n >= graph.num_nodes())
      throw std::invalid_argument("compute_delay_cdf: endpoint out of range");
  }
  return endpoints;
}

bool use_incremental_accumulation(const DelayCdfOptions& options) {
  const bool incremental =
      options.accumulation == CdfAccumulation::kIncremental ||
      (options.accumulation == CdfAccumulation::kAuto &&
       options.engine != EngineMode::kLevelSweep);
  if (incremental && options.engine == EngineMode::kLevelSweep)
    throw std::invalid_argument(
        "compute_delay_cdf: incremental accumulation requires the pooled "
        "engine (kPooled)");
  return incremental;
}

SourceCdfPartial::SourceCdfPartial(const std::vector<double>& grid,
                                   int max_hops)
    : unbounded(grid) {
  by_hops.reserve(max_hops);
  for (int k = 0; k < max_hops; ++k) by_hops.emplace_back(grid);
}

void SourceCdfPartial::clear() {
  for (MeasureCdfAccumulator& acc : by_hops) acc.clear();
  unbounded.clear();
  fixpoint_hops = 0;
  converged = true;
}

void SourceCdfPartial::merge_from(const SourceCdfPartial& other) {
  for (std::size_t k = 0; k < by_hops.size(); ++k)
    by_hops[k].merge(other.by_hops[k]);
  unbounded.merge(other.unbounded);
  fixpoint_hops = std::max(fixpoint_hops, other.fixpoint_hops);
  converged = converged && other.converged;
}

EngineStats SourceCdfWorker::take_stats() const {
  EngineStats out = stats;
  if (engine) out.merge(engine->stats());
  return out;
}

void process_source(const TemporalGraph& graph, NodeId src,
                    const std::vector<NodeId>& endpoints,
                    const std::vector<std::uint8_t>& is_endpoint,
                    const TimeWindows& w, int max_hops, int max_levels,
                    EngineMode mode, bool incremental,
                    SourceCdfWorker& worker, SourceCdfPartial& out) {
  if (incremental)
    process_source_incremental(graph, src, endpoints, is_endpoint, w,
                               max_hops, max_levels, mode, worker, out);
  else
    process_source_direct(graph, src, endpoints, w, max_hops, max_levels,
                          mode, worker, out);
}

OrderedCdfFolder::OrderedCdfFolder(const std::vector<double>& grid,
                                   int max_hops, std::size_t count)
    : total_(grid, max_hops), count_(count) {}

void OrderedCdfFolder::submit(std::size_t index,
                              const SourceCdfPartial& partial) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (index != next_) {
    pending_.emplace(index, partial);
    return;
  }
  total_.merge_from(partial);
  ++next_;
  // Drain buffered successors now contiguous with the fold front.
  auto it = pending_.begin();
  while (it != pending_.end() && it->first == next_) {
    total_.merge_from(it->second);
    ++next_;
    it = pending_.erase(it);
  }
}

SourceCdfPartial& OrderedCdfFolder::total() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (next_ != count_ || !pending_.empty())
    throw std::logic_error("OrderedCdfFolder: fold incomplete");
  return total_;
}

DelayCdfResult fold_sources(std::size_t count, const DelayCdfOptions& options,
                            bool incremental, const FoldSourceFn& source) {
  // Dynamic hand-out: expensive sources (dense neighborhoods, long
  // traces) do not serialize behind a strided static partition.
  std::optional<ThreadPool> local_pool;
  if (options.num_threads != 0) local_pool.emplace(options.num_threads);
  ThreadPool& pool = local_pool ? *local_pool : shared_thread_pool();

  std::vector<SourceCdfWorker> workers(pool.num_workers());
  std::vector<SourceCdfPartial> scratch;
  scratch.reserve(pool.num_workers());
  for (unsigned t = 0; t < pool.num_workers(); ++t)
    scratch.emplace_back(options.grid, options.max_hops);
  OrderedCdfFolder folder(options.grid, options.max_hops, count);

  pool.parallel_for(count, [&](std::size_t i, unsigned worker) {
    scratch[worker].clear();
    source(i, workers[worker], scratch[worker], folder);
  });

  EngineStats stats;
  for (const SourceCdfWorker& worker : workers)
    stats.merge(worker.take_stats());
  return finalize_delay_cdf(folder.total(), stats, options, incremental);
}

DelayCdfResult finalize_delay_cdf(SourceCdfPartial& total,
                                  const EngineStats& stats,
                                  const DelayCdfOptions& options,
                                  bool incremental) {
  if (incremental) {
    // Reconstruct CDF_k = CDF_{k-1} + delta_k across the hop budgets and
    // chain the past-max_hops deltas onto the last budget for the
    // unbounded CDF. Folding the per-source partials first is equivalent
    // (both are sums over the same segment set).
    MeasureCdfAccumulator::prefix_merge(total.by_hops);
    total.unbounded.merge(total.by_hops.back());
  }

  DelayCdfResult result;
  result.grid = options.grid;
  result.cdf_by_hops.reserve(options.max_hops);
  for (int k = 0; k < options.max_hops; ++k)
    result.cdf_by_hops.push_back(total.by_hops[k].cdf());
  result.cdf_unbounded = total.unbounded.cdf();
  if (incremental) {
    // The prefix-reconstructed CDFs are mathematically monotone in the
    // hop budget, but each budget's numerator carries its own rounding,
    // so adjacent budgets can invert by ~1 ulp where the delta is zero.
    // Clamp to restore the exact invariant consumers rely on.
    for (int k = 1; k < options.max_hops; ++k)
      for (std::size_t j = 0; j < result.grid.size(); ++j)
        result.cdf_by_hops[k][j] =
            std::max(result.cdf_by_hops[k][j], result.cdf_by_hops[k - 1][j]);
    for (std::size_t j = 0; j < result.grid.size(); ++j)
      result.cdf_unbounded[j] =
          std::max(result.cdf_unbounded[j], result.cdf_by_hops.back()[j]);
  }
  result.fixpoint_hops = total.fixpoint_hops;
  result.converged = total.converged;
  result.stats = stats;
  result.denominator = total.unbounded.denominator();
  return result;
}

}  // namespace odtn
