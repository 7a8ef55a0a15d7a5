#include "core/source_cdf.hpp"

#include <algorithm>
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

}  // namespace

// Both frontiers are usually spans of one pair arena, the pooled
// engine's or a live source's, whose shared pairs are value-identical
// (both engines copy doubles verbatim), so the diff below finds long
// common runs.
void integrate_frontier_delta(const FrontierView& old_f,
                              const FrontierView& new_f, const TimeWindows& w,
                              MeasureCdfAccumulator& acc,
                              std::uint64_t& pairs_integrated) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const double* o_ld = old_f.ld_data();
  const double* o_ea = old_f.ea_data();
  const double* n_ld = new_f.ld_data();
  const double* n_ea = new_f.ea_data();
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
                              -1, boundary);
    acc.add_delivery_segments(n_ld + p, n_ea + p, nm, w.data(), w.size(),
                              +1, boundary);
  }
  pairs_integrated += om + nm;
}

namespace {

void process_source_direct(const TemporalGraph& graph, NodeId src,
                           const std::vector<NodeId>& endpoints,
                           const TimeWindows& w, int max_hops, int max_levels,
                           EngineMode mode, SourceCdfWorker& worker,
                           SourceCdfPartial& out) {
  SingleSourceEngine engine(graph, src, mode);
  engine.set_horizon(cdf_horizon(w, out.unbounded.grid()));
  const double window_measure = total_window_measure(w);
  const auto integrate = [&](MeasureCdfAccumulator& acc) {
    std::int64_t destinations = 0;
    for (NodeId dst : endpoints) {
      if (dst == src) continue;
      const FrontierView f = engine.frontier_view(dst);
      acc.add_delivery_segments(f.ld_data(), f.ea_data(), f.size(), w.data(),
                                w.size());
      worker.stats.cdf_pairs_integrated += f.size();
      ++destinations;
    }
    acc.add_observation_measure(window_measure, destinations);
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
  engine.set_horizon(cdf_horizon(w, out.unbounded.grid()));

  // Observation measure for every (src, dst) pair of this source parks
  // in the hop-1 accumulator; prefix_merge propagates it to every hop
  // budget and to `unbounded`.
  out.by_hops[0].add_observation_measure(
      total_window_measure(w), static_cast<std::int64_t>(endpoints.size() - 1));

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

void check_window_bounds(double t_lo, double t_hi) {
  // An infinite bound makes the observation measure infinite, and equal
  // bounds make it zero: the CDF would read NaN or zero instead of
  // failing.
  if (std::isinf(t_lo) || std::isinf(t_hi))
    throw std::invalid_argument(
        "compute_delay_cdf: start-time window bounds must be finite");
  if (t_lo >= t_hi)
    throw std::invalid_argument("compute_delay_cdf: empty start-time window");
}

TimeWindows resolve_cdf_windows(const TemporalGraph& graph,
                                const DelayCdfOptions& options) {
  TimeWindows w = options.windows;
  double prev = -std::numeric_limits<double>::infinity();
  for (const auto& [lo, hi] : w) {
    check_window_bounds(lo, hi);
    if (!(lo <= hi) || lo < prev)
      throw std::invalid_argument(
          "compute_delay_cdf: windows must be disjoint and increasing");
    prev = hi;
  }
  if (w.empty()) {
    double lo = options.t_lo, hi = options.t_hi;
    check_window_bounds(lo, hi);
    const bool both_nan = std::isnan(lo) && std::isnan(hi);
    if (std::isnan(lo)) lo = graph.start_time();
    if (std::isnan(hi)) hi = graph.end_time();
    // Two NaN bounds over an empty or instantaneous graph resolve to a
    // zero span, which stays valid; a window with an explicit bound may
    // not be empty.
    if (!both_nan) check_window_bounds(lo, hi);
    w = {{lo, hi}};
  }
  // The observation measure of the whole computation bounds every
  // numerator, and the window measure every addend, so both must fit
  // the accumulators' fixed-point range.
  const double m = static_cast<double>(options.endpoints.empty()
                                           ? graph.num_nodes()
                                           : options.endpoints.size());
  if (!(std::max(m * (m - 1.0), 1.0) * total_window_measure(w) <
        MeasureCdfAccumulator::kMaxMeasure))
    throw std::invalid_argument(
        "compute_delay_cdf: pairs x start-time window measure must stay "
        "below 2^43 s");
  return w;
}

DelayHorizon cdf_horizon(const TimeWindows& w,
                         const std::vector<double>& grid) {
  if (w.empty()) return {};
  return {w.front().first, w.back().second, grid.back()};
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
  return options.accumulation == CdfAccumulation::kAuto &&
         options.engine == EngineMode::kPooled;
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
    : total_(grid, max_hops), submitted_(count, false) {}

void OrderedCdfFolder::submit(std::size_t index,
                              const SourceCdfPartial& partial) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (index >= submitted_.size() || submitted_[index]) {
    repeated_ = true;
    return;
  }
  submitted_[index] = true;
  ++distinct_;
  total_.merge_from(partial);
}

SourceCdfPartial& OrderedCdfFolder::total() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (repeated_ || distinct_ != submitted_.size())
    throw std::logic_error("OrderedCdfFolder: fold incomplete");
  return total_;
}

DelayCdfResult fold_sources(std::size_t count, const DelayCdfOptions& options,
                            bool incremental, const FoldSourceFn& source,
                            ThreadPool* pool) {
  // Dynamic hand-out: expensive sources (dense neighborhoods, long
  // traces) do not serialize behind a strided static partition. One
  // source (a serve cdf query) runs inline: waking or spawning a pool
  // would cost more than the source itself on a cache hit.
  std::optional<ThreadPool> local_pool;
  if (count <= 1) {
    pool = nullptr;
  } else if (!pool) {
    if (options.num_threads != 0) local_pool.emplace(options.num_threads);
    pool = local_pool ? &*local_pool : &shared_thread_pool();
  }
  const unsigned num_workers = pool ? pool->num_workers() : 1;

  std::vector<SourceCdfWorker> workers(num_workers);
  std::vector<SourceCdfPartial> scratch;
  scratch.reserve(num_workers);
  for (unsigned t = 0; t < num_workers; ++t)
    scratch.emplace_back(options.grid, options.max_hops);
  OrderedCdfFolder folder(options.grid, options.max_hops, count);

  const auto run = [&](std::size_t i, unsigned worker) {
    scratch[worker].clear();
    source(i, workers[worker], scratch[worker], folder);
  };
  if (pool)
    pool->parallel_for(count, run);
  else
    for (std::size_t i = 0; i < count; ++i) run(i, 0);

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
    // (both are exact sums over the same addends).
    MeasureCdfAccumulator::prefix_merge(total.by_hops);
    total.unbounded.merge(total.by_hops.back());
  }

  DelayCdfResult result;
  result.grid = options.grid;
  result.cdf_by_hops.reserve(options.max_hops);
  for (int k = 0; k < options.max_hops; ++k)
    result.cdf_by_hops.push_back(total.by_hops[k].cdf());
  result.cdf_unbounded = total.unbounded.cdf();
  // The CDFs are mathematically monotone in the hop budget, but a level
  // that splits a segment adds its pieces as separately rounded addends,
  // so CDF_k can sit a few quanta below CDF_{k-1}. Clamp to restore the
  // exact invariant consumers rely on (the same in either scheme, whose
  // numerators are identical).
  for (int k = 1; k < options.max_hops; ++k)
    for (std::size_t j = 0; j < result.grid.size(); ++j)
      result.cdf_by_hops[k][j] =
          std::max(result.cdf_by_hops[k][j], result.cdf_by_hops[k - 1][j]);
  for (std::size_t j = 0; j < result.grid.size(); ++j)
    result.cdf_unbounded[j] =
        std::max(result.cdf_unbounded[j], result.cdf_by_hops.back()[j]);
  result.fixpoint_hops = total.fixpoint_hops;
  result.converged = total.converged;
  result.stats = stats;
  result.denominator = total.unbounded.denominator();
  return result;
}

}  // namespace odtn
