#include "core/diameter.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/source_cdf.hpp"
#include "util/thread_pool.hpp"

namespace odtn {

int DelayCdfResult::diameter(double eps) const {
  for (std::size_t k = 0; k < cdf_by_hops.size(); ++k) {
    bool ok = true;
    for (std::size_t j = 0; j < grid.size(); ++j) {
      if (cdf_by_hops[k][j] < (1.0 - eps) * cdf_unbounded[j]) {
        ok = false;
        break;
      }
    }
    if (ok) return static_cast<int>(k) + 1;
  }
  // Hop budgets above max_hops were not evaluated separately, but the
  // fixpoint level always satisfies the criterion -- unless the DP was
  // truncated, in which case fixpoint_hops is only a lower bound and
  // returning it would silently understate the diameter.
  return converged ? fixpoint_hops : kUnknownDiameter;
}

int DelayCdfResult::diameter_absolute(double tol) const {
  for (std::size_t k = 0; k < cdf_by_hops.size(); ++k) {
    bool ok = true;
    for (std::size_t j = 0; j < grid.size(); ++j) {
      if (cdf_unbounded[j] - cdf_by_hops[k][j] > tol) {
        ok = false;
        break;
      }
    }
    if (ok) return static_cast<int>(k) + 1;
  }
  return converged ? fixpoint_hops : kUnknownDiameter;
}

std::vector<int> DelayCdfResult::diameter_per_delay(double eps) const {
  std::vector<int> out(grid.size(), 0);
  for (std::size_t j = 0; j < grid.size(); ++j) {
    if (cdf_unbounded[j] <= 0.0) continue;  // nothing to achieve
    int k = fixpoint_hops;
    for (std::size_t i = 0; i < cdf_by_hops.size(); ++i) {
      if (cdf_by_hops[i][j] >= (1.0 - eps) * cdf_unbounded[j]) {
        k = static_cast<int>(i) + 1;
        break;
      }
    }
    out[j] = k;
  }
  return out;
}

DelayCdfResult compute_delay_cdf(const TemporalGraph& graph,
                                 const DelayCdfOptions& options) {
  if (options.grid.empty())
    throw std::invalid_argument("compute_delay_cdf: empty grid");
  if (options.max_hops < 1)
    throw std::invalid_argument("compute_delay_cdf: max_hops must be >= 1");

  const TimeWindows w = resolve_cdf_windows(graph, options);
  const std::vector<NodeId> endpoints = resolve_cdf_endpoints(graph, options);
  const bool incremental = use_incremental_accumulation(options);
  std::vector<std::uint8_t> is_endpoint(graph.num_nodes(), 0);
  for (NodeId n : endpoints) is_endpoint[n] = 1;

  // Reusable pool with dynamic source hand-out: expensive sources (dense
  // neighborhoods, long traces) no longer serialize behind a strided
  // static partition. num_threads == 0 reuses the shared pool.
  std::optional<ThreadPool> local_pool;
  if (options.num_threads != 0) local_pool.emplace(options.num_threads);
  ThreadPool& pool = local_pool ? *local_pool : shared_thread_pool();

  // Each worker integrates one source at a time into its private zeroed
  // scratch partial; the folder merges partials in ascending endpoint
  // index no matter which worker produced them. The result is therefore
  // bit-identical across thread counts.
  std::vector<SourceCdfWorker> workers(pool.num_workers());
  std::vector<SourceCdfPartial> scratch;
  scratch.reserve(pool.num_workers());
  for (unsigned t = 0; t < pool.num_workers(); ++t)
    scratch.emplace_back(options.grid, options.max_hops);
  OrderedCdfFolder folder(options.grid, options.max_hops, endpoints.size());

  pool.parallel_for(endpoints.size(), [&](std::size_t i, unsigned worker) {
    SourceCdfPartial& partial = scratch[worker];
    partial.clear();
    process_source(graph, endpoints[i], endpoints, is_endpoint, w,
                   options.max_hops, options.max_levels, options.engine,
                   incremental, workers[worker], partial);
    folder.submit(i, partial);
  });

  EngineStats stats;
  for (const SourceCdfWorker& worker : workers)
    stats.merge(worker.take_stats());
  return finalize_delay_cdf(folder.total(), stats, options, incremental);
}

}  // namespace odtn
