#include "core/diameter.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/source_cdf.hpp"

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

  // Each source is integrated into the worker's zeroed scratch partial
  // and folded into the total (fold_sources).
  return fold_sources(
      endpoints.size(), options, incremental,
      [&](std::size_t i, SourceCdfWorker& worker, SourceCdfPartial& partial,
          OrderedCdfFolder& folder) {
        process_source(graph, endpoints[i], endpoints, is_endpoint, w,
                       options.max_hops, options.max_levels, options.engine,
                       incremental, worker, partial);
        folder.submit(i, partial);
      });
}

}  // namespace odtn
