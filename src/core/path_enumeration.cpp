#include "core/path_enumeration.hpp"

#include <algorithm>
#include <cassert>

#include "core/optimal_paths.hpp"
#include "sim/flooding.hpp"

namespace odtn {

std::vector<OptimalRoute> enumerate_optimal_routes(const TemporalGraph& graph,
                                                   NodeId source,
                                                   NodeId destination,
                                                   int max_hops) {
  SingleSourceEngine engine(graph, source);
  engine.run_to_fixpoint(max_hops);
  const DeliveryFunction frontier = engine.frontier(destination);

  std::vector<OptimalRoute> routes;
  routes.reserve(frontier.size());
  for (const PathPair& pair : frontier.to_pairs()) {
    // A message created at t0 = min(LD, EA) is delivered at exactly EA
    // by a path using this pair (contemporaneous pairs deliver at the
    // creation instant EA <= LD; store-and-forward pairs depart by LD
    // and arrive at EA > LD). Flooding from t0 therefore reaches the
    // destination at EA, and its parent chain is such a route.
    const double t0 = std::min(pair.ld, pair.ea);
    const FloodingResult flood_result =
        flood(graph, source, t0, max_hops);
    assert(flood_result.best_arrival(destination) <= pair.ea);
    const int hops = flood_result.optimal_hops(destination);
    OptimalRoute route;
    route.pair = pair;
    route.contact_indices =
        flood_result.reconstruct(graph, destination, hops);
    routes.push_back(std::move(route));
  }
  return routes;
}

}  // namespace odtn
