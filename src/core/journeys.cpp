#include "core/journeys.hpp"

#include <algorithm>

#include "core/optimal_paths.hpp"

namespace odtn {

std::vector<JourneyOptima> compute_journeys(const TemporalGraph& graph,
                                            NodeId source, int max_levels) {
  std::vector<JourneyOptima> out(graph.num_nodes());
  out[source].shortest_hops = 0;
  out[source].fastest_duration = 0.0;

  SingleSourceEngine engine(graph, source);
  // Shortest journeys: the hop level at which each destination first
  // becomes reachable at all.
  while (engine.step()) {
    for (NodeId dst = 0; dst < graph.num_nodes(); ++dst) {
      if (out[dst].shortest_hops < 0 && !engine.frontier_view(dst).empty())
        out[dst].shortest_hops = engine.hops();
    }
    if (engine.hops() >= max_levels) break;
  }
  // Fastest journeys: a frontier pair (LD, EA) supports journeys of
  // duration max(0, EA - LD) (contemporaneous pairs have zero-duration
  // journeys anywhere inside [EA, LD]); dominated pairs only do worse,
  // so the frontier minimum is the global minimum.
  for (NodeId dst = 0; dst < graph.num_nodes(); ++dst) {
    if (dst == source) continue;
    const FrontierView f = engine.frontier_view(dst);
    for (std::size_t i = 0; i < f.size(); ++i) {
      const PathPair p = f.pair(i);
      const double duration = std::max(0.0, p.ea - p.ld);
      if (duration < out[dst].fastest_duration) {
        out[dst].fastest_duration = duration;
        out[dst].fastest_departure = std::min(p.ld, p.ea);
      }
    }
  }
  return out;
}

}  // namespace odtn
