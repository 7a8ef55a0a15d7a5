// The three classic journey-optimality notions in temporal networks
// (Bui-Xuan, Ferreira & Jarry [1], cited in paper §2/§4.4):
//
//   FOREMOST: arrive as early as possible from a given start time
//             (= the delivery function del(t) of §4.3);
//   FASTEST:  minimize the journey's own duration (arrival - departure),
//             regardless of when it happens;
//   SHORTEST: use as few hops as possible, regardless of time.
//
// All three fall out of the library's Pareto frontiers: foremost is a
// point query on del (FrontierView::deliver_at), fastest is the minimum
// of max(0, EA - LD) over the frontier, and shortest is the first hop
// level at which the destination becomes reachable at all. This header
// packages the last two as a single per-source analysis.
#pragma once

#include <limits>
#include <vector>

#include "core/temporal_graph.hpp"

namespace odtn {

/// Journey optima from one source to one destination.
struct JourneyOptima {
  /// Minimum achievable journey duration (0 when a fully
  /// contemporaneous connection exists at some instant);
  /// +infinity when the destination is never reachable.
  double fastest_duration = std::numeric_limits<double>::infinity();

  /// Departure time of one fastest journey (meaningful when reachable).
  double fastest_departure = 0.0;

  /// Minimum number of hops of ANY journey, at any time; 0 for the
  /// source itself, -1 when unreachable.
  int shortest_hops = -1;

  bool reachable() const noexcept { return shortest_hops >= 0; }
};

/// Per-destination journey optima from `source`. Runs the hop-indexed
/// engine once (shortest hops are read off the level at which each
/// destination first becomes reachable; fastest journeys off the final
/// frontier).
std::vector<JourneyOptima> compute_journeys(const TemporalGraph& graph,
                                            NodeId source,
                                            int max_levels = 64);

}  // namespace odtn
