// Hop-limited earliest-arrival flooding from a single (source, start time).
//
// This is an *independent* implementation of optimal delivery (the quantity
// del(t0) of the paper) used as a correctness oracle for the Pareto-pair
// engine, and as the building block of the flooding-per-boundary baseline
// (profiles_by_flooding in tests/test_engine_crosscheck.cpp) that mirrors
// the comparator [8] cited in §4.4.
//
// It also records predecessor contacts, so an explicit delay-optimal
// contact sequence can be reconstructed and checked against Eq. (2).
#pragma once

#include <cstdint>
#include <vector>

#include "core/temporal_graph.hpp"

namespace odtn {

/// Result of flooding a message created at `start_time` at `source`.
struct FloodingResult {
  /// arrival[k][v]: earliest delivery time at v using at most k contacts,
  /// for k = 0..levels (arrival[0] is the start state). +infinity when
  /// unreachable within the budget.
  std::vector<std::vector<double>> arrival;

  /// parent[k][v]: index (into graph.contacts()) of the last contact of
  /// one optimal <=k-hop route to v, or -1 when v is unreached or the
  /// source. Arrival through fewer hops is inherited (parent copied).
  std::vector<std::vector<std::int64_t>> parent;

  /// Earliest arrival with at most `hops` contacts (clamped to the
  /// computed levels; the last level is the unbounded optimum).
  double arrival_with_hops(NodeId node, int hops) const;

  /// Unbounded earliest arrival (flooding optimum del(t0)).
  double best_arrival(NodeId node) const;

  /// Minimum number of contacts achieving best_arrival(node); -1 when
  /// unreachable. This is the hop-number of the delay-optimal path.
  int optimal_hops(NodeId node) const;

  /// Reconstructs one contact sequence (indices into graph.contacts())
  /// realizing arrival_with_hops(node, hops), in forwarding order.
  /// `graph` must be the graph passed to flood(). Returns an empty vector
  /// when the node is unreachable or is the source itself; throws
  /// std::logic_error when the parent/arrival tables are inconsistent
  /// (e.g. hand-built or corrupted results).
  std::vector<std::size_t> reconstruct(const TemporalGraph& graph,
                                       NodeId node, int hops) const;

  /// The source and start time this result was flooded from.
  NodeId source = kInvalidNode;
  double start_time = 0.0;
};

/// Floods from (source, start_time), expanding hop levels until arrivals
/// stop improving or `max_hops` levels were computed.
FloodingResult flood(const TemporalGraph& graph, NodeId source,
                     double start_time, int max_hops = 64);

}  // namespace odtn
