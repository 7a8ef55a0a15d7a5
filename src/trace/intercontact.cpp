#include "trace/intercontact.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace odtn {

std::vector<double> pair_inter_contact_times(const TemporalGraph& graph,
                                             NodeId u, NodeId v) {
  if (u >= graph.num_nodes() || v >= graph.num_nodes() || u == v)
    throw std::invalid_argument("pair_inter_contact_times: bad pair");
  std::vector<double> gaps;
  double previous_end = -1.0;
  bool seen = false;
  // contacts() is in time (canonical begin) order; filter to the pair,
  // both directions.
  for (const Contact& c : graph.contacts()) {
    if (!((c.u == u && c.v == v) || (c.u == v && c.v == u))) continue;
    if (seen) gaps.push_back(std::max(0.0, c.begin - previous_end));
    // Max, not overwrite: a nested contact ([0,100] then [10,20]) must
    // not rewind the high-water mark, or gaps diverge from
    // all_inter_contact_times on overlapping traces.
    previous_end = seen ? std::max(previous_end, c.end) : c.end;
    seen = true;
  }
  return gaps;
}

std::vector<double> all_inter_contact_times(const TemporalGraph& graph) {
  // Sweep contacts once, tracking the previous end per unordered pair.
  std::map<std::pair<NodeId, NodeId>, double> previous_end;
  std::vector<double> gaps;
  for (const Contact& c : graph.contacts()) {
    const auto key = std::minmax(c.u, c.v);
    const auto it = previous_end.find(key);
    if (it != previous_end.end())
      gaps.push_back(std::max(0.0, c.begin - it->second));
    previous_end[key] = std::max(
        c.end, it != previous_end.end() ? it->second : c.end);
  }
  return gaps;
}

InterContactSummary summarize_inter_contact(const TemporalGraph& graph,
                                            double tail_fraction) {
  if (!(tail_fraction > 0.0) || tail_fraction > 1.0)
    throw std::invalid_argument("summarize_inter_contact: bad tail_fraction");
  auto gaps = all_inter_contact_times(graph);
  InterContactSummary summary;
  summary.count = gaps.size();
  if (gaps.empty()) return summary;
  std::sort(gaps.begin(), gaps.end());
  double sum = 0.0;
  for (double g : gaps) sum += g;
  summary.mean = sum / static_cast<double>(gaps.size());
  summary.median = gaps[gaps.size() / 2];
  summary.p90 = gaps[static_cast<std::size_t>(
      0.9 * static_cast<double>(gaps.size() - 1))];

  // Hill estimator over the top tail_fraction order statistics
  // (positive gaps only).
  const auto first_positive =
      std::upper_bound(gaps.begin(), gaps.end(), 0.0);
  const auto positive = static_cast<std::size_t>(gaps.end() - first_positive);
  const auto k = std::max<std::size_t>(
      2, static_cast<std::size_t>(tail_fraction *
                                  static_cast<double>(positive)));
  if (positive >= 2 && k >= 2 && k <= positive) {
    const double x_k = gaps[gaps.size() - k];
    if (x_k > 0.0) {
      double acc = 0.0;
      for (std::size_t i = gaps.size() - k + 1; i < gaps.size(); ++i)
        acc += std::log(gaps[i] / x_k);
      summary.tail_exponent =
          acc > 0.0 ? static_cast<double>(k - 1) / acc : 0.0;
    }
  }
  return summary;
}

}  // namespace odtn
