// Figure 6: time of the next contact with any other device, as seen by
// six representative participants (two each from Hong-Kong, Reality
// Mining and Infocom05).
//
// For each participant we sweep departure times over the trace and
// report the arrival time of the next contact. Long flat "steps" are
// disconnection periods; the diagonal means the node is continuously in
// contact. We print summary statistics (fraction of time in contact,
// longest disconnection) that make the figure's point quantitative.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "trace/datasets.hpp"
#include "util/csv.hpp"

using namespace odtn;

namespace {

struct Participant {
  std::string label;
  const TemporalGraph* graph;
  NodeId node;
};

/// Picks the internal node with median contact count (a "representative"
/// participant) and one from the lower quartile.
std::pair<NodeId, NodeId> pick_nodes(const SyntheticTrace& trace) {
  std::vector<std::pair<std::size_t, NodeId>> by_degree;
  for (NodeId v = 0; v < trace.num_internal; ++v)
    by_degree.emplace_back(trace.graph.neighbors_by_end(v).size(), v);
  std::sort(by_degree.begin(), by_degree.end());
  return {by_degree[by_degree.size() / 2].second,
          by_degree[by_degree.size() / 4].second};
}

}  // namespace

int main() {
  bench::banner("Figure 6",
                "next-contact time vs departure time, six participants");

  const auto hk = dataset_hong_kong().generate();
  const auto rm = dataset_reality_mining().generate();
  const auto ic = dataset_infocom05().generate();
  const auto [hk1, hk2] = pick_nodes(hk);
  const auto [rm1, rm2] = pick_nodes(rm);
  const auto [ic1, ic2] = pick_nodes(ic);

  const std::vector<Participant> participants{
      {"1 (Hong Kong)", &hk.graph, hk1},
      {"2 (Hong Kong)", &hk.graph, hk2},
      {"3 (Reality Mining)", &rm.graph, rm1},
      {"4 (Reality Mining)", &rm.graph, rm2},
      {"5 (Infocom05)", &ic.graph, ic1},
      {"6 (Infocom05)", &ic.graph, ic2},
  };

  CsvWriter csv(bench::csv_path("fig06_next_contact"));
  csv.write_row({"participant", "departure_seconds", "arrival_seconds"});

  std::printf("%-22s %12s %12s %16s %18s\n", "participant", "trace",
              "in-contact", "median wait", "longest gap");
  for (const auto& p : participants) {
    const double t0 = p.graph->start_time();
    const double t1 = p.graph->end_time();
    const double step = std::max(60.0, (t1 - t0) / 2000.0);
    double in_contact = 0.0, samples = 0.0, longest_gap = 0.0;
    std::vector<double> waits;
    for (double t = t0; t <= t1; t += step) {
      const double next = p.graph->next_contact_time(p.node, t);
      csv.write_numeric_row(
          {static_cast<double>(&p - participants.data()) + 1, t,
           std::isfinite(next) ? next : -1.0});
      ++samples;
      if (next == t) {
        in_contact += 1;
        waits.push_back(0.0);
      } else if (std::isfinite(next)) {
        waits.push_back(next - t);
        longest_gap = std::max(longest_gap, next - t);
      } else {
        longest_gap = std::max(longest_gap, t1 - t);
      }
    }
    std::sort(waits.begin(), waits.end());
    const double median_wait =
        waits.empty() ? 0.0 : waits[waits.size() / 2];
    std::printf("%-22s %12s %11.1f%% %16s %18s\n", p.label.c_str(),
                format_duration(t1 - t0).c_str(),
                100.0 * in_contact / samples,
                format_duration(median_wait).c_str(),
                format_duration(longest_gap).c_str());
  }

  // The staircase itself (the paper's z-axis), one participant per
  // environment: diagonal stretches = continuously in contact, flat
  // steps = disconnected until the step's height.
  for (std::size_t pick : {0ul, 2ul, 4ul}) {
    const auto& p = participants[pick];
    const double t0 = p.graph->start_time();
    const double t1 = std::min(p.graph->end_time(), t0 + 3 * kDay);
    PlotSeries arrival{"next contact", {}, {}};
    PlotSeries diagonal{"now (diagonal)", {}, {}};
    for (double t = t0; t <= t1; t += (t1 - t0) / 140.0) {
      const double next = p.graph->next_contact_time(p.node, t);
      diagonal.x.push_back((t - t0) / kDay);
      diagonal.y.push_back((t - t0) / kDay);
      if (!std::isfinite(next) || next > t1) continue;
      arrival.x.push_back((t - t0) / kDay);
      arrival.y.push_back((next - t0) / kDay);
    }
    PlotOptions popt;
    popt.height = 12;
    popt.x_label = "departure time (days)";
    popt.y_label = "participant " + p.label + ": next-contact time (days)";
    std::printf("\n%s", render_ascii_plot({arrival, diagonal}, popt).c_str());
  }

  std::printf(
      "\nPaper check: Hong-Kong and Reality-Mining participants show long\n"
      "disconnections (steps, sometimes > 1 day) and rare high-contact\n"
      "periods; Infocom05 participants are almost always within reach of\n"
      "another device except at night.\n");
  std::printf("[csv] wrote %s\n", bench::csv_path("fig06_next_contact").c_str());
  return 0;
}
