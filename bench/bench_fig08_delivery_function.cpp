// Figure 8: delivery function of one Hong-Kong source-destination pair
// for maximum hop counts 1, 2, 3, 4 and unbounded.
//
// Reproduces the figure's qualitative content: a pair with NO direct
// path (1 hop: empty function), where allowing more relays both makes
// delivery possible and multiplies the number of delay-optimal paths,
// and where some hop count saturates the function (identical to the
// unbounded one -- "no optimal path uses more hops").
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "core/optimal_paths.hpp"
#include "trace/datasets.hpp"
#include "util/csv.hpp"

using namespace odtn;

int main() {
  bench::banner("Figure 8",
                "delivery function of a Hong-Kong pair, by max hop count");

  const auto trace = dataset_hong_kong().generate();
  const auto& g = trace.graph;
  const std::vector<int> budgets{1, 2, 3, 4, kUnboundedHops};

  // Find a pair shaped like the paper's example: no direct contact,
  // several delay-optimal paths once relays are allowed, and a delivery
  // function that SATURATES at 3 or 4 hops (identical to unbounded).
  NodeId best_src = 0, best_dst = 1;
  std::size_t best_paths = 0;
  int best_saturation = 0;
  for (NodeId src = 0; src < trace.num_internal; ++src) {
    const auto profiles = compute_hop_profiles(g, src, budgets);
    for (NodeId dst = 0; dst < trace.num_internal; ++dst) {
      if (dst == src) continue;
      if (!profiles[0][dst].empty()) continue;    // has a direct contact
      if (profiles[4][dst].size() < 5) continue;  // too few optimal paths
      int saturation = 0;
      for (std::size_t b = 1; b + 1 < budgets.size(); ++b) {
        if (profiles[b][dst] == profiles[4][dst]) {
          saturation = budgets[b];
          break;
        }
      }
      if (saturation == 0) continue;  // does not saturate within 4 hops
      if (profiles[4][dst].size() > best_paths) {
        best_paths = profiles[4][dst].size();
        best_src = src;
        best_dst = dst;
        best_saturation = saturation;
      }
    }
    if (best_paths >= 8) break;  // good enough example
  }

  std::printf("chosen pair: source=%u destination=%u "
              "(no direct contact; %zu delay-optimal paths via relays; "
              "saturates at %d hops)\n\n",
              best_src, best_dst, best_paths, best_saturation);

  CsvWriter csv(bench::csv_path("fig08_delivery_function"));
  csv.write_row({"max_hops", "last_departure", "earliest_arrival"});

  const auto profiles = compute_hop_profiles(g, best_src, budgets);
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    const auto& f = profiles[b][best_dst];
    std::printf("max %-9s: %2zu delay-optimal paths",
                bench::hop_label(budgets[b]).c_str(), f.size());
    if (f.empty()) {
      std::printf("  (destination unreachable)\n");
      continue;
    }
    std::printf("\n    %-22s %-22s %s\n", "last departure (LD)",
                "earliest arrival (EA)", "kind");
    for (const PathPair& p : f.to_pairs()) {
      std::printf("    %-22s %-22s %s\n", format_timestamp(p.ld).c_str(),
                  format_timestamp(p.ea).c_str(),
                  p.ea <= p.ld ? "contemporaneous" : "store-and-forward");
      csv.write_numeric_row({budgets[b] == kUnboundedHops
                                 ? -1.0
                                 : static_cast<double>(budgets[b]),
                             p.ld, p.ea});
    }
  }

  // Sample the delivery functions over the trace for the ASCII plot.
  std::vector<PlotSeries> series;
  for (std::size_t b = 1; b < budgets.size(); ++b) {
    PlotSeries s{bench::hop_label(budgets[b]), {}, {}};
    const auto& f = profiles[b][best_dst];
    const double t0 = g.start_time(), t1 = g.end_time();
    for (double t = t0; t <= t1; t += (t1 - t0) / 160.0) {
      const double arr = f.deliver_at(t);
      if (!std::isfinite(arr)) continue;
      s.x.push_back((t - t0) / kDay);
      s.y.push_back((arr - t0) / kDay);
    }
    series.push_back(std::move(s));
  }
  PlotOptions opt;
  opt.x_label = "departure time (days)";
  opt.y_label = "arrival time (days); missing = unreachable";
  std::printf("%s", render_ascii_plot(series, opt).c_str());

  std::printf(
      "\nPaper check: with 1 hop there is no path; allowing 2-3 relays\n"
      "creates several optimal paths; beyond the saturation hop count the\n"
      "function no longer changes (no optimal path needs more relays).\n");
  std::printf("[csv] wrote %s\n",
              bench::csv_path("fig08_delivery_function").c_str());
  return 0;
}
