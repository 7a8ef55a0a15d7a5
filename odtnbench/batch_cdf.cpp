// batch_cdf: the `odtn cdf` job. A 240-node, 12-community, 3-day
// conference trace is read from text, then solved repeatedly:
// compute_delay_cdf over the 08:00-20:00 day-time start windows (paper
// §5.3.1) with 2 workers, plus the 1%-diameter and the diameter per
// delay. No cache and no appends are involved, so this workload
// bypasses query_engine, lru_cache, live_ingest and incremental_engine.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/diameter.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "stats/log_grid.hpp"
#include "trace/trace_io.hpp"
#include "util/time_format.hpp"
#include "workloads.hpp"

namespace odtnbench {

using namespace odtn;

namespace {

std::vector<std::pair<double, double>> day_time_windows(const TemporalGraph& g) {
  std::vector<std::pair<double, double>> w;
  for (double day = g.start_time(); day + 20 * kHour <= g.end_time();
       day += kDay)
    w.emplace_back(day + 8 * kHour, day + 20 * kHour);
  return w;
}

}  // namespace

void run_batch_cdf(const RunConfig& cfg, Report& report) {
  Tracer tracer;
  const std::string path = cfg.workdir + "/batch_cdf.trace";
  write_trace_file(path, batch_trace(cfg.seed));

  // Setup: parse + index, several times; the median is setup_s.
  reset_peak_rss();
  tracer.enabled = cfg.trace;
  SetupTimes setup;
  TemporalGraph graph(0, {});
  for (int rep = 0; rep < 51; ++rep) {
    const Stopwatch sw;
    {
      ScopedSpan span(tracer, "trace_io.parse", rep);
      graph = read_trace_file(path);
    }
    {
      ScopedSpan span(tracer, "temporal_graph.index_build", rep);
      graph.node_offsets();
    }
    setup.add(sw);
  }
  std::printf("trace: %zu nodes, %zu contacts\n", graph.num_nodes(),
              graph.num_contacts());

  DelayCdfOptions opt;
  opt.grid = make_log_grid(2 * kMinute, kDay, 48);
  opt.max_hops = 32;
  opt.windows = day_time_windows(graph);
  opt.num_threads = 2;

  std::vector<double> wall, cpu, traced;
  std::optional<DelayCdfResult> first;
  std::uint64_t mismatches = 0;
  const double start = wall_ms();
  for (std::uint64_t i = 0; wall_ms() - start < cfg.seconds * 1e3; ++i) {
    tracer.enabled = cfg.trace && i % 2 == 1;
    ++report.attempted;
    const Stopwatch sw;
    try {
      ScopedSpan solve(tracer, "solve", i);
      DelayCdfResult r;
      {
        ScopedSpan span(tracer, "diameter.compute_delay_cdf", i);
        r = compute_delay_cdf(graph, opt);
      }
      {
        ScopedSpan span(tracer, "diameter.eval", i);
        evaluate_diameters(r);
      }
      if (!first)
        first = std::move(r);
      else if (!same_result(*first, r))
        ++mismatches;
    } catch (const std::exception& e) {
      std::printf("solve %llu failed: %s\n",
                  static_cast<unsigned long long>(i), e.what());
      ++report.failed;
      continue;
    }
    if (tracer.enabled) {
      traced.push_back(sw.wall());
    } else {
      wall.push_back(sw.wall());
      cpu.push_back(sw.cpu());
    }
  }
  const double solve_ms = median(wall);

  DelayCdfResult serial;
  tracer.enabled = cfg.trace;
  if (cfg.trace) {
    report_engine_layers(report, graph, opt, solve_ms, tracer, &serial);
  } else {
    serial = serial_redrive(graph, opt, tracer);
  }

  report.check(first && same_result(*first, serial),
               "2-worker solve bit-identical to serial re-drive");
  report.check(mismatches == 0,
               "all " + std::to_string(wall.size() + traced.size()) +
                   " solves bit-identical");

  report.op_metrics(wall, cpu, static_cast<double>(wall.size()), 80, setup);
  report.named("solve_s", solve_ms / 1e3, "s", wall.size());
  report.named("solve_cpu_s", median(cpu) / 1e3, "s", cpu.size());
  report.named("diameter_1pct", evaluate_diameters(serial), "hops", 1);

  if (cfg.trace) {
    report_parse_layers(report, tracer, path);
    report_trace_overhead(report, wall, traced);
    tracer.write_jsonl(cfg.spans_path);
  }
}

}  // namespace odtnbench
