#include "layers.hpp"

#include <cstdint>
#include <filesystem>
#include <vector>

#include "core/optimal_paths.hpp"
#include "core/source_cdf.hpp"

namespace odtnbench {

using namespace odtn;

bool same_result(const DelayCdfResult& a, const DelayCdfResult& b) {
  if (a.grid != b.grid || a.cdf_by_hops != b.cdf_by_hops ||
      a.cdf_unbounded != b.cdf_unbounded ||
      a.fixpoint_hops != b.fixpoint_hops || a.converged != b.converged ||
      a.denominator != b.denominator)
    return false;
  for (const double eps : {0.001, 0.01, 0.1})
    if (a.diameter(eps) != b.diameter(eps) ||
        a.diameter_per_delay(eps) != b.diameter_per_delay(eps))
      return false;
  return true;
}

DelayCdfResult serial_redrive(const TemporalGraph& graph,
                              const DelayCdfOptions& options,
                              Tracer& tracer) {
  ScopedSpan whole(tracer, "diameter.serial", 0);
  const TimeWindows w = resolve_cdf_windows(graph, options);
  const std::vector<NodeId> endpoints = resolve_cdf_endpoints(graph, options);
  const bool incremental = use_incremental_accumulation(options);
  std::vector<std::uint8_t> is_endpoint(graph.num_nodes(), 0);
  for (const NodeId n : endpoints) is_endpoint[n] = 1;

  SourceCdfWorker worker;
  SourceCdfPartial partial(options.grid, options.max_hops);
  OrderedCdfFolder folder(options.grid, options.max_hops, endpoints.size());
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    partial.clear();
    {
      ScopedSpan span(tracer, "source_cdf.process", i);
      process_source(graph, endpoints[i], endpoints, is_endpoint, w,
                     options.max_hops, options.max_levels, options.engine,
                     incremental, worker, partial);
    }
    ScopedSpan span(tracer, "source_cdf.fold", i);
    folder.submit(i, partial);
  }
  ScopedSpan span(tracer, "source_cdf.finalize", 0);
  return finalize_delay_cdf(folder.total(), worker.take_stats(), options,
                            incremental);
}

namespace {

struct PropagateTotals {
  EngineStats stats;
  std::uint64_t levels = 0;  // summed fixpoint levels over sources
};

PropagateTotals propagate_pass(const TemporalGraph& graph, int max_levels,
                               Tracer& tracer) {
  PropagateTotals out;
  if (graph.num_nodes() == 0) return out;
  SingleSourceEngine engine(graph, 0);
  for (NodeId s = 0; s < graph.num_nodes(); ++s) {
    ScopedSpan span(tracer, "optimal_paths.propagate", s);
    engine.reset(s);
    out.levels += static_cast<std::uint64_t>(engine.run_to_fixpoint(max_levels));
  }
  out.stats = engine.stats();
  return out;
}

}  // namespace

void report_engine_layers(Report& report, const TemporalGraph& graph,
                          const DelayCdfOptions& options, double solve_ms,
                          Tracer& tracer, DelayCdfResult* redrive) {
  const PropagateTotals prop = propagate_pass(graph, options.max_levels, tracer);
  DelayCdfResult serial = serial_redrive(graph, options, tracer);
  for (int rep = 0; rep < 20; ++rep) {
    ScopedSpan span(tracer, "diameter.eval", 0);
    evaluate_diameters(serial);
  }

  const EngineStats& st = prop.stats;
  const double kept = static_cast<double>(st.pairs_inserted);
  const double offered = kept + static_cast<double>(st.pairs_dominated);
  const double propagate_ms = tracer.total_ms("optimal_paths.propagate");
  const double process_ms = tracer.total_ms("source_cdf.process");
  const double serial_ms = tracer.total_ms("diameter.serial");
  report.layer("optimal_paths.propagate_ms", propagate_ms, "ms");
  report.layer("optimal_paths.levels", double(prop.levels), "count");
  report.layer("optimal_paths.contacts_examined", double(st.contacts_examined),
               "count");
  report.layer("optimal_paths.pairs_inserted", kept, "count");
  report.layer("optimal_paths.pairs_dominated", double(st.pairs_dominated),
               "count");
  report.layer("optimal_paths.keep_ratio", offered > 0 ? kept / offered : 0.0,
               "ratio");
  report.layer("optimal_paths.merge_batches", double(st.merge_batches),
               "count");
  report.layer("optimal_paths.pairs_peak", double(st.pairs_peak), "count");
  report.layer("optimal_paths.arena_bytes_peak", double(st.arena_bytes_peak),
               "bytes");
  report.layer("optimal_paths.workspace_allocations",
               double(st.workspace_allocations), "count");
  report.layer("source_cdf.process_ms", process_ms, "ms");
  report.layer("source_cdf.integrate_self_ms", process_ms - propagate_ms, "ms");
  report.layer("source_cdf.pairs_integrated",
               double(serial.stats.cdf_pairs_integrated), "count");
  report.layer("source_cdf.fold_ms", tracer.total_ms("source_cdf.fold"), "ms");
  report.layer("source_cdf.finalize_ms", tracer.total_ms("source_cdf.finalize"),
               "ms");
  report.layer("diameter.serial_ms", serial_ms, "ms");
  if (solve_ms > 0)
    report.layer("diameter.parallel_efficiency", serial_ms / (2.0 * solve_ms),
                 "ratio");
  report.layer("diameter.eval_ms", median(tracer.durations("diameter.eval")),
               "ms");
  if (redrive) *redrive = std::move(serial);
}

int evaluate_diameters(const DelayCdfResult& result) {
  result.diameter_per_delay(0.01);
  return result.diameter(0.01);
}

void report_parse_layers(Report& report, const Tracer& tracer,
                         const std::string& path) {
  const double parse_ms = median(tracer.durations("trace_io.parse"));
  const double mib =
      static_cast<double>(std::filesystem::file_size(path)) / (1 << 20);
  report.layer("trace_io.parse_ms", parse_ms, "ms");
  report.layer("trace_io.parse_mb_per_s", mib / (parse_ms / 1e3), "MB/s");
  report.layer("temporal_graph.index_build_ms",
               median(tracer.durations("temporal_graph.index_build")), "ms");
}

void report_trace_overhead(Report& report,
                           const std::vector<double>& untraced_ms,
                           const std::vector<double>& traced_ms) {
  const double base = median(untraced_ms);
  report.layer("bench.trace_overhead_pct",
               base > 0 ? 100.0 * (median(traced_ms) / base - 1.0) : 0.0, "%");
}

}  // namespace odtnbench
