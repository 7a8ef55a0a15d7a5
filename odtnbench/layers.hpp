// Layer re-drives shared by the engine workloads (batch_cdf, live_tail,
// serve_mixed). Each re-drive calls the same public functions the
// production drivers call, one at a time on the benchmark thread, so a
// span around each call measures that layer alone.
#pragma once

#include <string>
#include <vector>

#include "core/diameter.hpp"
#include "core/temporal_graph.hpp"
#include "harness.hpp"

namespace odtnbench {

/// Bitwise equality of everything a user reads off a result: grid,
/// per-hop and unbounded CDFs, fixpoint, convergence, denominator and
/// the diameters. Engine counters are excluded -- they legitimately
/// differ between drivers.
bool same_result(const odtn::DelayCdfResult& a, const odtn::DelayCdfResult& b);

/// compute_delay_cdf on one thread, layer by layer, in canonical source
/// order: process_source per endpoint, OrderedCdfFolder::submit per
/// partial, then finalize_delay_cdf. Spans: diameter.serial around the
/// whole, source_cdf.process / .fold / .finalize around each call. The
/// result is bit-identical to compute_delay_cdf for any thread count.
odtn::DelayCdfResult serial_redrive(const odtn::TemporalGraph& graph,
                                    const odtn::DelayCdfOptions& options,
                                    Tracer& tracer);

/// Runs the serial re-drive and a propagation-only pass (one
/// SingleSourceEngine, reset + run_to_fixpoint per source, each under an
/// optimal_paths.propagate span) over `graph` and reports the optimal_paths,
/// source_cdf and diameter layer metrics. `redrive` receives the serial
/// result. `solve_ms` is the median wall time of the workload's parallel
/// solve (0 when the workload has none).
void report_engine_layers(Report& report, const odtn::TemporalGraph& graph,
                          const odtn::DelayCdfOptions& options,
                          double solve_ms, Tracer& tracer,
                          odtn::DelayCdfResult* redrive);

/// The paper's headline numbers off a result: the 1%-diameter and the
/// diameter per delay (paper §5.3, Figure 12). Returns the former.
int evaluate_diameters(const odtn::DelayCdfResult& result);

/// trace_io.parse_ms, trace_io.parse_mb_per_s and
/// temporal_graph.index_build_ms from the set-up spans of a run that
/// parsed the trace file at `path`.
void report_parse_layers(Report& report, const Tracer& tracer,
                         const std::string& path);

/// bench.trace_overhead_pct from the traced and untraced op samples.
void report_trace_overhead(Report& report,
                           const std::vector<double>& untraced_ms,
                           const std::vector<double>& traced_ms);

}  // namespace odtnbench
