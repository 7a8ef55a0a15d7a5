// Workload inputs. Each conference-style shape is one fixed generator
// draw (the draw the older bench_perf_* programs use); the run seed
// relabels its nodes and shifts it in time by whole days. Different
// seeds therefore hand the program different bytes, node orders and
// timestamps, but the same amount of work, so the spread between runs
// measures the machine rather than the draw. The uniform 1M-contact
// trace is drawn from the seed directly: at that size draws agree.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/temporal_graph.hpp"

namespace odtnbench {

/// 240 nodes, 12 communities, 3 days (bench_perf_engine's large trace).
odtn::TemporalGraph batch_trace(std::uint64_t seed);
/// 120 nodes, 8 communities, 20 days (bench_perf_live).
odtn::TemporalGraph live_trace(std::uint64_t seed);
/// 120 nodes, 8 communities, 3 days (bench_perf_serve).
odtn::TemporalGraph serve_trace(std::uint64_t seed);
/// Uniform random contacts over 7 days, lengths up to an hour
/// (bench_perf_trace_io).
odtn::TemporalGraph uniform_trace(std::size_t nodes, std::size_t contacts,
                                  std::uint64_t seed);

}  // namespace odtnbench
