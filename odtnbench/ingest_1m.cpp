// ingest_1m: the ingest layers at a size well beyond L2. A uniform
// random trace of 1M contacts over 500 nodes and 7 days goes from text
// to a loaded snapshot: read_trace_file, the index build,
// write_snapshot_file, load_snapshot_file (set-up). The timed operation
// is load_snapshot_file alone, the restart cost of
// `odtn serve --snapshot`. Bypasses every engine layer.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/temporal_graph.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "trace/snapshot.hpp"
#include "trace/trace_io.hpp"
#include "workloads.hpp"

namespace odtnbench {

using namespace odtn;

namespace {

constexpr std::size_t kNodes = 500;
constexpr std::size_t kContacts = 1'000'000;

bool same_graph(const TemporalGraph& a, const TemporalGraph& b) {
  return a.num_nodes() == b.num_nodes() && a.directed() == b.directed() &&
         a.start_time() == b.start_time() && a.end_time() == b.end_time() &&
         std::ranges::equal(a.contacts(), b.contacts());
}

/// Flushes a file's dirty pages, so the kernel's writeback of the
/// set-up's writes does not run inside the timed loads.
void flush_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

void run_ingest_1m(const RunConfig& cfg, Report& report) {
  Tracer tracer;
  const std::string text_path = cfg.workdir + "/ingest_1m.trace";
  const std::string snap_path = cfg.workdir + "/ingest_1m.odtns";
  write_trace_file(text_path, uniform_trace(kNodes, kContacts, cfg.seed));

  // Setup: the full pass from text to a loaded snapshot.
  reset_peak_rss();
  tracer.enabled = cfg.trace;
  SetupTimes setup;
  TemporalGraph parsed(0, {});
  bool loads_match = true;
  for (int rep = 0; rep < 5; ++rep) {
    const Stopwatch sw;
    {
      ScopedSpan span(tracer, "trace_io.parse", rep);
      parsed = read_trace_file(text_path);
    }
    {
      ScopedSpan span(tracer, "temporal_graph.index_build", rep);
      parsed.node_offsets();
    }
    {
      ScopedSpan span(tracer, "snapshot.write", rep);
      write_snapshot_file(snap_path, parsed);
    }
    TemporalGraph loaded(0, {});
    {
      ScopedSpan span(tracer, "snapshot.load", rep);
      loaded = load_snapshot_file(snap_path);
    }
    setup.add(sw);
    loads_match = loads_match && same_graph(parsed, loaded);
  }
  flush_file(text_path);
  flush_file(snap_path);
  std::printf("trace: %zu nodes, %zu contacts, %.1f MiB text, %.1f MiB "
              "snapshot\n",
              parsed.num_nodes(), parsed.num_contacts(),
              double(std::filesystem::file_size(text_path)) / (1 << 20),
              double(std::filesystem::file_size(snap_path)) / (1 << 20));

  std::vector<double> wall, cpu, traced;
  const double start = wall_ms();
  for (std::uint64_t i = 0; wall_ms() - start < cfg.seconds * 1e3; ++i) {
    tracer.enabled = cfg.trace && i % 2 == 1;
    ++report.attempted;
    const Stopwatch sw;
    TemporalGraph loaded(0, {});
    try {
      ScopedSpan span(tracer, "snapshot.load", 100 + i);
      loaded = load_snapshot_file(snap_path);
    } catch (const std::exception& e) {
      std::printf("load %llu failed: %s\n",
                  static_cast<unsigned long long>(i), e.what());
      ++report.failed;
      continue;
    }
    const double dt = sw.wall();
    const double dc = sw.cpu();
    if (i % 16 == 0) loads_match = loads_match && same_graph(parsed, loaded);
    if (tracer.enabled) {
      traced.push_back(dt);
    } else {
      wall.push_back(dt);
      cpu.push_back(dc);
    }
  }
  report.check(loads_match, "loaded snapshot contacts equal the parsed graph's");

  report.op_metrics(wall, cpu, static_cast<double>(wall.size()), 90, setup);
  report.named("snapshot_load_ms", median(wall), "ms", wall.size());

  if (cfg.trace) {
    report_parse_layers(report, tracer, text_path);
    report.layer("snapshot.write_ms",
                 median(tracer.durations("snapshot.write")), "ms");
    report.layer("snapshot.bytes",
                 double(std::filesystem::file_size(snap_path)), "bytes");
    report.layer("snapshot.load_ms", median(traced), "ms");
    report_trace_overhead(report, wall, traced);
    tracer.write_jsonl(cfg.spans_path);
  }
}

}  // namespace odtnbench
