#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace odtnbench {

double wall_ms() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[idx];
}

int Tracer::begin(const char* name, std::uint64_t id) {
  if (!enabled) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, wall_ms(), 0.0, parent, id});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].t1 = wall_ms();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::rename(int index, const char* name) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].name = name;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(s.t1 - s.t0);
  return out;
}

double Tracer::total_ms(const std::string& name) const {
  double sum = 0.0;
  for (const double d : durations(name)) sum += d;
  return sum;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"i\":%zu,\"name\":\"%s\",\"start_ms\":%.6f,"
                  "\"end_ms\":%.6f,\"parent\":%d,\"id\":%llu}\n",
                  i, s.name, s.t0, s.t1, s.parent,
                  static_cast<unsigned long long>(s.id));
    out << buf;
  }
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  e2e_[name] = Value{value, unit};
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_[name] = Value{value, unit};
}

void Report::named(const std::string& name, double value,
                   const std::string& unit, std::size_t samples) {
  named_.push_back(Named{name, value, unit, samples});
}

void Report::check(bool ok, const std::string& what) {
  std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) ++check_failures_;
}

double Report::op_metrics(const std::vector<double>& op_ms,
                          const std::vector<double>& op_cpu_ms, double items,
                          double tail_pct, const SetupTimes& setup) {
  double wall_total = 0, cpu_total = 0;
  for (const double ms : op_ms) wall_total += ms;
  for (const double ms : op_cpu_ms) cpu_total += ms;
  e2e("op_cpu_ms_p50", median(op_cpu_ms), "ms");
  e2e("op_cpu_ms_tail", percentile(op_cpu_ms, tail_pct), "ms");
  e2e("items_per_cpu_s", cpu_total > 0 ? items / (cpu_total / 1e3) : 0.0,
      "1/s");
  e2e("setup_s", median(setup.cpu_s), "s");
  e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  e2e("success_rate",
      attempted == 0 ? 0.0
                     : 1.0 - static_cast<double>(failed) /
                                 static_cast<double>(attempted),
      "ratio");
  const double items_per_s = wall_total > 0 ? items / (wall_total / 1e3) : 0.0;
  named("op_ms_p50", median(op_ms), "ms", op_ms.size());
  named("op_ms_tail", percentile(op_ms, tail_pct), "ms", op_ms.size());
  named("items_per_s", items_per_s, "1/s", op_ms.size());
  named("setup_wall_s", median(setup.wall_s), "s", setup.wall_s.size());
  const double beyond =
      static_cast<double>(op_ms.size()) * (1.0 - tail_pct / 100.0);
  std::printf("op samples %zu, tail = p%g (%.0f samples beyond it), setup "
              "samples %zu\n",
              op_ms.size(), tail_pct, beyond, setup.cpu_s.size());
  return items_per_s;
}

namespace {

/// Shortest decimal that round-trips the double exactly.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_block(const char* kind,
                 const std::map<std::string, Report::Value>& values) {
  for (const auto& [name, v] : values)
    std::printf("%-6s %-44s %16.6f %s\n", kind, name.c_str(), v.value,
                v.unit.c_str());
}

std::string json_metrics(const std::map<std::string, Report::Value>& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : values) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(v.value) +
           ", \"unit\": \"" + v.unit + "\"}";
  }
  return out + "}";
}

}  // namespace

namespace {

// Every per-layer metric a traced run reports. A workload that never
// calls a layer (its bypass workload) reports that layer's metrics as 0.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"trace_io.parse_ms", "ms"},
    {"trace_io.parse_mb_per_s", "MB/s"},
    {"snapshot.write_ms", "ms"},
    {"snapshot.bytes", "bytes"},
    {"snapshot.load_ms", "ms"},
    {"temporal_graph.index_build_ms", "ms"},
    {"optimal_paths.propagate_ms", "ms"},
    {"optimal_paths.levels", "count"},
    {"optimal_paths.contacts_examined", "count"},
    {"optimal_paths.pairs_inserted", "count"},
    {"optimal_paths.pairs_dominated", "count"},
    {"optimal_paths.keep_ratio", "ratio"},
    {"optimal_paths.merge_batches", "count"},
    {"optimal_paths.pairs_peak", "count"},
    {"optimal_paths.arena_bytes_peak", "bytes"},
    {"optimal_paths.workspace_allocations", "count"},
    {"source_cdf.process_ms", "ms"},
    {"source_cdf.integrate_self_ms", "ms"},
    {"source_cdf.pairs_integrated", "count"},
    {"source_cdf.fold_ms", "ms"},
    {"source_cdf.finalize_ms", "ms"},
    {"diameter.serial_ms", "ms"},
    {"diameter.parallel_efficiency", "ratio"},
    {"diameter.eval_ms", "ms"},
    {"query_engine.cdf_hit_ms_p50", "ms"},
    {"query_engine.cdf_miss_ms_p50", "ms"},
    {"query_engine.all_pairs_ms_p50", "ms"},
    {"query_engine.reach_ms_p50", "ms"},
    {"query_engine.journey_ms_p50", "ms"},
    {"query_engine.ingest_ms_p50", "ms"},
    {"query_engine.cdf_hit", "count"},
    {"query_engine.cdf_miss", "count"},
    {"query_engine.all_pairs", "count"},
    {"query_engine.reach", "count"},
    {"query_engine.journey", "count"},
    {"query_engine.ingest", "count"},
    {"lru_cache.hits", "count"},
    {"lru_cache.misses", "count"},
    {"lru_cache.evictions", "count"},
    {"lru_cache.hit_ratio", "ratio"},
    {"lru_cache.bytes", "bytes"},
    {"lru_cache.entries", "count"},
    {"live_ingest.feed_ms_p50", "ms"},
    {"live_ingest.bulk_commit_ms", "ms"},
    {"live_ingest.below_watermark", "count"},
    {"incremental_engine.commit_ms_p50", "ms"},
    {"incremental_engine.commit_ms_p90", "ms"},
    {"incremental_engine.all_pairs_ms_p50", "ms"},
    {"incremental_engine.all_pairs_ms_p90", "ms"},
    {"incremental_engine.pairs_integrated_per_epoch", "count"},
    {"incremental_engine.contacts_per_epoch", "count"},
    {"bench.trace_overhead_pct", "%"},
};

}  // namespace

void Report::print(const RunConfig& cfg) {
  if (cfg.trace) {
    std::map<std::string, Value> all;
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = layers_.find(name);
      all[name] = it != layers_.end() ? it->second : Value{0.0, unit};
      if (it != layers_.end() && it->second.unit != unit)
        check(false, std::string("layer metric unit of ") + name);
    }
    for (const auto& [name, v] : layers_)
      if (!all.count(name)) check(false, "layer metric listed: " + name);
    layers_ = std::move(all);
  }
  for (const Named& n : named_)
    std::printf("metric %-44s %16.6f %-6s n=%zu\n", n.name.c_str(), n.value,
                n.unit.c_str(), n.samples);
  print_block("e2e", e2e_);
  print_block("layer", layers_);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              json_metrics(cfg.trace ? layers_ : e2e_).c_str());
  std::fflush(stdout);
}

}  // namespace odtnbench
