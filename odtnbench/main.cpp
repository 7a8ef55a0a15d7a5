// odtn_bench: runs one benchmark workload and prints its metrics.
//
//   odtn_bench --workload <batch_cdf|live_tail|serve_mixed|ingest_1m>
//              --seed <n> --seconds <s> --trace <0|1>
//              --workdir <dir> [--spans <file>]
//
// The last line of standard output is the JSON result. The exit status
// is non-zero when an output check fails or the arguments are invalid.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "odtn_bench: %s\nusage: odtn_bench --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> --workdir <dir> "
               "[--spans <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace odtnbench;
  const std::map<std::string, void (*)(const RunConfig&, Report&)> workloads = {
      {"batch_cdf", run_batch_cdf},
      {"live_tail", run_live_tail},
      {"serve_mixed", run_serve_mixed},
      {"ingest_1m", run_ingest_1m},
  };

  RunConfig cfg;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload")
        cfg.workload = value;
      else if (key == "--seed")
        cfg.seed = std::stoull(value);
      else if (key == "--seconds")
        cfg.seconds = std::stod(value);
      else if (key == "--trace")
        cfg.trace = value != "0";
      else if (key == "--workdir")
        cfg.workdir = value;
      else if (key == "--spans")
        cfg.spans_path = value;
      else
        return usage(("unknown argument " + key).c_str());
    }
  } catch (const std::exception&) {
    return usage("malformed argument value");
  }
  if (argc % 2 != 1) return usage("arguments come in --key value pairs");
  const auto it = workloads.find(cfg.workload);
  if (it == workloads.end()) return usage("unknown workload");
  if (cfg.workdir.empty() || !(cfg.seconds > 0))
    return usage("--workdir and a positive --seconds are required");
  if (cfg.trace && cfg.spans_path.empty())
    cfg.spans_path = cfg.workdir + "/spans.jsonl";
  std::filesystem::create_directories(cfg.workdir);

  Report report;
  try {
    it->second(cfg, report);
  } catch (const std::exception& e) {
    std::printf("workload %s aborted: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }
  report.print(cfg);
  return report.correct() ? 0 : 1;
}
