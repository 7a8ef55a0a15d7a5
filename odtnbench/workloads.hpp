// The four benchmark workloads. Each generates its inputs from the seed,
// sets the program up (timed as setup_s), runs its operation in a
// closed loop for the configured seconds, checks the outputs and fills
// the report. A traced run alternates traced and untraced operations
// and reports per-layer metrics instead of end-to-end ones.
#pragma once

#include "harness.hpp"

namespace odtnbench {

void run_batch_cdf(const RunConfig& cfg, Report& report);
void run_live_tail(const RunConfig& cfg, Report& report);
void run_serve_mixed(const RunConfig& cfg, Report& report);
void run_ingest_1m(const RunConfig& cfg, Report& report);

}  // namespace odtnbench
