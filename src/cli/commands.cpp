#include "cli/commands.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <limits>
#include <optional>

#include "cli/args.hpp"
#include "cli/serve.hpp"
#include "core/diameter.hpp"
#include "core/path_enumeration.hpp"
#include "core/reachability.hpp"
#include "random/phase_transition.hpp"
#include "random/theory.hpp"
#include "stats/empirical.hpp"
#include "stats/log_grid.hpp"
#include "trace/datasets.hpp"
#include "trace/imports.hpp"
#include "trace/trace_io.hpp"
#include "trace/transforms.hpp"
#include "util/rng.hpp"
#include "util/time_format.hpp"

namespace odtn::cli {
namespace {

/// Parses `--threads N` (0 = hardware concurrency, the default).
unsigned take_threads(ArgList& args) {
  const auto threads = args.take_option("threads");
  if (!threads) return 0;
  return static_cast<unsigned>(parse_count(
      *threads, "threads", std::numeric_limits<unsigned>::max()));
}

int cmd_generate(ArgList args) {
  const std::string preset_name = required_option(args, "preset");
  const std::string out = required_option(args, "out");
  const auto seed = args.take_option("seed");
  args.expect_empty();

  std::optional<DatasetPreset> preset;
  for (auto& d : all_datasets()) {
    std::string lower = d.spec.name;
    // tolower on a plain char is UB for negative (non-ASCII) bytes;
    // widen through unsigned char per the cctype contract.
    for (char& c : lower)
      c = static_cast<char>(
          std::tolower(static_cast<unsigned char>(c)));
    if (lower == preset_name || d.spec.name == preset_name) preset = d;
  }
  if (!preset)
    throw CliError("unknown preset '" + preset_name +
                   "' (try infocom05, infocom06, hong-kong, realitymining)");
  if (seed) preset->seed = parse_count(*seed, "seed");
  const auto trace = preset->generate();
  write_trace_file(out, trace.graph);
  std::printf("wrote %s: %zu nodes (%zu experimental), %zu contacts, %s\n",
              out.c_str(), trace.graph.num_nodes(), trace.num_internal,
              trace.graph.num_contacts(),
              format_duration(trace.graph.duration()).c_str());
  return 0;
}

int cmd_stats(ArgList args) {
  const std::string path = required_positional(args, "trace file");
  args.expect_empty();
  const TemporalGraph g = read_trace_file(path);

  EmpiricalDistribution durations;
  for (double d : g.contact_durations()) durations.add(d);

  std::printf("trace:            %s\n", path.c_str());
  std::printf("nodes:            %zu\n", g.num_nodes());
  std::printf("contacts:         %zu\n", g.num_contacts());
  std::printf("directed:         %s\n", g.directed() ? "yes" : "no");
  std::printf("span:             %s (from %s to %s)\n",
              format_duration(g.duration()).c_str(),
              format_timestamp(g.start_time()).c_str(),
              format_timestamp(g.end_time()).c_str());
  std::printf("contact rate:     %.2f contacts/node/day\n",
              g.contact_rate(kDay));
  std::printf("connected pairs:  %zu\n", g.num_connected_pairs());
  if (durations.count() > 0) {
    std::printf("duration median:  %s\n",
                format_duration(durations.quantile(0.5)).c_str());
    std::printf("duration p95:     %s\n",
                format_duration(durations.quantile(0.95)).c_str());
    std::printf("duration max:     %s\n",
                format_duration(durations.finite_max()).c_str());
  }
  return 0;
}

int cmd_cdf(ArgList args) {
  const std::string path = required_positional(args, "trace file");
  const auto max_hops = args.take_option("max-hops");
  const auto eps = args.take_option("eps");
  const auto grid_lo = args.take_option("grid-lo");
  const auto grid_hi = args.take_option("grid-hi");
  const auto daytime = args.take_option("daytime");
  const unsigned num_threads = take_threads(args);
  args.expect_empty();

  const TemporalGraph g = read_trace_file(path);
  if (g.num_contacts() == 0) throw CliError("trace has no contacts");

  DelayCdfOptions opt;
  if (daytime) {
    // "--daytime 9-18": message creation restricted to those hours.
    const auto dash = daytime->find('-');
    if (dash == std::string::npos)
      throw CliError("--daytime expects <hour>-<hour>, e.g. 9-18");
    const double lo_h = parse_double(daytime->substr(0, dash), "daytime");
    const double hi_h = parse_double(daytime->substr(dash + 1), "daytime");
    if (!(0.0 <= lo_h && lo_h < hi_h && hi_h <= 24.0))
      throw CliError("--daytime hours must satisfy 0 <= lo < hi <= 24");
    opt.windows =
        daily_time_windows(g.start_time(), g.end_time(), lo_h, hi_h);
    if (opt.windows.empty())
      throw CliError("--daytime window never intersects the trace");
  }
  const double lo =
      grid_lo ? parse_duration(*grid_lo, "grid-lo") : 2 * kMinute;
  const double hi = grid_hi ? parse_duration(*grid_hi, "grid-hi")
                            : std::max(g.duration(), 2 * lo);
  opt.grid = make_log_grid(lo, hi, 40);
  opt.max_hops = max_hops ? parse_int(*max_hops, "max-hops", 1) : 10;
  opt.num_threads = num_threads;
  const double epsilon = eps ? parse_double(*eps, "eps") : 0.01;

  const auto result = compute_delay_cdf(g, opt);
  // Hop columns are driven by what the engine actually produced, never
  // past cdf_by_hops.size() -- a result truncated below the requested
  // budget must not turn into an out-of-range read.
  const int hop_columns =
      std::min<int>(opt.max_hops, static_cast<int>(result.cdf_by_hops.size()));
  std::printf("%-12s", "delay");
  for (int k = 1; k <= hop_columns; k += (k < 4 ? 1 : 2))
    std::printf(" %6d", k);
  std::printf(" %6s\n", "inf");
  for (std::size_t j = 0; j < result.grid.size(); j += 3) {
    std::printf("%-12s", format_duration(result.grid[j]).c_str());
    for (int k = 1; k <= hop_columns; k += (k < 4 ? 1 : 2))
      std::printf(" %6.4f", result.cdf_by_hops[k - 1][j]);
    std::printf(" %6.4f\n", result.cdf_unbounded[j]);
  }
  const int diameter = result.diameter(epsilon);
  if (diameter == DelayCdfResult::kUnknownDiameter)
    std::printf("\ndiameter (%.0f%% of flooding at every scale): "
                "undetermined (> %d hops)\n",
                100.0 * (1.0 - epsilon), opt.max_hops);
  else
    std::printf("\ndiameter (%.0f%% of flooding at every scale): %d hops\n",
                100.0 * (1.0 - epsilon), diameter);
  std::printf("max hops on any delay-optimal path:          %d\n",
              result.fixpoint_hops);
  if (!result.converged)
    std::fprintf(stderr,
                 "odtn: warning: hop-level DP did not converge within %d "
                 "levels; the max-hops figure is a lower bound and the "
                 "diameter is undetermined beyond the evaluated budgets\n",
                 opt.max_levels);
  std::printf(
      "engine: %llu contact extensions, %llu pairs kept, %llu dominated\n",
      static_cast<unsigned long long>(result.stats.contacts_examined),
      static_cast<unsigned long long>(result.stats.pairs_inserted),
      static_cast<unsigned long long>(result.stats.pairs_dominated));
  std::printf(
      "cdf:    %llu pairs integrated, %llu workspace allocations, "
      "%llu reuses\n",
      static_cast<unsigned long long>(result.stats.cdf_pairs_integrated),
      static_cast<unsigned long long>(result.stats.workspace_allocations),
      static_cast<unsigned long long>(result.stats.workspace_reuses));
  if (result.stats.merge_batches > 0)
    std::printf(
        "pool:   %llu merge batches, %llu pairs peak, %llu arena bytes "
        "peak\n",
        static_cast<unsigned long long>(result.stats.merge_batches),
        static_cast<unsigned long long>(result.stats.pairs_peak),
        static_cast<unsigned long long>(result.stats.arena_bytes_peak));
  return 0;
}

int cmd_validate(ArgList args) {
  // Ingestion diagnostics: lenient parse + canonicalization cross-check
  // by default, so one run reports every defect and normalization the
  // trace would need; --strict stops at the first defect instead.
  const std::string path = required_positional(args, "trace file");
  const bool strict = args.take_flag("strict");
  args.expect_empty();

  ParseOptions opt;
  opt.mode = strict ? ParseMode::kStrict : ParseMode::kLenient;
  opt.canonicalize = true;
  ParseReport report;
  const TemporalGraph g = read_trace_file(path, opt, &report);
  std::printf("trace:        %s\n", path.c_str());
  std::printf("%s", report.summary().c_str());
  std::printf("span:         %s (from %s to %s)\n",
              format_duration(g.duration()).c_str(),
              format_timestamp(g.start_time()).c_str(),
              format_timestamp(g.end_time()).c_str());
  if (report.skipped == 0) {
    std::printf("verdict:      OK\n");
    return 0;
  }
  std::printf("verdict:      %zu defective record(s) skipped\n",
              report.skipped);
  return 1;
}

int cmd_filter(ArgList args) {
  const std::string path = required_positional(args, "trace file");
  const std::string out = required_option(args, "out");
  const auto min_duration = args.take_option("min-duration");
  const auto keep_prob = args.take_option("keep-prob");
  const auto seed = args.take_option("seed");
  const auto window_lo = args.take_option("window-lo");
  const auto window_hi = args.take_option("window-hi");
  const auto internal = args.take_option("internal");
  args.expect_empty();

  TemporalGraph g = read_trace_file(path);
  if (window_lo || window_hi) {
    if (!window_lo || !window_hi)
      throw CliError("--window-lo and --window-hi must be given together");
    g = restrict_time_window(g, parse_duration(*window_lo, "window-lo"),
                             parse_duration(*window_hi, "window-hi"));
  }
  if (internal)
    g = keep_internal_contacts(g, parse_count(*internal, "internal"));
  if (min_duration)
    g = remove_contacts_shorter_than(
        g, parse_duration(*min_duration, "min-duration"));
  if (keep_prob) {
    const double keep = parse_double(*keep_prob, "keep-prob");
    if (keep < 0.0 || keep > 1.0)
      throw CliError("--keep-prob must be in [0, 1]");
    Rng rng(seed ? parse_count(*seed, "seed") : 1);
    g = remove_contacts_random(g, 1.0 - keep, rng);
  }
  write_trace_file(out, g);
  std::printf("wrote %s: %zu nodes, %zu contacts\n", out.c_str(),
              g.num_nodes(), g.num_contacts());
  return 0;
}

int cmd_import(ArgList args) {
  const std::string path = required_positional(args, "input file");
  const std::string out = required_option(args, "out");
  const std::string format = required_option(args, "format");
  args.expect_empty();
  TemporalGraph g(0, {});
  if (format == "crawdad") {
    g = import_crawdad_contacts_file(path);
  } else if (format == "one") {
    g = import_one_events_file(path);
  } else {
    throw CliError("unknown format '" + format + "' (crawdad or one)");
  }
  write_trace_file(out, g);
  std::printf("imported %s (%s): %zu nodes, %zu contacts -> %s\n",
              path.c_str(), format.c_str(), g.num_nodes(), g.num_contacts(),
              out.c_str());
  return 0;
}

int cmd_mc(ArgList args) {
  // Monte-Carlo phase-transition probe on the random temporal network
  // (§3.2), driven by the deterministic parallel harness: the estimate
  // depends on --seed and --trials only, never on --threads.
  const std::string contact_case = required_option(args, "case");
  const std::size_t n = parse_count(required_option(args, "n"), "n");
  const double lambda = parse_double(required_option(args, "lambda"), "lambda");
  const auto tau_opt = args.take_option("tau");
  const auto gamma_opt = args.take_option("gamma");
  const auto trials_opt = args.take_option("trials");
  const auto seed_opt = args.take_option("seed");
  const unsigned num_threads = take_threads(args);
  args.expect_empty();

  ContactCase mode;
  if (contact_case == "short") {
    mode = ContactCase::kShort;
  } else if (contact_case == "long") {
    mode = ContactCase::kLong;
  } else {
    throw CliError("--case must be 'short' or 'long'");
  }
  if (n < 2) throw CliError("--n must be >= 2");
  if (lambda <= 0.0) throw CliError("--lambda must be > 0");

  // Defaults: probe at the analytic optimum of the phase boundary.
  const double gamma =
      gamma_opt ? parse_double(*gamma_opt, "gamma")
                : (mode == ContactCase::kShort ? gamma_star_short(lambda)
                                               : gamma_star_long(lambda));
  const double tau =
      tau_opt ? parse_double(*tau_opt, "tau")
              : (mode == ContactCase::kShort ? delay_constant_short(lambda)
                                             : delay_constant_long(lambda));
  const std::size_t trials =
      trials_opt ? parse_count(*trials_opt, "trials") : 200;
  if (trials == 0) throw CliError("--trials must be >= 1");
  const std::uint64_t seed = seed_opt ? parse_count(*seed_opt, "seed") : 1;

  const auto probe = probe_path_probability(n, lambda, tau, gamma, mode,
                                            trials, {seed, num_threads});
  std::printf("P[path within %.3f ln N slots, %.3f*t hops] = %.4f "
              "(%zu/%zu trials)\n",
              tau, gamma, probe.probability, probe.successes, trials);
  std::printf("harness: %llu trials over %u worker(s), %.1f ms, "
              "%.0f trials/s, utilization %.2f\n",
              static_cast<unsigned long long>(probe.mc.trials),
              probe.mc.workers, probe.mc.wall_ms,
              probe.mc.trials_per_second(), probe.mc.worker_utilization());
  return 0;
}

int cmd_route(ArgList args) {
  const std::string path = required_positional(args, "trace file");
  constexpr unsigned long kMaxNode = std::numeric_limits<NodeId>::max();
  const auto src = static_cast<NodeId>(
      parse_count(required_option(args, "src"), "src", kMaxNode));
  const auto dst = static_cast<NodeId>(
      parse_count(required_option(args, "dst"), "dst", kMaxNode));
  const auto time = args.take_option("time");
  args.expect_empty();

  const TemporalGraph g = read_trace_file(path);
  if (src >= g.num_nodes() || dst >= g.num_nodes())
    throw CliError("node id out of range");

  const auto routes = enumerate_optimal_routes(g, src, dst);
  if (routes.empty()) {
    std::printf("no time-respecting path from %u to %u\n", src, dst);
    return 0;
  }
  std::printf("%zu delay-optimal route(s) from %u to %u:\n", routes.size(),
              src, dst);
  for (const auto& route : routes) {
    std::printf("  depart by %s, arrive at %s (%d hops):",
                format_timestamp(route.pair.ld).c_str(),
                format_timestamp(route.pair.ea).c_str(), route.hops());
    for (std::size_t idx : route.contact_indices) {
      const Contact& c = g.contacts()[idx];
      std::printf(" %u-%u", c.u, c.v);
    }
    std::printf("\n");
  }
  if (time) {
    const double t = parse_duration(*time, "time");
    SingleSourceEngine engine(g, src);
    engine.run_to_fixpoint();
    const double arrival = engine.frontier_view(dst).deliver_at(t);
    if (arrival < 1e300) {
      std::printf("message created at %s delivered at %s (delay %s)\n",
                  format_timestamp(t).c_str(),
                  format_timestamp(arrival).c_str(),
                  format_duration(arrival - t).c_str());
    } else {
      std::printf("message created at %s is never delivered\n",
                  format_timestamp(t).c_str());
    }
  }
  return 0;
}

}  // namespace

std::string usage_text() {
  return "odtn -- delay-optimal temporal paths & network diameter\n"
         "\n"
         "usage: odtn <command> [options]\n"
         "\n"
         "commands:\n"
         "  generate --preset <infocom05|infocom06|hong-kong|realitymining>\n"
         "           [--seed N] --out <file>    synthesize a Table-1 trace\n"
         "  stats <trace>                       contact statistics report\n"
         "  validate <trace> [--strict]         ingestion diagnostics: parse\n"
         "                                      report, canonicalization +\n"
         "                                      node-count cross-check\n"
         "  cdf <trace> [--max-hops K] [--eps E] [--daytime H-H]\n"
         "      [--grid-lo D --grid-hi D] [--threads W]\n"
         "                                      delay CDFs + diameter\n"
         "  mc --case <short|long> --n N --lambda L [--tau T] [--gamma G]\n"
         "     [--trials K] [--seed S] [--threads W]\n"
         "                                      Monte-Carlo phase probe\n"
         "  filter <trace> --out <file> [--min-duration D]\n"
         "      [--keep-prob P [--seed N]] [--window-lo D --window-hi D]\n"
         "      [--internal N]                  Section-6 trace transforms\n"
         "  route <trace> --src U --dst V [--time T]\n"
         "                                      enumerate optimal routes\n"
         "  import <file> --format <crawdad|one> --out <trace>\n"
         "                                      convert published formats\n"
         "  snapshot <trace> <out.odtns>        write the mmap-able binary\n"
         "                                      snapshot (parse + index once)\n"
         "  serve --snapshot <file> | --trace <file>\n"
         "      [--input <file>] [--socket <path> [--once]] [--max-hops K]\n"
         "      [--grid-lo D --grid-hi D] [--cache-mb M]\n"
         "                                      answer line-delimited query\n"
         "                                      batches (cdf, diameter,\n"
         "                                      reach, journey, stats,\n"
         "                                      ingest, quit)\n"
         "  tail <feed> [--follow [--poll-ms N]] [--epoch N] [--max-hops K]\n"
         "      [--max-levels L] [--grid-lo D --grid-hi D] [--eps E]\n"
         "      [--window-lo T --window-hi T]\n"
         "                                      live-ingest a growing trace\n"
         "                                      ('-' = stdin); one diameter/\n"
         "                                      CDF row per committed epoch\n"
         "  help                                this text\n"
         "\n"
         "durations accept suffixes: s, min, h, d, wk (e.g. --min-duration "
         "10min)\n";
}

int run_cli(std::vector<std::string> args) {
  try {
    if (args.empty()) {
      std::fputs(usage_text().c_str(), stdout);
      return 2;
    }
    const std::string command = args.front();
    ArgList rest(std::vector<std::string>(args.begin() + 1, args.end()));
    if (command == "generate") return cmd_generate(std::move(rest));
    if (command == "stats") return cmd_stats(std::move(rest));
    if (command == "validate") return cmd_validate(std::move(rest));
    if (command == "cdf") return cmd_cdf(std::move(rest));
    if (command == "filter") return cmd_filter(std::move(rest));
    if (command == "route") return cmd_route(std::move(rest));
    if (command == "mc") return cmd_mc(std::move(rest));
    if (command == "import") return cmd_import(std::move(rest));
    if (command == "snapshot") return cmd_snapshot(std::move(rest));
    if (command == "serve") return cmd_serve(std::move(rest));
    if (command == "tail") return cmd_tail(std::move(rest));
    if (command == "help" || command == "--help") {
      std::fputs(usage_text().c_str(), stdout);
      return 0;
    }
    throw CliError("unknown command '" + command + "' (see: odtn help)");
  } catch (const CliError& e) {
    std::fprintf(stderr, "odtn: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "odtn: %s\n", e.what());
    return 1;
  }
}

}  // namespace odtn::cli
