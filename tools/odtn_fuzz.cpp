// Differential fuzzer for the optimal-path engine and the trace parser.
//
// Engine mode (default): generates adversarial random traces (boundary
// coincidences, zero durations, nested/overlapping intervals, heavy
// tails) and cross-checks the Pareto-frontier engine against direct
// flooding at random and boundary start times, for bounded and
// unbounded hop budgets. Any mismatch prints a reproducer (the trace in
// odtn format) and exits 1.
//
// Parser mode (--parser N): round-trips adversarial traces through
// write_trace -> read_trace, cross-checks the streaming parser against
// the seed line-stream parser (read_trace_reference) and the lenient /
// canonicalize modes against their contracts, then mutates the trace
// bytes and feeds the result to both parse modes — anything other than
// a clean TraceError (crash, sanitizer report, wrong exception) fails.
//
// Corpus mode (--corpus DIR): parses every file under DIR in strict,
// lenient, and canonicalize modes. Files named ok_* must parse strict
// cleanly; every other file must raise TraceError in strict mode.
// tools/verify.sh runs this under ASan+UBSan against tests/corpus.
//
// Kernel mode (--kernel N): differentials for the pooled engine's
// batched frontier kernels. Each trial (a) feeds a random mutated pair
// batch through prune_candidate_batch + merge_frontier and cross-checks
// the result bit for bit against DeliveryFunction::insert, then checks
// the delay-CDF grid search (grid_index, stats/measure_cdf.hpp) against
// std::lower_bound on a random strictly increasing grid, and (b) runs
// the kPooled engine and the kLevelSweep oracle level by level over an
// adversarial trace, both under one random delay horizon (or none),
// requiring identical frontiers with no pair past the horizon
// (exercising arena growth, span recycling via reset, and the free
// pre-change snapshots);
// under ASan/UBSan this doubles as a bounds check on the arena spans and
// the grid search.
//
// Snapshot mode (--snapshot N): round-trips the binary snapshot codec
// (bit-identical re-encode, engine equivalence of the mmap-style view),
// rejects every truncation prefix / trailing byte / bad magic+version,
// and checks that random bit flips either raise SnapshotError or decode
// to a graph that is safe to run and re-encodes to the same bytes.
//
// Live mode (--live N): differentials for the live-ingestion path.
// Each trial splits an adversarial trace into a random number of append
// epochs (1-4, or 8-40 in a quarter of the trials so the per-source
// arenas compact; a run of 100+ trials fails below 30 compactions per
// 100), runs them through IncrementalAllPairsEngine, and requires
// every epoch's all_pairs() to be bit-identical to a cold
// compute_delay_cdf on the prefix ingested so far, under both kDirect
// and the default kAuto (incremental) scheme, and every source's
// version lists to equal a cold engine's frontiers at every level.
// Epochs before the last skip all_pairs at random, so a call may fold
// partials that several appends brought up to date. Half of the trials
// use an explicit start window (the full span, or in half of them a
// narrower one), the other half the growing trace span (NaN bounds, as
// `odtn tail` does), under which the partials keep their numerators and
// swap only their observation measure. In a quarter of the narrow ones
// t_hi is NaN, so the window stays empty until the trace passes t_lo:
// all_pairs must throw the cold run's error until then, and the epoch
// the window opens at takes the full pass. In half of the trials the
// delay grid ends below the trace span, so with the narrow windows the
// DPs drop pairs past their delay horizon; the cold engines and runs
// share the live engine's horizon. Half of the trials first stretch the trace
// over 3-6 days and shift it by a random non-integral number of days,
// sometimes negative, so frontiers change at non-integral times over a
// long span. It also
// replays the trace's byte serialization through StreamingTraceParser
// under random chunk splits -- sometimes one byte at a time, sometimes
// with the final newline stripped so the flush() path runs -- and
// requires the result to match the one-shot read_trace graph exactly.
//
// Usage: odtn_fuzz [--engine N] [--parser N] [--kernel N] [--snapshot N]
//                  [--live N] [--corpus DIR] [--seed S]
//        odtn_fuzz [trials] [base-seed]        (legacy: engine mode)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/diameter.hpp"
#include "core/frontier_kernels.hpp"
#include "core/incremental_engine.hpp"
#include "core/optimal_paths.hpp"
#include "sim/flooding.hpp"
#include "stats/log_grid.hpp"
#include "stats/measure_cdf.hpp"
#include "trace/snapshot.hpp"
#include "trace/trace_io.hpp"
#include "util/rng.hpp"
#include "util/time_format.hpp"

using namespace odtn;

namespace {

TemporalGraph adversarial_trace(Rng& rng) {
  const std::size_t nodes = 3 + rng.below(12);
  const std::size_t count = 5 + rng.below(200);
  const double horizon = 20.0 + rng.uniform(0.0, 200.0);
  const bool integer_times = rng.bernoulli(0.5);
  std::vector<Contact> contacts;
  contacts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto u = static_cast<NodeId>(rng.below(nodes));
    auto v = static_cast<NodeId>(rng.below(nodes - 1));
    if (v >= u) ++v;
    double begin = rng.uniform(0.0, horizon);
    double length;
    const double kind = rng.next_double();
    if (kind < 0.25) {
      length = 0.0;  // instantaneous
    } else if (kind < 0.5) {
      length = rng.uniform(0.0, 2.0);  // short
    } else if (kind < 0.9) {
      length = rng.uniform(0.0, horizon / 3.0);  // typical
    } else {
      length = rng.uniform(0.0, 3.0 * horizon);  // spans everything
    }
    if (integer_times) {
      begin = std::floor(begin);
      length = std::floor(length);
    }
    contacts.push_back({u, v, begin, begin + length});
  }
  return TemporalGraph(nodes, std::move(contacts));
}

[[noreturn]] void report_failure(const TemporalGraph& g, NodeId src,
                                 NodeId dst, double t0, int hops,
                                 double engine_value, double flood_value,
                                 std::uint64_t seed) {
  std::fprintf(stderr,
               "MISMATCH seed=%llu src=%u dst=%u t0=%.17g hops=%d "
               "engine=%.17g flooding=%.17g\nreproducer trace:\n",
               static_cast<unsigned long long>(seed), src, dst, t0, hops,
               engine_value, flood_value);
  std::ostringstream out;
  write_trace(out, g);
  std::fputs(out.str().c_str(), stderr);
  std::exit(1);
}

int engine_trials(long trials, std::uint64_t base_seed) {
  for (long trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(trial);
    Rng rng(seed);
    const TemporalGraph g = adversarial_trace(rng);
    const auto src = static_cast<NodeId>(rng.below(g.num_nodes()));

    SingleSourceEngine engine(g, src);
    const int budget = 1 + static_cast<int>(rng.below(6));
    for (int k = 0; k < budget; ++k) engine.step();
    // Once the engine hits its fixpoint early, its frontiers equal
    // L_budget anyway, so the hop budget stays the comparison key.
    const int hops = budget;
    for (int q = 0; q < 30; ++q) {
      double t0;
      if (q % 3 == 0) {
        const Contact& c = g.contacts()[rng.below(g.num_contacts())];
        t0 = (q % 2 == 0) ? c.begin : c.end;
      } else {
        t0 = rng.uniform(-10.0, g.end_time() + 10.0);
      }
      const FloodingResult fr = flood(g, src, t0, hops);
      for (NodeId dst = 0; dst < g.num_nodes(); ++dst) {
        const double engine_value = engine.frontier(dst).deliver_at(t0);
        const double flood_value = fr.arrival_with_hops(dst, hops);
        if (engine_value != flood_value)
          report_failure(g, src, dst, t0, hops, engine_value, flood_value,
                         seed);
      }
    }

    // Fixpoint vs unbounded flooding.
    engine.run_to_fixpoint();
    const double t0 = rng.uniform(0.0, g.end_time());
    const FloodingResult fr = flood(g, src, t0);
    for (NodeId dst = 0; dst < g.num_nodes(); ++dst) {
      const double engine_value = engine.frontier(dst).deliver_at(t0);
      if (engine_value != fr.best_arrival(dst))
        report_failure(g, src, dst, t0, -1, engine_value,
                       fr.best_arrival(dst), seed);
    }
  }
  std::printf("odtn_fuzz: %ld engine trials passed (seeds %llu..%llu)\n",
              trials, static_cast<unsigned long long>(base_seed),
              static_cast<unsigned long long>(
                  base_seed + static_cast<std::uint64_t>(trials) - 1));
  return 0;
}

bool graphs_identical(const TemporalGraph& a, const TemporalGraph& b) {
  return a.num_nodes() == b.num_nodes() && a.directed() == b.directed() &&
         std::ranges::equal(a.contacts(), b.contacts());
}

[[noreturn]] void parser_failure(const char* what, std::uint64_t seed,
                                 const std::string& text) {
  std::fprintf(stderr, "PARSER MISMATCH seed=%llu: %s\ninput:\n%s\n",
               static_cast<unsigned long long>(seed), what, text.c_str());
  std::exit(1);
}

/// Random byte-level mutation: replace, insert, or delete, biased
/// toward bytes the trace grammar cares about.
std::string mutate(std::string text, Rng& rng) {
  static const char kAlphabet[] = "0123456789 \t\n\r#.-+eEvinfa\0x";
  const std::size_t edits = 1 + rng.below(8);
  for (std::size_t i = 0; i < edits && !text.empty(); ++i) {
    const std::size_t pos = rng.below(text.size());
    const char byte = kAlphabet[rng.below(sizeof kAlphabet - 1)];
    switch (rng.below(4)) {
      case 0: text[pos] = byte; break;
      case 1: text.insert(text.begin() + static_cast<long>(pos), byte); break;
      case 2: text.erase(text.begin() + static_cast<long>(pos)); break;
      default: text.resize(pos); break;  // truncate
    }
  }
  return text;
}

int parser_trials(long trials, std::uint64_t base_seed) {
  for (long trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(trial);
    Rng rng(seed);
    TemporalGraph original = adversarial_trace(rng);
    if (rng.bernoulli(0.25))
      original = TemporalGraph(original.num_nodes(),
                               original.contacts_vector(),
                               /*directed=*/true);
    std::ostringstream out;
    write_trace(out, original);
    const std::string text = out.str();

    // Round trip: the streaming parser, the seed reference parser, and
    // lenient mode must all reproduce the graph bit-identically.
    {
      std::istringstream in(text);
      const TemporalGraph fast = read_trace(in);
      if (!graphs_identical(fast, original))
        parser_failure("strict round-trip diverged from original", seed, text);
      std::istringstream in_ref(text);
      const TemporalGraph ref = read_trace_reference(in_ref);
      if (!graphs_identical(fast, ref))
        parser_failure("streaming parser diverged from reference", seed,
                       text);
      std::istringstream in_len(text);
      ParseReport report;
      const TemporalGraph lenient =
          read_trace(in_len, {ParseMode::kLenient, false, 64}, &report);
      if (!graphs_identical(lenient, original) || report.skipped != 0)
        parser_failure("lenient mode skipped records of a valid trace", seed,
                       text);
    }

    // Canonicalize contract: equals merge_overlapping_contacts applied
    // to the original contacts.
    {
      std::istringstream in(text);
      ParseReport report;
      const TemporalGraph canon =
          read_trace(in, {ParseMode::kStrict, true, 64}, &report);
      const TemporalGraph expected(
          original.num_nodes(),
          merge_overlapping_contacts(original.contacts_vector()),
          original.directed());
      if (!graphs_identical(canon, expected))
        parser_failure("canonicalize diverged from merge_overlapping_contacts",
                       seed, text);
      if (report.contacts + report.merged != original.num_contacts())
        parser_failure("canonicalize merge accounting is inconsistent", seed,
                       text);
    }

    // Mutated input: both modes must either parse or raise TraceError —
    // never crash, never leak another exception type. If strict
    // succeeds, lenient must agree exactly and skip nothing.
    const std::string broken = mutate(text, rng);
    bool strict_ok = false;
    TemporalGraph strict_graph(0, {});
    try {
      std::istringstream in(broken);
      strict_graph = read_trace(in);
      strict_ok = true;
    } catch (const TraceError&) {
    }
    try {
      std::istringstream in(broken);
      ParseReport report;
      const TemporalGraph lenient =
          read_trace(in, {ParseMode::kLenient, rng.bernoulli(0.5), 64},
                     &report);
      if (strict_ok && !report.canonicalized &&
          (!graphs_identical(lenient, strict_graph) || report.skipped != 0))
        parser_failure("strict-accepted input but lenient diverged", seed,
                       broken);
    } catch (const TraceError&) {
      if (strict_ok)
        parser_failure("strict-accepted input but lenient threw", seed,
                       broken);
    }
  }
  std::printf("odtn_fuzz: %ld parser trials passed (seeds %llu..%llu)\n",
              trials, static_cast<unsigned long long>(base_seed),
              static_cast<unsigned long long>(
                  base_seed + static_cast<std::uint64_t>(trials) - 1));
  return 0;
}

[[noreturn]] void kernel_failure(const char* what, std::uint64_t seed) {
  std::fprintf(stderr, "KERNEL MISMATCH seed=%llu: %s\n",
               static_cast<unsigned long long>(seed), what);
  std::exit(1);
}

/// Random pair with quantized coordinates so exact duplicates, equal-LD
/// ties, and long dominance chains all occur; occasionally infinite
/// coordinates (the identity pair's regime).
PathPair random_kernel_pair(Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (rng.bernoulli(0.02)) return {kInf, -kInf};
  const double scale = rng.bernoulli(0.2) ? 1.0 : 4.0;
  return {std::floor(rng.uniform(0.0, 20.0 * scale)) / scale,
          std::floor(rng.uniform(-10.0, 20.0 * scale)) / scale};
}

/// A delay horizon over `g`'s span: each bound is either absent or
/// drawn inside the span (on whole seconds half of the time, so pairs
/// land exactly on it), and a quarter of the draws are no horizon.
DelayHorizon random_horizon(const TemporalGraph& g, Rng& rng) {
  DelayHorizon h;
  if (rng.bernoulli(0.25)) return h;
  const double span = std::max(g.end_time() - g.start_time(), 1.0);
  const bool whole = rng.bernoulli(0.5);
  const auto draw = [&](double lo, double width) {
    const double t = lo + rng.uniform(0.0, width);
    return whole ? std::floor(t) : t;
  };
  if (rng.bernoulli(0.6)) h.window_lo = draw(g.start_time(), span);
  if (rng.bernoulli(0.6))
    h.window_hi = draw(std::max(h.window_lo, g.start_time()), span);
  h.max_delay = draw(0.0, span);
  return h;
}

int kernel_trials(long trials, std::uint64_t base_seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (long trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(trial);
    Rng rng(seed);

    // (a) Kernel differential: prune + merge vs insert() bit for bit.
    DeliveryFunction base;
    const std::size_t warm = rng.below(40);
    for (std::size_t i = 0; i < warm; ++i)
      base.insert(random_kernel_pair(rng));
    const std::vector<PathPair> base_pairs = base.to_pairs();
    const FrontierView base_view = base.view();
    std::vector<PathPair> raw_batch;
    const std::size_t raw = rng.below(24);
    for (std::size_t i = 0; i < raw; ++i) {
      if (!base.empty() && rng.bernoulli(0.25))
        raw_batch.push_back(base_pairs[rng.below(base_pairs.size())]);  // dup
      else if (!raw_batch.empty() && rng.bernoulli(0.2))
        raw_batch.push_back(raw_batch[rng.below(raw_batch.size())]);  // rep
      else
        raw_batch.push_back(random_kernel_pair(rng));
    }
    std::vector<PathPair> batch = raw_batch;
    const std::size_t m = prune_candidate_batch(batch.data(), batch.size());
    batch.resize(m);
    DeliveryFunction ref = base;
    for (const PathPair& p : batch) ref.insert(p);
    const std::vector<PathPair> ref_pairs = ref.to_pairs();

    const std::size_t fn = base.size();
    std::vector<double> out_ld(fn + m), out_ea(fn + m);
    std::vector<double> d_ld(m), d_ea(m), d_succ(m);
    const FrontierMerge r = merge_frontier(
        base_view.ld_data(), base_view.ea_data(), fn, batch.data(), m,
        out_ld.data(), out_ea.data(), d_ld.data(), d_ea.data(),
        d_succ.data());
    if (r.kept != ref.size())
      kernel_failure("merged frontier size diverged from insert()", seed);
    const std::size_t off = fn + m - r.kept;
    for (std::size_t i = 0; i < r.kept; ++i)
      if (out_ld[off + i] != ref_pairs[i].ld ||
          out_ea[off + i] != ref_pairs[i].ea)
        kernel_failure("merged frontier pair diverged from insert()", seed);
    const std::size_t doff = m - r.kept_new;
    for (std::size_t i = 0; i < r.kept_new; ++i) {
      const PathPair p{d_ld[doff + i], d_ea[doff + i]};
      const auto it = std::find(ref_pairs.begin(), ref_pairs.end(), p);
      if (it == ref_pairs.end())
        kernel_failure("delta pair is not on the merged frontier", seed);
      if (std::find(base_pairs.begin(), base_pairs.end(), p) !=
          base_pairs.end())
        kernel_failure("delta pair already existed in the base frontier",
                       seed);
      const double succ = (it + 1 == ref_pairs.end()) ? kInf : (it + 1)->ea;
      if (d_succ[doff + i] != succ)
        kernel_failure("delta successor EA diverged", seed);
    }

    // Grid-search differential: a strictly increasing grid, with keys
    // that hit grid values exactly, fall outside it or are +/-infinity.
    std::vector<double> grid(1 + rng.below(70));
    double top = -4.0;
    for (double& gv : grid) {
      top += (1.0 + std::floor(rng.uniform(0.0, 4.0))) / 2.0;
      gv = top;
    }
    double keys[2];
    for (double& k : keys) {
      const double kind = rng.next_double();
      if (kind < 0.15)
        k = grid[rng.below(grid.size())];
      else if (kind < 0.2)
        k = rng.bernoulli(0.5) ? kInf : -kInf;
      else
        k = rng.uniform(-10.0, top + 5.0);
    }
    const auto lower_bound = [&](double k) {
      return static_cast<std::size_t>(
          std::lower_bound(grid.begin(), grid.end(), k) - grid.begin());
    };
    const auto [i0, i1] =
        grid_index(grid.data(), grid.size(), keys[0], keys[1]);
    if (i0 != lower_bound(keys[0]) || i1 != lower_bound(keys[1]))
      kernel_failure("grid_index diverged from std::lower_bound", seed);

    // (b) Engine differential: kPooled vs kLevelSweep level by level on an
    // adversarial trace, then once more after reset() onto a new source
    // (exercising span recycling on warmed arenas).
    TemporalGraph g = adversarial_trace(rng);
    if (rng.bernoulli(0.3))
      g = TemporalGraph(g.num_nodes(), g.contacts_vector(),
                        /*directed=*/true);
    const auto src = static_cast<NodeId>(rng.below(g.num_nodes()));
    // Both engines run under one random delay horizon (none in a quarter
    // of the trials), from a stream of its own.
    Rng horizon_rng = Rng::keyed(seed, 0x4021);
    const DelayHorizon horizon = random_horizon(g, horizon_rng);
    SingleSourceEngine pooled(g, src, EngineMode::kPooled);
    pooled.set_horizon(horizon);
    auto crosscheck_from = [&](NodeId s) {
      SingleSourceEngine sweep(g, s, EngineMode::kLevelSweep);
      sweep.set_horizon(horizon);
      for (int level = 1; level <= 64; ++level) {
        const bool p_grew = pooled.step();
        const bool s_grew = sweep.step();
        if (p_grew != s_grew)
          kernel_failure("pooled and level sweep disagree on progress", seed);
        for (NodeId dst = 0; dst < g.num_nodes(); ++dst) {
          const FrontierView f = pooled.frontier_view(dst);
          for (std::size_t i = 0; i < f.size(); ++i)
            if (horizon.past(f.ld(i), f.ea(i)))
              kernel_failure("pooled frontier holds a pair past the horizon",
                             seed);
        }
        for (NodeId dst = 0; dst < g.num_nodes(); ++dst)
          if (pooled.frontier(dst) != sweep.frontier(dst)) {
            report_failure(g, s, dst, 0.0, level,
                           static_cast<double>(pooled.frontier(dst).size()),
                           static_cast<double>(sweep.frontier(dst).size()),
                           seed);
          }
        if (!p_grew) break;
      }
      if (!pooled.at_fixpoint())
        kernel_failure("pooled engine did not reach its fixpoint", seed);
    };
    crosscheck_from(src);
    const auto src2 = static_cast<NodeId>(rng.below(g.num_nodes()));
    pooled.reset(src2);
    crosscheck_from(src2);
    if (pooled.stats().workspace_allocations != 1)
      kernel_failure("pooled reset() re-allocated its workspace", seed);
  }
  std::printf("odtn_fuzz: %ld kernel trials passed (seeds %llu..%llu)\n",
              trials, static_cast<unsigned long long>(base_seed),
              static_cast<unsigned long long>(
                  base_seed + static_cast<std::uint64_t>(trials) - 1));
  return 0;
}

[[noreturn]] void snapshot_failure(const char* what, const TemporalGraph& g,
                                   std::uint64_t seed) {
  std::fprintf(stderr, "SNAPSHOT MISMATCH seed=%llu: %s\nreproducer trace:\n",
               static_cast<unsigned long long>(seed), what);
  std::ostringstream out;
  write_trace(out, g);
  std::fputs(out.str().c_str(), stderr);
  std::exit(1);
}

/// Snapshot mode (--snapshot N): the binary snapshot codec
/// (trace/snapshot.hpp) against its three contracts.
///   1. Round trip: decode(encode(g)) reproduces the graph AND
///      re-encodes to the identical bytes; an all-pairs run on the
///      zero-copy view is bit-identical to one on the owned graph.
///   2. Framing: every strict prefix of a valid snapshot, a trailing
///      byte, and a corrupted magic/version all raise SnapshotError.
///   3. Bit flips: a random single-bit corruption either raises
///      SnapshotError or yields a graph safe to run an engine on
///      (sanitizer builds catch anything the validator let through);
///      when it decodes, re-encoding must reproduce the mutated buffer
///      (decode accepts canonical layouts only).
int snapshot_trials(long trials, std::uint64_t base_seed) {
  for (long trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(trial);
    Rng rng(seed);
    TemporalGraph g = adversarial_trace(rng);
    if (rng.bernoulli(0.3))
      g = TemporalGraph(g.num_nodes(), g.contacts_vector(),
                        /*directed=*/true);
    const std::vector<std::uint8_t> bytes = encode_snapshot(g);

    TemporalGraph view = decode_snapshot(
        std::make_shared<const std::vector<std::uint8_t>>(bytes));
    if (!graphs_identical(g, view) || !view.is_view() ||
        view.start_time() != g.start_time() ||
        view.end_time() != g.end_time())
      snapshot_failure("decoded view disagrees with source graph", g, seed);
    if (encode_snapshot(view) != bytes)
      snapshot_failure("re-encode of decoded view not bit-identical", g,
                       seed);

    DelayCdfOptions opt;
    opt.grid = make_log_grid(0.5, 400.0, 8);
    opt.max_hops = 1 + static_cast<int>(rng.below(4));
    opt.num_threads = 1;
    const DelayCdfResult owned = compute_delay_cdf(g, opt);
    const DelayCdfResult mapped = compute_delay_cdf(view, opt);
    if (owned.cdf_by_hops != mapped.cdf_by_hops ||
        owned.cdf_unbounded != mapped.cdf_unbounded ||
        owned.denominator != mapped.denominator)
      snapshot_failure("all-pairs on the view diverged from the owned graph",
                       g, seed);

    const auto expect_reject = [&](const std::uint8_t* data, std::size_t size,
                                   const char* what) {
      try {
        (void)decode_snapshot(data, size, nullptr);
      } catch (const SnapshotError&) {
        return;
      }
      snapshot_failure(what, g, seed);
    };
    for (std::size_t len = 0; len < bytes.size(); ++len)
      expect_reject(bytes.data(), len, "truncated snapshot accepted");
    std::vector<std::uint8_t> extended = bytes;
    extended.push_back(0);
    expect_reject(extended.data(), extended.size(),
                  "trailing byte accepted");
    std::vector<std::uint8_t> header = bytes;
    header[1] ^= 0x40;  // magic
    expect_reject(header.data(), header.size(), "bad magic accepted");
    header = bytes;
    header[4] ^= 0x02;  // version
    expect_reject(header.data(), header.size(), "bad version accepted");

    for (int flip = 0; flip < 32; ++flip) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
      try {
        const TemporalGraph got = decode_snapshot(
            std::make_shared<const std::vector<std::uint8_t>>(mutated));
        // The validator let this mutation through, so the graph must be
        // fully usable (drive an engine over it) and canonical (its
        // encoding IS the mutated buffer).
        SingleSourceEngine probe(got, 0);
        probe.run_to_fixpoint(16);
        if (encode_snapshot(got) != mutated)
          snapshot_failure("accepted bit flip does not re-encode", g, seed);
      } catch (const SnapshotError&) {
        // Rejection is the common, correct outcome.
      }
    }
  }
  std::printf("odtn_fuzz: %ld snapshot trials passed (seeds %llu..%llu)\n",
              trials, static_cast<unsigned long long>(base_seed),
              static_cast<unsigned long long>(
                  base_seed + static_cast<std::uint64_t>(trials) - 1));
  return 0;
}

[[noreturn]] void live_failure(const char* what, const TemporalGraph& g,
                               std::uint64_t seed) {
  std::fprintf(stderr, "LIVE MISMATCH seed=%llu: %s\nreproducer trace:\n",
               static_cast<unsigned long long>(seed), what);
  std::ostringstream out;
  write_trace(out, g);
  std::fputs(out.str().c_str(), stderr);
  std::exit(1);
}

bool cdf_results_identical(const DelayCdfResult& a, const DelayCdfResult& b) {
  return a.grid == b.grid && a.cdf_by_hops == b.cdf_by_hops &&
         a.cdf_unbounded == b.cdf_unbounded &&
         a.fixpoint_hops == b.fixpoint_hops && a.converged == b.converged &&
         a.denominator == b.denominator &&
         a.diameter(0.01) == b.diameter(0.01) &&
         a.diameter_per_delay(0.01) == b.diameter_per_delay(0.01);
}

/// Stretches an adversarial trace (times within a few hundred seconds)
/// over 3-6 days and shifts it by a random non-integral number of days,
/// possibly negative. Returns the time scale factor through `scale`.
TemporalGraph spread_over_days(const TemporalGraph& g, Rng& rng,
                               double& scale) {
  const double span = std::max(g.end_time() - g.start_time(), 1.0);
  scale = rng.uniform(3.0, 6.0) * kDay / span;
  const double shift = rng.uniform(-8.0, 8.0) * kDay;
  std::vector<Contact> contacts = g.contacts_vector();
  for (Contact& c : contacts) {
    c.begin = c.begin * scale + shift;
    c.end = c.end * scale + shift;
  }
  return TemporalGraph(g.num_nodes(), std::move(contacts), g.directed());
}

/// Whether every source's version lists in `engine` equal a cold pooled
/// engine's frontiers on `g` under the live engine's delay horizon at
/// every level up to the cap, and its deepest productive level the cold
/// one.
bool versions_match_cold(const IncrementalAllPairsEngine& engine,
                         const TemporalGraph& g) {
  const auto same = [](const FrontierView& a, const FrontierView& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (a.ld(i) != b.ld(i) || a.ea(i) != b.ea(i)) return false;
    return true;
  };
  for (NodeId src = 0; src < g.num_nodes(); ++src) {
    const IncrementalSourceDp& dp = engine.source_dp(src);
    SingleSourceEngine cold(g, src, EngineMode::kPooled);
    cold.set_horizon(engine.horizon());
    const auto level_matches = [&](int k) {
      for (NodeId d = 0; d < g.num_nodes(); ++d)
        if (!same(dp.frontier_at(d, k), cold.frontier_view(d))) return false;
      return true;
    };
    // Past the cold fixpoint every frontier is final, and so must the
    // version lists be: checking the cap covers the levels in between.
    int k = 0, deepest = 0;
    if (!level_matches(0)) return false;
    while (k < dp.level_cap() && cold.step()) {
      ++k;
      if (!cold.last_changed().empty()) deepest = k;
      if (!level_matches(k)) return false;
    }
    if (!level_matches(dp.level_cap()) || dp.max_version_level() != deepest)
      return false;
  }
  return true;
}

/// Share of the live trials cut into 8-40 epochs.
constexpr double kManyEpochShare = 0.25;
/// Least arena compactions a live run of at least 100 trials must see,
/// per 100 trials. Runs of 100 trials over seeds 1..10000 saw 42 to
/// 451 (median ~200); without the many-epoch trials, runs over seeds
/// 1..5000 saw 0 to 44 (median ~20). Shorter runs hold too few
/// many-epoch trials to judge.
constexpr std::size_t kMinCompactionsPer100 = 30;

/// Live mode (--live N): the tentpole differential. (a) Any K-way
/// canonical-order split of a trace into append epochs must leave every
/// epoch's incremental all-pairs result bit-identical to cold kDirect
/// and kAuto runs on the prefix ingested so far (empty epochs allowed --
/// they must be clean no-ops; epochs that skip all_pairs are folded
/// into the next call), with every version list equal to a cold
/// engine's frontiers. (b) Any byte-split of the trace's
/// serialization through StreamingTraceParser must reproduce the
/// one-shot read_trace graph, including a final line with its newline
/// stripped (the flush() path).
int live_trials(long trials, std::uint64_t base_seed) {
  std::size_t compactions = 0;
  for (long trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(trial);
    Rng rng(seed);
    TemporalGraph g = adversarial_trace(rng);
    if (rng.bernoulli(0.3))
      g = TemporalGraph(g.num_nodes(), g.contacts_vector(),
                        /*directed=*/true);
    // A stream of its own, so the unscaled trials draw what they always
    // drew.
    Rng day_rng = Rng::keyed(seed, 0xda75);
    double scale = 1.0;
    if (day_rng.bernoulli(0.5)) g = spread_over_days(g, day_rng, scale);
    const auto contacts = g.contacts();

    // (a) Epoch-split differential against cold prefix recomputes.
    IncrementalCdfOptions io;
    io.grid = make_log_grid(0.5 * scale, 400.0 * scale, 8 + rng.below(9));
    io.max_hops = 1 + static_cast<int>(rng.below(6));
    io.num_threads = 1;
    io.t_lo = g.start_time();
    io.t_hi = g.end_time();
    // A stream of its own too: the growing window (NaN bounds resolve to
    // the prefix's span, and only its end moves once contacts arrived).
    Rng window_rng = Rng::keyed(seed, 0x7a11);
    if (window_rng.bernoulli(0.5))
      io.t_lo = io.t_hi = std::numeric_limits<double>::quiet_NaN();
    // Delay horizon (a stream of its own): in half of the trials the
    // grid ends below the trace span, and in half of the explicit ones
    // the window is narrower than the span, so that the DPs drop pairs
    // past the horizon.
    Rng horizon_rng = Rng::keyed(seed, 0x4022);
    const double span = std::max(g.end_time() - g.start_time(), 1.0);
    if (horizon_rng.bernoulli(0.5))
      io.grid = make_log_grid(0.5 * scale,
                              std::max(span * horizon_rng.uniform(0.02, 0.6),
                                       1.0 * scale),
                              io.grid.size());
    if (!std::isnan(io.t_lo) && horizon_rng.bernoulli(0.5)) {
      io.t_lo = g.start_time() + span * horizon_rng.uniform(0.0, 0.6);
      io.t_hi = io.t_lo + span * horizon_rng.uniform(0.05, 0.4);
      // A stream of its own: a window start the early epochs do not
      // reach.
      if (Rng::keyed(seed, 0x0be9).bernoulli(0.25))
        io.t_hi = std::numeric_limits<double>::quiet_NaN();
    }
    DelayCdfOptions cold_opt;
    cold_opt.grid = io.grid;
    cold_opt.max_hops = io.max_hops;
    cold_opt.max_levels = io.max_levels;
    cold_opt.t_lo = io.t_lo;
    cold_opt.t_hi = io.t_hi;
    cold_opt.num_threads = 1;
    cold_opt.accumulation = CdfAccumulation::kDirect;
    DelayCdfOptions auto_opt = cold_opt;
    auto_opt.accumulation = CdfAccumulation::kAuto;

    const std::size_t epochs = 1 + rng.below(4);
    std::vector<std::size_t> cuts{0, contacts.size()};
    for (std::size_t e = 1; e < epochs; ++e)
      cuts.push_back(rng.below(contacts.size() + 1));
    // Many small epochs in a share of the trials (a stream of its own):
    // every apply leaves garbage in the source arenas, so these are the
    // trials that drive the arenas through compaction.
    Rng epoch_rng = Rng::keyed(seed, 0xe90c);
    if (epoch_rng.bernoulli(kManyEpochShare)) {
      const std::size_t target = 8 + epoch_rng.below(33);
      for (std::size_t e = epochs; e < target; ++e)
        cuts.push_back(epoch_rng.below(contacts.size() + 1));
    }
    std::sort(cuts.begin(), cuts.end());

    // Epochs other than the last skip all_pairs at random (a stream of
    // its own), so one call often folds several appends.
    Rng skip_rng = Rng::keyed(seed, 0x5c1b);
    IncrementalAllPairsEngine engine(g.num_nodes(), g.directed(), io);
    for (std::size_t e = 0; e + 1 < cuts.size(); ++e) {
      const std::size_t hi = cuts[e + 1];
      engine.append(contacts.subspan(cuts[e], hi - cuts[e]));
      const TemporalGraph prefix(
          g.num_nodes(),
          std::vector<Contact>(contacts.begin(),
                               contacts.begin() + static_cast<long>(hi)),
          g.directed());
      if (e + 2 < cuts.size() && skip_rng.bernoulli(0.4)) {
        if (!versions_match_cold(engine, prefix))
          live_failure("version lists diverged from a cold engine", g, seed);
        continue;
      }
      DelayCdfResult cold;
      std::string cold_error;
      try {
        cold = compute_delay_cdf(prefix, cold_opt);
      } catch (const std::invalid_argument& err) {
        cold_error = err.what();
      }
      if (engine.window_open() != cold_error.empty())
        live_failure("window_open() disagrees with the cold run", g, seed);
      if (!cold_error.empty()) {
        std::string live_error;
        try {
          (void)engine.all_pairs();
        } catch (const std::invalid_argument& err) {
          live_error = err.what();
        }
        if (live_error != cold_error)
          live_failure("all_pairs did not throw the cold run's error", g,
                       seed);
        continue;
      }
      const DelayCdfResult live = engine.all_pairs();
      if (!cdf_results_identical(live, cold))
        live_failure("incremental epoch diverged from cold prefix recompute",
                     g, seed);
      if (!cdf_results_identical(live, compute_delay_cdf(prefix, auto_opt)))
        live_failure("incremental epoch diverged from cold kAuto recompute",
                     g, seed);
      if (!versions_match_cold(engine, prefix))
        live_failure("version lists diverged from a cold engine", g, seed);
    }
    for (NodeId s = 0; s < g.num_nodes(); ++s)
      compactions += engine.source_dp(s).compactions();

    // (b) Byte-split streaming parse vs the one-shot parser.
    std::ostringstream out;
    write_trace(out, g);
    std::string text = out.str();
    const bool strip_newline =
        !text.empty() && text.back() == '\n' && rng.bernoulli(0.5);
    if (strip_newline) text.pop_back();
    std::istringstream in(text);
    const TemporalGraph oneshot = read_trace(in);

    StreamingTraceParser parser;
    std::vector<Contact> drained;
    std::size_t at = 0;
    const bool byte_at_a_time = rng.bernoulli(0.25);
    while (at < text.size()) {
      const std::size_t chunk =
          byte_at_a_time ? 1
                         : std::min(text.size() - at, 1 + rng.below(48));
      parser.feed(text.data() + at, chunk);
      at += chunk;
      if (rng.bernoulli(0.5)) {
        const std::vector<Contact> batch = parser.drain_contacts();
        drained.insert(drained.end(), batch.begin(), batch.end());
      }
    }
    parser.flush();
    if (!parser.header_complete())
      live_failure("streaming parser missed the trace headers", g, seed);
    {
      const std::vector<Contact> batch = parser.drain_contacts();
      drained.insert(drained.end(), batch.begin(), batch.end());
    }
    const TemporalGraph streamed(parser.declared_nodes(), std::move(drained),
                                 parser.directed());
    if (!graphs_identical(streamed, oneshot))
      live_failure("byte-split streaming parse diverged from one-shot parse",
                   g, seed);
  }
  const std::size_t min_compactions =
      kMinCompactionsPer100 * static_cast<std::size_t>(trials) / 100;
  if (trials >= 100 && compactions < min_compactions) {
    std::fprintf(stderr,
                 "odtn_fuzz: only %zu arena compactions in %ld live trials "
                 "(floor %zu per 100): the epoch splits no longer reach "
                 "compaction\n",
                 compactions, trials, kMinCompactionsPer100);
    return 1;
  }
  std::printf(
      "odtn_fuzz: %ld live trials passed (seeds %llu..%llu, %zu arena "
      "compactions)\n",
      trials, static_cast<unsigned long long>(base_seed),
      static_cast<unsigned long long>(base_seed +
                                      static_cast<std::uint64_t>(trials) - 1),
      compactions);
  return 0;
}

/// Fixed-corpus smoke: ok_* files must parse strict cleanly, every
/// other file must raise TraceError in strict mode; lenient and
/// canonicalize runs must never crash on any of them.
int corpus_pass(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file()) files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "odtn_fuzz: empty corpus directory %s\n",
                 dir.c_str());
    return 1;
  }
  int failures = 0;
  for (const fs::path& file : files) {
    const std::string name = file.filename().string();
    const bool expect_ok = name.rfind("ok_", 0) == 0;
    const char* outcome = nullptr;
    std::string detail;
    try {
      read_trace_file(file.string());
      outcome = expect_ok ? "ok" : "UNEXPECTED ACCEPT";
    } catch (const TraceError& e) {
      outcome = expect_ok ? "UNEXPECTED REJECT" : "rejected";
      detail = trace_error_name(e.code());
      if (expect_ok) detail += std::string(": ") + e.what();
    }
    for (const bool canonicalize : {false, true}) {
      try {
        ParseReport report;
        read_trace_file(file.string(),
                        {ParseMode::kLenient, canonicalize, 64}, &report);
      } catch (const TraceError&) {
        // Fatal-in-both-modes defects are fine; crashes are not.
      }
    }
    const bool ok = std::strncmp(outcome, "UNEXPECTED", 10) != 0;
    std::printf("  [%s] %-32s %s%s%s\n", ok ? "PASS" : "FAIL", name.c_str(),
                outcome, detail.empty() ? "" : " ", detail.c_str());
    if (!ok) ++failures;
  }
  if (failures) {
    std::fprintf(stderr, "odtn_fuzz: %d corpus expectation(s) FAILED\n",
                 failures);
    return 1;
  }
  std::printf("odtn_fuzz: corpus pass ok (%zu files)\n", files.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  long engine_count = -1;
  long parser_count = -1;
  long kernel_count = -1;
  long snapshot_count = -1;
  long live_count = -1;
  std::string corpus_dir;
  std::uint64_t seed = 1;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "odtn_fuzz: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--engine") {
      engine_count = std::strtol(next(), nullptr, 10);
    } else if (arg == "--parser") {
      parser_count = std::strtol(next(), nullptr, 10);
    } else if (arg == "--kernel") {
      kernel_count = std::strtol(next(), nullptr, 10);
    } else if (arg == "--snapshot") {
      snapshot_count = std::strtol(next(), nullptr, 10);
    } else if (arg == "--live") {
      live_count = std::strtol(next(), nullptr, 10);
    } else if (arg == "--corpus") {
      corpus_dir = next();
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(std::strtoll(next(), nullptr, 10));
    } else if (arg.substr(0, 2) == "--") {
      std::fprintf(stderr, "odtn_fuzz: unknown option %s\n", argv[i]);
      return 2;
    } else {
      positional.emplace_back(arg);
    }
  }
  // Legacy positional form: [engine-trials] [base-seed].
  if (!positional.empty())
    engine_count = std::strtol(positional[0].c_str(), nullptr, 10);
  if (positional.size() > 1)
    seed = static_cast<std::uint64_t>(
        std::strtoll(positional[1].c_str(), nullptr, 10));
  if (engine_count < 0 && parser_count < 0 && kernel_count < 0 &&
      snapshot_count < 0 && live_count < 0 && corpus_dir.empty())
    engine_count = 200;

  int rc = 0;
  if (!corpus_dir.empty()) rc |= corpus_pass(corpus_dir);
  if (parser_count > 0) rc |= parser_trials(parser_count, seed);
  if (kernel_count > 0) rc |= kernel_trials(kernel_count, seed);
  if (snapshot_count > 0) rc |= snapshot_trials(snapshot_count, seed);
  if (live_count > 0) rc |= live_trials(live_count, seed);
  if (engine_count > 0) rc |= engine_trials(engine_count, seed);
  return rc;
}
