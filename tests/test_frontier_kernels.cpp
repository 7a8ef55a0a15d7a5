// Property suite for the pooled engine's batched frontier kernels
// (core/frontier_kernels.hpp) and the PairArena-backed propagation mode.
//
// The Pareto front of a pair set is unique, so the batched prune+merge
// path must reproduce the reference DeliveryFunction::insert semantics
// BIT FOR BIT -- every test here asserts exact equality, not tolerance,
// except the all-pairs CDF cross-check (two accumulation orders, gated
// at 1e-9). Streams are derived with Rng::keyed so each trial is
// reproducible in isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/diameter.hpp"
#include "core/frontier_kernels.hpp"
#include "core/optimal_paths.hpp"
#include "stats/log_grid.hpp"
#include "util/rng.hpp"

namespace odtn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Random pair whose coordinates are drawn from a small quantized set so
/// duplicates, equal-LD ties, and dominance chains are all common.
PathPair random_pair(Rng& rng) {
  const double ld = std::floor(rng.uniform(0.0, 40.0)) / 2.0;
  const double ea = std::floor(rng.uniform(-10.0, 40.0)) / 2.0;
  return {ld, ea};
}

/// Random frontier built through the reference insert() path.
DeliveryFunction random_frontier(Rng& rng, std::size_t attempts) {
  DeliveryFunction f;
  for (std::size_t i = 0; i < attempts; ++i) f.insert(random_pair(rng));
  return f;
}

std::vector<double> ld_lane(const DeliveryFunction& f) {
  const FrontierView v = f.view();
  return {v.ld_data(), v.ld_data() + v.size()};
}

std::vector<double> ea_lane(const DeliveryFunction& f) {
  const FrontierView v = f.view();
  return {v.ea_data(), v.ea_data() + v.size()};
}

/// Adversarial random trace (same regime as test_engine_crosscheck):
/// integer-quantized times so boundary coincidences are common, a fifth
/// of the contacts instantaneous.
TemporalGraph random_trace(Rng& rng, std::size_t nodes,
                           std::size_t num_contacts, double horizon,
                           bool directed = false, double time_shift = 0.0) {
  std::vector<Contact> contacts;
  contacts.reserve(num_contacts);
  for (std::size_t i = 0; i < num_contacts; ++i) {
    const auto u = static_cast<NodeId>(rng.below(nodes));
    auto v = static_cast<NodeId>(rng.below(nodes - 1));
    if (v >= u) ++v;
    const double begin = std::floor(rng.uniform(0.0, horizon)) + time_shift;
    const double extra =
        rng.bernoulli(0.2) ? 0.0 : std::floor(rng.uniform(1.0, horizon / 4));
    contacts.push_back({u, v, begin, begin + extra});
  }
  return TemporalGraph(nodes, std::move(contacts), directed);
}

// ---------------------------------------------------------------------
// Kernel level: prune_candidate_batch / merge_frontier vs insert().
// ---------------------------------------------------------------------

TEST(FrontierKernels, LowerBoundAndDominatesMatchDeliveryFunction) {
  for (std::uint64_t trial = 0; trial < 50; ++trial) {
    Rng rng = Rng::keyed(0xF0B1, trial);
    const DeliveryFunction f = random_frontier(rng, 1 + rng.below(30));
    const std::vector<double> ld = ld_lane(f), ea = ea_lane(f);
    for (int q = 0; q < 40; ++q) {
      const PathPair p = random_pair(rng);
      ASSERT_EQ(frontier_dominates(ld.data(), ea.data(), ld.size(), p.ld,
                                   p.ea),
                f.is_dominated(p))
          << "trial=" << trial << " ld=" << p.ld << " ea=" << p.ea;
      const std::size_t at =
          frontier_lower_bound(ld.data(), ld.size(), p.ld);
      ASSERT_TRUE(at == ld.size() || ld[at] >= p.ld);
      ASSERT_TRUE(at == 0 || ld[at - 1] < p.ld);
    }
  }
}

/// Random pair stream with occasional -0.0 lanes and denormal-scale
/// values, still frontier-legal (no NaNs).
PathPair tricky_pair(Rng& rng) {
  PathPair p = random_pair(rng);
  if (p.ld == 0.0 && rng.bernoulli(0.5)) p.ld = -0.0;
  if (p.ea == 0.0 && rng.bernoulli(0.5)) p.ea = -0.0;
  if (rng.bernoulli(0.05))
    p.ea = std::numeric_limits<double>::denorm_min() *
           static_cast<double>(1 + rng.below(8));
  return p;
}

/// Sawtooth batch, already sorted: each tooth starts below all of the
/// stacked previous one, so its first pair evicts the whole stack in
/// one run -- the deep-eviction regime of the monotone-stack collapse.
std::vector<PathPair> sawtooth_batch(std::uint64_t seed) {
  Rng rng = Rng::keyed(0x9f0e, seed);
  std::vector<PathPair> batch;
  double ld = 0.0, base_ea = 1e4;
  for (int tooth = 0; tooth < 12; ++tooth) {
    base_ea -= 1000.0;
    double ea = base_ea;
    for (int i = 0; i < 32; ++i) {
      ld += rng.uniform(0.01, 1.0);
      ea += rng.uniform(0.01, 1.0);
      batch.push_back({ld, ea});
    }
  }
  return batch;
}

/// prune_candidate_batch must leave exactly insert()'s Pareto front.
void expect_prune_equals_insert(std::vector<PathPair> batch,
                                const std::string& what) {
  DeliveryFunction ref;
  for (const PathPair& p : batch) ref.insert(p);
  const std::size_t kept = prune_candidate_batch(batch.data(), batch.size());
  ASSERT_EQ(kept, ref.size()) << what;
  for (std::size_t i = 0; i < kept; ++i)
    ASSERT_EQ(batch[i], ref.view().pair(i)) << what << " i=" << i;
}

TEST(FrontierKernels, PruneBatchEqualsInsertAll) {
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    Rng rng = Rng::keyed(0xF0B2, trial);
    std::vector<PathPair> batch;
    const std::size_t m = rng.below(24);
    for (std::size_t i = 0; i < m; ++i) {
      batch.push_back(random_pair(rng));
      // Exact duplicates with positive probability.
      if (!batch.empty() && rng.bernoulli(0.15))
        batch.push_back(batch[rng.below(batch.size())]);
    }
    expect_prune_equals_insert(std::move(batch),
                               "trial=" + std::to_string(trial));
  }
  // Larger batches past the insertion-sort cutoff, with signed zeros and
  // denormals.
  for (std::uint64_t trial = 0; trial < 150; ++trial) {
    Rng rng = Rng::keyed(0x51D3, trial);
    std::vector<PathPair> batch;
    const std::size_t raw = rng.below(64);
    for (std::size_t i = 0; i < raw; ++i) batch.push_back(tricky_pair(rng));
    expect_prune_equals_insert(std::move(batch),
                               "tricky=" + std::to_string(trial));
  }
  for (std::uint64_t b = 0; b < 8; ++b)
    expect_prune_equals_insert(sawtooth_batch(b),
                               "sawtooth=" + std::to_string(b));
}

/// Prunes `batch`, merges it into `base` and checks the merged frontier
/// and the delta against insert()-ing the pruned batch into `base`.
void expect_merge_equals_insert(const DeliveryFunction& base,
                                std::vector<PathPair> batch,
                                const std::string& what) {
  const std::vector<double> f_ld = ld_lane(base), f_ea = ea_lane(base);
  const std::size_t m = prune_candidate_batch(batch.data(), batch.size());
  batch.resize(m);

  DeliveryFunction ref = base;
  for (const PathPair& p : batch) ref.insert(p);
  const std::vector<PathPair> ref_pairs = ref.to_pairs();
  const std::vector<PathPair> base_pairs = base.to_pairs();

  const std::size_t fn = base.size();
  std::vector<double> out_ld(fn + m), out_ea(fn + m);
  std::vector<double> d_ld(m), d_ea(m), d_succ(m);
  const FrontierMerge r = merge_frontier(
      f_ld.data(), f_ea.data(), fn, batch.data(), m, out_ld.data(),
      out_ea.data(), d_ld.data(), d_ea.data(), d_succ.data());

  // Merged frontier occupies the LAST kept slots, ascending, and is
  // bit-identical to the insert() reference.
  ASSERT_EQ(r.kept, ref.size()) << what;
  const std::size_t off = fn + m - r.kept;
  for (std::size_t i = 0; i < r.kept; ++i) {
    ASSERT_EQ(out_ld[off + i], ref_pairs[i].ld) << what;
    ASSERT_EQ(out_ea[off + i], ref_pairs[i].ea) << what;
  }

  // Delta = merged pairs that are NOT bitwise present in the base,
  // ascending in the last kept_new slots, each with its successor's EA.
  std::vector<PathPair> expected_new;
  for (const PathPair& p : ref_pairs)
    if (std::find(base_pairs.begin(), base_pairs.end(), p) ==
        base_pairs.end())
      expected_new.push_back(p);
  ASSERT_EQ(r.kept_new, expected_new.size()) << what;
  const std::size_t doff = m - r.kept_new;
  for (std::size_t i = 0; i < r.kept_new; ++i) {
    const PathPair got{d_ld[doff + i], d_ea[doff + i]};
    ASSERT_EQ(got, expected_new[i]) << what << " i=" << i;
    // Successor EA in the merged frontier, +inf for the global last.
    const auto it = std::find(ref_pairs.begin(), ref_pairs.end(), got);
    ASSERT_NE(it, ref_pairs.end());
    const double succ = (it + 1 == ref_pairs.end()) ? kInf : (it + 1)->ea;
    ASSERT_EQ(d_succ[doff + i], succ) << what << " i=" << i;
  }
}

TEST(FrontierKernels, MergeFrontierEqualsInsertReference) {
  for (std::uint64_t trial = 0; trial < 300; ++trial) {
    Rng rng = Rng::keyed(0xF0B3, trial);
    const DeliveryFunction base = random_frontier(rng, rng.below(30));
    std::vector<PathPair> batch;
    const std::size_t raw = rng.below(16);
    for (std::size_t i = 0; i < raw; ++i) {
      if (rng.bernoulli(0.2) && !base.empty()) {
        // Exact duplicate of an existing frontier pair: must be merged
        // away AND not reported as newly kept.
        batch.push_back(base.view().pair(rng.below(base.size())));
      } else {
        batch.push_back(random_pair(rng));
      }
    }
    expect_merge_equals_insert(base, std::move(batch),
                               "trial=" + std::to_string(trial));
  }
  // Larger frontiers and batches, with signed zeros and denormals.
  for (std::uint64_t trial = 0; trial < 150; ++trial) {
    Rng rng = Rng::keyed(0x51D3, trial);
    std::vector<PathPair> batch;
    const std::size_t raw = rng.below(64);
    for (std::size_t i = 0; i < raw; ++i) batch.push_back(tricky_pair(rng));
    DeliveryFunction base;
    const std::size_t attempts = rng.below(180);
    for (std::size_t i = 0; i < attempts; ++i) base.insert(tricky_pair(rng));
    expect_merge_equals_insert(base, std::move(batch),
                               "tricky=" + std::to_string(trial));
  }
  // Sawtooth batches into an empty frontier.
  for (std::uint64_t b = 0; b < 8; ++b)
    expect_merge_equals_insert(DeliveryFunction(), sawtooth_batch(b),
                               "sawtooth=" + std::to_string(b));
  // A large frontier with candidates strictly between neighbors in both
  // lanes: nothing is dominated and the merge is a few long survivor
  // runs between the new pairs.
  Rng rng = Rng::keyed(0x3e46e, 0);
  DeliveryFunction base;
  std::vector<PathPair> pairs;
  double ld = 0.0, ea = -2000.0;
  for (int i = 0; i < 512; ++i) {
    ld += rng.uniform(0.5, 4.0);
    ea += rng.uniform(0.5, 4.0);
    pairs.push_back({ld, ea});
    base.insert(pairs.back());
  }
  std::vector<PathPair> cands;
  for (std::size_t i = 16; i < 512; i += 32)
    cands.push_back({0.5 * (pairs[i].ld + pairs[i + 1].ld),
                     0.5 * (pairs[i].ea + pairs[i + 1].ea)});
  expect_merge_equals_insert(base, std::move(cands), "interleaved");
}

TEST(FrontierKernels, MergeEdgeCases) {
  std::vector<double> out_ld(8), out_ea(8), d_ld(8), d_ea(8), d_succ(8);

  // Empty frontier + one candidate.
  const PathPair c{5.0, 2.0};
  FrontierMerge r = merge_frontier(nullptr, nullptr, 0, &c, 1, out_ld.data(),
                                   out_ea.data(), d_ld.data(), d_ea.data(),
                                   d_succ.data());
  EXPECT_EQ(r.kept, 1u);
  EXPECT_EQ(r.kept_new, 1u);
  EXPECT_EQ(out_ld[0], 5.0);
  EXPECT_EQ(out_ea[0], 2.0);
  EXPECT_EQ(d_succ[0], kInf);

  // Identity pair (LD = +inf, EA = -inf) dominates everything.
  const double id_ld = kInf, id_ea = -kInf;
  r = merge_frontier(&id_ld, &id_ea, 1, &c, 1, out_ld.data(), out_ea.data(),
                     d_ld.data(), d_ea.data(), d_succ.data());
  EXPECT_EQ(r.kept, 1u);
  EXPECT_EQ(r.kept_new, 0u);
  EXPECT_EQ(out_ld[1], kInf);
  EXPECT_EQ(out_ea[1], -kInf);

  // Batch that is an exact duplicate of the frontier: unchanged, no new.
  const double f_ld[2] = {1.0, 3.0}, f_ea[2] = {0.5, 2.0};
  const PathPair dup[2] = {{1.0, 0.5}, {3.0, 2.0}};
  r = merge_frontier(f_ld, f_ea, 2, dup, 2, out_ld.data(), out_ea.data(),
                     d_ld.data(), d_ea.data(), d_succ.data());
  EXPECT_EQ(r.kept, 2u);
  EXPECT_EQ(r.kept_new, 0u);

  // Candidate that dominates the whole frontier replaces it.
  const PathPair strong{10.0, -1.0};
  r = merge_frontier(f_ld, f_ea, 2, &strong, 1, out_ld.data(), out_ea.data(),
                     d_ld.data(), d_ea.data(), d_succ.data());
  EXPECT_EQ(r.kept, 1u);
  EXPECT_EQ(r.kept_new, 1u);
  EXPECT_EQ(out_ld[2], 10.0);
  EXPECT_EQ(out_ea[2], -1.0);
}

// ---------------------------------------------------------------------
// for_each_delta_extension vs a per-window linear scan.
// ---------------------------------------------------------------------

struct Offered {
  NodeId to;
  double ld;
  double ea;
  friend bool operator==(const Offered&, const Offered&) = default;
};

/// The delta extension written the plain way: the same by-end skip, then
/// for every window a scan of the delta from its front (no cursors).
std::vector<Offered> linear_delta_extension(
    const std::vector<NodeContact>& nbrs, const std::vector<double>& ld,
    const std::vector<double>& ea, const std::vector<double>& succ,
    double window_lo, std::size_t& examined) {
  std::vector<Offered> out;
  const double min_ea = std::max(ea[0], window_lo);
  std::size_t w = 0;
  while (w < nbrs.size() && nbrs[w].end < min_ea) ++w;
  examined = nbrs.size() - w;
  const std::size_t n = ld.size();
  for (; w < nbrs.size(); ++w) {
    const NodeContact& c = nbrs[w];
    std::size_t i = 0;
    while (i < n && ea[i] <= c.begin) ++i;
    if (i > 0 && c.begin < succ[i - 1])
      out.push_back({c.to, std::min(ld[i - 1], c.end), c.begin});
    for (; i < n && ea[i] <= c.end; ++i) {
      out.push_back({c.to, std::min(ld[i], c.end), ea[i]});
      if (ld[i] >= c.end) break;
    }
  }
  return out;
}

TEST(FrontierKernels, DeltaExtensionEqualsLinearScan) {
  // How often each boundary case came up, so the trials provably cover
  // them.
  std::size_t cuts = 0, zero_length = 0, begin_ties = 0, end_ties = 0;
  for (std::uint64_t trial = 0; trial < 400; ++trial) {
    Rng rng = Rng::keyed(0xDE17A, trial);
    // The delta: a random subsequence of a random frontier, each pair's
    // successor EA read from the frontier.
    const DeliveryFunction full = random_frontier(rng, 1 + rng.below(30));
    const FrontierView fv = full.view();
    std::vector<double> ld, ea, succ;
    for (std::size_t i = 0; i < fv.size(); ++i) {
      if (!rng.bernoulli(0.5) && !(i + 1 == fv.size() && ld.empty())) continue;
      ld.push_back(fv.ld(i));
      ea.push_back(fv.ea(i));
      succ.push_back(i + 1 < fv.size() ? fv.ea(i + 1) : kInf);
    }
    // The windows, on the pairs' half-unit grid, so a begin or an end
    // often equals a delta EA; a quarter of them zero-length.
    std::vector<NodeContact> nbrs;
    const std::size_t windows = rng.below(40);
    for (std::size_t w = 0; w < windows; ++w) {
      double begin = std::floor(rng.uniform(-10.0, 40.0)) / 2.0;
      if (rng.bernoulli(0.15)) begin = ea[rng.below(ea.size())];
      double end = begin;
      if (!rng.bernoulli(0.25))
        end += std::floor(rng.uniform(1.0, 24.0)) / 2.0;
      if (rng.bernoulli(0.15)) end = std::max(begin, ea[rng.below(ea.size())]);
      nbrs.push_back(
          {begin, end, static_cast<NodeId>(rng.below(6))});
    }
    std::sort(nbrs.begin(), nbrs.end(),
              [](const NodeContact& a, const NodeContact& b) {
                return a.end < b.end;
              });
    const double window_lo =
        rng.bernoulli(0.3) ? -kInf : std::floor(rng.uniform(-10.0, 40.0)) / 2.0;

    std::size_t want_examined = 0;
    const std::vector<Offered> want = linear_delta_extension(
        nbrs, ld, ea, succ, window_lo, want_examined);
    std::vector<Offered> got;
    const std::size_t examined = for_each_delta_extension(
        nbrs, ld.data(), ea.data(), succ.data(), ld.size(), window_lo,
        [&](NodeId to, double cld, double cea) {
          got.push_back({to, cld, cea});
        });
    ASSERT_EQ(examined, want_examined) << "trial=" << trial;
    ASSERT_EQ(got.size(), want.size()) << "trial=" << trial;
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << "trial=" << trial << " offer=" << i;

    if (window_lo > ea[0] && examined < nbrs.size() &&
        std::any_of(nbrs.begin(), nbrs.end(), [&](const NodeContact& c) {
          return c.end >= ea[0] && c.end < window_lo;
        }))
      ++cuts;
    for (const NodeContact& c : nbrs) {
      zero_length += c.begin == c.end;
      begin_ties += std::count(ea.begin(), ea.end(), c.begin) > 0;
      end_ties += std::count(ea.begin(), ea.end(), c.end) > 0;
    }
  }
  EXPECT_GT(cuts, 10u);
  EXPECT_GT(zero_length, 100u);
  EXPECT_GT(begin_ties, 100u);
  EXPECT_GT(end_ties, 100u);
}

// ---------------------------------------------------------------------
// Engine level: kPooled vs the kLevelSweep oracle, every hop level.
// ---------------------------------------------------------------------

/// Steps both modes side by side; frontiers must be bit-identical
/// at EVERY level, views must agree with materialized functions, and the
/// pooled free snapshots must equal the node's pre-step frontier.
void expect_pooled_identical(const TemporalGraph& g, NodeId src) {
  SingleSourceEngine pooled(g, src, EngineMode::kPooled);
  SingleSourceEngine sweep(g, src, EngineMode::kLevelSweep);
  Rng rng = Rng::keyed(0xF0B5, (static_cast<std::uint64_t>(src) << 32) ^
                                   g.num_contacts());
  for (int level = 1; level <= 64; ++level) {
    std::vector<DeliveryFunction> before = pooled.frontiers();
    const bool p_grew = pooled.step();
    const bool s_grew = sweep.step();
    ASSERT_EQ(p_grew, s_grew) << "src=" << src << " level=" << level;
    for (NodeId dst = 0; dst < g.num_nodes(); ++dst) {
      const DeliveryFunction f = pooled.frontier(dst);
      ASSERT_EQ(f, sweep.frontier(dst))
          << "src=" << src << " dst=" << dst << " level=" << level;
      // View parity: SoA arena view == materialized function.
      const FrontierView view = pooled.frontier_view(dst);
      ASSERT_EQ(materialize(view), f);
      for (int q = 0; q < 4; ++q) {
        const double t = rng.uniform(-20.0, 140.0);
        ASSERT_EQ(view.deliver_at(t), f.deliver_at(t));
      }
    }
    // Free pre-change snapshots: last_changed()[i]'s retired span equals
    // its pre-step frontier, and every unlisted node is unchanged.
    std::vector<bool> listed(g.num_nodes(), false);
    const std::vector<NodeId>& changed = pooled.last_changed();
    for (std::size_t i = 0; i < changed.size(); ++i) {
      listed[changed[i]] = true;
      ASSERT_EQ(materialize(pooled.previous_frontier_view(i)),
                before[changed[i]])
          << "src=" << src << " level=" << level << " node=" << changed[i];
      ASSERT_NE(pooled.frontier(changed[i]), before[changed[i]]);
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!listed[v]) {
        ASSERT_EQ(pooled.frontier(v), before[v])
            << "src=" << src << " level=" << level << " node=" << v;
      }
    }
    if (!p_grew) break;
  }
  ASSERT_TRUE(pooled.at_fixpoint());
  ASSERT_TRUE(sweep.at_fixpoint());
}

struct TraceParam {
  std::uint64_t seed;
  std::size_t nodes;
  std::size_t contacts;
};

class PooledEngineParity : public ::testing::TestWithParam<TraceParam> {};

TEST_P(PooledEngineParity, BitIdenticalOnUndirectedTraces) {
  const auto param = GetParam();
  Rng rng = Rng::keyed(param.seed, 0);
  const TemporalGraph g = random_trace(rng, param.nodes, param.contacts,
                                       100.0);
  for (NodeId src = 0; src < std::min<std::size_t>(g.num_nodes(), 3); ++src)
    expect_pooled_identical(g, src);
}

TEST_P(PooledEngineParity, BitIdenticalOnDirectedTraces) {
  const auto param = GetParam();
  Rng rng = Rng::keyed(param.seed, 1);
  const TemporalGraph g = random_trace(rng, param.nodes, param.contacts,
                                       100.0, /*directed=*/true);
  for (NodeId src = 0; src < std::min<std::size_t>(g.num_nodes(), 3); ++src)
    expect_pooled_identical(g, src);
}

TEST_P(PooledEngineParity, BitIdenticalOnNegativeTimeTraces) {
  const auto param = GetParam();
  Rng rng = Rng::keyed(param.seed, 2);
  const TemporalGraph g = random_trace(rng, param.nodes, param.contacts,
                                       100.0, /*directed=*/false,
                                       /*time_shift=*/-1000.0);
  expect_pooled_identical(g, 0);
}

INSTANTIATE_TEST_SUITE_P(
    RandomTraces, PooledEngineParity,
    ::testing::Values(TraceParam{11, 5, 15}, TraceParam{12, 8, 40},
                      TraceParam{13, 10, 80}, TraceParam{14, 6, 25},
                      TraceParam{15, 12, 120}, TraceParam{16, 4, 60},
                      TraceParam{17, 15, 150}, TraceParam{18, 10, 10}));

// ---------------------------------------------------------------------
// Steady-state recycling: reset() keeps the arenas, peaks go flat.
// ---------------------------------------------------------------------

TEST(PooledEngine, ResetRecyclesArenasWithZeroGrowth) {
  Rng rng = Rng::keyed(0xF0B6, 0);
  const TemporalGraph g = random_trace(rng, 12, 150, 100.0);
  SingleSourceEngine engine(g, 0, EngineMode::kPooled);

  auto full_pass = [&] {
    for (NodeId src = 0; src < g.num_nodes(); ++src) {
      engine.reset(src);
      engine.run_to_fixpoint();
    }
  };
  full_pass();
  const EngineStats warm = engine.stats();
  ASSERT_GT(warm.arena_bytes_peak, 0u);
  ASSERT_GT(warm.merge_batches, 0u);
  full_pass();
  const EngineStats steady = engine.stats();

  // The workspace was materialized exactly once; every further source is
  // a reuse and the arenas never grow past the first pass's high water.
  EXPECT_EQ(steady.workspace_allocations, 1u);
  EXPECT_EQ(steady.workspace_reuses, 2 * g.num_nodes());
  EXPECT_EQ(steady.arena_bytes_peak, warm.arena_bytes_peak);
  EXPECT_EQ(steady.pairs_peak, warm.pairs_peak);

  // And a recycled engine still computes the right frontiers.
  engine.reset(3);
  engine.run_to_fixpoint();
  SingleSourceEngine fresh(g, 3, EngineMode::kLevelSweep);
  fresh.run_to_fixpoint();
  for (NodeId dst = 0; dst < g.num_nodes(); ++dst)
    ASSERT_EQ(engine.frontier(dst), fresh.frontier(dst)) << "dst=" << dst;
}

// ---------------------------------------------------------------------
// All-pairs CDF: pooled + incremental vs level-sweep + direct.
// ---------------------------------------------------------------------

TEST(PooledEngine, DelayCdfMatchesDirectBitwise) {
  Rng rng = Rng::keyed(0xF0B8, 0);
  const TemporalGraph g = random_trace(rng, 14, 200, 300.0);

  DelayCdfOptions base;
  base.grid = make_log_grid(1.0, 400.0, 24);
  base.max_hops = 8;
  base.num_threads = 1;
  // Two disjoint start-time windows (the §5.3.1 day-time regime).
  base.windows = {{10.0, 120.0}, {180.0, 290.0}};

  DelayCdfOptions pooled = base;
  pooled.engine = EngineMode::kPooled;
  pooled.accumulation = CdfAccumulation::kAuto;  // -> incremental
  DelayCdfOptions direct = base;
  direct.engine = EngineMode::kLevelSweep;
  direct.accumulation = CdfAccumulation::kDirect;

  const DelayCdfResult a = compute_delay_cdf(g, pooled);
  const DelayCdfResult b = compute_delay_cdf(g, direct);
  ASSERT_EQ(a.cdf_by_hops.size(), b.cdf_by_hops.size());
  for (std::size_t k = 0; k < a.cdf_by_hops.size(); ++k)
    for (std::size_t j = 0; j < a.grid.size(); ++j)
      ASSERT_EQ(a.cdf_by_hops[k][j], b.cdf_by_hops[k][j])
          << "k=" << k + 1 << " j=" << j;
  for (std::size_t j = 0; j < a.grid.size(); ++j)
    ASSERT_EQ(a.cdf_unbounded[j], b.cdf_unbounded[j]);
  EXPECT_EQ(a.denominator, b.denominator);
  EXPECT_EQ(a.fixpoint_hops, b.fixpoint_hops);
  for (const double eps : {0.001, 0.01, 0.05, 0.1, 0.5}) {
    EXPECT_EQ(a.diameter(eps), b.diameter(eps)) << "eps=" << eps;
    EXPECT_EQ(a.diameter_per_delay(eps), b.diameter_per_delay(eps))
        << "eps=" << eps;
  }
  for (const double tol : {0.001, 0.01, 0.05})
    EXPECT_EQ(a.diameter_absolute(tol), b.diameter_absolute(tol))
        << "tol=" << tol;
  // The pooled run recycles one workspace per worker thread.
  EXPECT_EQ(a.stats.workspace_allocations, 1u);
  EXPECT_GT(a.stats.arena_bytes_peak, 0u);
}

}  // namespace
}  // namespace odtn
