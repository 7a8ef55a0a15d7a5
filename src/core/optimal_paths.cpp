#include "core/optimal_paths.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/frontier_kernels.hpp"

namespace odtn {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

bool extend_frontier(const DeliveryFunction& from, double begin, double end,
                     DeliveryFunction& into, EngineStats* stats,
                     const DelayHorizon& horizon) {
  bool changed = false;
  for_each_frontier_extension(from.view(), begin, end, [&](PathPair candidate) {
    if (horizon.past(candidate.ld, candidate.ea)) {
      if (stats) ++stats->pairs_past_horizon;
      return;
    }
    const bool kept = into.insert(candidate);
    if (stats) {
      if (kept)
        ++stats->pairs_inserted;
      else
        ++stats->pairs_dominated;
    }
    changed |= kept;
  });
  return changed;
}

SingleSourceEngine::SingleSourceEngine(const TemporalGraph& graph,
                                       NodeId source, EngineMode mode)
    : graph_(&graph), source_(source), mode_(mode) {
  if (source >= graph.num_nodes())
    throw std::out_of_range("SingleSourceEngine: source out of range");
  const std::size_t n = graph.num_nodes();
  if (mode_ == EngineMode::kPooled) {
    fspan_.assign(n, PairSpan{});
    last_pair_.assign(n, PathPair{-kInf, kInf});
    dirty_mark_.assign(n, 0);
    cand_count_.assign(n, 0);
    grp_pos_.assign(n, 0);
    seed_pooled();
  } else {
    frontiers_.resize(n);
    frontiers_[source_].insert(identity_pair());
  }
  ++stats_.workspace_allocations;
}

void SingleSourceEngine::seed_pooled() {
  // The source's frontier and level-0 delta are both exactly the identity
  // pair; the delta's successor EA is +infinity (it has no successor), so
  // every wait candidate off the identity is offered.
  const PathPair id = identity_pair();
  const std::size_t off = arena_.allocate(1);
  arena_.ld()[off] = id.ld;
  arena_.ea()[off] = id.ea;
  fspan_[source_] = {static_cast<std::uint32_t>(off), 1};
  last_pair_[source_] = id;
  PairArena& da = delta_arena_[delta_parity_];
  const std::size_t d = da.allocate(1);
  da.ld()[d] = id.ld;
  da.ea()[d] = id.ea;
  da.aux()[d] = kInf;
  delta_spans_.assign(1, PairSpan{static_cast<std::uint32_t>(d), 1});
  active_.assign(1, source_);
}

void SingleSourceEngine::reset(NodeId source) {
  if (source >= graph_->num_nodes())
    throw std::out_of_range("SingleSourceEngine: source out of range");
  source_ = source;
  level_ = 0;
  fixpoint_ = false;
  if (mode_ == EngineMode::kPooled) {
    // Recycle every slab: spans are dropped wholesale, capacity stays.
    // dirty_mark_ / cand_count_ / candidate buffers are already clean --
    // step_pooled() restores them at the end of every level.
    arena_.reset();
    delta_arena_[0].reset();
    delta_arena_[1].reset();
    delta_parity_ = 0;
    std::fill(fspan_.begin(), fspan_.end(), PairSpan{});
    std::fill(last_pair_.begin(), last_pair_.end(), PathPair{-kInf, kInf});
    next_active_.clear();
    seed_pooled();
  } else {
    for (DeliveryFunction& f : frontiers_) f.clear();
    frontiers_[source_].insert(identity_pair());
  }
  ++stats_.workspace_reuses;
}

FrontierView SingleSourceEngine::previous_frontier_view(std::size_t i) const {
  const PairSpan s = retired_spans_.at(i);
  return FrontierView(arena_.ld() + s.offset, arena_.ea() + s.offset,
                      s.length);
}

bool SingleSourceEngine::step() {
  if (fixpoint_) return false;
  switch (mode_) {
    case EngineMode::kPooled:
      return step_pooled();
    case EngineMode::kLevelSweep:
      return step_level_sweep();
  }
  return false;
}

void SingleSourceEngine::finish_level(bool changed) {
  ++level_;
  if (!changed) {
    fixpoint_ = true;
    --level_;  // the budget did not actually grow anything new
  }
}

void SingleSourceEngine::record_arena_peaks() noexcept {
  const std::size_t pairs = arena_.size() + delta_arena_[0].size() +
                            delta_arena_[1].size();
  if (pairs > stats_.pairs_peak) stats_.pairs_peak = pairs;
  const std::size_t bytes = arena_.capacity_bytes() +
                            delta_arena_[0].capacity_bytes() +
                            delta_arena_[1].capacity_bytes();
  if (bytes > stats_.arena_bytes_peak) stats_.arena_bytes_peak = bytes;
}

bool SingleSourceEngine::step_pooled() {
  // Delta propagation: only the pairs newly kept at the previous level
  // (each active node's delta) can generate candidates that are not
  // already dominated -- everything older was extended, and absorbed, at
  // an earlier level. Pairs never leave the arenas and frontier
  // maintenance is batched: candidates are collected raw into flat
  // buffers, grouped by target with one counting sort,
  // pruned per target, and merged against the target's frontier span by
  // one two-way merge emitted into fresh arena space. The superseded
  // span is the pre-change snapshot, untouched and for free.
  next_active_.clear();

  // Phase 1: extension. Nothing is allocated from arena_ or the current
  // delta arena here, so their base pointers are stable for the phase.
  const PairArena& da = delta_arena_[delta_parity_];
  const DelayHorizon h = horizon_;
  const double* const f_ld = arena_.ld();
  const double* const f_ea = arena_.ea();
  std::uint64_t dominated = 0;  // batched into stats_ after the loop
  std::uint64_t past_horizon = 0;
  // Offer-time filter against the target's frontier -- still exactly
  // L_k, publication is deferred to phase 2. Same-level dominance
  // between candidates is handled by the batch prune at publish.
  // last_pair_ keeps the probe's common outcomes (departs past the
  // frontier -> kept; arrives at/after the frontier's max arrival ->
  // dominated) inside one tiny L1-resident array; only candidates
  // landing strictly inside the frontier hit the arena lanes.
  // Forced inline, as the kernel that calls it is: this is the engine's
  // hottest call, and GCC's unit-growth heuristic can leave it out of
  // line depending on the size of this file (GCC 12, x86-64: ~7% more
  // all-pairs CPU).
  auto offer = [&](NodeId to, double cld,
                   double cea) __attribute__((always_inline)) {
    if (h.past(cld, cea)) {
      ++past_horizon;
      return;
    }
    const PathPair lp = last_pair_[to];
    if (cld <= lp.ld) {
      if (lp.ea <= cea) {
        ++dominated;
        return;
      }
      const PairSpan ts = fspan_[to];
      if (frontier_dominates(f_ld + ts.offset, f_ea + ts.offset, ts.length,
                             cld, cea)) {
        ++dominated;
        return;
      }
    }
    cand_.push_back({cld, cea, to});
    ++cand_count_[to];
    if (!dirty_mark_[to]) {
      dirty_mark_[to] = 1;
      next_active_.push_back(to);
    }
  };
  for (std::size_t a = 0; a < active_.size(); ++a) {
    const PairSpan ds = delta_spans_[a];
    stats_.contacts_examined += for_each_delta_extension(
        graph_->neighbors_by_end(active_[a]), da.ld() + ds.offset,
        da.ea() + ds.offset, da.aux() + ds.offset, ds.length, h.window_lo,
        offer);
  }

  stats_.pairs_dominated += dominated;
  stats_.pairs_past_horizon += past_horizon;

  // Phase 2: publish. Counting-sort the flat candidate buffer into
  // per-target groups, then prune + merge each group.
  bool changed = false;
  const std::size_t total = cand_.size();
  if (total > 0) {
    grp_begin_.resize(next_active_.size());
    std::uint32_t running = 0;
    for (std::size_t idx = 0; idx < next_active_.size(); ++idx) {
      const NodeId v = next_active_[idx];
      grp_begin_[idx] = running;
      grp_pos_[v] = running;
      running += cand_count_[v];
    }
    grp_pairs_.resize(total);
    for (std::size_t k = 0; k < total; ++k) {
      const RawCandidate& c = cand_[k];
      grp_pairs_[grp_pos_[c.to]++] = {c.ld, c.ea};
    }
    PairArena& nda = delta_arena_[delta_parity_ ^ 1];
    if (retired_spans_.size() < next_active_.size())
      retired_spans_.resize(next_active_.size());
    if (next_delta_spans_.size() < next_active_.size())
      next_delta_spans_.resize(next_active_.size());
    std::size_t w = 0;  // write cursor over the surviving changed list
    for (std::size_t idx = 0; idx < next_active_.size(); ++idx) {
      const NodeId v = next_active_[idx];
      const std::size_t m0 = cand_count_[v];
      cand_count_[v] = 0;
      dirty_mark_[v] = 0;
      // Each group is contiguous in grp_pairs_ and consumed exactly once,
      // so the batch is pruned in place (survivors end up in the group's
      // prefix; the tail becomes garbage, which is fine).
      PathPair* const batch = grp_pairs_.data() + grp_begin_[idx];
      const std::size_t m = prune_candidate_batch(batch, m0);
      const PairSpan fs = fspan_[v];
      // Worst-case output sizes; the unused prefixes below the merged
      // results stay behind as arena slack until the next reset.
      const std::size_t out_off = arena_.allocate(fs.length + m);
      const std::size_t d_off = nda.allocate(m);
      // allocate() may have grown either arena: base pointers re-fetched.
      const FrontierMerge r = merge_frontier(
          arena_.ld() + fs.offset, arena_.ea() + fs.offset, fs.length, batch,
          m, arena_.ld() + out_off, arena_.ea() + out_off, nda.ld() + d_off,
          nda.ea() + d_off, nda.aux() + d_off);
      ++stats_.merge_batches;
      stats_.pairs_inserted += r.kept_new;
      stats_.pairs_dominated += m0 - r.kept_new;
      if (r.kept_new == 0) {
        // Defensive only: a batch that survived the offer-time dominance
        // filter always contributes at least its minimum-EA candidate.
        arena_.truncate(out_off);
        nda.truncate(d_off);
        continue;
      }
      changed = true;
      retired_spans_[w] = fs;
      fspan_[v] = {
          static_cast<std::uint32_t>(out_off + fs.length + m - r.kept),
          static_cast<std::uint32_t>(r.kept)};
      const std::size_t last = out_off + fs.length + m - 1;
      last_pair_[v] = {arena_.ld()[last], arena_.ea()[last]};
      next_delta_spans_[w] = {
          static_cast<std::uint32_t>(d_off + m - r.kept_new),
          static_cast<std::uint32_t>(r.kept_new)};
      next_active_[w] = v;
      ++w;
    }
    next_active_.resize(w);
  }

  // Phase 3: rotate. The spent delta slab is recycled wholesale; the
  // span lists swap along with the active lists they are aligned to.
  cand_.clear();
  delta_arena_[delta_parity_].reset();
  delta_parity_ ^= 1;
  delta_spans_.swap(next_delta_spans_);
  active_.swap(next_active_);
  record_arena_peaks();
  finish_level(changed);
  return changed;
}

bool SingleSourceEngine::step_level_sweep() {
  scratch_ = frontiers_;  // L_k snapshot to extend from
  bool changed = false;
  for (const Contact& c : graph_->contacts()) {
    ++stats_.contacts_examined;
    changed |= extend_frontier(scratch_[c.u], c.begin, c.end, frontiers_[c.v],
                               &stats_, horizon_);
    if (!graph_->directed()) {
      ++stats_.contacts_examined;
      changed |= extend_frontier(scratch_[c.v], c.begin, c.end,
                                 frontiers_[c.u], &stats_, horizon_);
    }
  }
  finish_level(changed);
  return changed;
}

int SingleSourceEngine::run_to_fixpoint(int max_levels) {
  while (!fixpoint_ && level_ < max_levels) step();
  return fixpoint_ ? level_ : max_levels + 1;
}

DeliveryFunction SingleSourceEngine::frontier(NodeId dst) const {
  return materialize(frontier_view(dst));
}

FrontierView SingleSourceEngine::frontier_view(NodeId dst) const {
  if (mode_ == EngineMode::kPooled) {
    const PairSpan s = fspan_[dst];
    return FrontierView(arena_.ld() + s.offset, arena_.ea() + s.offset,
                        s.length);
  }
  return frontiers_[dst].view();
}

std::vector<DeliveryFunction> SingleSourceEngine::frontiers() const {
  std::vector<DeliveryFunction> out(graph_->num_nodes());
  for (NodeId v = 0; v < graph_->num_nodes(); ++v)
    out[v] = materialize(frontier_view(v));
  return out;
}

std::size_t SingleSourceEngine::total_pairs() const noexcept {
  std::size_t total = 0;
  for (NodeId v = 0; v < graph_->num_nodes(); ++v)
    total += frontier_view(v).size();
  return total;
}

std::vector<std::vector<DeliveryFunction>> compute_hop_profiles(
    const TemporalGraph& graph, NodeId source, const std::vector<int>& budgets,
    int max_levels) {
  for (int b : budgets) {
    if (b < 1) throw std::invalid_argument("hop budget must be >= 1");
  }
  std::vector<std::vector<DeliveryFunction>> out(budgets.size());
  SingleSourceEngine engine(graph, source);
  int level = 0;
  auto capture_if_requested = [&] {
    for (std::size_t i = 0; i < budgets.size(); ++i) {
      if (budgets[i] == level) out[i] = engine.frontiers();
    }
  };
  while (level < max_levels) {
    if (!engine.step()) break;
    ++level;
    capture_if_requested();
  }
  // Budgets at or beyond the fixpoint level (including kUnboundedHops)
  // all equal the final frontiers.
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    if (budgets[i] > level || budgets[i] == kUnboundedHops) {
      if (out[i].empty()) out[i] = engine.frontiers();
    }
  }
  return out;
}

}  // namespace odtn
