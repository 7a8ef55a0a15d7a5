#include "core/incremental_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/frontier_kernels.hpp"
#include "core/optimal_paths.hpp"

namespace odtn {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Appends `f`'s pairs to `arena`. May grow it, so every view into the
/// arena taken before the call is invalid after it.
PairSpan append_pairs(PairArena& arena, const FrontierView& f) {
  const std::size_t offset = arena.allocate(f.size());
  std::copy_n(f.ld_data(), f.size(), arena.ld() + offset);
  std::copy_n(f.ea_data(), f.size(), arena.ea() + offset);
  return {static_cast<std::uint32_t>(offset),
          static_cast<std::uint32_t>(f.size())};
}

bool frontier_equals(const FrontierView& a, const FrontierView& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a.ld(i) != b.ld(i) || a.ea(i) != b.ea(i)) return false;
  return true;
}

}  // namespace

IncrementalSourceDp::IncrementalSourceDp(NodeId source, std::size_t num_nodes,
                                         int level_cap,
                                         const DelayHorizon& horizon)
    : source_(source), cap_(level_cap),
      horizon_(horizon) {
  if (source >= num_nodes)
    throw std::invalid_argument("IncrementalSourceDp: source out of range");
  if (level_cap < 1)
    throw std::invalid_argument("IncrementalSourceDp: level cap must be >= 1");
  nodes_.resize(num_nodes);
  constexpr PathPair seed = identity_pair();
  nodes_[source_].push_back(
      {0, append_pairs(arena_, FrontierView(&seed.ld, &seed.ea, 1))});
  live_ = 1;
}

FrontierView IncrementalSourceDp::lookup(std::span<const Version> versions,
                                         int level) const {
  // Latest version at or below `level`; nodes are only versioned at the
  // levels where their frontier actually changed. Version lists reach
  // tens of entries on deep traces and this runs per candidate offer, so
  // binary search instead of a walk.
  const auto it = std::upper_bound(
      versions.begin(), versions.end(), level,
      [](int l, const Version& v) { return l < v.level; });
  if (it == versions.begin()) return FrontierView();
  return view((it - 1)->span);
}

FrontierView IncrementalSourceDp::frontier_at(NodeId node, int level) const {
  return lookup(nodes_[node], std::min(level, cap_));
}

FrontierView IncrementalSourceDp::lookup_original(const ApplyScratch& scratch,
                                                  NodeId node,
                                                  int level) const {
  // The spans a write displaced stay in the arena until the next
  // compaction, so the saved records still reach the pre-apply pairs.
  const NodeMark& m = scratch.marks[node];
  if (m.saved == kNotSaved) return lookup(nodes_[node], level);
  return lookup(std::span<const Version>(scratch.saved)
                    .subspan(m.saved, m.saved_count),
                level);
}

void IncrementalSourceDp::save(ApplyScratch& scratch, NodeId node) const {
  NodeMark& m = scratch.marks[node];
  if (m.saved != kNotSaved) return;
  const VersionList& vs = nodes_[node];
  m.saved = static_cast<std::uint32_t>(scratch.saved.size());
  m.saved_count = static_cast<std::uint32_t>(vs.size());
  scratch.saved.insert(scratch.saved.end(), vs.begin(), vs.end());
}

void IncrementalSourceDp::write_version(ApplyScratch& scratch, NodeId node,
                                        int level, const FrontierView& f) {
  save(scratch, node);
  const PairSpan span = append_pairs(arena_, f);
  VersionList& vs = nodes_[node];
  auto it = std::lower_bound(
      vs.begin(), vs.end(), level,
      [](const Version& v, int l) { return v.level < l; });
  if (it == vs.end() || it->level != level)
    vs.insert(it, {level, span});
  else
    live_ -= std::exchange(it->span, span).length;
  live_ += span.length;
  if (level > max_level_) max_level_ = level;
}

void IncrementalSourceDp::erase_exact_version(ApplyScratch& scratch,
                                              NodeId node, int level) {
  VersionList& vs = nodes_[node];
  auto it = std::lower_bound(
      vs.begin(), vs.end(), level,
      [](const Version& v, int l) { return v.level < l; });
  if (it != vs.end() && it->level == level) {
    save(scratch, node);
    live_ -= it->span.length;
    vs.erase(it);
  }
}

const IncrementalSourceDp::Version* IncrementalSourceDp::version_at(
    NodeId node, int level) const {
  const VersionList& vs = nodes_[node];
  const auto it = std::lower_bound(
      vs.begin(), vs.end(), level,
      [](const Version& v, int l) { return v.level < l; });
  return it != vs.end() && it->level == level ? &*it : nullptr;
}

void IncrementalSourceDp::bootstrap(const TemporalGraph& graph,
                                    ApplyScratch& scratch) {
  pack(scratch.pairs);  // the level-0 seed
  SingleSourceEngine eng(graph, source_, EngineMode::kPooled);
  eng.set_horizon(horizon_);
  int k = 0;
  while (k < cap_ && eng.step()) {
    ++k;
    // last_changed() lists exactly the nodes whose frontier grew at this
    // level -- the version-iff-productive invariant, straight from the
    // engine. Levels ascend, so each node's list stays sorted by plain
    // appends.
    for (const NodeId d : eng.last_changed()) {
      const PairSpan span = append_pairs(scratch.pairs, eng.frontier_view(d));
      nodes_[d].push_back({k, span});
      live_ += span.length;
    }
    max_level_ = k;
  }
  install(scratch.pairs);
}

void IncrementalSourceDp::pack(PairArena& to) {
  to.reset();
  for (VersionList& vs : nodes_)
    for (Version& v : vs) v.span = append_pairs(to, view(v.span));
}

void IncrementalSourceDp::install(const PairArena& packed) {
  const std::size_t h = headroom();
  if (arena_.capacity() < live_ + h || arena_.capacity() > live_ + 3 * h) {
    // allocate() on an empty arena sizes it exactly (PairArena::grow
    // value-initializes, so all of the capacity is resident at once).
    arena_ = PairArena();
    arena_.allocate(live_ + 5 * h / 2);
  }
  arena_.truncate(0);
  append_pairs(arena_, FrontierView(packed.ld(), packed.ea(), packed.size()));
}

namespace {

template <class T>
std::size_t capacity_bytes(const std::vector<T>& v) noexcept {
  return v.capacity() * sizeof(T);
}

}  // namespace

std::size_t IncrementalSourceDp::ApplyScratch::heap_bytes() const noexcept {
  std::size_t b = capacity_bytes(nodes) + fresh.capacity_bytes() +
                  next_fresh.capacity_bytes() + capacity_bytes(fresh_active) +
                  capacity_bytes(fresh_spans) +
                  capacity_bytes(next_fresh_active) +
                  capacity_bytes(next_fresh_spans) + capacity_bytes(carry) +
                  capacity_bytes(next_carry) + capacity_bytes(level_active) +
                  base.heap_bytes() + capacity_bytes(merged_ld) +
                  capacity_bytes(merged_ea) + pairs.capacity_bytes() +
                  capacity_bytes(saved) + capacity_bytes(marks) +
                  capacity_bytes(changed);
  for (const Node& n : nodes) b += capacity_bytes(n.batch);
  return b;
}

std::size_t IncrementalSourceDp::heap_bytes() const noexcept {
  std::size_t b = capacity_bytes(nodes_) + arena_.capacity_bytes();
  for (const VersionList& vs : nodes_) b += capacity_bytes(vs);
  return b;
}

void IncrementalSourceDp::apply(const TemporalGraph& graph,
                                std::size_t old_count, ApplyScratch& scratch) {
  scratch.saved.clear();
  scratch.marks.assign(nodes_.size(), NodeMark{});
  scratch.changed.clear();
  const std::span<const Contact> all = graph.contacts();
  const std::span<const Contact> batch = all.subspan(old_count);
  if (batch.empty()) return;
  const bool directed = graph.directed();

  // This source's last saved records went with its last apply, so
  // nothing reaches the garbage any more: compact when less than half
  // the headroom is free, or when the capacity outgrew the band (see
  // kCompactShare).
  const std::size_t h = headroom();
  if (arena_.capacity() - arena_.size() < h / 2 ||
      arena_.capacity() > live_ + 3 * h) {
    pack(scratch.pairs);
    install(scratch.pairs);
    ++compactions_;
  }
  if (scratch.nodes.size() < nodes_.size()) scratch.nodes.resize(nodes_.size());
  std::vector<ApplyScratch::Node>& sn = scratch.nodes;
  std::vector<NodeId>& fresh_active = scratch.fresh_active;
  std::vector<PairSpan>& fresh_spans = scratch.fresh_spans;
  std::vector<NodeId>& next_fresh_active = scratch.next_fresh_active;
  std::vector<PairSpan>& next_fresh_spans = scratch.next_fresh_spans;
  std::vector<NodeId>& carry = scratch.carry;
  std::vector<NodeId>& next_carry = scratch.next_carry;
  std::vector<NodeId>& level_active = scratch.level_active;
  fresh_active.clear();
  fresh_spans.clear();
  carry.clear();

  for (int k = 1; k <= cap_; ++k) {
    // Two candidate feeds keep the level alive: pending fresh pairs, and
    // new contacts touching any node versioned at exactly k-1 (bounded
    // by the deepest version, so the loop stops one past the last
    // productive level instead of sweeping to the cap). Carried nodes
    // only matter where they have a pre-epoch version, at or below the
    // deepest one.
    if (fresh_active.empty() && k > max_level_ + 1) break;
    level_active.clear();

    // Collects one candidate into `to`'s level-k batch, but only lets a
    // node join the level once a candidate survives: a pair dominated by
    // the base L'_{k-1} (the list is already updated through k-1) or by
    // the pre-epoch L_k is dominated by their Pareto merge too, so it
    // cannot change the node's level-k value. A pair past the horizon is
    // dropped first, as the cold engines drop it.
    const auto offer = [&](NodeId to, double ld, double ea) {
      if (horizon_.past(ld, ea)) return;
      ApplyScratch::Node& s = sn[to];
      const auto dominated_in = [&](const FrontierView& v) {
        return frontier_dominates(v.ld_data(), v.ea_data(), v.size(), ld, ea);
      };
      if (!s.active) {
        if (dominated_in(lookup(nodes_[to], k - 1)) ||
            dominated_in(lookup_original(scratch, to, k)))
          return;
        s.active = true;
        level_active.push_back(to);
      }
      s.batch.push_back({ld, ea});
    };

    // Fresh pairs of L'_{k-1} through every window of their node, with
    // the pooled engine's by-end skip and wait-candidate suppression:
    // the successor chain a suppressed wait candidate defers to entered
    // at an earlier level, this epoch or an earlier one, and had its
    // extensions absorbed then (the same quiescence argument the new
    // contact feed below relies on; DESIGN.md §9).
    const PairArena& fa = scratch.fresh;
    for (std::size_t a = 0; a < fresh_active.size(); ++a) {
      const PairSpan fs = fresh_spans[a];
      for_each_delta_extension(graph.neighbors_by_end(fresh_active[a]),
                               fa.ld() + fs.offset, fa.ea() + fs.offset,
                               fa.aux() + fs.offset, fs.length,
                               horizon_.window_lo, offer);
    }

    // L'_{k-1}(u) through one new contact window, fired only when u's
    // frontier changed at exactly level k-1 (earlier versions already
    // propagated through this window at their own level + 1; see the
    // quiescence argument in DESIGN.md §9).
    const auto fire_new_contact = [&](NodeId u, NodeId to, const Contact& c) {
      const Version* v = version_at(u, k - 1);
      if (!v) return;
      for_each_frontier_extension(
          view(v->span), c.begin, c.end,
          [&](PathPair cand) { offer(to, cand.ld, cand.ea); });
    };
    for (const Contact& c : batch) {
      fire_new_contact(c.u, c.v, c);
      if (!directed) fire_new_contact(c.v, c.u, c);
    }

    // A carried node without candidates has L'_k = Pareto(L'_{k-1} u
    // old L_k). Where it had no pre-epoch version at k, old L_k is old
    // L_{k-1}, which L'_{k-1} dominates, so L'_k = L'_{k-1} holds with
    // no version; only a pre-epoch version at k needs rewriting.
    for (NodeId d : carry)
      if (!sn[d].active && version_at(d, k)) {
        sn[d].active = true;
        level_active.push_back(d);
      }

    // Publication, as the pooled engine's: L'_k is the batch pruned and
    // merged into Pareto(L'_{k-1} u old L_k), and the merge's new pairs
    // (f minus that base, which is f minus L'_{k-1} and old L_k: a pair
    // of either that the base drops is dominated in f) are the fresh
    // pairs of level k, successor EAs included. Only they need extending
    // at k+1: a pair of L'_k \ old L_k that is also in L'_{k-1} was not
    // in old L_{k-1} (old L_k would hold a pair dominating it, and so
    // would L'_k), so it was fresh at an earlier level and its
    // extensions were offered then.
    PairArena& nfa = scratch.next_fresh;
    nfa.reset();
    next_fresh_active.clear();
    next_fresh_spans.clear();
    next_carry.clear();
    for (NodeId d : level_active) {
      ApplyScratch::Node& s = sn[d];
      const FrontierView below = lookup(nodes_[d], k - 1);
      scratch.base.assign_union(below, lookup_original(scratch, d, k));
      const FrontierView base = scratch.base.view();
      const std::size_t m =
          prune_candidate_batch(s.batch.data(), s.batch.size());
      const std::size_t out = base.size() + m;
      scratch.merged_ld.resize(out);
      scratch.merged_ea.resize(out);
      const std::size_t d_off = nfa.allocate(m);
      const FrontierMerge r = merge_frontier(
          base.ld_data(), base.ea_data(), base.size(), s.batch.data(), m,
          scratch.merged_ld.data(), scratch.merged_ea.data(),
          nfa.ld() + d_off, nfa.ea() + d_off, nfa.aux() + d_off);
      const FrontierView f(scratch.merged_ld.data() + out - r.kept,
                           scratch.merged_ea.data() + out - r.kept, r.kept);
      // Version-iff-productive invariant: a version at k exists exactly
      // when L'_k != L'_{k-1}.
      if (!frontier_equals(f, below))
        write_version(scratch, d, k, f);
      else
        erase_exact_version(scratch, d, k);
      // A rewritten node stays carried while its level-k value differs
      // from the pre-epoch one. (Looked up after the write: an append
      // may move the arena.)
      if (!frontier_equals(f, lookup_original(scratch, d, k))) {
        next_carry.push_back(d);
        if (!std::exchange(scratch.marks[d].changed, true))
          scratch.changed.push_back(d);
      }
      if (r.kept_new > 0) {
        next_fresh_active.push_back(d);
        next_fresh_spans.push_back(
            {static_cast<std::uint32_t>(d_off + m - r.kept_new),
             static_cast<std::uint32_t>(r.kept_new)});
      }
    }
    // Carried nodes not rewritten at k keep L'_k = L'_{k-1} != old L_k.
    for (NodeId d : carry)
      if (!sn[d].active) next_carry.push_back(d);
    for (NodeId d : level_active) {
      sn[d].active = false;
      sn[d].batch.clear();
    }
    carry.swap(next_carry);
    fresh_active.swap(next_fresh_active);
    fresh_spans.swap(next_fresh_spans);
    std::swap(scratch.fresh, scratch.next_fresh);
  }

  // Deletions can lower the deepest productive level (a new direct
  // contact may dominate away the only level-k change); recompute it
  // exactly so the reported fixpoint matches a cold run.
  max_level_ = 0;
  for (const VersionList& vs : nodes_)
    if (!vs.empty() && vs.back().level > max_level_)
      max_level_ = vs.back().level;
}

IncrementalAllPairsEngine::IncrementalAllPairsEngine(
    std::size_t num_nodes, bool directed, IncrementalCdfOptions options)
    : graph_(num_nodes, {}, directed), options_(std::move(options)) {
  check_window_bounds(options_.t_lo, options_.t_hi);
  if (options_.grid.empty())
    throw std::invalid_argument("IncrementalAllPairsEngine: empty delay grid");
  if (options_.max_hops < 1)
    throw std::invalid_argument(
        "IncrementalAllPairsEngine: max_hops must be >= 1");
  cap_ = std::max(options_.max_hops, options_.max_levels);
  dps_.reserve(num_nodes);
  partials_.reserve(num_nodes);
  const DelayHorizon h = horizon();
  for (NodeId s = 0; s < num_nodes; ++s) {
    dps_.emplace_back(s, num_nodes, cap_, h);
    partials_.emplace_back(options_.grid, options_.max_hops);
  }
  if (options_.num_threads != 0)
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  workers_.resize(pool().num_workers());
  // The empty graph's partials: only the observation measure.
  if (const std::optional<TimeWindows> w = resolved_windows()) {
    for (NodeId s = 0; s < num_nodes; ++s)
      full_pass(s, *w, workers_[0].pairs_integrated);
    windows_ = *w;
    current_ = true;
  }
}

LiveHeapBytes IncrementalAllPairsEngine::heap_bytes() const noexcept {
  LiveHeapBytes b;
  for (const IncrementalSourceDp& dp : dps_) b.versions += dp.heap_bytes();
  for (const Worker& w : workers_) b.scratch += w.scratch.heap_bytes();
  return b;
}

DelayHorizon IncrementalAllPairsEngine::horizon() const {
  const double lo = std::isnan(options_.t_lo) ? -kInf : options_.t_lo;
  const double hi = std::isnan(options_.t_hi) ? kInf : options_.t_hi;
  return cdf_horizon({{lo, hi}}, options_.grid);
}

ThreadPool& IncrementalAllPairsEngine::pool() const {
  return pool_ ? *pool_ : shared_thread_pool();
}

double IncrementalAllPairsEngine::watermark() const noexcept {
  const std::span<const Contact> c = graph_.contacts();
  return c.empty() ? -std::numeric_limits<double>::infinity()
                   : c.back().begin;
}

std::uint64_t IncrementalAllPairsEngine::append(
    std::span<const Contact> batch) {
  if (batch.empty()) return graph_.epoch();
  const std::size_t old_count = graph_.num_contacts();
  graph_.append_contacts(batch);

  // Build (or grow) the indexes before fanning out, so the workers only
  // read them: append_contacts already merged the new windows in if they
  // existed, and this materializes them on the very first epoch.
  graph_.node_offsets();

  // The bootstrap, and the epoch the window opens at, take the full
  // pass. Once the first contact fixed start_time, only a NaN t_hi moves
  // an open window: its old hi was the old end time, past every stored
  // pair's ld, so it clipped no segment, and the partials keep their
  // numerators and swap only their observation measure.
  const std::optional<TimeWindows> w = resolved_windows();
  const bool full = old_count == 0 || !current_;
  const double measure = w ? total_window_measure(*w) : 0.0;
  const double old_measure = total_window_measure(windows_);
  const bool swap = w && !full && *w != windows_;
  const auto others = static_cast<std::int64_t>(graph_.num_nodes()) - 1;

  pool().parallel_for(dps_.size(), [&](std::size_t i, unsigned id) {
    const auto src = static_cast<NodeId>(i);
    Worker& worker = workers_[id];
    IncrementalSourceDp& dp = dps_[i];
    SourceCdfPartial& out = partials_[i];
    // First (bulk) batch: seed each DP from a cold pooled run instead of
    // replaying the epoch machinery -- same frontiers, batch cost.
    if (old_count == 0)
      dp.bootstrap(graph_, worker.scratch);
    else
      dp.apply(graph_, old_count, worker.scratch);
    if (w && full) {
      full_pass(src, *w, worker.pairs_integrated);
    } else if (w) {
      if (swap) {
        // Retract the old measure, add the new: exact, so the lane's
        // denominator equals the one a fresh integration adds.
        for (MeasureCdfAccumulator& lane : out.by_hops) {
          lane.add_observation_measure(old_measure, -others);
          lane.add_observation_measure(measure, others);
        }
        out.unbounded.add_observation_measure(old_measure, -others);
        out.unbounded.add_observation_measure(measure, others);
      }
      epoch_update(src, worker.scratch, *w, worker.pairs_integrated);
    }
    // Same fixpoint a cold bounded run reports: the true level when it
    // is observable below the cap, the max_levels+1 "not converged"
    // sentinel otherwise.
    out.fixpoint_hops = dp.max_version_level() < cap_
                            ? dp.max_version_level()
                            : options_.max_levels + 1;
    out.converged = out.fixpoint_hops <= options_.max_levels;
  });
  current_ = w.has_value();
  if (w) windows_ = *w;
  return graph_.epoch();
}

DelayCdfOptions IncrementalAllPairsEngine::cdf_options() const {
  DelayCdfOptions o;
  o.grid = options_.grid;
  o.max_hops = options_.max_hops;
  o.max_levels = options_.max_levels;
  o.t_lo = options_.t_lo;
  o.t_hi = options_.t_hi;
  o.num_threads = options_.num_threads;
  return o;
}

std::optional<TimeWindows> IncrementalAllPairsEngine::resolved_windows()
    const {
  // resolve_cdf_windows holds the one rule for an open window; all_pairs
  // calls it again and throws its error where this reads none.
  try {
    return resolve_cdf_windows(graph_, cdf_options());
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

void IncrementalAllPairsEngine::full_pass(NodeId src, const TimeWindows& w,
                                          std::uint64_t& pairs_integrated) {
  const IncrementalSourceDp& dp = dps_[src];
  SourceCdfPartial& out = partials_[src];
  // The layout process_source_incremental builds: level-k deltas in lane
  // k (levels past max_hops in `unbounded`), the observation measure
  // parked in lane 1; the prefix merge below turns the deltas into full
  // lanes.
  out.clear();
  out.by_hops[0].add_observation_measure(
      total_window_measure(w),
      static_cast<std::int64_t>(graph_.num_nodes()) - 1);
  for (NodeId d = 0; d < graph_.num_nodes(); ++d) {
    if (d == src) continue;
    FrontierView below;
    dp.for_each_version(d, [&](int level, const FrontierView& f) {
      integrate_frontier_delta(below, f, w,
                               level <= options_.max_hops
                                   ? out.by_hops[level - 1]
                                   : out.unbounded,
                               pairs_integrated);
      below = f;
    });
  }
  MeasureCdfAccumulator::prefix_merge(out.by_hops);
  out.unbounded.merge(out.by_hops.back());
}

void IncrementalAllPairsEngine::epoch_update(
    NodeId src, const IncrementalSourceDp::ApplyScratch& scratch,
    const TimeWindows& w, std::uint64_t& pairs_integrated) {
  const IncrementalSourceDp& dp = dps_[src];
  SourceCdfPartial& out = partials_[src];
  for (const NodeId d : scratch.changed) {
    if (d == src) continue;
    const auto update = [&](MeasureCdfAccumulator& lane, int level) {
      const FrontierView before = dp.lookup_original(scratch, d, level);
      const FrontierView after = dp.frontier_at(d, level);
      // One buffer: the apply left this level untouched.
      if (before.ld_data() == after.ld_data() && before.size() == after.size())
        return;
      integrate_frontier_delta(before, after, w, lane, pairs_integrated);
    };
    for (int k = 1; k <= options_.max_hops; ++k) update(out.by_hops[k - 1], k);
    update(out.unbounded, cap_);
  }
}

DelayCdfResult IncrementalAllPairsEngine::all_pairs() {
  const DelayCdfOptions o = cdf_options();
  // Throws, as a cold run does, exactly where append left the partials
  // waiting for the window to open.
  (void)resolve_cdf_windows(graph_, o);
  DelayCdfResult r = fold_sources(
      dps_.size(), o, /*incremental=*/false,
      [&](std::size_t i, SourceCdfWorker&, SourceCdfPartial&,
          OrderedCdfFolder& folder) { folder.submit(i, partials_[i]); },
      &pool());
  for (Worker& w : workers_)
    r.stats.cdf_pairs_integrated += std::exchange(w.pairs_integrated, 0);
  return r;
}

}  // namespace odtn
