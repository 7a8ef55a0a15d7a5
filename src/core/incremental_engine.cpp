#include "core/incremental_engine.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/frontier_kernels.hpp"
#include "core/optimal_paths.hpp"
#include "util/thread_pool.hpp"

namespace odtn {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The level-0 seed of every source: departs arbitrarily late, arrived
/// before any contact (same literal the engines use).
PathPair identity_pair() { return {kInf, -kInf}; }

bool frontier_equals(const DeliveryFunction& f, const FrontierView& v) {
  if (f.size() != v.size()) return false;
  const std::vector<PathPair>& p = f.pairs();
  for (std::size_t i = 0; i < p.size(); ++i)
    if (p[i].ld != v.ld(i) || p[i].ea != v.ea(i)) return false;
  return true;
}

/// Pairs of `f` absent from `old_view` (both sorted with strictly
/// increasing ld, at most one pair per ld), appended to `out`.
void frontier_diff(const DeliveryFunction& f, const FrontierView& old_view,
                   std::vector<PathPair>& out) {
  out.clear();
  const std::vector<PathPair>& p = f.pairs();
  std::size_t i = 0, j = 0;
  while (i < p.size()) {
    if (j == old_view.size() || p[i].ld < old_view.ld(j)) {
      out.push_back(p[i++]);
    } else if (old_view.ld(j) < p[i].ld) {
      ++j;
    } else {
      if (p[i].ea != old_view.ea(j)) out.push_back(p[i]);
      ++i;
      ++j;
    }
  }
}

}  // namespace

IncrementalSourceDp::IncrementalSourceDp(NodeId source, std::size_t num_nodes,
                                         int level_cap)
    : source_(source), num_nodes_(num_nodes), cap_(level_cap) {
  if (source >= num_nodes)
    throw std::invalid_argument("IncrementalSourceDp: source out of range");
  if (level_cap < 1)
    throw std::invalid_argument("IncrementalSourceDp: level cap must be >= 1");
  nodes_.resize(num_nodes_);
  scratch_.resize(num_nodes_);
  Version seed;
  seed.level = 0;
  seed.ld.push_back(identity_pair().ld);
  seed.ea.push_back(identity_pair().ea);
  nodes_[source_].versions.push_back(std::move(seed));
}

FrontierView IncrementalSourceDp::lookup(const std::vector<Version>& versions,
                                         int level) const {
  // Latest version at or below `level`; nodes are only versioned at the
  // levels where their frontier actually changed. Version lists reach
  // tens of entries on deep traces and this runs per candidate offer, so
  // binary search instead of a walk.
  const auto it = std::upper_bound(
      versions.begin(), versions.end(), level,
      [](int l, const Version& v) { return l < v.level; });
  if (it == versions.begin()) return FrontierView();
  const Version& best = *(it - 1);
  return FrontierView(best.ld.data(), best.ea.data(), best.ld.size());
}

FrontierView IncrementalSourceDp::frontier_at(NodeId node, int level) const {
  return lookup(nodes_[node].versions, std::min(level, cap_));
}

FrontierView IncrementalSourceDp::lookup_original(NodeId node,
                                                  int level) const {
  const std::vector<Version>& vs = nodes_[node].versions;
  const std::span<const SavedVersion> saved(scratch_[node].saved.data(),
                                            scratch_[node].saved_count);
  // Backward merge over the live list and the copy-on-write overlay,
  // both ascending in level: at a level this epoch modified, the
  // pre-epoch state is the stash (possibly "absent"); elsewhere it is
  // the live entry untouched. Starting from the binary-searched tails,
  // the walk only continues past tombstoned levels, so the per-offer
  // cost stays logarithmic.
  std::ptrdiff_t i =
      std::upper_bound(vs.begin(), vs.end(), level,
                       [](int l, const Version& v) { return l < v.level; }) -
      vs.begin() - 1;
  std::ptrdiff_t j =
      std::upper_bound(
          saved.begin(), saved.end(), level,
          [](int l, const SavedVersion& s) { return l < s.level; }) -
      saved.begin() - 1;
  while (i >= 0 || j >= 0) {
    const int lv = i >= 0 ? vs[static_cast<std::size_t>(i)].level : -1;
    const int ls = j >= 0 ? saved[static_cast<std::size_t>(j)].level : -1;
    if (lv > ls) {
      // No stash covers (ls, level], so the live entry is pre-epoch.
      const Version& best = vs[static_cast<std::size_t>(i)];
      return FrontierView(best.ld.data(), best.ea.data(), best.ld.size());
    }
    const SavedVersion& s = saved[static_cast<std::size_t>(j)];
    if (s.existed)
      return FrontierView(s.version.ld.data(), s.version.ea.data(),
                          s.version.ld.size());
    // Tombstone: the level had no version pre-epoch; skip it entirely.
    if (lv == ls) --i;
    --j;
  }
  return FrontierView();
}

DeliveryFunction& IncrementalSourceDp::ensure_working(NodeId node, int level) {
  Scratch& s = scratch_[node];
  if (!s.active) {
    // Base = L'_{level-1} (the list is already updated through level-1),
    // then the pre-epoch L_level: together with the candidate extensions
    // their Pareto merge is exactly L'_level. Both are canonical
    // frontiers, so one linear merge seeds the scratch.
    s.working.assign_union(lookup(nodes_[node].versions, level - 1),
                           lookup_original(node, level));
    s.active = true;
    level_active_.push_back(node);
  }
  return s.working;
}

void IncrementalSourceDp::stash(NodeId node, int level, Version* old_entry) {
  Scratch& s = scratch_[node];
  if (!s.touched) {
    s.touched = true;
    touched_.push_back(node);
  }
  // Swap rather than move: the displaced live entry inherits the slot's
  // recycled buffers, so the write_version refill that follows reuses
  // their capacity instead of allocating -- stashing stays malloc-free
  // once every slot warmed up.
  if (s.saved_count == s.saved.size()) s.saved.emplace_back();
  SavedVersion& sv = s.saved[s.saved_count++];
  sv.level = level;
  sv.existed = old_entry != nullptr;
  sv.version.ld.clear();
  sv.version.ea.clear();
  if (old_entry) {
    sv.version.level = old_entry->level;
    sv.version.ld.swap(old_entry->ld);
    sv.version.ea.swap(old_entry->ea);
  }
}

void IncrementalSourceDp::write_version(NodeId node, int level,
                                        const DeliveryFunction& f) {
  std::vector<Version>& vs = nodes_[node].versions;
  auto it = std::lower_bound(
      vs.begin(), vs.end(), level,
      [](const Version& v, int l) { return v.level < l; });
  if (it == vs.end() || it->level != level) {
    stash(node, level, nullptr);
    it = vs.insert(it, Version{});
  } else {
    stash(node, level, &*it);  // moves the old lanes into the overlay
  }
  it->level = level;
  it->ld.clear();
  it->ea.clear();
  it->ld.reserve(f.size());
  it->ea.reserve(f.size());
  for (const PathPair& p : f.pairs()) {
    it->ld.push_back(p.ld);
    it->ea.push_back(p.ea);
  }
  if (level > max_level_) max_level_ = level;
}

void IncrementalSourceDp::erase_exact_version(NodeId node, int level) {
  std::vector<Version>& vs = nodes_[node].versions;
  auto it = std::lower_bound(
      vs.begin(), vs.end(), level,
      [](const Version& v, int l) { return v.level < l; });
  if (it != vs.end() && it->level == level) {
    stash(node, level, &*it);
    vs.erase(it);
  }
}

void IncrementalSourceDp::bootstrap(const TemporalGraph& graph) {
  SingleSourceEngine eng(graph, source_, EngineMode::kPooled);
  int k = 0;
  while (k < cap_ && eng.step()) {
    ++k;
    // last_changed() lists exactly the nodes whose frontier grew at this
    // level -- the version-iff-productive invariant, straight from the
    // engine. Levels ascend, so each node's list stays sorted by plain
    // appends.
    for (const NodeId d : eng.last_changed()) {
      const FrontierView f = eng.frontier_view(d);
      Version v;
      v.level = k;
      v.ld.reserve(f.size());
      v.ea.reserve(f.size());
      for (std::size_t i = 0; i < f.size(); ++i) {
        v.ld.push_back(f.ld(i));
        v.ea.push_back(f.ea(i));
      }
      nodes_[d].versions.push_back(std::move(v));
    }
    max_level_ = k;
  }
}

bool IncrementalSourceDp::apply(const TemporalGraph& graph,
                                std::size_t old_count) {
  const std::span<const Contact> all = graph.contacts();
  const std::span<const Contact> batch = all.subspan(old_count);
  if (batch.empty()) return false;
  const bool directed = graph.directed();
  bool changed = false;

  for (NodeId d : touched_) {
    scratch_[d].touched = false;
    scratch_[d].saved_count = 0;
    scratch_[d].delta.clear();
    scratch_[d].next_delta.clear();
  }
  touched_.clear();
  delta_active_.clear();

  // Routes one candidate into `to`'s level-k working frontier, but only
  // materializes the scratch once a candidate actually survives: a pair
  // dominated by the base L'_{k-1} or by the pre-epoch L_k is dominated
  // by their Pareto merge too, so it cannot change the node's level-k
  // value. Nodes whose own level-(k-1) value changed still materialize
  // unconditionally (the delta carryover below); every other node has
  // L'_{k-1} == old L_{k-1}, whose merge with old L_k is old L_k itself,
  // so skipping the write-back leaves its version list exact.
  const auto offer_to = [&](NodeId to, int k, PathPair cand) {
    Scratch& s = scratch_[to];
    // Every version view is SoA, so the engine's shared probe applies.
    const auto dominated_in = [&](const FrontierView& v) {
      return frontier_dominates(v.soa_ld(), v.soa_ea(), v.size(), cand.ld,
                                cand.ea);
    };
    if (!s.active && (dominated_in(lookup(nodes_[to].versions, k - 1)) ||
                      dominated_in(lookup_original(to, k))))
      return;
    ensure_working(to, k).insert(cand);
  };

  // Extends L'_{k-1}(u) through one new contact window into `to`'s
  // working frontier, fired only when u's frontier changed at exactly
  // level k-1 (earlier versions already propagated through this window
  // at their own level + 1; see the quiescence argument in DESIGN.md §9).
  const auto fire_new_contact = [&](NodeId u, NodeId to, const Contact& c,
                                    int k) {
    const std::vector<Version>& vs = nodes_[u].versions;
    const auto it = std::lower_bound(
        vs.begin(), vs.end(), k - 1,
        [](const Version& v, int l) { return v.level < l; });
    if (it == vs.end() || it->level != k - 1) return;
    for_each_frontier_extension(
        FrontierView(it->ld.data(), it->ea.data(), it->ld.size()), c.begin,
        c.end, [&](PathPair cand) { offer_to(to, k, cand); });
  };

  for (int k = 1; k <= cap_; ++k) {
    // Two candidate feeds keep the level alive: pending deltas, and new
    // contacts touching any node versioned at exactly k-1 (bounded by
    // the deepest version, so the loop stops one past the last
    // productive level instead of sweeping to the cap).
    if (delta_active_.empty() && k > max_level_ + 1) break;
    level_active_.clear();

    for (NodeId u : delta_active_) {
      Scratch& su = scratch_[u];
      const std::vector<PathPair>& dp = su.delta;
      // Per delta pair, the ea of its successor in u's full L'_{k-1}
      // frontier (deltas are a subsequence of it; both ea-sorted, one
      // merge walk finds every successor). A window whose begin reaches
      // at or past that successor draws its wait candidate from the
      // successor chain -- pairs with larger ld whose extensions were
      // already absorbed the level after they entered, this epoch or an
      // earlier one -- so the delta's wait candidate is provably
      // dominated and is not offered at all (the engines' wait-candidate
      // suppression, carried across epochs by the same quiescence
      // argument fire_new_contact relies on).
      const FrontierView fp = lookup(nodes_[u].versions, k - 1);
      succ_ea_.resize(dp.size());
      for (std::size_t j = 0, pos = 0; j < dp.size(); ++j) {
        while (fp.ea(pos) < dp[j].ea) ++pos;
        succ_ea_[j] = pos + 1 < fp.size() ? fp.ea(pos + 1) : kInf;
      }
      // The first delta pair's ea is the earliest arrival; windows
      // ending before it are unusable, the same by-end skip the delta
      // engines make.
      const double min_ea = dp.front().ea;
      const std::span<const NodeContact> nbrs = graph.neighbors_by_end(u);
      auto it = std::lower_bound(
          nbrs.begin(), nbrs.end(), min_ea,
          [](const NodeContact& w, double t) { return w.end < t; });
      for (; it != nbrs.end(); ++it) {
        const NodeId to = it->to;
        const double wb = it->begin, we = it->end;
        // Same extension cases as for_each_frontier_extension, with a
        // linear scan (deltas hold a handful of pairs) and the wait
        // suppression above.
        std::size_t i = 0;
        while (i < dp.size() && dp[i].ea <= wb) ++i;
        if (i > 0 && wb < succ_ea_[i - 1])
          offer_to(to, k, {std::min(dp[i - 1].ld, we), wb});
        for (; i < dp.size() && dp[i].ea <= we; ++i) {
          offer_to(to, k, {std::min(dp[i].ld, we), dp[i].ea});
          if (dp[i].ld >= we) break;
        }
      }
      // The node's own carryover: even with no inbound candidates its
      // level-k value must absorb D_{k-1} (and re-diff against old L_k).
      ensure_working(u, k);
    }

    for (const Contact& c : batch) {
      fire_new_contact(c.u, c.v, c, k);
      if (!directed) fire_new_contact(c.v, c.u, c, k);
    }

    next_delta_active_.clear();
    for (NodeId d : level_active_) {
      Scratch& s = scratch_[d];
      const DeliveryFunction& f = s.working;
      // Version-iff-productive invariant: a version at k exists exactly
      // when L'_k != L'_{k-1}.
      if (!frontier_equals(f, lookup(nodes_[d].versions, k - 1)))
        write_version(d, k, f);
      else
        erase_exact_version(d, k);
      const FrontierView old_k = lookup_original(d, k);
      if (!frontier_equals(f, old_k)) changed = true;
      frontier_diff(f, old_k, s.next_delta);
      if (!s.next_delta.empty()) next_delta_active_.push_back(d);
      s.active = false;
    }
    for (NodeId u : delta_active_) scratch_[u].delta.clear();
    for (NodeId d : next_delta_active_) {
      scratch_[d].delta.swap(scratch_[d].next_delta);
      scratch_[d].next_delta.clear();
    }
    delta_active_.swap(next_delta_active_);
  }

  // Deletions can lower the deepest productive level (a new direct
  // contact may dominate away the only level-k change); recompute it
  // exactly so the reported fixpoint matches a cold run.
  max_level_ = 0;
  for (const NodeState& n : nodes_)
    if (!n.versions.empty() && n.versions.back().level > max_level_)
      max_level_ = n.versions.back().level;
  return changed;
}

IncrementalAllPairsEngine::IncrementalAllPairsEngine(
    std::size_t num_nodes, bool directed, IncrementalCdfOptions options)
    : graph_(num_nodes, {}, directed), options_(std::move(options)) {
  if (options_.grid.empty())
    throw std::invalid_argument("IncrementalAllPairsEngine: empty delay grid");
  if (options_.max_hops < 1)
    throw std::invalid_argument(
        "IncrementalAllPairsEngine: max_hops must be >= 1");
  cap_ = std::max(options_.max_hops, options_.max_levels);
  dps_.reserve(num_nodes);
  partials_.reserve(num_nodes);
  for (NodeId s = 0; s < num_nodes; ++s) {
    dps_.emplace_back(s, num_nodes, cap_);
    partials_.emplace_back(options_.grid, options_.max_hops);
  }
  dirty_.assign(num_nodes, 1);
  const std::size_t slots =
      num_nodes * (static_cast<std::size_t>(options_.max_hops) + 1);
  checkpoint_numerators_.resize(
      slots * MeasureCdfAccumulator(options_.grid).numerator_size());
  checkpoint_resume_.resize(slots * num_nodes);
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

  std::optional<ThreadPool> local_pool;
  if (options_.num_threads != 0) local_pool.emplace(options_.num_threads);
  ThreadPool& pool = local_pool ? *local_pool : shared_thread_pool();
  // Build (or grow) the indexes before fanning out, so the workers only
  // read them: append_contacts already merged the new windows in if they
  // existed, and this materializes them on the very first epoch.
  graph_.neighbor_offsets();

  pool.parallel_for(dps_.size(), [&](std::size_t i, unsigned) {
    if (old_count == 0) {
      // First (bulk) batch: seed each DP from a cold pooled run instead
      // of replaying the epoch machinery -- same frontiers, batch cost.
      dps_[i].bootstrap(graph_);
      dirty_[i] = 1;
    } else if (dps_[i].apply(graph_, old_count)) {
      dirty_[i] = 1;
    }
  });
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
  o.accumulation = CdfAccumulation::kDirect;
  return o;
}

bool IncrementalAllPairsEngine::windows_keep_checkpoints(
    const TimeWindows& w) const {
  // A NaN t_hi resolves to the graph's end time, which grows every
  // epoch. Every frontier pair's ld is the end of some contact, so a
  // final hi at or past the end time at the previous call clipped no
  // stored segment, and neither does a larger one: only the
  // denominators change, and integrate_lane adds those after the blocks.
  // (The live engine's windows come from t_lo/t_hi: always exactly one.)
  return have_windows_ && w[0].first == last_windows_[0].first &&
         w[0].second > last_windows_[0].second &&
         last_windows_[0].second >= last_end_time_;
}

void IncrementalAllPairsEngine::integrate_source(NodeId src,
                                                 const TimeWindows& w,
                                                 double capture_block,
                                                 SourceCdfWorker& worker) {
  const IncrementalSourceDp& dp = dps_[src];
  SourceCdfPartial& out = partials_[src];
  LaneScratch& scratch = worker.lane;
  const std::size_t n = graph_.num_nodes();
  // Levels past the source's deepest productive one read the fixpoint
  // frontier for EVERY destination, so the direct scheme would feed them
  // the exact addend sequence of level `last` -- integrate the productive
  // prefix once and copy that accumulator into the remaining hop budgets
  // (and, when the source converged within the budgets, the unbounded
  // lane). Bit-identical to integrating every lane.
  //
  // A lane's checkpoint slot always holds the same level (lane k-1 level
  // k, `unbounded` the cap), so a slot stays valid while its lane is a
  // copy: the settled prefix of that level's frontiers is final whether
  // or not it is integrated.
  const int deepest = std::max(dp.max_version_level(), 1);
  const int last = std::min(options_.max_hops, deepest);
  const std::size_t numerator_size = out.unbounded.numerator_size();
  const auto lane = [&](MeasureCdfAccumulator& acc, int index, int level) {
    scratch.frontiers.clear();
    for (NodeId dst = 0; dst < n; ++dst)
      if (dst != src) scratch.frontiers.push_back(dp.frontier_at(dst, level));
    const std::size_t slot =
        src * (static_cast<std::size_t>(options_.max_hops) + 1) +
        static_cast<std::size_t>(index);
    const LaneCheckpoint checkpoint{
        checkpoint_numerators_.data() + slot * numerator_size,
        checkpoint_resume_.data() + slot * n};
    worker.stats.cdf_pairs_integrated +=
        integrate_lane(w, scratch, acc, &checkpoint, capture_block);
  };
  for (int k = 1; k <= last; ++k) lane(out.by_hops[k - 1], k - 1, k);
  for (int k = last + 1; k <= options_.max_hops; ++k)
    out.by_hops[k - 1] = out.by_hops[last - 1];
  if (deepest > last)
    lane(out.unbounded, options_.max_hops, cap_);
  else
    out.unbounded = out.by_hops[last - 1];
  // Same fixpoint a cold bounded run reports: the true level when it is
  // observable below the cap, the max_levels+1 "not converged" sentinel
  // otherwise.
  out.fixpoint_hops = dp.max_version_level() < cap_ ? dp.max_version_level()
                                                    : options_.max_levels + 1;
  out.converged = out.fixpoint_hops <= options_.max_levels;
}

DelayCdfResult IncrementalAllPairsEngine::all_pairs() {
  const DelayCdfOptions o = cdf_options();
  const TimeWindows w = resolve_cdf_windows(graph_, o);
  // Fixed explicit windows keep clean sources cached across epochs. A
  // NaN window resolves to the growing trace span: every source's
  // denominators move, so every source re-integrates, but from its
  // checkpoints (windows_keep_checkpoints).
  if (!have_windows_ || w != last_windows_) {
    std::fill(dirty_.begin(), dirty_.end(), 1);
    if (!windows_keep_checkpoints(w)) {
      std::fill(checkpoint_numerators_.begin(), checkpoint_numerators_.end(),
                0.0);
      std::fill(checkpoint_resume_.begin(), checkpoint_resume_.end(), 0u);
    }
    last_windows_ = w;
    have_windows_ = true;
  }
  last_end_time_ = graph_.end_time();

  // Addends below the watermark's day block are final (integrate_lane).
  // Clean sources fold their kept partial; the scratch goes unused.
  const double capture_block = time_block(watermark());
  return fold_sources(
      dps_.size(), o, /*incremental=*/false,
      [&](std::size_t i, SourceCdfWorker& worker, SourceCdfPartial&,
          OrderedCdfFolder& folder) {
        if (dirty_[i]) {
          integrate_source(static_cast<NodeId>(i), w, capture_block, worker);
          dirty_[i] = 0;
        }
        folder.submit(i, partials_[i]);
      });
}

}  // namespace odtn
