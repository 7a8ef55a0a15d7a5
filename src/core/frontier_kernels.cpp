#include "core/frontier_kernels.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/simd.hpp"

namespace odtn {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Shared by the scalar reference and the dispatched kernel: the collapse
// pass is where the variants diverge, the sort is common.
void sort_candidate_batch(PathPair* batch, std::size_t m) {
  const auto before = [](const PathPair& a, const PathPair& b) {
    return a.ld != b.ld ? a.ld < b.ld : a.ea < b.ea;
  };
  if (m <= 24) {
    // Typical batches hold a handful of candidates; insertion sort beats
    // std::sort's dispatch overhead by a wide margin there.
    for (std::size_t i = 1; i < m; ++i) {
      const PathPair key = batch[i];
      std::size_t k = i;
      for (; k > 0 && before(key, batch[k - 1]); --k) batch[k] = batch[k - 1];
      batch[k] = key;
    }
  } else {
    std::sort(batch, batch + m, before);
  }
}

// The collapse half of pruning: `batch[0, m)` is already sorted by
// (ld, ea); collapses it to its Pareto front in place and returns the
// pruned length.
std::size_t collapse_sorted_batch_scalar(PathPair* batch, std::size_t m) {
  // One ascending pass: at equal ld only the first (minimal-ea) entry is
  // considered, and a kept entry evicts every earlier survivor it
  // dominates (smaller-or-equal ld with larger-or-equal ea) -- a classic
  // monotone stack, O(m) after the sort.
  std::size_t out = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (i > 0 && batch[i].ld == batch[i - 1].ld) continue;
    while (out > 0 && batch[out - 1].ea >= batch[i].ea) --out;
    batch[out++] = batch[i];
  }
  return out;
}

// Dispatched collapse: bit-identical to the scalar reference at every
// level (tests/test_frontier_kernels.cpp SimdParity, `odtn_fuzz
// --kernel`).
std::size_t collapse_sorted_batch(PathPair* batch, std::size_t m) {
  if (simd::active_level() == simd::Level::kScalar)
    return collapse_sorted_batch_scalar(batch, m);
  // Same monotone stack, but long pop scans -- count how many survivors
  // the new entry evicts -- run as one vector tail count over the
  // stack's ea lane (stride 2: the stack is AoS). The surviving stack's
  // ea is STRICTLY ASCENDING (each push first evicts everything at or
  // above its own ea), so the evicted set is always a suffix of the
  // stack and one probe 16 elements down classifies the run: if that
  // element qualifies, the top 16 all do and pop for free, and the
  // vector scan only walks the remainder. Elements that evict nothing
  // (the common case) pay exactly the scalar compare -- no bookkeeping.
  // Both paths pop the same count, so the result is bit-identical to
  // the scalar reference.
  const simd::Ops& ops = simd::ops();
  std::size_t out = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (i > 0 && batch[i].ld == batch[i - 1].ld) continue;
    const double ea = batch[i].ea;
    if (out > 0 && batch[out - 1].ea >= ea) {
      if (out >= 16 && batch[out - 16].ea >= ea) {
        out -= 16;
        out -= ops.count_tail_ge_stride2(&batch[0].ea, out, ea);
      } else {
        do {
          --out;
        } while (out > 0 && batch[out - 1].ea >= ea);
      }
    }
    batch[out++] = batch[i];
  }
  return out;
}

}  // namespace

std::size_t prune_candidate_batch_scalar(PathPair* batch, std::size_t m) {
  if (m <= 1) return m;
  sort_candidate_batch(batch, m);
  return collapse_sorted_batch_scalar(batch, m);
}

std::size_t prune_candidate_batch(PathPair* batch, std::size_t m) {
  if (m <= 1) return m;
  sort_candidate_batch(batch, m);
  return collapse_sorted_batch(batch, m);
}

FrontierMerge merge_frontier_scalar(const double* f_ld, const double* f_ea,
                                    std::size_t fn, const PathPair* cand,
                                    std::size_t m, double* out_ld,
                                    double* out_ea, double* delta_ld,
                                    double* delta_ea,
                                    double* delta_succ) noexcept {
  // Descending-LD walk over both inputs with a running minimum EA: an
  // element survives iff its ea is strictly below every ea seen at a
  // larger (or tied) ld. At an LD tie the smaller-ea element goes first
  // so it evicts the other; at a full tie the frontier's copy goes first
  // so an exact-duplicate candidate is dropped and NOT reported as new
  // (matching DeliveryFunction::insert returning false).
  std::ptrdiff_t i = static_cast<std::ptrdiff_t>(fn) - 1;
  std::ptrdiff_t j = static_cast<std::ptrdiff_t>(m) - 1;
  std::size_t wr = fn + m;   // merged output write cursor (exclusive)
  std::size_t dwr = m;       // delta output write cursor (exclusive)
  double min_ea = kInf;      // min ea among kept elements so far
  while (i >= 0 || j >= 0) {
    bool take_f;
    if (j < 0) {
      // Candidates exhausted. Old pairs still above the running minimum
      // are dominated; the first survivor ends the walk, because every
      // pair below it has strictly smaller ea yet (both lanes of a
      // Pareto frontier co-ascend) and survives verbatim -- the rest of
      // the frontier is bulk-copied after the loop.
      if (f_ea[i] >= min_ea) {
        --i;
        continue;
      }
      break;
    } else if (i < 0) {
      take_f = false;
    } else if (f_ld[i] != cand[j].ld) {
      take_f = f_ld[i] > cand[j].ld;
    } else {
      take_f = f_ea[i] <= cand[j].ea;
    }
    double ld, ea;
    if (take_f) {
      ld = f_ld[i];
      ea = f_ea[i];
      --i;
    } else {
      ld = cand[j].ld;
      ea = cand[j].ea;
      --j;
    }
    if (ea < min_ea) {
      // Kept. The element kept just before this one (one step up the
      // descending walk) is its successor in the ascending frontier;
      // its ea is exactly the wait-candidate suppression bound.
      if (!take_f) {
        --dwr;
        delta_ld[dwr] = ld;
        delta_ea[dwr] = ea;
        delta_succ[dwr] = min_ea;
      }
      min_ea = ea;
      --wr;
      out_ld[wr] = ld;
      out_ea[wr] = ea;
    }
  }
  if (i >= 0) {
    // Untouched survivor prefix f[0 .. i]: one copy instead of the
    // element-wise walk. This is the publish fast path -- candidates
    // mostly land near the top of the frontier (later paths depart and
    // arrive later), leaving the bulk of it byte-identical.
    const std::size_t blk = static_cast<std::size_t>(i) + 1;
    wr -= blk;
    std::memcpy(out_ld + wr, f_ld, blk * sizeof(double));
    std::memcpy(out_ea + wr, f_ea, blk * sizeof(double));
  }
  return {fn + m - wr, m - dwr};
}

namespace {

// Run-structured variant of the descending walk: the frontier elements
// visited between two consecutive candidates form one contiguous run, in
// which the dominated elements (ea >= the running minimum) are exactly a
// prefix of the descending order -- f_ea descends along the walk, and
// after the first survivor the minimum tracks f_ea, so everything below
// survives. Each run therefore reduces to a binary search for its
// boundary, one vector tail count for the dominated part, and one bulk
// copy of the survivors. Pop counts, kept sets, delta entries and
// successor EAs coincide with the scalar walk element for element, so
// the output is bit-identical.
FrontierMerge merge_frontier_runs(const simd::Ops& ops, const double* f_ld,
                                  const double* f_ea, std::size_t fn,
                                  const PathPair* cand, std::size_t m,
                                  double* out_ld, double* out_ea,
                                  double* delta_ld, double* delta_ea,
                                  double* delta_succ) noexcept {
  std::ptrdiff_t i = static_cast<std::ptrdiff_t>(fn) - 1;
  std::size_t wr = fn + m;
  std::size_t dwr = m;
  double min_ea = kInf;
  for (std::ptrdiff_t j = static_cast<std::ptrdiff_t>(m) - 1; j >= 0; --j) {
    const double c_ld = cand[j].ld;
    const double c_ea = cand[j].ea;
    if (i >= 0) {
      // The run visited before this candidate: every frontier index with
      // ld > c_ld, plus the one possible ld-tie element when the tie
      // resolves in the frontier's favour (its ea no larger).
      const std::size_t fcount = static_cast<std::size_t>(i) + 1;
      const std::size_t ge = frontier_lower_bound(f_ld, fcount, c_ld);
      std::size_t rs = ge;
      if (ge < fcount && f_ld[ge] == c_ld && f_ea[ge] > c_ea) rs = ge + 1;
      const std::size_t run_len = fcount - rs;
      if (run_len > 0) {
        const std::size_t skip = ops.count_tail_ge(f_ea + rs, run_len, min_ea);
        const std::size_t keep = run_len - skip;
        if (keep > 0) {
          wr -= keep;
          std::memcpy(out_ld + wr, f_ld + rs, keep * sizeof(double));
          std::memcpy(out_ea + wr, f_ea + rs, keep * sizeof(double));
          min_ea = f_ea[rs];
        }
        i = static_cast<std::ptrdiff_t>(rs) - 1;
      }
    }
    if (c_ea < min_ea) {
      --dwr;
      delta_ld[dwr] = c_ld;
      delta_ea[dwr] = c_ea;
      delta_succ[dwr] = min_ea;
      min_ea = c_ea;
      --wr;
      out_ld[wr] = c_ld;
      out_ea[wr] = c_ea;
    }
  }
  if (i >= 0) {
    // Final drain, same shape as a run with no candidate below it.
    const std::size_t fcount = static_cast<std::size_t>(i) + 1;
    const std::size_t skip = ops.count_tail_ge(f_ea, fcount, min_ea);
    const std::size_t keep = fcount - skip;
    if (keep > 0) {
      wr -= keep;
      std::memcpy(out_ld + wr, f_ld, keep * sizeof(double));
      std::memcpy(out_ea + wr, f_ea, keep * sizeof(double));
    }
  }
  return {fn + m - wr, m - dwr};
}

}  // namespace

FrontierMerge merge_frontier(const double* f_ld, const double* f_ea,
                             std::size_t fn, const PathPair* cand,
                             std::size_t m, double* out_ld, double* out_ea,
                             double* delta_ld, double* delta_ea,
                             double* delta_succ) noexcept {
  if (simd::active_level() == simd::Level::kScalar)
    return merge_frontier_scalar(f_ld, f_ea, fn, cand, m, out_ld, out_ea,
                                 delta_ld, delta_ea, delta_succ);
  return merge_frontier_runs(simd::ops(), f_ld, f_ea, fn, cand, m, out_ld,
                             out_ea, delta_ld, delta_ea, delta_succ);
}

}  // namespace odtn
