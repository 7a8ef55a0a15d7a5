#include "core/frontier_kernels.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace odtn {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

std::size_t prune_candidate_batch(PathPair* batch, std::size_t m) {
  if (m <= 1) return m;
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

FrontierMerge merge_frontier(const double* f_ld, const double* f_ea,
                             std::size_t fn, const PathPair* cand,
                             std::size_t m, double* out_ld, double* out_ea,
                             double* delta_ld, double* delta_ea,
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

}  // namespace odtn
