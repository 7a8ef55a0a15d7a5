// AVX2 primitive table. This translation unit is compiled with -mavx2
// (see src/CMakeLists.txt) and is only ever entered through the dispatch
// table after a CPUID check, so no other TU needs arch flags.
//
// The sweep processes full 4-lane chunks strictly inside [0, n) and
// finishes with scalar element steps -- no over-reads, so the variant is
// clean under ASan. All comparisons are exact (ordered, quiet), so
// results are bit-identical to the scalar reference on NaN-free input.

#include <immintrin.h>

#include <algorithm>

#include "util/simd.hpp"

namespace odtn::simd {

namespace {

void lower_bound4_avx2(const double* grid, std::size_t n, const double* keys,
                       std::uint32_t* out) noexcept {
  if (n <= 96) {
    // Small grids -- the delay-CDF regime, a few dozen log-spaced bins:
    // on an ascending grid the lower_bound index equals the count of
    // elements strictly below the key. One sweep serves all four keys
    // (each chunk is loaded once and compared against every key), and
    // the sweep stops as soon as a chunk holds nothing below the LARGEST
    // key -- on an ascending grid no later element can count either.
    // Delay keys cluster at the low end of the log grid, so the early
    // exit usually fires after a few chunks; this beats both the branchy
    // binary search (one mispredict per level) and a gathered branchless
    // one (gathers cost more than the whole sweep here).
    const double kmax = std::max(std::max(keys[0], keys[1]),
                                 std::max(keys[2], keys[3]));
    const __m256d vmax = _mm256_set1_pd(kmax);
    const __m256d k0 = _mm256_set1_pd(keys[0]);
    const __m256d k1 = _mm256_set1_pd(keys[1]);
    const __m256d k2 = _mm256_set1_pd(keys[2]);
    const __m256d k3 = _mm256_set1_pd(keys[3]);
    __m256i a0 = _mm256_setzero_si256(), a1 = a0, a2 = a0, a3 = a0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d g = _mm256_loadu_pd(grid + i);
      a0 = _mm256_sub_epi64(a0,
                            _mm256_castpd_si256(_mm256_cmp_pd(g, k0, _CMP_LT_OQ)));
      a1 = _mm256_sub_epi64(a1,
                            _mm256_castpd_si256(_mm256_cmp_pd(g, k1, _CMP_LT_OQ)));
      a2 = _mm256_sub_epi64(a2,
                            _mm256_castpd_si256(_mm256_cmp_pd(g, k2, _CMP_LT_OQ)));
      a3 = _mm256_sub_epi64(a3,
                            _mm256_castpd_si256(_mm256_cmp_pd(g, k3, _CMP_LT_OQ)));
      if (_mm256_movemask_pd(_mm256_cmp_pd(g, vmax, _CMP_LT_OQ)) != 0xF) {
        i = n;  // chunk reached the largest key: later elements count 0
        break;
      }
    }
    // Horizontal reduction of the four per-key lane counters into
    // [c0, c1, c2, c3] with two unpack+add rounds and one lane swap.
    const __m256i s01 = _mm256_add_epi64(_mm256_unpacklo_epi64(a0, a1),
                                         _mm256_unpackhi_epi64(a0, a1));
    const __m256i s23 = _mm256_add_epi64(_mm256_unpacklo_epi64(a2, a3),
                                         _mm256_unpackhi_epi64(a2, a3));
    const __m256i c = _mm256_add_epi64(_mm256_permute2x128_si256(s01, s23, 0x20),
                                       _mm256_permute2x128_si256(s01, s23, 0x31));
    alignas(32) long long cnt[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(cnt), c);
    for (; i < n && grid[i] < kmax; ++i) {
      cnt[0] += grid[i] < keys[0];
      cnt[1] += grid[i] < keys[1];
      cnt[2] += grid[i] < keys[2];
      cnt[3] += grid[i] < keys[3];
    }
    out[0] = static_cast<std::uint32_t>(cnt[0]);
    out[1] = static_cast<std::uint32_t>(cnt[1]);
    out[2] = static_cast<std::uint32_t>(cnt[2]);
    out[3] = static_cast<std::uint32_t>(cnt[3]);
    return;
  }
  // Large grids: four independent branchless halving searches; their
  // dependency chains overlap, and L1 loads beat gathers.
  for (int k = 0; k < 4; ++k) {
    std::size_t base = 0, len = n;
    while (len > 1) {
      const std::size_t half = len / 2;
      if (grid[base + half] < keys[k]) base += half;
      len -= half;
    }
    out[k] = static_cast<std::uint32_t>(base +
                                        (grid[base] < keys[k] ? 1u : 0u));
  }
}

}  // namespace

extern const Ops kAvx2Ops;
const Ops kAvx2Ops = {lower_bound4_avx2, "avx2"};

}  // namespace odtn::simd
