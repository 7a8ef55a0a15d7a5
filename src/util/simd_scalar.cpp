// Scalar reference table: the mandatory fallback the AVX2 variant is
// differential-tested against -- a plain std::lower_bound loop per key.

#include "util/simd.hpp"

namespace odtn::simd {

namespace {

void lower_bound4_scalar(const double* grid, std::size_t n,
                         const double* keys, std::uint32_t* out) noexcept {
  for (int k = 0; k < 4; ++k) {
    const double key = keys[k];
    std::size_t lo = 0, len = n;
    while (len > 0) {
      const std::size_t half = len / 2;
      if (grid[lo + half] < key) {
        lo += half + 1;
        len -= half + 1;
      } else {
        len = half;
      }
    }
    out[k] = static_cast<std::uint32_t>(lo);
  }
}

}  // namespace

extern const Ops kScalarOps;
const Ops kScalarOps = {lower_bound4_scalar, "scalar"};

}  // namespace odtn::simd
