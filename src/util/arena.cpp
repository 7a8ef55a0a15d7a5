#include "util/arena.hpp"

#include <algorithm>

namespace odtn {

void PairArena::grow(std::size_t needed) {
  // Geometric growth keeps the amortized allocate() cost constant; the
  // floor avoids a flurry of tiny reallocations while the first source
  // warms the slab up. New pairs are zeroed, as resize() value-
  // initializes them.
  constexpr std::size_t kMinCapacity = 256;
  const std::size_t cap = std::max({needed, 2 * ld_.size(), kMinCapacity});
  ld_.resize(cap);
  ea_.resize(cap);
  if (with_aux_) aux_.resize(cap);
}

}  // namespace odtn
