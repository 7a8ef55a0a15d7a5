// PairArena bump-allocation and recycling contract (util/arena.hpp):
// spans are packed back to back, contents survive growth, truncate()
// rolls the bump pointer back, reset() recycles the capacity, and moves
// hand the lanes over.
#include <gtest/gtest.h>

#include <cstddef>
#include <utility>

#include "util/arena.hpp"
#include "util/rng.hpp"

namespace odtn {
namespace {

TEST(PairArena, SpansPackAcrossTruncateAndRecycleCycles) {
  PairArena arena(/*with_aux=*/true);
  Rng rng = Rng::keyed(0xA11A, 0);
  for (int cycle = 0; cycle < 6; ++cycle) {
    std::size_t expected = 0;
    // Odd sizes, and big ones that force growth.
    for (int i = 0; i < 40; ++i) {
      const std::size_t n = 1 + rng.below(97);
      const std::size_t off = arena.allocate(n);
      EXPECT_EQ(off, expected);
      expected += n;
      arena.ld()[off + n - 1] = 1.0;
      arena.aux()[off + n - 1] = 2.0;
      if (rng.bernoulli(0.2)) {
        // Speculative allocation rolled back: the next span reuses it.
        arena.truncate(off);
        expected = off;
      }
      EXPECT_EQ(arena.size(), expected);
    }
    EXPECT_GE(arena.capacity(), arena.size());
    arena.reset();
    EXPECT_EQ(arena.size(), 0u);
  }
}

TEST(PairArena, GrowthPreservesContents) {
  PairArena arena;
  const std::size_t first = arena.allocate(10);
  for (std::size_t i = 0; i < 10; ++i) {
    arena.ld()[first + i] = 100.0 + static_cast<double>(i);
    arena.ea()[first + i] = 200.0 + static_cast<double>(i);
  }
  // Blow far past the current capacity so the lanes must move.
  const std::size_t big = arena.allocate(8192);
  EXPECT_EQ(big, 10u);
  EXPECT_GE(arena.capacity(), 8202u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(arena.ld()[first + i], 100.0 + static_cast<double>(i));
    EXPECT_EQ(arena.ea()[first + i], 200.0 + static_cast<double>(i));
  }
}

TEST(PairArena, RecycledCapacityDoesNotRegrow) {
  PairArena arena;
  for (int i = 0; i < 20; ++i) arena.allocate(50);
  const std::size_t cap = arena.capacity();
  const std::size_t bytes = arena.capacity_bytes();
  for (int cycle = 0; cycle < 4; ++cycle) {
    arena.reset();
    for (int i = 0; i < 20; ++i)
      EXPECT_EQ(arena.allocate(50), static_cast<std::size_t>(50 * i));
  }
  EXPECT_EQ(arena.capacity(), cap);
  EXPECT_EQ(arena.capacity_bytes(), bytes);
}

TEST(PairArena, PeakTracksHighWater) {
  PairArena arena;
  const std::size_t a = arena.allocate(5);
  EXPECT_EQ(a, 0u);
  const std::size_t b = arena.allocate(3);
  EXPECT_EQ(b, 5u);  // no padding between spans
  EXPECT_EQ(arena.size(), 8u);
  EXPECT_EQ(arena.peak_pairs(), 8u);
  arena.reset();
  EXPECT_EQ(arena.peak_pairs(), 8u);
}

TEST(PairArena, MoveTransfersLanesAndEmptiesSource) {
  PairArena src;
  const std::size_t off = src.allocate(16);
  src.ld()[off] = 42.0;
  const double* lanes = src.ld();
  PairArena dst = std::move(src);
  EXPECT_EQ(dst.ld(), lanes);
  EXPECT_EQ(dst.ld()[off], 42.0);
  EXPECT_EQ(dst.size(), 16u);
  EXPECT_EQ(src.capacity(), 0u);  // NOLINT(bugprone-use-after-move)
  // The moved-to arena keeps bump-allocating after the moved span.
  EXPECT_EQ(dst.allocate(7), 16u);
}

}  // namespace
}  // namespace odtn
