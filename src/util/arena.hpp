// PairArena: a bump (slab) allocator for (LD, EA) path-pair storage in
// structure-of-arrays form, the store every engine keeps its pairs in.
//
// The pooled propagation engine (EngineMode::kPooled) keeps EVERY pair of
// one SingleSourceEngine in one arena: two contiguous double arrays (ld[]
// and ea[], optionally a third aux[] lane for per-pair metadata such as
// successor EAs in delta storage) addressed by (offset, length) spans.
// Allocation is a bump-pointer increment; superseded frontier versions are
// never freed individually (they stay addressable as pre-change snapshots
// until the next reset), and reset() recycles the full capacity for the
// next source, so the steady-state all-pairs loop performs zero heap
// allocations once the high-water capacity has been reached. The live
// engine keeps one arena per source across epochs and compacts it.
//
// Growth moves the arrays, so raw pointers obtained via ld()/ea()/aux()
// are invalidated by allocate(); spans (offsets) stay valid forever.
// Callers re-fetch base pointers after every allocate(). The lanes are
// plain std::vector<double>; spans are packed back to back, with no
// alignment padding between them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace odtn {

/// A (offset, length) window into a PairArena's parallel arrays. Offsets
/// survive arena growth; 32-bit fields keep per-node span tables compact
/// (2^32 pairs = 64 GiB of ld+ea storage, far beyond any single-source
/// workspace).
struct PairSpan {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;

  bool empty() const noexcept { return length == 0; }
};

class PairArena {
 public:
  /// `with_aux` adds a third parallel double lane (aux()), grown and
  /// recycled in lockstep with ld/ea.
  explicit PairArena(bool with_aux = false) noexcept : with_aux_(with_aux) {}

  PairArena(const PairArena&) = delete;
  PairArena& operator=(const PairArena&) = delete;
  PairArena(PairArena&&) noexcept = default;
  PairArena& operator=(PairArena&&) noexcept = default;

  /// Reserves `n` contiguous pairs right after the previous allocation
  /// and returns their offset. Amortized O(1); grows geometrically when
  /// the slab is exhausted (the only code path that touches the heap).
  std::size_t allocate(std::size_t n) {
    const std::size_t offset = size_;
    size_ += n;
    if (size_ > ld_.size()) grow(size_);
    if (size_ > peak_pairs_) peak_pairs_ = size_;
    return offset;
  }

  /// Rolls the bump pointer back to `offset`, releasing every allocation
  /// made after it. Used to discard a speculative merge output when the
  /// batch turned out to be fully dominated. Capacity is unaffected.
  void truncate(std::size_t offset) noexcept { size_ = offset; }

  /// Releases every pair but keeps the capacity: the next source's run
  /// re-fills the same slabs without allocating.
  void reset() noexcept { size_ = 0; }

  /// Pairs currently allocated (the bump pointer).
  std::size_t size() const noexcept { return size_; }

  /// Pairs the slabs can hold before the next growth.
  std::size_t capacity() const noexcept { return ld_.size(); }

  /// High-water mark of size() over the arena's lifetime.
  std::size_t peak_pairs() const noexcept { return peak_pairs_; }

  /// Bytes committed to the slabs (capacity across all lanes). Monotone.
  std::size_t capacity_bytes() const noexcept {
    return capacity() * sizeof(double) * (with_aux_ ? 3 : 2);
  }

  double* ld() noexcept { return ld_.data(); }
  const double* ld() const noexcept { return ld_.data(); }
  double* ea() noexcept { return ea_.data(); }
  const double* ea() const noexcept { return ea_.data(); }
  double* aux() noexcept { return aux_.data(); }
  const double* aux() const noexcept { return aux_.data(); }

 private:
  void grow(std::size_t needed);

  // Each lane's size() is the arena's capacity; pairs past size_ are
  // spare slab, not live data.
  std::vector<double> ld_;
  std::vector<double> ea_;
  std::vector<double> aux_;  // empty unless with_aux_
  std::size_t size_ = 0;
  std::size_t peak_pairs_ = 0;
  bool with_aux_ = false;
};

}  // namespace odtn
