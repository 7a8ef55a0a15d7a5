// PairArena: a bump (slab) allocator for (LD, EA) path-pair storage in
// structure-of-arrays form.
//
// The pooled propagation engine (EngineMode::kPooled) keeps EVERY pair of
// one SingleSourceEngine -- all per-node Pareto frontiers, plus their
// superseded versions -- in one arena: two contiguous double arrays
// (ld[] and ea[], optionally a third aux[] lane for per-pair metadata such
// as successor EAs in delta storage) addressed by (offset, length) spans.
// Allocation is a bump-pointer increment; superseded frontier versions are
// never freed individually (they stay addressable as pre-change snapshots
// until the next reset), and reset() recycles the full capacity for the
// next source, so the steady-state all-pairs loop performs zero heap
// allocations once the high-water capacity has been reached.
//
// Alignment contract: every lane base is 32-byte aligned and allocate()
// rounds the bump pointer up to a multiple of 4 doubles, so ld()+offset
// and ea()+offset of EVERY span start on a 32-byte boundary (whole
// 4-double blocks); no current kernel depends on it, the frontier
// kernels are scalar. The padding pairs between spans are never
// addressed. truncate()/reset() only move the bump pointer backward to
// previously returned (hence aligned) offsets, so the guarantee survives
// recycle cycles -- gated by tests/test_arena.cpp.
//
// Growth moves the arrays, so raw pointers obtained via ld()/ea()/aux()
// are invalidated by allocate(); spans (offsets) stay valid forever.
// Callers re-fetch base pointers after every allocate().
#pragma once

#include <cstddef>
#include <cstdint>

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
  /// Lane bases and span starts are aligned to this many bytes.
  static constexpr std::size_t kLaneAlignment = 32;
  /// allocate() rounds offsets up to a multiple of this many pairs.
  static constexpr std::size_t kSpanAlignPairs =
      kLaneAlignment / sizeof(double);

  /// `with_aux` adds a third parallel double lane (aux()), grown and
  /// recycled in lockstep with ld/ea.
  explicit PairArena(bool with_aux = false) noexcept : with_aux_(with_aux) {}

  PairArena(const PairArena&) = delete;
  PairArena& operator=(const PairArena&) = delete;
  PairArena(PairArena&& other) noexcept { move_from(other); }
  PairArena& operator=(PairArena&& other) noexcept {
    if (this != &other) {
      release();
      move_from(other);
    }
    return *this;
  }
  ~PairArena() { release(); }

  /// Reserves `n` contiguous pairs and returns their offset (always a
  /// multiple of kSpanAlignPairs -- see the alignment contract above).
  /// Amortized O(1); grows geometrically when the slab is exhausted (the
  /// only code path that touches the heap).
  std::size_t allocate(std::size_t n) {
    size_ = (size_ + kSpanAlignPairs - 1) & ~(kSpanAlignPairs - 1);
    const std::size_t offset = size_;
    size_ += n;
    if (size_ > cap_) grow(size_);
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

  /// Pairs currently allocated (the bump pointer), including alignment
  /// padding between spans.
  std::size_t size() const noexcept { return size_; }

  /// Pairs the slabs can hold before the next growth.
  std::size_t capacity() const noexcept { return cap_; }

  /// High-water mark of size() over the arena's lifetime.
  std::size_t peak_pairs() const noexcept { return peak_pairs_; }

  /// Bytes committed to the slabs (capacity across all lanes). Monotone.
  std::size_t capacity_bytes() const noexcept {
    return cap_ * sizeof(double) * (with_aux_ ? 3 : 2);
  }

  double* ld() noexcept { return ld_; }
  const double* ld() const noexcept { return ld_; }
  double* ea() noexcept { return ea_; }
  const double* ea() const noexcept { return ea_; }
  double* aux() noexcept { return aux_; }
  const double* aux() const noexcept { return aux_; }

 private:
  void grow(std::size_t needed);
  void release() noexcept;
  void move_from(PairArena& other) noexcept;

  double* ld_ = nullptr;
  double* ea_ = nullptr;
  double* aux_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t size_ = 0;
  std::size_t peak_pairs_ = 0;
  bool with_aux_ = false;
};

}  // namespace odtn
