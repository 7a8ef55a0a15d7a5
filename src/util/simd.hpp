// Runtime-dispatched SIMD primitive for the delay-CDF integration.
//
// SegmentBatcher (stats/measure_cdf.hpp) pairs the grid searches of two
// consecutive delivery segments into one four-key lower_bound. This
// header exposes that search behind a function-pointer table selected
// ONCE at startup from CPUID (AVX2 > scalar), so the rest of the codebase
// stays ISA-agnostic and the build needs no global -march flags: only the
// AVX2 translation unit is compiled with -mavx2.
//
// Contract: the AVX2 variant is BIT-IDENTICAL to the scalar reference on
// NaN-free input -- it only evaluates exact comparisons and indices,
// never arithmetic, so there is no rounding to diverge. This is enforced
// by the parity suite in tests/test_frontier_kernels.cpp and by
// `odtn_fuzz --kernel`, which differential-tests the CPU-supported
// variant against scalar.
//
// The active level can be forced with the ODTN_SIMD environment variable
// ("scalar" or "avx2", clamped to what the CPU supports) or
// programmatically with set_level() (tests / fuzzer). The level lives in
// an atomic, so flipping it between single-threaded test phases is safe;
// it is not intended to be raced against in-flight kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace odtn::simd {

/// Instruction-set tiers, ordered: a CPU supporting a level supports all
/// lower ones. kScalar is the mandatory fallback and always available.
enum class Level : int { kScalar = 0, kAvx2 = 1 };

/// Flat primitive table. All functions are noexcept and never read out of
/// bounds (vector chunks stay fully inside [0, n); tails fall back to
/// scalar element steps).
struct Ops {
  /// Four simultaneous std::lower_bound probes over one ascending grid:
  /// out[k] = index of the first grid element >= keys[k]. The vector
  /// variant counts elements below the key with predictable compare
  /// sweeps on small grids (the delay-CDF regime) and falls back to
  /// branchless halving searches on large ones; results are exactly
  /// std::lower_bound's for every key (including +/-infinity and keys
  /// equal to grid values).
  void (*lower_bound4)(const double* grid, std::size_t n,
                       const double* keys, std::uint32_t* out) noexcept;

  /// Human-readable level name ("scalar", "avx2").
  const char* name;
};

/// Highest level this CPU supports (scalar when not x86).
Level best_supported() noexcept;

/// True iff `level` can execute on this CPU. kScalar is always true.
bool cpu_supports(Level level) noexcept;

/// The level the dispatched kernels currently use. Initialized once, on
/// first use, to best_supported() clamped by the ODTN_SIMD env var.
Level active_level() noexcept;

/// Forces the active level. Returns false (and changes nothing) when the
/// CPU does not support it. Test/fuzzer hook.
bool set_level(Level level) noexcept;

/// Primitive table of the active level.
const Ops& ops() noexcept;

/// Primitive table of a specific level; `level` must be CPU-supported.
const Ops& ops_for(Level level) noexcept;

/// "scalar" or "avx2".
const char* level_name(Level level) noexcept;

/// Parses a level name (as accepted by ODTN_SIMD). Returns false on an
/// unknown name.
bool parse_level(std::string_view text, Level& out) noexcept;

}  // namespace odtn::simd
