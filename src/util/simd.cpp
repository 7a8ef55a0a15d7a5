// Level detection and dispatch state for the SIMD primitive tables.
//
// The per-ISA tables live in their own translation units (simd_scalar.cpp,
// simd_avx2.cpp) because the AVX2 one must be compiled with -mavx2 while
// the rest of the library is not; this file only picks between them.

#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>

namespace odtn::simd {

extern const Ops kScalarOps;
#if defined(ODTN_SIMD_X86)
extern const Ops kAvx2Ops;
#endif

namespace {

const Ops* table_for(Level level) noexcept {
#if defined(ODTN_SIMD_X86)
  if (level == Level::kAvx2) return &kAvx2Ops;
#else
  (void)level;
#endif
  return &kScalarOps;
}

Level detect_best() noexcept {
#if defined(ODTN_SIMD_X86)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

Level initial_level() noexcept {
  Level level = detect_best();
  if (const char* env = std::getenv("ODTN_SIMD")) {
    Level want;
    if (parse_level(env, want)) {
      // Clamp an over-eager request to what the CPU can run; forcing a
      // LOWER level (the CI fallback-coverage job's ODTN_SIMD=scalar)
      // always succeeds.
      if (static_cast<int>(want) < static_cast<int>(level)) level = want;
    }
  }
  return level;
}

std::atomic<int>& active_slot() noexcept {
  static std::atomic<int> slot{static_cast<int>(initial_level())};
  return slot;
}

}  // namespace

Level best_supported() noexcept {
  static const Level best = detect_best();
  return best;
}

bool cpu_supports(Level level) noexcept {
  return static_cast<int>(level) <= static_cast<int>(best_supported());
}

Level active_level() noexcept {
  return static_cast<Level>(active_slot().load(std::memory_order_relaxed));
}

bool set_level(Level level) noexcept {
  if (!cpu_supports(level)) return false;
  active_slot().store(static_cast<int>(level), std::memory_order_relaxed);
  return true;
}

const Ops& ops() noexcept { return *table_for(active_level()); }

const Ops& ops_for(Level level) noexcept { return *table_for(level); }

const char* level_name(Level level) noexcept {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

bool parse_level(std::string_view text, Level& out) noexcept {
  if (text == "scalar") {
    out = Level::kScalar;
  } else if (text == "avx2") {
    out = Level::kAvx2;
  } else {
    return false;
  }
  return true;
}

}  // namespace odtn::simd
