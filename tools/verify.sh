#!/usr/bin/env sh
# Extended verify: a fast `quick`-labelled smoke pass, then the tier-1
# recipe (Release build + full ctest), then a second ctest pass under
# ASan + UBSan (the `sanitize` CMake preset) plus fuzz smokes under the
# same sanitizers -- parser (malformed-trace corpus + randomized byte
# mutations), kernel (batched frontier merge vs per-pair insert
# differential, pooled-vs-level-sweep engine parity, arena span bounds),
# snapshot (framing rejection + round-trip bit-identity) and live
# (epoch splits vs cold recomputes) --
# and a final pass of the concurrency suites (thread pool,
# MC harness, empirical distribution, phase transition, LRU cache,
# query engine) under ThreadSanitizer (the `tsan` preset). Run from the
# repository root.
# Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== tier-0: Release build + quick smoke (ctest -L quick) =="
cmake --preset release
cmake --build --preset release -j
ctest --preset quick

echo "== tier-1: full ctest =="
ctest --preset release

echo "== tier-2: ASan+UBSan build + ctest =="
cmake --preset sanitize
cmake --build --preset sanitize -j
ctest --preset sanitize

echo "== tier-2b: parser + kernel + snapshot + live fuzz smoke under ASan+UBSan =="
./build-sanitize/tools/odtn_fuzz --corpus tests/corpus
./build-sanitize/tools/odtn_fuzz --parser 300 --seed 1
./build-sanitize/tools/odtn_fuzz --kernel 300 --seed 1
# Snapshot framing: encode/decode round-trips bit-identically, every
# prefix truncation, header lie and random bit flip must throw
# SnapshotError (or decode to a graph that re-encodes to the mutated
# bytes), never crash or read out of bounds.
./build-sanitize/tools/odtn_fuzz --snapshot 200 --seed 1
# Live-ingestion differential: random K-way epoch splits must stay
# bit-identical to cold prefix recomputes, and byte-split streaming
# parses (including a stripped final newline) must match the one-shot
# parser.
./build-sanitize/tools/odtn_fuzz --live 60 --seed 1
# Forced-scalar pass (ODTN_SIMD=scalar|avx2): pins the dispatch layer
# to the mandatory fallback so the scalar SegmentBatcher path stays
# exercised under the sanitizers even on AVX2 hardware (the default run
# checks lower_bound4 at scalar and avx2 and rotates the engine
# differential over both).
ODTN_SIMD=scalar ./build-sanitize/tools/odtn_fuzz --kernel 300 --seed 1

echo "== tier-3: TSan build + concurrency suites =="
cmake --preset tsan
cmake --build --preset tsan -j
ctest --preset tsan

echo "== verify OK =="
