#!/usr/bin/env sh
# Extended verify: a fast `quick`-labelled smoke pass, then the tier-1
# recipe (Release build + full ctest), the ext_robustness CSV against
# the committed bench_out/ (about 25 s, too slow for the ctest `repro`
# gate), then a second ctest pass under
# ASan + UBSan (the `sanitize` CMake preset) plus fuzz smokes under the
# same sanitizers -- parser (malformed-trace corpus + randomized byte
# mutations), kernel (batched frontier merge vs per-pair insert
# differential, the delay-CDF grid search vs std::lower_bound,
# pooled-vs-level-sweep engine parity, arena span bounds),
# snapshot (framing rejection + round-trip bit-identity) and live
# (epoch splits vs cold recomputes) --
# and a final pass of the concurrency suites (thread pool,
# MC harness, empirical distribution, phase transition, LRU cache,
# query engine, live ingest -- whose append updates each source's DP and
# CDF partial inside the parallel fan-out) under ThreadSanitizer (the
# `tsan` preset).
# Run from the repository root.
# Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== tier-0: Release build + quick smoke (ctest -L quick) =="
cmake --preset release
cmake --build --preset release -j
ctest --preset quick

echo "== tier-1: full ctest =="
ctest --preset release

echo "== tier-1b: ext_robustness against bench_out/ =="
rm -rf build/bench/robustness_work
mkdir -p build/bench/robustness_work
(cd build/bench/robustness_work && ../bench_ext_robustness > /dev/null)
cmp build/bench/robustness_work/bench_out/ext_robustness.csv \
  bench_out/ext_robustness.csv

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
# parser; a run of 100+ trials also fails below 30 arena compactions
# per 100 trials.
./build-sanitize/tools/odtn_fuzz --live 100 --seed 1

echo "== tier-3: TSan build + concurrency suites =="
cmake --preset tsan
cmake --build --preset tsan -j
ctest --preset tsan

echo "== verify OK =="
