// Snapshot: versioned little-endian binary serialization of a FULLY
// INDEXED TemporalGraph (contacts + the per-node by-end CSR index),
// designed to be mmap-ed straight back into a zero-copy graph view.
//
// The cold-start pipeline today is parse (text -> contacts) + index
// (counting sort + per-node re-sort); a snapshot pays both once at
// `odtn snapshot` time and the serving path (`odtn serve`,
// load_snapshot_file) only maps the file and validates it in one O(n)
// sweep -- no allocation proportional to the trace, no sorting.
//
// Layout (version 2, all integers/doubles little-endian; the encoder
// static_asserts a little-endian host):
//
//   header (104 bytes)
//     u32  magic            "ODSN" (0x4E53444F little-endian on disk)
//     u16  version          2
//     u8   directed         0 | 1
//     u8   reserved         0
//     u64  num_nodes
//     u64  num_contacts
//     u64  num_neighbors    == num_contacts * (directed ? 1 : 2)
//     f64  start_time, end_time
//     u64  total_size       whole-file byte count (anti-truncation)
//     3 x {u64 offset, u64 size}   section table, in file order:
//          contacts         num_contacts    x Contact     (24 B packed)
//          node_offsets     num_nodes + 1   x u32, offsets into
//                           neighbors_by_end
//          neighbors_by_end num_neighbors   x NodeContact (24 B, the
//                           4 trailing pad bytes written as zeros so
//                           encode() is a deterministic function of the
//                           graph and round-trips bit-identically)
//
//   Sections start at 64-byte-aligned offsets; gap bytes are zero.
//
// Files of another version (version 1: 136-byte header, five sections)
// are refused with a message naming both versions and the fix (re-run
// `odtn snapshot`).
//
// The decoder is strict about framing -- magic + version check, every
// offset/size bounds-checked against the buffer and cross-checked
// against the header counts (lying lengths), total_size == buffer size
// (truncation AND trailing bytes) -- and then validates the graph
// invariants the engines rely on (canonical contact order, in-range
// node ids, monotone offset arrays, per-node end-sorted neighbor runs,
// start/end matching the contact span), so a bit-flipped file either
// loads into a fully usable graph or throws SnapshotError; it can never
// produce out-of-bounds index arrays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/temporal_graph.hpp"

namespace odtn {

/// Malformed snapshot bytes: truncation, bad magic/version, lying
/// section table, or violated graph invariants.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kSnapshotMagic = 0x4E53444F;  // "ODSN"
inline constexpr std::uint16_t kSnapshotVersion = 2;

/// Serializes `graph` (forcing its index build) into the snapshot byte
/// layout. Deterministic: the same graph always produces the same bytes,
/// and encode(decode(bytes)) == bytes.
std::vector<std::uint8_t> encode_snapshot(const TemporalGraph& graph);

/// Validates `size` bytes at `data` and adopts them as a zero-copy graph
/// view. `backing` keeps the buffer alive for the graph's lifetime (and
/// its copies'); it must own the memory `data` points into. Throws
/// SnapshotError on any malformation.
TemporalGraph decode_snapshot(const std::uint8_t* data, std::size_t size,
                              std::shared_ptr<const void> backing);

/// Convenience overload over an owned byte vector (fuzzers, tests).
TemporalGraph decode_snapshot(
    std::shared_ptr<const std::vector<std::uint8_t>> bytes);

/// Writes encode_snapshot(graph) to a temp file next to `path` and
/// renames it over `path`, so processes that already mapped the old file
/// keep reading it unchanged. Throws SnapshotError when the temp file
/// cannot be created, fully written or renamed; `path` is then left
/// untouched and the temp file removed. No fsync: the rename is atomic
/// against readers, not durable against power loss.
void write_snapshot_file(const std::string& path, const TemporalGraph& graph);

/// mmap-s `path` read-only and decodes it in place: the returned graph
/// (and every copy of it) reads contacts and indexes straight out of
/// the page cache; the mapping is unmapped when the last copy dies.
/// Throws SnapshotError on open/map failure or malformed content.
TemporalGraph load_snapshot_file(const std::string& path);

}  // namespace odtn
