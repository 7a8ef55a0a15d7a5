// TemporalGraph: an opportunistic mobile network as a multigraph whose
// edges (contacts) are labeled with time intervals (paper Section 4.2).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/contact.hpp"

namespace odtn {

/// One contact as seen from a fixed endpoint: the time window plus the
/// peer it connects to. TemporalGraph stores these per node in a flat
/// array sorted by increasing end time, so propagation engines scan a
/// cache-friendly sequence and can binary-search the first window ending
/// at or after a given instant.
struct NodeContact {
  double begin;
  double end;
  NodeId to;
};

/// Immutable temporal network over a fixed node set.
///
/// Contacts are stored sorted by (begin, end, u, v). An undirected graph
/// (the default; scanning traces record symmetric radio contacts) lets
/// every contact carry data both ways; a directed graph restricts each
/// contact to u -> v.
///
/// The per-node CSR indexes that the propagation engines scan are built
/// lazily on first use (thread-safely), so ingestion-only workflows --
/// `odtn validate`, filter round-trips, trace statistics -- never pay
/// for them. Copying a graph copies the contacts only; the copy rebuilds
/// its indexes on demand.
///
/// A graph can also BORROW its storage instead of owning it: adopt_view
/// wraps pre-validated contact and index arrays living in an external
/// buffer (an mmap-ed snapshot file, trace/snapshot.hpp) without copying
/// a byte. Copies of a borrowed graph stay zero-copy too -- they share
/// the backing buffer and its already-built indexes -- which keeps the
/// per-engine graph copies (QueryEngine takes its graph by value) cheap
/// on snapshots.
class TemporalGraph {
 public:
  /// Builds a graph with `num_nodes` nodes. Contacts are validated
  /// (throws std::invalid_argument on malformed or out-of-range contacts)
  /// and sorted into canonical order (already-canonical input is
  /// detected and kept as-is in one pass).
  TemporalGraph(std::size_t num_nodes, std::vector<Contact> contacts,
                bool directed = false);

  TemporalGraph(const TemporalGraph& other);
  TemporalGraph& operator=(const TemporalGraph& other);
  TemporalGraph(TemporalGraph&& other) noexcept;
  TemporalGraph& operator=(TemporalGraph&& other) noexcept;
  ~TemporalGraph();

  /// Zero-copy read-only graph over storage owned by `backing` (kept
  /// alive for the graph's lifetime, shared by copies). The caller --
  /// the snapshot decoder -- must have fully validated the arrays: the
  /// contacts canonical-sorted with in-range endpoints, the offset
  /// arrays monotone and consistent, and [start, end] matching the
  /// contact span. No validation happens here.
  static TemporalGraph adopt_view(
      std::size_t num_nodes, bool directed, std::span<const Contact> contacts,
      double start, double end, std::span<const std::uint32_t> node_offsets,
      std::span<const std::uint32_t> node_contacts,
      std::span<const std::uint32_t> neighbor_offsets,
      std::span<const NodeContact> neighbors_by_end,
      std::shared_ptr<const void> backing);

  /// Appends a batch of contacts to an OWNED graph, preserving canonical
  /// order: the batch itself must be canonically sorted and its first
  /// contact must not sort before the current last contact (the live
  /// watermark). Throws std::invalid_argument on malformed, out-of-range
  /// or out-of-order contacts and std::logic_error on a borrowed snapshot
  /// view. If the CSR indexes were already built they GROW in place --
  /// per-node runs extend at the tail and the by-end runs merge the
  /// sorted batch against the existing runs -- producing arrays
  /// byte-identical to a fresh build over the concatenated trace. Returns
  /// the new epoch (bumped once per non-empty batch).
  ///
  /// Not thread-safe against concurrent readers: the caller must
  /// serialize appends with index lookups (the live-ingest layers do).
  std::uint64_t append_contacts(std::span<const Contact> batch);

  /// Monotone append counter: 0 for a freshly built graph, +1 per
  /// non-empty append_contacts batch.
  std::uint64_t epoch() const noexcept { return epoch_; }

  std::size_t num_nodes() const noexcept { return num_nodes_; }
  bool directed() const noexcept { return directed_; }
  std::span<const Contact> contacts() const noexcept { return contacts_view_; }
  std::size_t num_contacts() const noexcept { return contacts_view_.size(); }

  /// Materialized owned copy of the contact array, for callers that need
  /// vector semantics (rebuilding a graph with different directedness,
  /// feeding merge_overlapping_contacts, ...).
  std::vector<Contact> contacts_vector() const {
    return {contacts_view_.begin(), contacts_view_.end()};
  }

  /// True when this graph borrows external storage (a loaded snapshot)
  /// instead of owning its arrays.
  bool is_view() const noexcept { return backing_ != nullptr; }

  /// Earliest contact begin (0 when the trace is empty).
  double start_time() const noexcept { return start_; }
  /// Latest contact end (0 when the trace is empty).
  double end_time() const noexcept { return end_; }
  double duration() const noexcept { return end_ - start_; }

  /// Average number of contacts per node per `unit` seconds (each
  /// undirected contact counts once for each endpoint, matching the
  /// per-device logging of the paper's Table 1).
  double contact_rate(double unit) const noexcept;

  /// Indices (into contacts()) of the contacts involving `node`, in time
  /// order.
  std::span<const std::uint32_t> contacts_of(NodeId node) const;

  /// `node`'s outgoing contact windows ordered by increasing END time.
  /// A directed graph lists only contacts observed by `node` (u -> v);
  /// an undirected graph lists both endpoints' views. Propagation
  /// engines binary-search this to skip every contact that ends before
  /// the earliest arrival they could extend.
  std::span<const NodeContact> neighbors_by_end(NodeId node) const;

  /// Raw CSR index lanes, building them on first call (same lazy path
  /// as contacts_of / neighbors_by_end). Exposed as whole arrays so the
  /// snapshot writer can serialize a fully-indexed graph byte-exactly:
  ///   node_offsets     num_nodes+1 offsets into node_contact_indices
  ///   node_contact_indices  2*num_contacts (1x when directed) indices
  ///                         into contacts()
  ///   neighbor_offsets num_nodes+1 offsets into neighbor_records
  ///   neighbor_records flat per-node NodeContact runs, end-sorted
  std::span<const std::uint32_t> node_offsets() const;
  std::span<const std::uint32_t> node_contact_indices() const;
  std::span<const std::uint32_t> neighbor_offsets() const;
  std::span<const NodeContact> neighbor_records() const;

  /// Durations of all contacts, in contact order.
  std::vector<double> contact_durations() const;

  /// The next instant at or after `t` at which `node` is in contact with
  /// any other device (the y-value of the paper's Figure 6):
  /// t itself when a contact covering t exists, the next contact begin
  /// otherwise, +infinity if the node is never in contact again.
  double next_contact_time(NodeId node, double t) const;

  /// Number of distinct unordered (or ordered, if directed) node pairs
  /// with at least one contact.
  std::size_t num_connected_pairs() const;

 private:
  /// The engine-facing CSR indexes, built as a unit on first access --
  /// or borrowed wholesale from a snapshot mapping. The spans are what
  /// readers consume; the vectors hold the storage only when the graph
  /// built its own indexes (empty in a borrowed view).
  struct Indexes {
    // Per-node index into contacts(), in canonical (begin) order.
    std::vector<std::uint32_t> node_offsets_store;
    std::vector<std::uint32_t> node_contacts_store;
    // Per-node outgoing contact windows, sorted by end time.
    std::vector<std::uint32_t> neighbor_offsets_store;
    std::vector<NodeContact> neighbors_by_end_store;

    std::span<const std::uint32_t> node_offsets;
    std::span<const std::uint32_t> node_contacts;
    std::span<const std::uint32_t> neighbor_offsets;
    std::span<const NodeContact> neighbors_by_end;

    /// Re-aims the spans at the owned vectors; call after the struct
    /// reached its final address (the heap allocation in indexes()).
    void point_at_stores() noexcept;
  };

  TemporalGraph() = default;  // adopt_view fills the fields directly

  /// Returns the indexes, building them on first call. Thread-safe:
  /// concurrent readers (the Monte-Carlo workers share const graphs)
  /// race to the mutex, one builds, the rest reuse.
  const Indexes& indexes() const;
  Indexes build_indexes() const;
  /// Grows `old` (built over the first `old_count` contacts) into a new
  /// Indexes covering all of contacts_view_. See append_contacts.
  Indexes append_to_indexes(const Indexes& old, std::size_t old_count) const;

  std::size_t num_nodes_ = 0;
  bool directed_ = false;
  std::vector<Contact> contacts_;           // owned storage (views: empty)
  std::span<const Contact> contacts_view_;  // what every reader consumes
  double start_ = 0.0;
  double end_ = 0.0;
  /// Bumped once per non-empty append_contacts batch (stays 0 for
  /// static graphs and snapshot views).
  std::uint64_t epoch_ = 0;
  /// Keeps a borrowed view's storage (snapshot mapping) alive; nullptr
  /// for graphs that own their arrays.
  std::shared_ptr<const void> backing_;
  mutable std::atomic<const Indexes*> indexes_{nullptr};
  mutable std::mutex index_mutex_;
};

}  // namespace odtn
