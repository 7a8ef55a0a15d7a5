#include "core/temporal_graph.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

namespace odtn {
namespace {

/// The by-end run order: (end, begin, to). A closure, not a function,
/// so std::sort and std::merge inline the comparison.
constexpr auto end_order = [](const NodeContact& a, const NodeContact& b) {
  if (a.end != b.end) return a.end < b.end;
  if (a.begin != b.begin) return a.begin < b.begin;
  return a.to < b.to;
};

}  // namespace

TemporalGraph::TemporalGraph(std::size_t num_nodes,
                             std::vector<Contact> contacts, bool directed)
    : num_nodes_(num_nodes),
      directed_(directed),
      contacts_(std::move(contacts)) {
  bool sorted = true;
  for (std::size_t i = 0; i < contacts_.size(); ++i) {
    const Contact& c = contacts_[i];
    if (!is_valid_contact(c))
      throw std::invalid_argument("TemporalGraph: malformed contact");
    if (c.u >= num_nodes_ || c.v >= num_nodes_)
      throw std::invalid_argument("TemporalGraph: contact node out of range");
    if (i > 0 && contact_less(c, contacts_[i - 1])) sorted = false;
  }
  // Traces read back from write_trace (and most generators) are already
  // canonical; skipping the sort keeps ingestion one pass per array.
  if (!sorted) std::sort(contacts_.begin(), contacts_.end(), contact_less);
  contacts_view_ = contacts_;

  if (!contacts_.empty()) {
    // Seed from the first contact, NOT from 0.0: a trace whose timestamps
    // are all negative (e.g. epoch-shifted imports) must not report a
    // spurious end_time of 0.
    start_ = contacts_.front().begin;
    end_ = contacts_.front().end;
    for (const Contact& c : contacts_) end_ = std::max(end_, c.end);
  }
}

TemporalGraph TemporalGraph::adopt_view(
    std::size_t num_nodes, bool directed, std::span<const Contact> contacts,
    double start, double end, std::span<const std::uint32_t> node_offsets,
    std::span<const NodeContact> neighbors_by_end,
    std::shared_ptr<const void> backing) {
  TemporalGraph g;
  g.num_nodes_ = num_nodes;
  g.directed_ = directed;
  g.contacts_view_ = contacts;
  g.start_ = start;
  g.end_ = end;
  g.backing_ = std::move(backing);
  auto* ix = new Indexes;
  ix->node_offsets = node_offsets;
  ix->neighbors_by_end = neighbors_by_end;
  g.indexes_.store(ix, std::memory_order_release);
  return g;
}

TemporalGraph::TemporalGraph(const TemporalGraph& other)
    : num_nodes_(other.num_nodes_),
      directed_(other.directed_),
      contacts_(other.contacts_),
      start_(other.start_),
      end_(other.end_),
      epoch_(other.epoch_),
      backing_(other.backing_) {
  if (backing_) {
    // Borrowed view: share the mapping and its ready-made index. The
    // cloned Indexes holds spans into the shared backing only (its
    // stores are empty), so the clone stays valid on its own.
    contacts_view_ = other.contacts_view_;
    if (const Indexes* ix = other.indexes_.load(std::memory_order_acquire))
      indexes_.store(new Indexes(*ix), std::memory_order_release);
  } else {
    contacts_view_ = contacts_;  // indexes rebuild lazily: copies stay cheap
  }
}

TemporalGraph& TemporalGraph::operator=(const TemporalGraph& other) {
  if (this != &other) {
    num_nodes_ = other.num_nodes_;
    directed_ = other.directed_;
    contacts_ = other.contacts_;
    start_ = other.start_;
    end_ = other.end_;
    epoch_ = other.epoch_;
    backing_ = other.backing_;
    const Indexes* replacement = nullptr;
    if (backing_) {
      contacts_view_ = other.contacts_view_;
      if (const Indexes* ix = other.indexes_.load(std::memory_order_acquire))
        replacement = new Indexes(*ix);
    } else {
      contacts_view_ = contacts_;
    }
    delete indexes_.exchange(replacement);
  }
  return *this;
}

TemporalGraph::TemporalGraph(TemporalGraph&& other) noexcept
    : num_nodes_(other.num_nodes_),
      directed_(other.directed_),
      contacts_(std::move(other.contacts_)),
      // A span over the moved vector stays valid: the heap buffer moved
      // with it. A view's span points into backing_, also moved here.
      contacts_view_(other.contacts_view_),
      start_(other.start_),
      end_(other.end_),
      epoch_(other.epoch_),
      backing_(std::move(other.backing_)),
      indexes_(other.indexes_.exchange(nullptr)) {
  other.contacts_view_ = {};
}

TemporalGraph& TemporalGraph::operator=(TemporalGraph&& other) noexcept {
  if (this != &other) {
    num_nodes_ = other.num_nodes_;
    directed_ = other.directed_;
    contacts_ = std::move(other.contacts_);
    contacts_view_ = other.contacts_view_;
    start_ = other.start_;
    end_ = other.end_;
    epoch_ = other.epoch_;
    backing_ = std::move(other.backing_);
    delete indexes_.exchange(other.indexes_.exchange(nullptr));
    other.contacts_view_ = {};
  }
  return *this;
}

TemporalGraph::~TemporalGraph() { delete indexes_.load(); }

std::uint64_t TemporalGraph::append_contacts(std::span<const Contact> batch) {
  if (backing_ != nullptr)
    throw std::logic_error(
        "TemporalGraph::append_contacts: cannot append to a snapshot view");
  if (batch.empty()) return epoch_;

  const Contact* prev = contacts_.empty() ? nullptr : &contacts_.back();
  for (const Contact& c : batch) {
    if (!is_valid_contact(c))
      throw std::invalid_argument("TemporalGraph::append_contacts: malformed "
                                  "contact");
    if (c.u >= num_nodes_ || c.v >= num_nodes_)
      throw std::invalid_argument("TemporalGraph::append_contacts: contact "
                                  "node out of range");
    if (prev != nullptr && contact_less(c, *prev))
      throw std::invalid_argument("TemporalGraph::append_contacts: batch "
                                  "breaks canonical order");
    prev = &c;
  }

  const std::size_t old_count = contacts_.size();
  contacts_.insert(contacts_.end(), batch.begin(), batch.end());
  contacts_view_ = contacts_;
  if (old_count == 0) {
    start_ = contacts_.front().begin;
    end_ = contacts_.front().end;
  }
  for (const Contact& c : batch) end_ = std::max(end_, c.end);

  // Grow an already-built index instead of dropping it: each node's run
  // merges the sorted batch in, so the arrays match a fresh build byte
  // for byte without re-sorting the existing contacts.
  if (const Indexes* ix = indexes_.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(index_mutex_);
    ix = indexes_.load(std::memory_order_relaxed);
    auto* grown = new Indexes(append_to_indexes(*ix, old_count));
    grown->point_at_stores();
    indexes_.store(grown, std::memory_order_release);
    delete ix;
  }

  return ++epoch_;
}

TemporalGraph::Indexes TemporalGraph::append_to_indexes(
    const Indexes& old, std::size_t old_count) const {
  const std::size_t total = contacts_view_.size();

  // Sort only the appended windows per node, then one linear merge
  // against the old run. Records that tie on the sort key are bitwise
  // equal ({begin, end, to} IS the key), so any interleaving the merge
  // picks is byte-identical to the fresh build's sort.
  std::vector<std::uint32_t> added(num_nodes_ + 1, 0);
  for (std::size_t i = old_count; i < total; ++i) {
    const Contact& c = contacts_view_[i];
    ++added[c.u + 1];
    if (!directed_) ++added[c.v + 1];
  }
  for (std::size_t n = 1; n <= num_nodes_; ++n) added[n] += added[n - 1];
  std::vector<NodeContact> fresh(added.back());
  std::vector<std::uint32_t> cursor(added.begin(), added.end() - 1);
  for (std::size_t i = old_count; i < total; ++i) {
    const Contact& c = contacts_view_[i];
    fresh[cursor[c.u]++] = {c.begin, c.end, c.v};
    if (!directed_) fresh[cursor[c.v]++] = {c.begin, c.end, c.u};
  }
  Indexes ix;
  ix.node_offsets_store.resize(num_nodes_ + 1);
  for (std::size_t n = 0; n <= num_nodes_; ++n)
    ix.node_offsets_store[n] = old.node_offsets[n] + added[n];
  ix.neighbors_by_end_store.resize(ix.node_offsets_store.back());
  for (std::size_t n = 0; n < num_nodes_; ++n) {
    std::sort(fresh.begin() + added[n], fresh.begin() + added[n + 1],
              end_order);
    std::merge(old.neighbors_by_end.begin() + old.node_offsets[n],
               old.neighbors_by_end.begin() + old.node_offsets[n + 1],
               fresh.begin() + added[n], fresh.begin() + added[n + 1],
               ix.neighbors_by_end_store.begin() + ix.node_offsets_store[n],
               end_order);
  }
  return ix;
}

void TemporalGraph::Indexes::point_at_stores() noexcept {
  node_offsets = node_offsets_store;
  neighbors_by_end = neighbors_by_end_store;
}

const TemporalGraph::Indexes& TemporalGraph::indexes() const {
  // Double-checked build: the acquire load pairs with the release store
  // so readers that see the pointer also see the built arrays.
  const Indexes* ix = indexes_.load(std::memory_order_acquire);
  if (ix == nullptr) {
    const std::lock_guard<std::mutex> lock(index_mutex_);
    ix = indexes_.load(std::memory_order_relaxed);
    if (ix == nullptr) {
      auto* built = new Indexes(build_indexes());
      built->point_at_stores();
      indexes_.store(built, std::memory_order_release);
      ix = built;
    }
  }
  return *ix;
}

TemporalGraph::Indexes TemporalGraph::build_indexes() const {
  // Each node's outgoing contact windows, materialized as flat {begin,
  // end, peer} records (counting sort by node) and re-sorted by end
  // time, so propagation engines scan sequential memory and can
  // binary-search "first window ending at or after t". Undirected
  // graphs index both endpoints per contact.
  Indexes ix;
  ix.node_offsets_store.assign(num_nodes_ + 1, 0);
  for (const Contact& c : contacts_view_) {
    ++ix.node_offsets_store[c.u + 1];
    if (!directed_) ++ix.node_offsets_store[c.v + 1];
  }
  for (std::size_t i = 1; i < ix.node_offsets_store.size(); ++i)
    ix.node_offsets_store[i] += ix.node_offsets_store[i - 1];
  ix.neighbors_by_end_store.resize(ix.node_offsets_store.back());

  std::vector<std::uint32_t> cursor(ix.node_offsets_store.begin(),
                                    ix.node_offsets_store.end() - 1);
  for (const Contact& c : contacts_view_) {
    ix.neighbors_by_end_store[cursor[c.u]++] = {c.begin, c.end, c.v};
    if (!directed_)
      ix.neighbors_by_end_store[cursor[c.v]++] = {c.begin, c.end, c.u};
  }
  for (std::size_t n = 0; n < num_nodes_; ++n)
    std::sort(ix.neighbors_by_end_store.begin() + ix.node_offsets_store[n],
              ix.neighbors_by_end_store.begin() + ix.node_offsets_store[n + 1],
              end_order);
  return ix;
}

double TemporalGraph::contact_rate(double unit) const noexcept {
  if (num_nodes_ == 0 || duration() <= 0.0) return 0.0;
  // Each contact is logged by both endpoints (undirected) or by the
  // observer only (directed).
  const double logs = static_cast<double>(contacts_view_.size()) *
                      (directed_ ? 1.0 : 2.0);
  return logs / static_cast<double>(num_nodes_) / (duration() / unit);
}

std::span<const NodeContact> TemporalGraph::neighbors_by_end(
    NodeId node) const {
  if (node >= num_nodes_)
    throw std::out_of_range("TemporalGraph::neighbors_by_end: bad node");
  const Indexes& ix = indexes();
  return ix.neighbors_by_end.subspan(
      ix.node_offsets[node], ix.node_offsets[node + 1] - ix.node_offsets[node]);
}

std::span<const std::uint32_t> TemporalGraph::node_offsets() const {
  return indexes().node_offsets;
}

std::span<const NodeContact> TemporalGraph::neighbor_records() const {
  return indexes().neighbors_by_end;
}

std::vector<double> TemporalGraph::contact_durations() const {
  std::vector<double> out;
  out.reserve(contacts_view_.size());
  for (const Contact& c : contacts_view_) out.push_back(c.duration());
  return out;
}

double TemporalGraph::next_contact_time(NodeId node, double t) const {
  // Only windows ending at or after t can still be used; a directed
  // graph's run holds just the node's outgoing windows.
  const std::span<const NodeContact> run = neighbors_by_end(node);
  auto it = std::lower_bound(
      run.begin(), run.end(), t,
      [](const NodeContact& nc, double x) { return nc.end < x; });
  double best = std::numeric_limits<double>::infinity();
  for (; it != run.end(); ++it) {
    best = std::min(best, std::max(it->begin, t));
    if (best == t) break;  // cannot do better than "in contact now"
  }
  return best;
}

std::size_t TemporalGraph::num_connected_pairs() const {
  std::set<std::pair<NodeId, NodeId>> pairs;
  for (const Contact& c : contacts_view_) {
    if (directed_) {
      pairs.emplace(c.u, c.v);
    } else {
      pairs.emplace(std::min(c.u, c.v), std::max(c.u, c.v));
    }
  }
  return pairs.size();
}

}  // namespace odtn
