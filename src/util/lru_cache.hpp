// LruCache: a byte-budgeted LRU map for the serve-path result cache
// (core/query_engine.hpp).
//
// Design:
//   - One mutex guards one recency list and one hash index over the
//     whole budget. A get or put holds the lock for one hash probe and
//     one list splice, against milliseconds of engine work per miss, so
//     the lock is not where concurrent query workers wait.
//   - The budget is in BYTES, not entries: every insert carries an
//     explicit cost (key bytes + value payload + bookkeeping estimate),
//     and put evicts from the LRU tail until the cache fits within
//     budget_bytes. An entry larger than the whole budget is admitted
//     and then immediately evicted -- the caller still gets exact
//     eviction accounting, and a pathological value cannot pin the
//     cache above budget.
//   - Values are handed out as shared_ptr<const Value>: a hit stays
//     valid even if another thread evicts the entry a microsecond
//     later, and the cache never copies payloads.
//   - put() returns the number of entries evicted BY THAT CALL, so the
//     engine can attribute evictions to individual queries exactly
//     (the EngineStats cache_evictions counters rely on this adding up).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace odtn {

/// Cache counters; deltas of successive snapshots are exact because
/// every hit/miss/eviction increments under the cache's lock.
struct LruCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t inserts = 0;
  std::size_t bytes = 0;    // current resident payload bytes
  std::size_t entries = 0;  // current resident entry count
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  /// Zero budget means "cache nothing": every put is evicted
  /// immediately, every get misses -- handy for forcing cold paths in
  /// tests without branching at the call sites.
  explicit LruCache(std::size_t budget_bytes) : budget_(budget_bytes) {}

  /// Returns the cached value and refreshes its recency, or nullptr on
  /// miss.
  std::shared_ptr<const Value> get(const Key& key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    order_.splice(order_.begin(), order_, it->second);  // move to MRU
    return it->second->value;
  }

  /// Inserts (or overwrites) `key` with a value costing `cost_bytes`,
  /// then evicts LRU-first until the cache is back within budget.
  /// Returns how many entries THIS call evicted (an oversized entry
  /// counts itself).
  std::size_t put(const Key& key, std::shared_ptr<const Value> value,
                  std::size_t cost_bytes) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      stats_.bytes -= it->second->cost;
      it->second->value = std::move(value);
      it->second->cost = cost_bytes;
      order_.splice(order_.begin(), order_, it->second);
    } else {
      order_.push_front(Entry{key, std::move(value), cost_bytes});
      index_.emplace(key, order_.begin());
      ++stats_.inserts;
    }
    stats_.bytes += cost_bytes;
    std::size_t evicted = 0;
    while (stats_.bytes > budget_ && !order_.empty()) {
      const Entry& victim = order_.back();
      stats_.bytes -= victim.cost;
      index_.erase(victim.key);
      order_.pop_back();
      ++evicted;
    }
    stats_.evictions += evicted;
    return evicted;
  }

  /// Drops every entry; counters keep accumulating (clear is not a
  /// statistics reset, so long-lived serve sessions report totals).
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    order_.clear();
    index_.clear();
    stats_.bytes = 0;
  }

  LruCacheStats stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    LruCacheStats out = stats_;
    out.entries = order_.size();
    return out;
  }

 private:
  struct Entry {
    Key key;
    std::shared_ptr<const Value> value;
    std::size_t cost;
  };

  mutable std::mutex mutex_;
  std::list<Entry> order_;  // front = most recently used
  std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index_;
  std::size_t budget_;
  LruCacheStats stats_;  // `entries` is read off order_
};

}  // namespace odtn
