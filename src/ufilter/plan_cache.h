// Sharded, mutex-protected LRU cache of compiled update shapes, keyed by the
// shape (xquery/normalize.h: the text with its literal values lifted out).
// A hit means a request whose shape was seen before pays zero parse / bind /
// STAR / probe-planning work, only the bind of its own values — the
// compile-once half of the prepared-statement architecture. Only shapes
// whose compile read no literal enter it: texts that do not lift or parse
// are compiled for their request alone.
//
// Concurrency: the key space is hash-partitioned into independent shards,
// each holding its own LRU list under its own mutex, so concurrent check
// workers preparing different templates rarely contend. Recency and
// eviction are therefore *per shard*; construct with `shards = 1` to get
// the classic single-list LRU (deterministic global eviction order, used by
// the LRU-order tests). Hit/miss/insertion/eviction totals are counters
// in the registry given at construction (the database's, for a UFilter):
// plan_cache_hits, plan_cache_misses, plan_cache_insertions and
// plan_cache_evictions.
#ifndef UFILTER_UFILTER_PLAN_CACHE_H_
#define UFILTER_UFILTER_PLAN_CACHE_H_

#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "ufilter/prepared.h"

namespace ufilter::check {

/// \brief Bounded sharded LRU map: update shape -> shared compiled shape.
class PlanCache {
 public:
  static constexpr size_t kDefaultCapacity = 128;
  static constexpr size_t kDefaultShards = 8;

  /// Registers the cache's four counters in `registry`, which must
  /// outlive the cache. Caches sharing a registry share the counters.
  explicit PlanCache(obs::Registry* registry,
                     size_t capacity = kDefaultCapacity,
                     size_t shards = kDefaultShards)
      : hits_(registry->GetCounter("plan_cache_hits")),
        misses_(registry->GetCounter("plan_cache_misses")),
        insertions_(registry->GetCounter("plan_cache_insertions")),
        evictions_(registry->GetCounter("plan_cache_evictions")) {
    Configure(capacity, shards);
  }

  /// Rebuilds the cache with a new shape, dropping all entries. The total
  /// capacity is split evenly across shards (never below 1 per shard).
  /// Safe to call while workers run: reshaping takes the shard set's
  /// exclusive lock.
  void Configure(size_t capacity, size_t shards) {
    std::unique_lock<std::shared_mutex> reshape(reshape_mu_);
    std::vector<std::unique_ptr<Shard>> next;
    if (shards == 0) shards = 1;
    next.reserve(shards);
    for (size_t i = 0; i < shards; ++i) {
      next.push_back(std::make_unique<Shard>());
    }
    shards_ = std::move(next);
    capacity_ = capacity;
    Redistribute();
  }

  /// Returns the cached shape and marks it most-recently-used in its shard;
  /// null on miss.
  std::shared_ptr<const CompiledShape> Lookup(const std::string& key) {
    std::shared_lock<std::shared_mutex> reshape(reshape_mu_);
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      misses_->Inc();
      return nullptr;
    }
    hits_->Inc();
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->second;
  }

  /// Inserts (or replaces) a shape, evicting the least-recently-used entries
  /// of the key's shard beyond its capacity. A zero-capacity cache stores
  /// nothing.
  void Insert(const std::string& key,
              std::shared_ptr<const CompiledShape> plan) {
    std::shared_lock<std::shared_mutex> reshape(reshape_mu_);
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    insertions_->Inc();
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(plan);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    shard.lru.emplace_front(key, std::move(plan));
    shard.index[key] = shard.lru.begin();
    EvictOverCapacity(&shard);
  }

  void Clear() {
    std::shared_lock<std::shared_mutex> reshape(reshape_mu_);
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->lru.clear();
      shard->index.clear();
    }
  }

  size_t size() const {
    std::shared_lock<std::shared_mutex> reshape(reshape_mu_);
    size_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total += shard->lru.size();
    }
    return total;
  }
  size_t capacity() const {
    std::shared_lock<std::shared_mutex> reshape(reshape_mu_);
    return capacity_;
  }
  size_t shard_count() const {
    std::shared_lock<std::shared_mutex> reshape(reshape_mu_);
    return shards_.size();
  }
  void set_capacity(size_t capacity) {
    std::unique_lock<std::shared_mutex> reshape(reshape_mu_);
    capacity_ = capacity;
    Redistribute();
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      EvictOverCapacity(shard.get());
    }
  }

  /// Keys most-recently-used first within each shard, shards concatenated
  /// in order (a global recency order only with a single shard).
  std::vector<std::string> KeysByRecency() const {
    std::shared_lock<std::shared_mutex> reshape(reshape_mu_);
    std::vector<std::string> keys;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (const auto& [key, plan] : shard->lru) keys.push_back(key);
    }
    return keys;
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    size_t capacity = 0;
    /// Front = most recently used.
    std::list<std::pair<std::string, std::shared_ptr<const CompiledShape>>>
        lru;
    std::unordered_map<
        std::string,
        std::list<std::pair<
            std::string, std::shared_ptr<const CompiledShape>>>::iterator>
        index;
  };

  Shard& ShardFor(const std::string& key) {
    return *shards_[std::hash<std::string>{}(key) % shards_.size()];
  }

  void Redistribute() {
    const size_t n = shards_.size();
    for (size_t i = 0; i < n; ++i) {
      // Even split, remainder to the first shards; at least 1 unless the
      // total capacity is 0 (which disables caching entirely).
      size_t per = capacity_ / n + (i < capacity_ % n ? 1 : 0);
      if (capacity_ > 0 && per == 0) per = 1;
      std::lock_guard<std::mutex> lock(shards_[i]->mu);
      shards_[i]->capacity = per;
    }
  }

  void EvictOverCapacity(Shard* shard) {
    while (shard->lru.size() > shard->capacity) {
      shard->index.erase(shard->lru.back().first);
      shard->lru.pop_back();
      evictions_->Inc();
    }
  }

  /// Guards the shard *set* (reshaping): normal operations hold it shared
  /// and only contend on their shard's mutex; Configure/set_capacity hold
  /// it exclusively.
  mutable std::shared_mutex reshape_mu_;
  size_t capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* insertions_;
  obs::Counter* evictions_;
};

}  // namespace ufilter::check

#endif  // UFILTER_UFILTER_PLAN_CACHE_H_
