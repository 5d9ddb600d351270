#pragma once
/// \file cache.h
/// Shared memoizing estimate cache for the batch runtime (DESIGN.md
/// section 7).
///
/// Batch workloads (spec sweeps, multi-start synthesis, repeated CLI
/// invocations over overlapping spec files) re-estimate identical
/// (process, spec) pairs constantly; APE estimates are pure functions of
/// those inputs, so they memoize safely. MemoCache<Value> provides the
/// generic single-fill discipline:
///
///  - the first thread to request a key computes it (a per-entry mutex
///    serializes the fill; other requesters of the *same* key block until
///    the value is ready, requesters of different keys proceed);
///  - a compute that throws is rethrown to every requester already
///    waiting on the fill. Whether the failure is *memoized* depends on
///    its ErrorClass (error.h): a Permanent failure (infeasible spec) is
///    cached as an error entry — infeasible once is infeasible forever —
///    while a Transient failure (numerical, budget, injected fault)
///    releases the fill slot so a later request recomputes. Without the
///    release, one transient fault would poison the key for every retry
///    the supervisor ladder makes (DESIGN.md section 10);
///  - values are immutable after fill and handed out as
///    shared_ptr<const Value>, so a hit is safe to hold across the
///    lifetime of the cache entry and across threads;
///  - occupancy is bounded: a cache constructed with (or given) a
///    nonzero capacity evicts least-recently-used *completed* entries
///    once the map exceeds it. Entries whose fill is still in flight are
///    never evicted (requesters are blocked on them), so occupancy can
///    transiently exceed capacity by the number of concurrent fills —
///    which the admission control of any long-lived owner (the ape_serve
///    daemon, DESIGN.md section 11) already bounds. An evicted entry
///    that requesters still hold stays alive through their shared_ptr;
///    only the map forgets it. Capacity 0 means unbounded (the batch CLI
///    default, where the run's spec file bounds occupancy naturally).
///
/// EstimateCache bundles the two concrete caches (opamp + module) behind
/// content-derived binary keys. A key serializes, in this order: a kind
/// tag (opamp or module); the Process name, variant and temp_c; the NMOS
/// then the PMOS card (name, type, level, then its 35 numeric fields);
/// vdd, vss, lmin, wmin, wmax; then every spec field. Each double is its
/// 8-byte IEEE-754 bit pattern, each enum, bool and int a 4-byte tag, and
/// each string an 8-byte length followed by its bytes; every integer is
/// written least significant byte first whatever the host's order. The
/// layout is fixed-width except for the length-prefixed strings, so the
/// encoding is exact: equal inputs always produce equal keys, and inputs
/// that differ in any bit of any keyed field (+0.0 vs -0.0 included)
/// never collide, whatever characters the names contain.

#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/estimator/modules.h"
#include "src/estimator/opamp.h"
#include "src/estimator/process.h"
#include "src/util/error.h"

namespace ape::runtime {

/// Hit/miss/eviction counters of one cache (snapshot semantics).
struct CacheStats {
  long hits = 0;    ///< requests served from a completed or in-flight fill
  long misses = 0;  ///< requests that had to compute the value
  long evictions = 0;  ///< completed entries dropped by the LRU bound
  long entries = 0;    ///< current occupancy at snapshot time

  double hit_rate() const {
    const long total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / total : 0.0;
  }
  CacheStats& operator+=(const CacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    entries += o.entries;
    return *this;
  }
};

/// Generic memoizing map with single-fill guarantee and an optional LRU
/// occupancy bound (see file comment).
template <class Value>
class MemoCache {
public:
  /// \p capacity bounds occupancy (0 = unbounded).
  explicit MemoCache(size_t capacity = 0) : capacity_(capacity) {}

  /// Change the occupancy bound; excess completed entries are evicted
  /// immediately (LRU first).
  void set_capacity(size_t capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    capacity_ = capacity;
    evict_excess_locked();
  }

  size_t capacity() const {
    std::lock_guard<std::mutex> lock(mu_);
    return capacity_;
  }

  /// Return the cached value for \p key, computing it with \p compute on
  /// first request. Concurrent requests for the same key compute once;
  /// a throwing compute is memoized and rethrown to all requesters.
  std::shared_ptr<const Value> get_or_compute(
      const std::string& key, const std::function<Value()>& compute) {
    std::shared_ptr<Entry> entry;
    bool creator = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = map_.find(key);
      if (it != map_.end()) {
        entry = it->second;
        // Touch: most-recently-used entries migrate to the list front,
        // so eviction (from the back) drops the coldest keys first.
        if (entry->in_map) lru_.splice(lru_.begin(), lru_, entry->lru_it);
        ++hits_;
      }
    }
    if (!entry) {
      // Probable miss: build the entry and take its fill lock while it is
      // still private (uncontended, and crucially *outside* mu_ — the only
      // lock ordering in this file is fill -> mu_, never the reverse).
      // Publication happens under mu_ below; losing the insert race just
      // discards the speculative entry.
      auto fresh = std::make_shared<Entry>();
      fresh->fill.lock();
      std::lock_guard<std::mutex> lock(mu_);
      auto it = map_.find(key);
      if (it == map_.end()) {
        lru_.push_front(&map_.emplace(key, fresh).first->first);
        fresh->lru_it = lru_.begin();
        entry = fresh;
        creator = true;
        ++misses_;
      } else {
        fresh->fill.unlock();
        entry = it->second;
        if (entry->in_map) lru_.splice(lru_.begin(), lru_, entry->lru_it);
        ++hits_;
      }
    }
    if (creator) {
      std::lock_guard<std::mutex> fill(entry->fill, std::adopt_lock);
      try {
        entry->value = std::make_shared<const Value>(compute());
        finish_fill(key, entry, /*keep=*/true);
      } catch (...) {
        entry->error = std::current_exception();
        // Transient failure: drop the entry so the next requester
        // recomputes. Requesters already holding this entry still see
        // the error below — only the *map* forgets it. Taking mu_
        // while holding entry->fill cannot deadlock: no thread waits
        // on a fill mutex while holding mu_.
        finish_fill(key, entry, should_negative_cache(entry->error));
      }
    } else {
      // Block until the creator releases the fill lock (a no-op wait for
      // entries filled in the past); the lock pairing also orders the
      // fill's writes before our reads below.
      std::lock_guard<std::mutex> wait(entry->fill);
    }
    if (entry->error) std::rethrow_exception(entry->error);
    return entry->value;
  }

  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    CacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.entries = static_cast<long>(map_.size());
    return s;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, entry] : map_) entry->in_map = false;
    map_.clear();
    lru_.clear();
    hits_ = misses_ = evictions_ = 0;
  }

private:
  struct Entry {
    /// Held by the creator for exactly the fill window; value/error are
    /// immutable once it is released.
    std::mutex fill;
    std::shared_ptr<const Value> value;
    std::exception_ptr error;
    // The remaining fields are guarded by the cache's mu_.
    bool done = false;    ///< fill completed (value or negative cache)
    bool in_map = true;   ///< false once evicted / released / cleared
    std::list<const std::string*>::iterator lru_it;  ///< valid while in_map
  };

  /// Completion bookkeeping for a creator: mark the entry done (it is
  /// now evictable), or release it (transient failure), then apply the
  /// occupancy bound.
  void finish_fill(const std::string& key, const std::shared_ptr<Entry>& entry,
                   bool keep) {
    std::lock_guard<std::mutex> lock(mu_);
    if (entry->in_map) {
      if (keep) {
        entry->done = true;
      } else {
        auto it = map_.find(key);
        if (it != map_.end() && it->second == entry) {
          lru_.erase(entry->lru_it);
          entry->in_map = false;
          map_.erase(it);
        }
      }
    }
    evict_excess_locked();
  }

  /// Drop completed entries, coldest first, until occupancy fits the
  /// capacity. In-flight fills are skipped: their requesters are blocked
  /// on them, and the fill's own completion re-applies the bound.
  void evict_excess_locked() {
    if (capacity_ == 0 || map_.size() <= capacity_) return;
    auto it = lru_.end();
    while (it != lru_.begin() && map_.size() > capacity_) {
      --it;
      auto mit = map_.find(**it);
      if (mit == map_.end() || !mit->second->done) continue;
      mit->second->in_map = false;
      map_.erase(mit);
      it = lru_.erase(it);
      ++evictions_;
    }
  }

  size_t capacity_ = 0;  ///< 0 = unbounded

  /// Negative-cache a failed fill only when the failure is Permanent by
  /// the error taxonomy; anything that is not an ape::Error is treated as
  /// transient (we know nothing about it, so keeping the key retryable
  /// is the safe default).
  static bool should_negative_cache(const std::exception_ptr& ep) {
    try {
      std::rethrow_exception(ep);
    } catch (const Error& e) {
      return !e.transient();
    } catch (...) {
      return false;
    }
  }

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> map_;
  /// Keys of map_ (node keys never move), front = most recent, back =
  /// eviction end. Pointing into the map keeps one copy of each key.
  std::list<const std::string*> lru_;
  long hits_ = 0;
  long misses_ = 0;
  long evictions_ = 0;
};

/// Content-derived cache keys (process + spec; see file comment).
std::string cache_key(const est::Process& proc, const est::OpAmpSpec& spec);
std::string cache_key(const est::Process& proc, const est::ModuleSpec& spec);

/// The shared estimate cache of a batch run: memoized OpAmpEstimator /
/// ModuleEstimator results keyed on (process, spec).
class EstimateCache {
public:
  /// \p capacity_per_level bounds each underlying cache (opamp and
  /// module) independently; 0 = unbounded. Long-lived owners (the
  /// ape_serve daemon) must pass a bound — see the MemoCache comment.
  explicit EstimateCache(size_t capacity_per_level = 0)
      : opamps_(capacity_per_level), modules_(capacity_per_level) {}

  /// Re-bound both levels (evicting immediately when shrinking).
  void set_capacity_per_level(size_t capacity) {
    opamps_.set_capacity(capacity);
    modules_.set_capacity(capacity);
  }

  /// Memoized est::OpAmpEstimator(proc).estimate(spec). Throws what the
  /// estimator threw (also on a negative-cache hit).
  std::shared_ptr<const est::OpAmpDesign> opamp(const est::Process& proc,
                                                const est::OpAmpSpec& spec);

  /// Memoized est::ModuleEstimator(proc).estimate(spec).
  std::shared_ptr<const est::ModuleDesign> module(const est::Process& proc,
                                                  const est::ModuleSpec& spec);

  /// Combined hit/miss/eviction/occupancy counters across both levels.
  CacheStats stats() const;

  size_t size() const { return opamps_.size() + modules_.size(); }

  void clear() {
    opamps_.clear();
    modules_.clear();
  }

private:
  MemoCache<est::OpAmpDesign> opamps_;
  MemoCache<est::ModuleDesign> modules_;
};

}  // namespace ape::runtime
