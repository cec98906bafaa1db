// ResultCache — the trapdoor-keyed hot-query result cache behind
// PpannsService.
//
// The serving pipeline recomputes the full filter/refine search for every
// request, but realistic traffic is heavily skewed: under a Zipfian key
// distribution the same query tokens arrive over and over, and re-running
// Algorithm 2 for them is pure wasted work. Search is deterministic in
// (token bytes, k, result-shaping settings) for a fixed database state, so
// a byte-identical repeat can be answered from a cache without changing a
// single result id.
//
// Design:
//  * Entries are keyed on a 128-bit hash of the token's SAP + trapdoor
//    bytes plus a fingerprint of the settings that shape the id list
//    (k, k_prime, ef_search, refine, node_budget). Deadlines, admission
//    floors, and hedging knobs are excluded — they never change the ids of
//    a query that ran to completion, and only completed queries are cached.
//    The hash reads the ~2.7 KB token in 8-byte words over four independent
//    lanes (well under a microsecond at d = 128). It is not
//    collision-resistant: someone who crafts token bytes can make two tokens
//    share a key, so the cache trusts its clients' tokens.
//  * Every entry is stamped with the database epoch it was computed
//    against. The epoch is the sum of the facade's mutation counter
//    (Insert/Delete/WAL replay) and the sharded server's state_version
//    (compaction/split/rebalance), so ANY mutation path invalidates the
//    whole cache: a lookup whose stamp disagrees with the current epoch is
//    a stale miss and the entry is dropped. Cached answers are therefore
//    always id-identical to a fresh search (pinned by test).
//  * The table is striped: kStripes independent LRU lists, each under its
//    own mutex, selected by key bits — concurrent searches on different
//    stripes never contend.
//
// Thread-safe. Owned and driven by PpannsService; the cache itself knows
// nothing about tokens beyond their bytes.

#ifndef PPANNS_CORE_RESULT_CACHE_H_
#define PPANNS_CORE_RESULT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace ppanns {

struct QueryToken;
struct SearchSettings;

struct ResultCacheOptions {
  /// Maximum cached entries across all stripes (split evenly; at least one
  /// per stripe). Each entry holds k ids plus the key/stamp — tiny next to
  /// the database, so generous capacities are cheap.
  std::size_t capacity = 1 << 14;
  /// Lock stripes (rounded up to a power of two). More stripes = less
  /// contention between concurrent lookups that map to different stripes.
  std::size_t stripes = 16;
};

/// Monotonic counters over the cache's lifetime (Clear resets entries, not
/// counters). stale_evictions counts entries dropped because their epoch
/// stamp no longer matched — the invalidation path — and is disjoint from
/// (capacity) evictions.
struct ResultCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t stale_evictions = 0;
  std::size_t entries = 0;  ///< currently resident
};

class ResultCache {
 public:
  explicit ResultCache(const ResultCacheOptions& options = {});

  /// 128-bit cache key; compared in full on lookup so a 64-bit hash
  /// collision cannot alias two distinct queries within a stripe.
  struct Key {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    bool operator==(const Key& other) const {
      return lo == other.lo && hi == other.hi;
    }
  };

  /// Hashes the token bytes and the id-shaping settings into a key. Two
  /// byte-identical (token, k, shaping-settings) triples always collide to
  /// the same key. Equal-length tokens that differ within one 8-byte word
  /// always differ in both lo and hi; any other difference separates them up
  /// to 128-bit hash collision odds.
  static Key MakeKey(const QueryToken& token, std::size_t k,
                     const SearchSettings& settings);

  /// Returns true and fills `ids` when the key is resident with a stamp
  /// equal to `epoch` (and promotes the entry to most-recently-used). A
  /// resident entry with any other stamp is removed (stale eviction) and
  /// reported as a miss.
  bool Lookup(const Key& key, std::uint64_t epoch, std::vector<VectorId>* ids);

  /// Caches `ids` under the key, stamped with `epoch`, evicting the
  /// stripe's least-recently-used entry if its slice of the capacity is
  /// full. Re-inserting a resident key overwrites its value and stamp.
  void Insert(const Key& key, std::uint64_t epoch,
              const std::vector<VectorId>& ids);

  /// Drops every entry. Counters survive; the mutation epoch is untouched
  /// (epochs only ever move forward).
  void Clear();

  /// The facade's mutation-epoch counter. Bumped on every accepted
  /// Insert/Delete/WAL-replay; an entry stamped before the bump can never
  /// match again, which is wholesale invalidation without touching the
  /// stripes.
  std::uint64_t mutation_epoch() const {
    return mutation_epoch_.load(std::memory_order_acquire);
  }
  void BumpMutationEpoch() {
    mutation_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

  ResultCacheStats Stats() const;

  std::size_t capacity() const { return capacity_; }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      // lo is already a full-width hash of the query bytes.
      return static_cast<std::size_t>(key.lo);
    }
  };

  struct Entry {
    Key key;
    std::uint64_t epoch = 0;
    std::vector<VectorId> ids;
  };

  /// One LRU shard: list front = most recently used; the map indexes list
  /// iterators (stable under splice).
  struct Stripe {
    std::mutex mu;
    std::list<Entry> lru;
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map;
  };

  Stripe& StripeFor(const Key& key) {
    // hi is an independent hash of the same bytes, so stripe choice and
    // in-stripe bucket choice (lo) are decorrelated.
    return stripes_[key.hi & (stripes_.size() - 1)];
  }

  std::size_t capacity_ = 0;
  std::size_t per_stripe_capacity_ = 0;
  std::vector<Stripe> stripes_;

  std::atomic<std::uint64_t> mutation_epoch_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> stale_evictions_{0};
};

}  // namespace ppanns

#endif  // PPANNS_CORE_RESULT_CACHE_H_
