#include "core/result_cache.h"

#include <array>
#include <cstring>

#include "core/cloud_server.h"
#include "core/query_client.h"

namespace ppanns {
namespace {

std::size_t RoundUpPow2(std::size_t x) {
  std::size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

inline std::uint64_t Rotl(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

/// splitmix64's finalizer: a bijection on 64 bits with full avalanche.
inline std::uint64_t Avalanche(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Word-wise 128-bit mixer. Input is read as 8-byte words spread round-robin
/// over four 64-bit lanes, each updated by xxHash64's round
/// (lane + w * P2, rotate, * P1), so four independent multiply chains run at
/// once. Each round is a bijection of its lane for a fixed word and of the
/// word for a fixed lane, and Finish folds the lanes into lo and hi through
/// bijections in every lane, so a change confined to one word (any single
/// bit flip of a token) always changes both halves. Words are loaded in host
/// byte order: keys live only in this process's memory.
///
/// Not collision-resistant: whoever can choose token bytes can construct two
/// tokens with one key. The cache assumes tokens are what honest clients
/// produce, randomized ciphertexts.
class Mix128 {
 public:
  void U64(std::uint64_t v) { lanes_[0] = Round(lanes_[0], v); }

  /// The caller length-prefixes every Bytes call, so zero-padding a trailing
  /// partial word cannot alias two inputs.
  void Bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t l0 = lanes_[0], l1 = lanes_[1], l2 = lanes_[2],
                  l3 = lanes_[3];
    for (; len >= 32; p += 32, len -= 32) {
      l0 = Round(l0, Load(p, 8));
      l1 = Round(l1, Load(p + 8, 8));
      l2 = Round(l2, Load(p + 16, 8));
      l3 = Round(l3, Load(p + 24, 8));
    }
    lanes_ = {l0, l1, l2, l3};
    for (std::size_t i = 0; len > 0; ++i) {
      const std::size_t take = len < 8 ? len : 8;
      lanes_[i] = Round(lanes_[i], Load(p, take));
      p += take;
      len -= take;
    }
  }

  ResultCache::Key Finish() const {
    const std::uint64_t a = Avalanche(lanes_[0] + Rotl(lanes_[1], 23));
    const std::uint64_t b = Avalanche(lanes_[2] + Rotl(lanes_[3], 23));
    return ResultCache::Key{Avalanche(a ^ Rotl(b, 17)),
                            Avalanche(b + Rotl(a, 41))};
  }

 private:
  static constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
  static constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;

  static std::uint64_t Round(std::uint64_t lane, std::uint64_t w) {
    return Rotl(lane + w * kP2, 31) * kP1;
  }

  static std::uint64_t Load(const unsigned char* p, std::size_t n) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    return w;
  }

  std::array<std::uint64_t, 4> lanes_ = {kP1 + kP2, kP2, 0x2545F4914F6CDD1Dull,
                                         0 - kP1};
};

}  // namespace

ResultCache::ResultCache(const ResultCacheOptions& options) {
  const std::size_t n = RoundUpPow2(options.stripes == 0 ? 1 : options.stripes);
  stripes_ = std::vector<Stripe>(n);
  per_stripe_capacity_ =
      options.capacity < n ? 1 : (options.capacity + n - 1) / n;
  capacity_ = per_stripe_capacity_ * n;
}

ResultCache::Key ResultCache::MakeKey(const QueryToken& token, std::size_t k,
                                      const SearchSettings& settings) {
  Mix128 mix;
  // Only the id-shaping knobs: deadline/admission/hedging never change the
  // ids of a completed query, and only completed queries are cached.
  mix.U64(static_cast<std::uint64_t>(k));
  mix.U64(static_cast<std::uint64_t>(settings.k_prime));
  mix.U64(static_cast<std::uint64_t>(settings.ef_search));
  mix.U64(settings.refine ? 1 : 0);
  mix.U64(static_cast<std::uint64_t>(settings.node_budget));
  // Length prefixes keep (sap, trapdoor) framing unambiguous.
  mix.U64(static_cast<std::uint64_t>(token.sap.size()));
  mix.Bytes(token.sap.data(), token.sap.size() * sizeof(float));
  mix.U64(static_cast<std::uint64_t>(token.trapdoor.data.size()));
  mix.Bytes(token.trapdoor.data.data(),
            token.trapdoor.data.size() * sizeof(double));
  return mix.Finish();
}

bool ResultCache::Lookup(const Key& key, std::uint64_t epoch,
                         std::vector<VectorId>* ids) {
  Stripe& stripe = StripeFor(key);
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.map.find(key);
    if (it != stripe.map.end()) {
      if (it->second->epoch == epoch) {
        *ids = it->second->ids;
        stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second);
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      // Stamped against a database state that no longer exists: the answer
      // may differ from a fresh search, so it must never be served.
      stripe.lru.erase(it->second);
      stripe.map.erase(it);
      stale_evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void ResultCache::Insert(const Key& key, std::uint64_t epoch,
                         const std::vector<VectorId>& ids) {
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.map.find(key);
  if (it != stripe.map.end()) {
    // A concurrent search of the same token finished first; refresh in
    // place (the newer epoch wins — stamps only move forward).
    it->second->epoch = epoch;
    it->second->ids = ids;
    stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second);
    return;
  }
  if (stripe.lru.size() >= per_stripe_capacity_) {
    stripe.map.erase(stripe.lru.back().key);
    stripe.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  stripe.lru.push_front(Entry{key, epoch, ids});
  stripe.map.emplace(key, stripe.lru.begin());
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

void ResultCache::Clear() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.lru.clear();
    stripe.map.clear();
  }
}

ResultCacheStats ResultCache::Stats() const {
  ResultCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.stale_evictions = stale_evictions_.load(std::memory_order_relaxed);
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(const_cast<Stripe&>(stripe).mu);
    stats.entries += stripe.lru.size();
  }
  return stats;
}

}  // namespace ppanns
