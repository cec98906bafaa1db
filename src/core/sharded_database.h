// The sharded outsourced package: S per-shard EncryptedDatabases, the
// replica count they are deployed at, and the manifest that locates every
// global VectorId as a (shard, local id) pair.
//
// Sharding is the scaling seam of the serving stack (ROADMAP north-star):
// the data owner partitions the corpus at encryption time, per-shard filter
// indexes build independently (and therefore in parallel), and the
// ShardedCloudServer answers queries scatter-gather. Replication is the
// availability seam on top: every shard may be deployed at R replicas, so
// the serving tier can fail over on replica loss and hedge slow replicas
// without changing a single result id. Replicas are identical, so the
// package holds each shard once; the wire format is a versioned envelope
// that wraps the existing single-shard format unchanged and writes each
// shard's payload R times, so every replica payload is itself a loadable
// EncryptedDatabase.

#ifndef PPANNS_CORE_SHARDED_DATABASE_H_
#define PPANNS_CORE_SHARDED_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "common/types.h"
#include "core/encrypted_database.h"

namespace ppanns {

/// Sentinel manifest entry for a global id whose stored vector was
/// physically dropped by tombstone compaction: the global id stays valid
/// forever (ids are never reused) but no longer maps to any slot. Delete on
/// a dead ref is NotFound; search can never surface one (the vector is
/// gone from every index).
inline constexpr ShardRef kDeadShardRef{0xFFFFFFFFu, 0xFFFFFFFFu};

inline bool IsDeadRef(const ShardRef& ref) {
  return ref.shard == kDeadShardRef.shard;
}

/// Maps global vector ids to their (shard, local id) location. Global ids
/// are dense in insertion order, exactly like single-shard VectorIds, so
/// callers never see the partitioning in the result contract. Replication is
/// invisible here: all replicas of a shard store the same local id space.
struct ShardManifest {
  /// entries[g] locates global id g. Exposed directly so tests can craft
  /// malformed manifests; every load path revalidates via Validate().
  std::vector<ShardRef> entries;

  /// Records the next global id as living at (shard, local); returns it.
  VectorId Append(ShardId shard, VectorId local) {
    entries.push_back(ShardRef{shard, local});
    return static_cast<VectorId>(entries.size() - 1);
  }

  std::size_t size() const { return entries.size(); }

  const ShardRef& at(VectorId global_id) const { return entries[global_id]; }

  /// Checks the manifest against the shards it claims to describe:
  /// every live entry's shard must exist, every local id must be in range,
  /// no two global ids may share a (shard, local) slot, and each shard's
  /// local id space [0, capacity) must be covered exactly by the live
  /// entries — together these reject overlapping id ranges and shard-count
  /// mismatches. Dead (kDeadShardRef) entries occupy no slot and are
  /// skipped; they only appear in compacted packages (envelope v3).
  Status Validate(const std::vector<std::size_t>& shard_capacities) const;

  /// Live (non-dead) entry count.
  std::size_t live_size() const {
    std::size_t n = 0;
    for (const ShardRef& ref : entries) n += IsDeadRef(ref) ? 0 : 1;
    return n;
  }

  /// The manifest of a single-index package served as one shard: global id
  /// g is (shard 0, local g) over the whole capacity, tombstones included (a
  /// deleted slot keeps its id, exactly as in the single-index package).
  static ShardManifest Identity(std::size_t capacity) {
    ShardManifest m;
    m.entries.reserve(capacity);
    for (std::size_t g = 0; g < capacity; ++g) {
      m.Append(0, static_cast<VectorId>(g));
    }
    return m;
  }

  void Serialize(BinaryWriter* out) const { out->PutVector(entries); }

  static Result<ShardManifest> Deserialize(BinaryReader* in) {
    ShardManifest m;
    PPANNS_RETURN_IF_ERROR(in->GetVector(&m.entries));
    return m;
  }
};

/// The complete sharded (and possibly replicated) outsourced package.
struct ShardedEncryptedDatabase {
  /// shards[s] is shard s. Its R replicas are identical (the whole point —
  /// any replica answers for the shard with identical results), so the
  /// package holds one copy and the envelope writes it R times.
  std::vector<EncryptedDatabase> shards;
  /// Replicas per shard (uniform across shards; 1 when unreplicated).
  std::size_t num_replicas = 1;
  ShardManifest manifest;

  /// Monotonic count of structural maintenance operations (compactions and
  /// shard splits) applied to this package. 0 = never compacted — such
  /// packages serialize as the byte-stable v1/v2 envelopes; any compacted
  /// state writes the checksummed v3 envelope.
  std::uint64_t state_version = 0;
  /// Per-shard compaction generation (empty or size num_shards). Carried so
  /// a reloaded package reports the same maintenance history it had live.
  std::vector<std::uint64_t> compaction_epochs;

  std::size_t num_shards() const { return shards.size(); }

  std::size_t replication_factor() const { return num_replicas; }

  /// Envelope: magic "PPSH", version, shard count, [v2: replica count], the
  /// per-(shard, replica) EncryptedDatabase payloads (each self-describing;
  /// shard s's payload R times in a row), then the manifest. A replication
  /// factor of 1 writes the version-1 envelope byte-for-byte, so unreplicated
  /// packages stay readable by older loaders. A compacted package
  /// (state_version > 0) writes the v3 envelope instead: replica count
  /// always present, state version + per-shard compaction epochs after the
  /// counts, and a CRC-32 + magic footer that rejects torn writes at load
  /// time (see docs/file-formats.md).
  void Serialize(BinaryWriter* out) const;

  /// Writes the v1/v2 envelope prefix (magic, version, shard count and —
  /// when num_replicas > 1 — the replica count).
  static void WriteEnvelopeHeader(BinaryWriter* out, std::uint32_t num_shards,
                                  std::uint32_t num_replicas);

  /// Writes a whole envelope around `num_shards` shard payloads: the prefix
  /// the state version selects (v1/v2 at 0, v3 above), shard s's payload —
  /// write_shard(s, out) — num_replicas times in a row per shard, the
  /// manifest and, for v3, the CRC-32 + magic footer that rejects torn
  /// writes at load time. Serialize and ShardedCloudServer::SerializeDatabase
  /// (which streams live shards) both write through it.
  static void WriteEnvelope(
      BinaryWriter* out, std::size_t num_shards, std::size_t num_replicas,
      std::uint64_t state_version,
      const std::vector<std::uint64_t>& compaction_epochs,
      const std::function<void(std::size_t, BinaryWriter*)>& write_shard,
      const ShardManifest& manifest);

  /// Reads any envelope version, loading each shard's replica 0 through the
  /// existing EncryptedDatabase path, and rejects inconsistent packages:
  /// manifests with overlapping ids, out-of-range shards or coverage
  /// mismatches, and replica payloads that disagree with replica 0 on
  /// capacity. Every other replica payload is checked and dropped, so one
  /// that drifted from replica 0's bytes is served as replica 0. A bare
  /// single-index ("PPDB") package loads as the 1x1, state-version-0 package
  /// it describes, with the identity manifest — so every load path reads
  /// both formats through this one call.
  static Result<ShardedEncryptedDatabase> Deserialize(BinaryReader* in);
};

}  // namespace ppanns

#endif  // PPANNS_CORE_SHARDED_DATABASE_H_
