#include "core/sharded_database.h"

#include <cstring>
#include <functional>
#include <string>

#include "common/wal.h"

namespace ppanns {
namespace {

constexpr std::uint32_t kShardedMagic = 0x50505348;  // "PPSH"
// v1: no replication — one payload per shard. v2 inserts a replica count
// after the shard count and stores replication_factor payloads per shard,
// replicas of one shard adjacent. Both load; v1 is still written whenever
// the factor is 1 so unreplicated packages stay bit-compatible with PR 2.
// v3 is the live-mutation envelope: written only once a package has been
// structurally maintained (compaction / shard split, state_version > 0), it
// always carries the replica count, adds the state version and per-shard
// compaction epochs, allows dead (compacted-away) manifest entries, and
// closes with a CRC-32 + magic footer so a torn write is rejected at load
// instead of serving a half-state. Never-compacted packages keep writing
// v1/v2, so deterministic-build byte pins are unaffected.
constexpr std::uint32_t kShardedVersionV1 = 1;
constexpr std::uint32_t kShardedVersionV2 = 2;
constexpr std::uint32_t kShardedVersionV3 = 3;

// Upper bounds no legitimate deployment approaches; reject fuzzed counts
// before they turn into giant allocations.
constexpr std::uint32_t kMaxShards = 1u << 16;
constexpr std::uint32_t kMaxReplicas = 64;

}  // namespace

Status ShardManifest::Validate(
    const std::vector<std::size_t>& shard_capacities) const {
  std::size_t total_capacity = 0;
  for (std::size_t cap : shard_capacities) total_capacity += cap;
  // Dead refs occupy no slot, so the *live* entries must cover the stored
  // vectors exactly (a never-compacted manifest has no dead refs, and the
  // check degenerates to the original entries.size() comparison).
  if (live_size() != total_capacity) {
    return Status::IOError(
        "ShardManifest: " + std::to_string(live_size()) +
        " live entries cannot cover " + std::to_string(total_capacity) +
        " vectors across " + std::to_string(shard_capacities.size()) +
        " shards");
  }

  // One flag per (shard, local) slot; an entry hitting a set flag means two
  // global ids overlap on the same stored vector.
  std::vector<std::vector<bool>> seen(shard_capacities.size());
  for (std::size_t s = 0; s < shard_capacities.size(); ++s) {
    seen[s].assign(shard_capacities[s], false);
  }
  for (std::size_t g = 0; g < entries.size(); ++g) {
    const ShardRef& ref = entries[g];
    if (IsDeadRef(ref)) {
      if (ref.local != kDeadShardRef.local) {
        return Status::IOError("ShardManifest: global id " +
                               std::to_string(g) +
                               " has a malformed dead-ref sentinel");
      }
      continue;  // a compacted-away id occupies no slot
    }
    if (ref.shard >= shard_capacities.size()) {
      return Status::IOError("ShardManifest: global id " + std::to_string(g) +
                             " references shard " + std::to_string(ref.shard) +
                             " but the envelope has " +
                             std::to_string(shard_capacities.size()));
    }
    if (ref.local >= shard_capacities[ref.shard]) {
      return Status::IOError("ShardManifest: global id " + std::to_string(g) +
                             " references local id " +
                             std::to_string(ref.local) + " beyond shard " +
                             std::to_string(ref.shard) + " capacity " +
                             std::to_string(shard_capacities[ref.shard]));
    }
    if (seen[ref.shard][ref.local]) {
      return Status::IOError(
          "ShardManifest: overlapping entries — (shard " +
          std::to_string(ref.shard) + ", local " + std::to_string(ref.local) +
          ") is claimed by two global ids");
    }
    seen[ref.shard][ref.local] = true;
  }
  // entries.size() == total_capacity and no slot was hit twice, so every
  // slot is covered exactly once.
  return Status::OK();
}

void ShardedEncryptedDatabase::WriteEnvelopeHeader(
    BinaryWriter* out, std::uint32_t num_shards, std::uint32_t num_replicas) {
  out->Put<std::uint32_t>(kShardedMagic);
  if (num_replicas <= 1) {
    // Unreplicated packages keep the PR-2 wire bytes.
    out->Put<std::uint32_t>(kShardedVersionV1);
    out->Put<std::uint32_t>(num_shards);
    return;
  }
  out->Put<std::uint32_t>(kShardedVersionV2);
  out->Put<std::uint32_t>(num_shards);
  out->Put<std::uint32_t>(num_replicas);
}

void ShardedEncryptedDatabase::WriteEnvelope(
    BinaryWriter* out, std::size_t num_shards, std::size_t num_replicas,
    std::uint64_t state_version,
    const std::vector<std::uint64_t>& compaction_epochs,
    const std::function<void(std::size_t, BinaryWriter*)>& write_shard,
    const ShardManifest& manifest) {
  const auto shard_count = static_cast<std::uint32_t>(num_shards);
  const auto replica_count = static_cast<std::uint32_t>(num_replicas);
  std::size_t crc_begin = 0;
  if (state_version > 0) {
    // v3 prefix: magic, version, counts, state version, per-shard epochs.
    // The footer CRC covers everything after the magic.
    out->Put<std::uint32_t>(kShardedMagic);
    crc_begin = out->buffer().size();
    out->Put<std::uint32_t>(kShardedVersionV3);
    out->Put<std::uint32_t>(shard_count);
    out->Put<std::uint32_t>(replica_count);
    out->Put<std::uint64_t>(state_version);
    for (std::size_t s = 0; s < num_shards; ++s) {
      out->Put<std::uint64_t>(
          s < compaction_epochs.size() ? compaction_epochs[s] : 0);
    }
  } else {
    WriteEnvelopeHeader(out, shard_count, replica_count);
  }
  for (std::size_t s = 0; s < num_shards; ++s) {
    for (std::size_t r = 0; r < num_replicas; ++r) write_shard(s, out);
  }
  manifest.Serialize(out);
  if (state_version > 0) {
    // Torn-write footer: CRC-32 over [crc_begin, end), then the magic again.
    const std::uint32_t crc = Crc32(out->buffer().data() + crc_begin,
                                    out->buffer().size() - crc_begin);
    out->Put<std::uint32_t>(crc);
    out->Put<std::uint32_t>(kShardedMagic);
  }
}

void ShardedEncryptedDatabase::Serialize(BinaryWriter* out) const {
  WriteEnvelope(
      out, shards.size(), num_replicas, state_version, compaction_epochs,
      [this](std::size_t s, BinaryWriter* w) { shards[s].Serialize(w); },
      manifest);
}

Result<ShardedEncryptedDatabase> ShardedEncryptedDatabase::Deserialize(
    BinaryReader* in) {
  std::uint32_t magic = 0, version = 0, num_shards = 0, num_replicas = 1;
  if (in->remaining() >= sizeof(magic)) {
    std::memcpy(&magic, in->bytes() + in->position(), sizeof(magic));
  }
  if (magic == kEncryptedDatabaseMagic) {
    // A single-index package is one shard of one replica whose global ids
    // are its local ids.
    Result<EncryptedDatabase> single = EncryptedDatabase::Deserialize(in);
    if (!single.ok()) return single.status();
    ShardedEncryptedDatabase db;
    db.manifest = ShardManifest::Identity(single->index->capacity());
    db.shards.push_back(std::move(*single));
    return db;
  }
  PPANNS_RETURN_IF_ERROR(in->Get(&magic));
  const std::size_t crc_begin = in->position();
  if (magic != kShardedMagic) {
    return Status::IOError("ShardedEncryptedDatabase: bad magic");
  }
  PPANNS_RETURN_IF_ERROR(in->Get(&version));
  if (version != kShardedVersionV1 && version != kShardedVersionV2 &&
      version != kShardedVersionV3) {
    return Status::IOError("ShardedEncryptedDatabase: unsupported version");
  }
  PPANNS_RETURN_IF_ERROR(in->Get(&num_shards));
  if (num_shards == 0 || num_shards > kMaxShards) {
    return Status::IOError("ShardedEncryptedDatabase: implausible shard count " +
                           std::to_string(num_shards));
  }
  if (version != kShardedVersionV1) {
    PPANNS_RETURN_IF_ERROR(in->Get(&num_replicas));
    if (num_replicas == 0 || num_replicas > kMaxReplicas) {
      return Status::IOError(
          "ShardedEncryptedDatabase: implausible replica count " +
          std::to_string(num_replicas));
    }
  }

  ShardedEncryptedDatabase db;
  if (version == kShardedVersionV3) {
    PPANNS_RETURN_IF_ERROR(in->Get(&db.state_version));
    if (db.state_version == 0) {
      return Status::IOError(
          "ShardedEncryptedDatabase: v3 envelope with zero state version");
    }
    db.compaction_epochs.resize(num_shards);
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      PPANNS_RETURN_IF_ERROR(in->Get(&db.compaction_epochs[s]));
    }
  }
  db.num_replicas = num_replicas;
  db.shards.reserve(num_shards);
  std::vector<std::size_t> capacities;
  capacities.reserve(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    const std::size_t first_pos = in->position();
    std::size_t first_len = 0;
    for (std::uint32_t r = 0; r < num_replicas; ++r) {
      // Every replica of a shard serves replica 0's bytes, so a payload
      // byte-equal to replica 0's is skipped unparsed: parsing would read
      // the same bytes to the same result. Only a differing payload is
      // parsed, for its capacity check.
      if (r > 0 && in->remaining() >= first_len &&
          std::memcmp(in->bytes() + in->position(), in->bytes() + first_pos,
                      first_len) == 0) {
        PPANNS_RETURN_IF_ERROR(in->Skip(first_len));
        continue;
      }
      Result<EncryptedDatabase> replica = EncryptedDatabase::Deserialize(in);
      if (!replica.ok()) {
        if (r == 0) return replica.status();
        return Status::IOError("ShardedEncryptedDatabase: shard " +
                               std::to_string(s) + " replica " +
                               std::to_string(r) + ": " +
                               replica.status().ToString());
      }
      if (r == 0) {
        first_len = in->position() - first_pos;
        capacities.push_back(replica->index->capacity());
        db.shards.push_back(std::move(*replica));
        continue;
      }
      // Replicas of one shard must agree on the local id space, or the
      // manifest (validated against replica 0) would mislocate vectors.
      if (replica->index->capacity() != capacities[s]) {
        return Status::IOError(
            "ShardedEncryptedDatabase: shard " + std::to_string(s) +
            " replica " + std::to_string(r) + " capacity " +
            std::to_string(replica->index->capacity()) +
            " disagrees with replica 0 capacity " +
            std::to_string(capacities[s]));
      }
      // A payload that drifted from replica 0 (written by a version that
      // repaired every replica on its own, or damaged) is dropped too.
    }
  }

  Result<ShardManifest> manifest = ShardManifest::Deserialize(in);
  if (!manifest.ok()) return manifest.status();
  if (version != kShardedVersionV3) {
    // Dead refs exist only in compacted (v3) packages; a v1/v2 envelope
    // carrying one is corrupt or crafted.
    for (const ShardRef& ref : manifest->entries) {
      if (IsDeadRef(ref)) {
        return Status::IOError(
            "ShardedEncryptedDatabase: dead manifest entry in a pre-v3 "
            "envelope");
      }
    }
  }
  PPANNS_RETURN_IF_ERROR(manifest->Validate(capacities));
  db.manifest = std::move(*manifest);

  if (version == kShardedVersionV3) {
    // Torn-write rejection: the footer CRC covers everything after the
    // magic up to the end of the manifest, then the magic repeats. A crash
    // mid-write leaves a short or mismatched footer and the load fails as a
    // whole — there is no half-applied state.
    const std::size_t crc_end = in->position();
    std::uint32_t crc = 0, footer_magic = 0;
    PPANNS_RETURN_IF_ERROR(in->Get(&crc));
    PPANNS_RETURN_IF_ERROR(in->Get(&footer_magic));
    const std::uint32_t want =
        Crc32(in->bytes() + crc_begin, crc_end - crc_begin);
    if (crc != want || footer_magic != kShardedMagic) {
      return Status::IOError(
          "ShardedEncryptedDatabase: torn v3 envelope (checksum/footer "
          "mismatch)");
    }
  }
  return db;
}

}  // namespace ppanns
