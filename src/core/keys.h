// Key material and parameters of the PP-ANNS scheme (Section V).
//
// The scheme composes two encryption layers over the same database:
//  * DCPE/SAP ciphertexts — approximate-distance layer; the HNSW graph is
//    built over these, and the filter phase computes distances on them.
//  * DCE ciphertexts — exact-comparison layer; the refine phase uses them
//    through DistanceComp only.
// The secret keys of both layers stay with the data owner and authorized
// query users; the cloud server receives only ciphertexts and the index.

#ifndef PPANNS_CORE_KEYS_H_
#define PPANNS_CORE_KEYS_H_

#include <cstdint>
#include <memory>

#include "crypto/dce.h"
#include "crypto/dcpe.h"
#include "crypto/key_io.h"
#include "index/secure_filter_index.h"

namespace ppanns {

/// Tunable parameters of the scheme.
struct PpannsParams {
  double dcpe_s = 1024.0;  ///< SAP scaling factor (paper recommendation)
  double dcpe_beta = 0.0;  ///< SAP noise bound; tuned per dataset (Fig. 4)
  double dce_scale_hint = 1.0;  ///< typical vector norm, for DCE blinding
  /// Filter-phase substrate (Algorithm 2, line 1) and its per-backend knobs.
  /// The kind is serialized with the encrypted database, so a loaded package
  /// reconstructs the same backend. `lsh.bucket_width` is in *plaintext*
  /// units; FilterOptions scales it by dcpe_s to match the SAP ciphertexts
  /// the index actually stores.
  IndexKind index_kind = IndexKind::kHnsw;
  HnswParams hnsw;         ///< graph construction parameters
  IvfParams ivf;           ///< inverted-file parameters
  LshParams lsh;           ///< hashing parameters
  /// Int8 scalar-quantized filter tier for the flat backends (ivf, brute):
  /// posting/linear scans run over a one-byte-per-dimension code mirror and
  /// an oversampled shortlist is re-ranked exactly (see index/sq8.h). Off by
  /// default — enabling it bumps the backend's serialized format version.
  SqParams sq;
  /// Number of database partitions (Section V north-star scaling). 1 keeps
  /// the paper's single-index layout; > 1 makes DataOwner produce a
  /// ShardedEncryptedDatabase whose per-shard indexes build in parallel and
  /// are searched scatter-gather by ShardedCloudServer.
  std::uint32_t num_shards = 1;
  /// Replicas of every shard (serving-tier redundancy). 1 keeps the PR-2
  /// layout; R > 1 deploys every shard as R identical replicas (the package
  /// writes each shard's payload R times), so ShardedCloudServer can fail
  /// over on replica loss and hedge slow replicas without changing any
  /// result id. Only meaningful with
  /// num_shards >= 1 sharded builds (EncryptAndIndexSharded).
  std::uint32_t num_replicas = 1;
  /// Intra-shard index build threads (the HNSW wave builder; other backends
  /// build sequentially regardless). 1 keeps the sequential insertion order.
  /// With B > 1 a sharded build runs num_shards x build_threads construction
  /// threads, and the graph is byte-identical at every B >= 2 (its recall is
  /// within a point of the sequential graph). Build-time only — never
  /// serialized with the package (see docs/file-formats.md).
  std::uint32_t build_threads = 1;
  std::uint64_t seed = 0xC0FFEE;

  /// Resolves the per-backend options for index construction: LSH widths are
  /// rescaled into ciphertext space, and backend seeds are mixed with the
  /// deployment seed so two deployments never share projections. `shard`
  /// additionally decorrelates the randomized structures (HNSW levels, IVF
  /// centroids, LSH projections) across shards of one deployment.
  SecureFilterIndexOptions FilterOptions(ShardId shard = 0) const {
    SecureFilterIndexOptions options{hnsw, ivf, lsh, sq};
    // shard 0 reproduces the historical single-index options bit-for-bit.
    const std::uint64_t shard_mix =
        shard == 0 ? 0 : 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(shard);
    options.hnsw.seed = hnsw.seed ^ shard_mix;
    options.lsh.bucket_width = lsh.bucket_width * dcpe_s;
    options.ivf.seed = ivf.seed ^ seed ^ shard_mix;
    options.lsh.seed = lsh.seed ^ seed ^ shard_mix;
    return options;
  }
};

/// The owner/user side key bundle.
struct SecretKeys {
  SecretKeys(DceScheme dce_in, DcpeScheme dcpe_in)
      : dce(std::move(dce_in)), dcpe(std::move(dcpe_in)) {}
  DceScheme dce;
  DcpeScheme dcpe;
};

using SecretKeysPtr = std::shared_ptr<const SecretKeys>;

/// Persists the full key bundle (Fig. 1 step 0 hand-off: owner -> authorized
/// user over a secure channel). Never send this to the cloud.
inline void SerializeSecretKeys(const SecretKeys& keys, BinaryWriter* out) {
  SerializeDceKey(keys.dce.key(), out);
  SerializeDcpeKey(keys.dcpe.key(), out);
}

inline Result<SecretKeysPtr> DeserializeSecretKeys(BinaryReader* in) {
  Result<DceSecretKey> dce_key = DeserializeDceKey(in);
  if (!dce_key.ok()) return dce_key.status();
  Result<DcpeSecretKey> dcpe_key = DeserializeDcpeKey(in);
  if (!dcpe_key.ok()) return dcpe_key.status();
  Result<DcpeScheme> dcpe = DcpeScheme::FromKey(*dcpe_key);
  if (!dcpe.ok()) return dcpe.status();
  return std::make_shared<const SecretKeys>(
      DceScheme::FromKey(std::move(*dce_key)), std::move(*dcpe));
}

}  // namespace ppanns

#endif  // PPANNS_CORE_KEYS_H_
