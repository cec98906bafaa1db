// The data owner role (Fig. 1, step 0-1): generates keys, encrypts the
// database under both layers, builds the privacy-preserving index over the
// SAP ciphertexts, and produces the package outsourced to the cloud.

#ifndef PPANNS_CORE_DATA_OWNER_H_
#define PPANNS_CORE_DATA_OWNER_H_

#include <memory>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "core/encrypted_database.h"
#include "core/keys.h"
#include "core/sharded_database.h"

namespace ppanns {

/// The data-owner role (Fig. 1, steps 0-1): generates or wraps the secret
/// key bundle, encrypts a plaintext corpus under both layers (DCPE/SAP for
/// the filter index, DCE for exact refinement), builds the
/// privacy-preserving filter index over the SAP ciphertexts only, and
/// produces the package outsourced to the cloud — flat
/// (EncryptedDatabase) or sharded/replicated (ShardedEncryptedDatabase).
/// Owns the randomness: for a fixed (seed, data, params) every build is
/// byte-deterministic regardless of thread scheduling. With
/// build_threads > 1 the intra-shard HNSW construction runs the wave
/// builder, whose graph is the same at every thread count >= 2.
class DataOwner {
 public:
  /// Generates fresh keys for d-dimensional data.
  static Result<DataOwner> Create(std::size_t dim, const PpannsParams& params);

  /// Wraps an existing key bundle (e.g. loaded from a keygen file) instead
  /// of generating one; validates that the keys match `dim`.
  static Result<DataOwner> FromKeys(SecretKeysPtr keys, std::size_t dim,
                                    const PpannsParams& params);

  /// Encrypts every row of `data` (DCPE + DCE) and builds the filter index
  /// (params.index_kind) over the SAP ciphertexts (never the plaintexts —
  /// Section V-A). The result is everything the cloud server receives.
  EncryptedDatabase EncryptAndIndex(const FloatMatrix& data);

  /// Same output contract, but computes the DCE layer (the expensive part:
  /// O(d^2) per vector) on the global thread pool, and — when
  /// params.build_threads > 1 — fans the graph construction itself across
  /// that many build threads (SecureFilterIndex::BuildParallel, the
  /// deterministic wave builder). Per-row encryption randomness is
  /// derived from the owner seed and the row index, so the ciphertexts are
  /// deterministic for a given (seed, data) regardless of thread scheduling.
  EncryptedDatabase EncryptAndIndexParallel(const FloatMatrix& data);

  /// Partitions the dataset round-robin across params.num_shards shards and
  /// produces the sharded outsourced package. Per-shard graph construction
  /// runs in parallel on the global ThreadPool, and params.build_threads > 1
  /// additionally parallelizes *inside* each shard's HNSW build (the wave
  /// builder), so construction can use up to
  /// num_shards x build_threads cores. Consumes
  /// owner randomness exactly like EncryptAndIndexParallel (sequential
  /// SAP-only pass in global row order, per-row derived DCE randomness), so
  /// for a given (seed, data) every row's SAP ciphertext is identical under
  /// any shard count and the package is deterministic regardless of thread
  /// scheduling.
  ///
  /// params.num_replicas (R) is recorded as the package's replica count:
  /// each shard is built once and deployed as R identical replicas, so the
  /// serving tier can fail over on replica loss and hedge slow replicas
  /// with provably identical results.
  ShardedEncryptedDatabase EncryptAndIndexSharded(const FloatMatrix& data);

  /// Encrypts a single new vector for insertion (Section V-D); the pair is
  /// sent to the server, which links it into the graph.
  EncryptedVector EncryptOne(const float* v);

  /// Hands the secret key bundle to an authorized query user (step 0).
  SecretKeysPtr ShareKeys() const { return keys_; }

  std::size_t dim() const { return dim_; }
  const PpannsParams& params() const { return params_; }

 private:
  DataOwner(std::size_t dim, PpannsParams params, SecretKeysPtr keys)
      : dim_(dim), params_(std::move(params)), keys_(std::move(keys)),
        rng_(params_.seed ^ 0xD07A0A37) {}

  /// Constructs the empty filter index configured by params_.index_kind;
  /// `shard` decorrelates the randomized structures across shards.
  std::unique_ptr<SecureFilterIndex> MakeFilterIndex(ShardId shard = 0) const;

  std::size_t dim_;
  PpannsParams params_;
  SecretKeysPtr keys_;
  Rng rng_;
};

}  // namespace ppanns

#endif  // PPANNS_CORE_DATA_OWNER_H_
