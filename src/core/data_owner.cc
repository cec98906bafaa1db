#include "core/data_owner.h"

#include "common/thread_pool.h"

namespace ppanns {

Result<DataOwner> DataOwner::Create(std::size_t dim,
                                    const PpannsParams& params) {
  if (params.num_shards == 0) {
    return Status::InvalidArgument("DataOwner: num_shards must be >= 1");
  }
  if (params.num_replicas == 0) {
    return Status::InvalidArgument("DataOwner: num_replicas must be >= 1");
  }
  Rng key_rng(params.seed);
  Result<DceScheme> dce = DceScheme::KeyGen(dim, key_rng, params.dce_scale_hint);
  if (!dce.ok()) return dce.status();
  Result<DcpeScheme> dcpe =
      DcpeScheme::Create(dim, params.dcpe_s, params.dcpe_beta);
  if (!dcpe.ok()) return dcpe.status();

  auto keys =
      std::make_shared<const SecretKeys>(std::move(*dce), std::move(*dcpe));
  return DataOwner(dim, params, std::move(keys));
}

Result<DataOwner> DataOwner::FromKeys(SecretKeysPtr keys, std::size_t dim,
                                      const PpannsParams& params) {
  if (params.num_shards == 0) {
    return Status::InvalidArgument("DataOwner: num_shards must be >= 1");
  }
  if (params.num_replicas == 0) {
    return Status::InvalidArgument("DataOwner: num_replicas must be >= 1");
  }
  if (keys == nullptr) {
    return Status::InvalidArgument("DataOwner: null key bundle");
  }
  if (keys->dce.dim() != dim || keys->dcpe.dim() != dim) {
    return Status::InvalidArgument(
        "DataOwner: key bundle (DCE dim " + std::to_string(keys->dce.dim()) +
        ", DCPE dim " + std::to_string(keys->dcpe.dim()) +
        ") does not match data dimension " + std::to_string(dim));
  }
  return DataOwner(dim, params, std::move(keys));
}

EncryptedDatabase DataOwner::EncryptAndIndex(const FloatMatrix& data) {
  PPANNS_CHECK(data.dim() == dim_);
  // The parallel intra-shard builder needs every SAP row before the graph
  // fan-out starts, which is exactly the SAP-first randomness stream of
  // EncryptAndIndexParallel — delegate instead of duplicating it. The
  // historical row-interleaved stream below is preserved at the default
  // build_threads == 1.
  if (params_.build_threads > 1) return EncryptAndIndexParallel(data);

  EncryptedDatabase db{MakeFilterIndex(), {}};
  db.dce.reserve(data.size());

  std::vector<float> sap(dim_);
  for (std::size_t i = 0; i < data.size(); ++i) {
    keys_->dcpe.Encrypt(data.row(i), sap.data(), rng_);
    // The index is built over SAP ciphertexts: its structure reflects only
    // approximate neighborhoods (privacy argument of Section V-A).
    const VectorId id = db.index->Add(sap.data());
    PPANNS_CHECK(id == db.dce.size());
    db.dce.push_back(keys_->dce.Encrypt(data.row(i), rng_));
  }
  return db;
}

EncryptedDatabase DataOwner::EncryptAndIndexParallel(const FloatMatrix& data) {
  PPANNS_CHECK(data.dim() == dim_);

  EncryptedDatabase db{MakeFilterIndex(), {}};
  db.dce.resize(data.size());

  // Sequential SAP pass (the rng stream must stay in row order), then the
  // index build: sequential inserts at build_threads == 1, the wave builder
  // across build_threads threads otherwise.
  if (params_.build_threads > 1) {
    FloatMatrix sap(data.size(), dim_);
    for (std::size_t i = 0; i < data.size(); ++i) {
      keys_->dcpe.Encrypt(data.row(i), sap.row(i), rng_);
    }
    db.index->BuildParallel(sap, &ThreadPool::Global(), params_.build_threads);
  } else {
    std::vector<float> sap(dim_);
    for (std::size_t i = 0; i < data.size(); ++i) {
      keys_->dcpe.Encrypt(data.row(i), sap.data(), rng_);
      db.index->Add(sap.data());
    }
  }

  // Parallel pass: the DCE layer, with per-row derived randomness so the
  // package is independent of chunking and thread interleaving.
  const std::uint64_t base_seed = params_.seed ^ 0xDCE0DCE0DCE0ull;
  ThreadPool::Global().ParallelFor(
      data.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          Rng row_rng(base_seed ^ (0x9E3779B97F4A7C15ull * (i + 1)));
          db.dce[i] = keys_->dce.Encrypt(data.row(i), row_rng);
        }
      });
  return db;
}

ShardedEncryptedDatabase DataOwner::EncryptAndIndexSharded(
    const FloatMatrix& data) {
  PPANNS_CHECK(data.dim() == dim_);
  const std::size_t num_shards = params_.num_shards;

  // One database per shard: the R replicas of a shard are identical, so the
  // package holds each shard once and the envelope writes it R times.
  ShardedEncryptedDatabase db;
  db.num_replicas = params_.num_replicas;
  db.shards.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    db.shards.push_back(
        EncryptedDatabase{MakeFilterIndex(static_cast<ShardId>(s)), {}});
  }

  // Sequential SAP pass in global row order: the rng consumption matches
  // EncryptAndIndexParallel exactly (SAP-only pass, DCE randomness derived
  // per row), so the same (seed, data) yields the same SAP ciphertext per
  // row under any shard count. (EncryptAndIndex interleaves DCE draws into
  // the shared stream and therefore produces different SAP noise.)
  FloatMatrix sap(data.size(), dim_);
  for (std::size_t i = 0; i < data.size(); ++i) {
    keys_->dcpe.Encrypt(data.row(i), sap.row(i), rng_);
  }

  // Round-robin partition: global id i lives at (i % S, i / S). Recorded in
  // the manifest before the parallel passes so they can write into
  // pre-sized per-shard slots.
  for (std::size_t i = 0; i < data.size(); ++i) {
    db.manifest.Append(static_cast<ShardId>(i % num_shards),
                       static_cast<VectorId>(i / num_shards));
    db.shards[i % num_shards].dce.emplace_back();
  }

  // Parallel per-shard graph build: each shard's insertions stay in local
  // order (ids are assigned in order either way), and independent shards
  // proceed concurrently. With build_threads > 1 each shard additionally
  // fans its own graph construction across that many threads (BuildParallel
  // detects it is running inside a pool worker and uses dedicated threads),
  // so a sharded build uses up to num_shards x build_threads cores.
  const std::size_t build_threads = params_.build_threads;
  ThreadPool::Global().ParallelFor(
      num_shards, [&](std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          if (build_threads > 1) {
            // Round-robin shard s owns rows s, s+S, s+2S, ... — a strided
            // view straight into the shared SAP matrix, so the parallel
            // builder reads in place instead of materializing a per-shard
            // copy of the ciphertexts.
            const std::size_t shard_count =
                s < data.size()
                    ? (data.size() - s + num_shards - 1) / num_shards
                    : 0;
            const RowView shard_sap(shard_count > 0 ? sap.row(s) : nullptr,
                                    shard_count, dim_, num_shards * dim_);
            db.shards[s].index->BuildParallel(shard_sap, &ThreadPool::Global(),
                                              build_threads);
            PPANNS_CHECK(db.shards[s].index->capacity() == shard_sap.size());
          } else {
            for (std::size_t i = s; i < data.size(); i += num_shards) {
              const VectorId local = db.shards[s].index->Add(sap.row(i));
              PPANNS_CHECK(local == i / num_shards);
            }
          }
        }
      });

  // Every index holds its own copy of its rows now; free the SAP matrix
  // before the DCE pass allocates every ciphertext.
  sap = FloatMatrix();

  // Parallel DCE pass with the same per-row derived randomness as
  // EncryptAndIndexParallel: ciphertexts are identical across shard counts
  // and independent of chunking.
  const std::uint64_t base_seed = params_.seed ^ 0xDCE0DCE0DCE0ull;
  ThreadPool::Global().ParallelFor(
      data.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          Rng row_rng(base_seed ^ (0x9E3779B97F4A7C15ull * (i + 1)));
          db.shards[i % num_shards].dce[i / num_shards] =
              keys_->dce.Encrypt(data.row(i), row_rng);
        }
      });

  return db;
}

std::unique_ptr<SecureFilterIndex> DataOwner::MakeFilterIndex(
    ShardId shard) const {
  auto index = MakeSecureFilterIndex(params_.index_kind, dim_,
                                     params_.FilterOptions(shard));
  PPANNS_CHECK(index.ok());  // dim_ was validated at Create
  return std::move(*index);
}

EncryptedVector DataOwner::EncryptOne(const float* v) {
  EncryptedVector out;
  out.sap.resize(dim_);
  keys_->dcpe.Encrypt(v, out.sap.data(), rng_);
  out.dce = keys_->dce.Encrypt(v, rng_);
  return out;
}

}  // namespace ppanns
