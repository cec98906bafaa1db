#include "index/lsh.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace ppanns {

LshIndex::LshIndex(std::size_t dim, LshParams params, Rng& rng)
    : dim_(dim), params_(params), rows_("LSH", dim, SqParams{}) {
  PPANNS_CHECK(dim > 0);
  PPANNS_CHECK(params.num_tables > 0 && params.num_hashes > 0);
  PPANNS_CHECK(params.bucket_width > 0.0);
  InitProjections(rng);
}

LshIndex::LshIndex(std::size_t dim, LshParams params)
    : dim_(dim), params_(params), rows_("LSH", dim, SqParams{}) {
  PPANNS_CHECK(dim > 0);
  PPANNS_CHECK(params.num_tables > 0 && params.num_hashes > 0);
  PPANNS_CHECK(params.bucket_width > 0.0);
  Rng rng(params.seed);
  InitProjections(rng);
}

void LshIndex::InitProjections(Rng& rng) {
  projections_.resize(params_.num_tables);
  offsets_.resize(params_.num_tables);
  tables_.resize(params_.num_tables);
  for (std::size_t t = 0; t < params_.num_tables; ++t) {
    projections_[t].resize(params_.num_hashes * dim_);
    offsets_[t].resize(params_.num_hashes);
    for (auto& v : projections_[t]) v = static_cast<float>(rng.Gaussian());
    for (auto& b : offsets_[t]) {
      b = static_cast<float>(rng.Uniform(0.0, params_.bucket_width));
    }
  }
}

void LshIndex::RawHashes(const float* v, std::size_t table,
                         std::vector<std::int64_t>* out) const {
  const std::size_t m = params_.num_hashes;
  out->resize(m);
  // All m projections of one table go through the one-to-many kernel: the
  // projection block is row-major, so row h is a contiguous dim_ stripe.
  const float* rows[kKernelBlock];
  float projs[kKernelBlock];
  const float* block = projections_[table].data();
  for (std::size_t h = 0; h < m; h += kKernelBlock) {
    const std::size_t bn = std::min(kKernelBlock, m - h);
    for (std::size_t j = 0; j < bn; ++j) rows[j] = block + (h + j) * dim_;
    IpBatch(v, rows, bn, dim_, projs);
    for (std::size_t j = 0; j < bn; ++j) {
      const double proj =
          static_cast<double>(projs[j]) + offsets_[table][h + j];
      (*out)[h + j] =
          static_cast<std::int64_t>(std::floor(proj / params_.bucket_width));
    }
  }
}

std::uint64_t LshIndex::MixKey(const std::vector<std::int64_t>& hashes) {
  // FNV-1a over the raw hash integers.
  std::uint64_t key = 0xcbf29ce484222325ull;
  for (std::int64_t h : hashes) {
    for (int b = 0; b < 8; ++b) {
      key ^= static_cast<std::uint64_t>((h >> (8 * b)) & 0xff);
      key *= 0x100000001b3ull;
    }
  }
  return key;
}

std::uint64_t LshIndex::HashKey(const float* v, std::size_t table) const {
  std::vector<std::int64_t> hashes;
  RawHashes(v, table, &hashes);
  return MixKey(hashes);
}

VectorId LshIndex::Add(const float* v) {
  const VectorId id = rows_.Append(v);
  for (std::size_t t = 0; t < params_.num_tables; ++t) {
    tables_[t][HashKey(v, t)].push_back(id);
  }
  return id;
}

Status LshIndex::Remove(VectorId id) {
  PPANNS_RETURN_IF_ERROR(rows_.Tombstone(id));
  // The tombstoned row keeps its slot (ids stay dense), but its bucket
  // entries are unhooked so it can never be a candidate again. Hashing is
  // deterministic, so the keys are recoverable from the stored row.
  for (std::size_t t = 0; t < params_.num_tables; ++t) {
    const std::uint64_t key = HashKey(data().row(id), t);
    auto it = tables_[t].find(key);
    if (it == tables_[t].end()) continue;
    auto& bucket = it->second;
    bucket.erase(std::remove(bucket.begin(), bucket.end(), id), bucket.end());
    if (bucket.empty()) tables_[t].erase(it);
  }
  return Status::OK();
}

void LshIndex::AddBatch(const FloatMatrix& batch) {
  PPANNS_CHECK(batch.dim() == dim_);
  for (std::size_t i = 0; i < batch.size(); ++i) Add(batch.row(i));
}

std::vector<VectorId> LshIndex::Candidates(const float* query,
                                           std::size_t probes_per_table) const {
  std::unordered_set<VectorId> seen;
  std::vector<VectorId> out;
  std::vector<std::int64_t> hashes;

  auto collect = [&](std::size_t table, const std::vector<std::int64_t>& h) {
    const auto it = tables_[table].find(MixKey(h));
    if (it == tables_[table].end()) return;
    for (VectorId id : it->second) {
      if (seen.insert(id).second) out.push_back(id);
    }
  };

  for (std::size_t t = 0; t < params_.num_tables; ++t) {
    RawHashes(query, t, &hashes);
    collect(t, hashes);
    // Multi-probe: perturb single coordinates by +-1, round-robin until the
    // probe budget is spent.
    std::size_t probes = 0;
    for (std::size_t h = 0; h < params_.num_hashes && probes < probes_per_table;
         ++h) {
      for (int delta : {+1, -1}) {
        if (probes >= probes_per_table) break;
        hashes[h] += delta;
        collect(t, hashes);
        hashes[h] -= delta;
        ++probes;
      }
    }
  }
  return out;
}

std::vector<Neighbor> LshIndex::Search(const float* query, std::size_t k,
                                       std::size_t probes_per_table,
                                       SearchContext* ctx) const {
  FlatScan scan(rows_, query, k, ctx);
  scan.Scan(Candidates(query, probes_per_table));
  return scan.Finish();
}

double LshIndex::AvgBucketSize() const {
  if (tables_.empty() || tables_[0].empty()) return 0.0;
  std::size_t total = 0;
  for (const auto& [key, bucket] : tables_[0]) total += bucket.size();
  return static_cast<double>(total) / tables_[0].size();
}

std::size_t LshIndex::StorageBytes() const {
  std::size_t bytes = rows_.StorageBytes();
  for (const auto& proj : projections_) bytes += proj.size() * sizeof(float);
  for (const auto& off : offsets_) bytes += off.size() * sizeof(float);
  for (const auto& table : tables_) {
    for (const auto& [key, bucket] : table) {
      bytes += sizeof(key) + bucket.size() * sizeof(VectorId);
    }
  }
  return bytes;
}

void LshIndex::Serialize(BinaryWriter* out) const {
  out->Put<std::uint32_t>(0x504c5348);  // "PLSH"
  out->Put<std::uint32_t>(1);
  out->Put<std::uint64_t>(dim_);
  out->Put<std::uint64_t>(params_.num_tables);
  out->Put<std::uint64_t>(params_.num_hashes);
  out->Put<double>(params_.bucket_width);
  out->Put<std::uint64_t>(params_.seed);
  // Projections are persisted (not re-derived from the seed): the index may
  // have been constructed with an external Rng stream.
  for (std::size_t t = 0; t < params_.num_tables; ++t) {
    out->PutVector(projections_[t]);
    out->PutVector(offsets_[t]);
  }
  rows_.Serialize(out);
}

Result<LshIndex> LshIndex::Deserialize(BinaryReader* in) {
  std::uint32_t magic = 0, version = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&magic));
  if (magic != 0x504c5348) return Status::IOError("LSH: bad magic");
  PPANNS_RETURN_IF_ERROR(in->Get(&version));
  if (version != 1) return Status::IOError("LSH: unsupported version");

  std::uint64_t dim = 0, num_tables = 0, num_hashes = 0;
  LshParams params;
  PPANNS_RETURN_IF_ERROR(in->Get(&dim));
  PPANNS_RETURN_IF_ERROR(in->Get(&num_tables));
  PPANNS_RETURN_IF_ERROR(in->Get(&num_hashes));
  PPANNS_RETURN_IF_ERROR(in->Get(&params.bucket_width));
  PPANNS_RETURN_IF_ERROR(in->Get(&params.seed));
  if (dim == 0 || num_tables == 0 || num_hashes == 0 ||
      !(params.bucket_width > 0.0)) {
    return Status::IOError("LSH: bad header");
  }
  // The serialized payload must actually hold num_tables x num_hashes x dim
  // projection floats; a crafted header must not trigger a huge allocation
  // in the constructor before the payload reads would catch it.
  const std::uint64_t max_floats = in->remaining() / sizeof(float);
  if (num_hashes > max_floats / dim ||                    // per-table block
      num_tables > max_floats / (num_hashes * dim)) {     // all tables
    return Status::IOError("LSH: header exceeds payload");
  }
  params.num_tables = num_tables;
  params.num_hashes = num_hashes;

  LshIndex index(dim, params);
  for (std::size_t t = 0; t < num_tables; ++t) {
    PPANNS_RETURN_IF_ERROR(in->GetVector(&index.projections_[t]));
    PPANNS_RETURN_IF_ERROR(in->GetVector(&index.offsets_[t]));
    if (index.projections_[t].size() != num_hashes * dim ||
        index.offsets_[t].size() != num_hashes) {
      return Status::IOError("LSH: bad projection shape");
    }
  }
  PPANNS_RETURN_IF_ERROR(index.rows_.Deserialize(in, /*has_sq=*/false));
  // Buckets are rebuilt, not persisted: hashing is deterministic given the
  // projections.
  for (std::size_t i = 0; i < index.capacity(); ++i) {
    const auto id = static_cast<VectorId>(i);
    if (index.IsDeleted(id)) continue;
    for (std::size_t t = 0; t < num_tables; ++t) {
      index.tables_[t][index.HashKey(index.data().row(i), t)].push_back(id);
    }
  }
  return index;
}

}  // namespace ppanns
