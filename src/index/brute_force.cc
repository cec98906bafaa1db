#include "index/brute_force.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "index/top_k.h"

namespace ppanns {

std::vector<Neighbor> BruteForceKnn(const FloatMatrix& data, const float* query,
                                    std::size_t k) {
  TopK top(k);
  const float* rows[kKernelBlock];
  float dists[kKernelBlock];
  float limit = top.Threshold();
  for (std::size_t i = 0; i < data.size(); i += kKernelBlock) {
    const std::size_t bn = std::min(kKernelBlock, data.size() - i);
    for (std::size_t j = 0; j < bn; ++j) rows[j] = data.row(i + j);
    L2Batch(query, rows, bn, data.dim(), dists);
    for (std::size_t j = 0; j < bn; ++j) {
      // Threshold pre-check: Offer rejects exactly when dist >= threshold, so
      // skipping those calls leaves the heap (and final ids) unchanged.
      if (dists[j] < limit) {
        top.Offer(Neighbor{static_cast<VectorId>(i + j), dists[j]});
        limit = top.Threshold();
      }
    }
  }
  return top.ExtractSorted();
}

std::vector<std::vector<Neighbor>> BruteForceKnnBatch(const FloatMatrix& data,
                                                      const FloatMatrix& queries,
                                                      std::size_t k,
                                                      bool parallel) {
  std::vector<std::vector<Neighbor>> out(queries.size());
  auto work = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = BruteForceKnn(data, queries.row(i), k);
    }
  };
  if (parallel && queries.size() > 1) {
    ThreadPool::Global().ParallelFor(queries.size(), work);
  } else {
    work(0, queries.size());
  }
  return out;
}

BruteForceIndex::BruteForceIndex(std::size_t dim, SqParams sq)
    : rows_("BruteForce", dim, sq) {
  PPANNS_CHECK(dim > 0);
}

VectorId BruteForceIndex::Add(const float* v) {
  const VectorId id = rows_.Append(v);
  if (rows_.capacity() >=
      std::max<std::size_t>(rows_.sq_params().train_min, 1)) {
    rows_.TrainSq(rows_.data());  // fits over everything added so far
  }
  return id;
}

void BruteForceIndex::AddBatch(const FloatMatrix& batch) {
  PPANNS_CHECK(batch.dim() == dim());
  for (std::size_t i = 0; i < batch.size(); ++i) Add(batch.row(i));
}

Status BruteForceIndex::Remove(VectorId id) { return rows_.Tombstone(id); }

std::vector<Neighbor> BruteForceIndex::Search(const float* query, std::size_t k,
                                              SearchContext* ctx) const {
  FlatScan scan(rows_, query, k, ctx);
  scan.ScanLive();
  return scan.Finish();
}

void BruteForceIndex::Serialize(BinaryWriter* out) const {
  // Version 1 stays byte-identical for non-SQ indexes (replica byte-equality
  // is pinned by the sharded tests); the SQ sidecar bumps to version 2.
  out->Put<std::uint32_t>(0x50424649);  // "PBFI"
  out->Put<std::uint32_t>(sq_params().enabled ? 2 : 1);
  out->Put<std::uint64_t>(dim());
  rows_.Serialize(out);
}

Result<BruteForceIndex> BruteForceIndex::Deserialize(BinaryReader* in) {
  std::uint32_t magic = 0, version = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&magic));
  if (magic != 0x50424649) return Status::IOError("BruteForce: bad magic");
  PPANNS_RETURN_IF_ERROR(in->Get(&version));
  if (version != 1 && version != 2) {
    return Status::IOError("BruteForce: unsupported version");
  }
  std::uint64_t dim = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&dim));
  if (dim == 0) return Status::IOError("BruteForce: zero dimension");

  BruteForceIndex index(dim);
  PPANNS_RETURN_IF_ERROR(index.rows_.Deserialize(in, version == 2));
  return index;
}

}  // namespace ppanns
