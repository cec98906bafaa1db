#include "index/ivf.h"

#include <algorithm>
#include <limits>

namespace ppanns {

IvfIndex::IvfIndex(std::size_t dim, IvfParams params, SqParams sq)
    : dim_(dim), params_(params), rows_("IVF", dim, sq) {
  PPANNS_CHECK(dim > 0);
  PPANNS_CHECK(params.num_lists > 0);
}

double IvfIndex::RunKmeans(const FloatMatrix& sample, Rng& rng) {
  PPANNS_CHECK(sample.dim() == dim_);
  PPANNS_CHECK(sample.size() >= params_.num_lists);
  const std::size_t k = params_.num_lists;

  // Init: k distinct random sample points.
  centroids_ = FloatMatrix(k, dim_);
  const auto seeds = rng.Sample(sample.size(), k);
  for (std::size_t c = 0; c < k; ++c) {
    std::copy(sample.row(seeds[c]), sample.row(seeds[c]) + dim_,
              centroids_.row(c));
  }

  // Row pointers into centroids_ are stable across iterations (the storage
  // never reallocates); only the values move.
  std::vector<const float*> crows(k);
  for (std::size_t c = 0; c < k; ++c) crows[c] = centroids_.row(c);
  std::vector<float> cdists(k);

  std::vector<std::size_t> assignment(sample.size());
  std::vector<double> sums(k * dim_);
  std::vector<std::size_t> counts(k);
  double mean_err = 0.0;
  for (std::size_t iter = 0; iter < params_.train_iters; ++iter) {
    // Assign: one-to-many kernel scores every centroid per sample point,
    // then the same first-wins strict argmin as the scalar loop.
    double err = 0.0;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      L2Batch(sample.row(i), crows.data(), k, dim_, cdists.data());
      std::size_t best = 0;
      float best_dist = cdists[0];
      for (std::size_t c = 1; c < k; ++c) {
        if (cdists[c] < best_dist) {
          best_dist = cdists[c];
          best = c;
        }
      }
      assignment[i] = best;
      err += best_dist;
    }
    mean_err = err / sample.size();

    // Update.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0u);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const std::size_t c = assignment[i];
      ++counts[c];
      const float* row = sample.row(i);
      for (std::size_t j = 0; j < dim_; ++j) sums[c * dim_ + j] += row[j];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Empty cluster: re-seed at a random sample point.
        const auto idx = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(sample.size()) - 1));
        std::copy(sample.row(idx), sample.row(idx) + dim_, centroids_.row(c));
        continue;
      }
      for (std::size_t j = 0; j < dim_; ++j) {
        centroids_.at(c, j) =
            static_cast<float>(sums[c * dim_ + j] / counts[c]);
      }
    }
  }
  return mean_err;
}

void IvfIndex::RouteAll() {
  lists_.assign(params_.num_lists, {});
  for (std::size_t i = 0; i < capacity(); ++i) {
    const auto id = static_cast<VectorId>(i);
    if (!IsDeleted(id)) lists_[NearestCentroid(data().row(i))].push_back(id);
  }
}

double IvfIndex::Train(const FloatMatrix& sample, Rng& rng) {
  const double err = RunKmeans(sample, rng);
  RouteAll();
  rows_.TrainSq(sample);
  return err;
}

std::size_t IvfIndex::NearestCentroid(const float* v) const {
  const float* rows[kKernelBlock];
  float dists[kKernelBlock];
  std::size_t best = 0;
  float best_dist = std::numeric_limits<float>::max();
  for (std::size_t c = 0; c < centroids_.size(); c += kKernelBlock) {
    const std::size_t bn = std::min(kKernelBlock, centroids_.size() - c);
    for (std::size_t j = 0; j < bn; ++j) rows[j] = centroids_.row(c + j);
    L2Batch(v, rows, bn, dim_, dists);
    for (std::size_t j = 0; j < bn; ++j) {
      if (dists[j] < best_dist) {
        best_dist = dists[j];
        best = c + j;
      }
    }
  }
  return best;
}

VectorId IvfIndex::Add(const float* v) {
  const VectorId id = rows_.Append(v);
  if (trained()) {
    lists_[NearestCentroid(v)].push_back(id);
    return id;
  }
  const std::size_t train_min = params_.auto_train_min > 0
                                    ? std::max(params_.auto_train_min,
                                               params_.num_lists)
                                    : 4 * params_.num_lists;
  if (capacity() >= train_min) {
    Rng rng(params_.seed);
    RunKmeans(data(), rng);
    RouteAll();
    rows_.TrainSq(data());
  }
  return id;
}

void IvfIndex::AddBatch(const FloatMatrix& batch) {
  PPANNS_CHECK(batch.dim() == dim_);
  for (std::size_t i = 0; i < batch.size(); ++i) Add(batch.row(i));
}

Status IvfIndex::Remove(VectorId id) {
  PPANNS_RETURN_IF_ERROR(rows_.Tombstone(id));
  if (trained()) {
    auto& list = lists_[NearestCentroid(data().row(id))];
    list.erase(std::remove(list.begin(), list.end(), id), list.end());
  }
  return Status::OK();
}

std::vector<Neighbor> IvfIndex::Search(const float* query, std::size_t k,
                                       std::size_t nprobe,
                                       SearchContext* ctx) const {
  FlatScan scan(rows_, query, k, ctx);
  if (!trained()) {
    // Not enough vectors to have auto-trained yet: exact scan of live rows.
    scan.ScanLive();
    return scan.Finish();
  }
  nprobe = std::min(nprobe, centroids_.size());

  // Rank centroids by distance through the batched kernel, take the
  // closest nprobe.
  std::vector<Neighbor> cents(centroids_.size());
  const float* rows[kKernelBlock];
  float dists[kKernelBlock];
  for (std::size_t c = 0; c < centroids_.size(); c += kKernelBlock) {
    const std::size_t bn = std::min(kKernelBlock, centroids_.size() - c);
    for (std::size_t j = 0; j < bn; ++j) rows[j] = centroids_.row(c + j);
    L2Batch(query, rows, bn, dim_, dists);
    for (std::size_t j = 0; j < bn; ++j) {
      cents[c + j] = Neighbor{static_cast<VectorId>(c + j), dists[j]};
    }
  }
  std::partial_sort(cents.begin(), cents.begin() + nprobe, cents.end());

  for (std::size_t p = 0; p < nprobe && !scan.ShouldStop(); ++p) {
    scan.Scan(lists_[cents[p].id]);
  }
  return scan.Finish(/*extra_distances=*/centroids_.size());
}

std::size_t IvfIndex::StorageBytes() const {
  std::size_t bytes =
      rows_.StorageBytes() + centroids_.data().size() * sizeof(float);
  for (const auto& list : lists_) bytes += list.size() * sizeof(VectorId);
  return bytes;
}

void IvfIndex::Serialize(BinaryWriter* out) const {
  // Version 1 stays byte-identical for non-SQ indexes; the SQ sidecar bumps
  // to version 2 (params + quantizer + code mirror).
  out->Put<std::uint32_t>(0x50495646);  // "PIVF"
  out->Put<std::uint32_t>(sq_params().enabled ? 2 : 1);
  out->Put<std::uint64_t>(dim_);
  out->Put<std::uint64_t>(params_.num_lists);
  out->Put<std::uint64_t>(params_.train_iters);
  out->Put<std::uint64_t>(params_.seed);
  out->Put<std::uint64_t>(params_.auto_train_min);
  out->Put<std::uint8_t>(trained() ? 1 : 0);
  if (trained()) PutMatrix(centroids_, out);
  rows_.Serialize(out);
}

Result<IvfIndex> IvfIndex::Deserialize(BinaryReader* in) {
  std::uint32_t magic = 0, version = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&magic));
  if (magic != 0x50495646) return Status::IOError("IVF: bad magic");
  PPANNS_RETURN_IF_ERROR(in->Get(&version));
  if (version != 1 && version != 2) {
    return Status::IOError("IVF: unsupported version");
  }

  std::uint64_t dim = 0;
  IvfParams params;
  std::uint64_t num_lists = 0, train_iters = 0, auto_train_min = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&dim));
  PPANNS_RETURN_IF_ERROR(in->Get(&num_lists));
  PPANNS_RETURN_IF_ERROR(in->Get(&train_iters));
  PPANNS_RETURN_IF_ERROR(in->Get(&params.seed));
  PPANNS_RETURN_IF_ERROR(in->Get(&auto_train_min));
  if (dim == 0 || num_lists == 0) return Status::IOError("IVF: bad header");
  params.num_lists = num_lists;
  params.train_iters = train_iters;
  params.auto_train_min = auto_train_min;

  std::uint8_t trained = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&trained));

  IvfIndex index(dim, params);
  if (trained) {
    PPANNS_RETURN_IF_ERROR(GetMatrix(in, &index.centroids_));
    if (index.centroids_.size() != params.num_lists ||
        index.centroids_.dim() != dim) {
      return Status::IOError("IVF: bad centroid shape");
    }
  }
  PPANNS_RETURN_IF_ERROR(index.rows_.Deserialize(in, version == 2));
  // Posting lists are rebuilt, not persisted: routing is deterministic given
  // the centroids.
  if (trained) index.RouteAll();
  return index;
}

}  // namespace ppanns
