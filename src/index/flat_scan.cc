#include "index/flat_scan.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>

namespace ppanns {

namespace {

double SecondsBetween(SearchContext::Clock::time_point t0,
                      SearchContext::Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// max(refine_factor * k, 32), saturating where the product would wrap,
/// capped at the `rows` a scan can offer.
std::size_t ShortlistCap(const SqParams& sq, std::size_t k, std::size_t rows) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  const std::size_t wanted =
      sq.refine_factor != 0 && k > kMax / sq.refine_factor
          ? kMax
          : std::max<std::size_t>(sq.refine_factor * k, 32);
  return std::min(wanted, rows);
}

}  // namespace

FlatRows::FlatRows(const char* name, std::size_t dim, SqParams sq)
    : name_(name), sq_params_(sq), data_(0, dim) {}

VectorId FlatRows::Append(const float* v) {
  const VectorId id = data_.Append(v);
  deleted_.push_back(0);
  if (sq_.trained()) {
    codes_.resize(codes_.size() + dim());
    sq_.Encode(v, codes_.data() + static_cast<std::size_t>(id) * dim());
  }
  return id;
}

Status FlatRows::Tombstone(VectorId id) {
  if (id >= data_.size()) {
    return Status::InvalidArgument(std::string(name_) + ": bad id");
  }
  if (deleted_[id]) {
    return Status::NotFound(std::string(name_) + ": already deleted");
  }
  deleted_[id] = 1;
  ++num_deleted_;
  return Status::OK();
}

void FlatRows::TrainSq(RowView sample) {
  if (!sq_params_.enabled || sq_.trained() || sample.empty()) return;
  sq_.Train(sample);
  codes_.resize(data_.size() * dim());
  for (std::size_t i = 0; i < data_.size(); ++i) {
    sq_.Encode(data_.row(i), codes_.data() + i * dim());
  }
}

std::size_t FlatRows::StorageBytes() const {
  return data_.data().size() * sizeof(float) + deleted_.size() + codes_.size();
}

void FlatRows::Serialize(BinaryWriter* out) const {
  PutMatrix(data_, out);
  out->PutVector(deleted_);
  if (sq_params_.enabled) {
    out->Put<std::uint64_t>(sq_params_.refine_factor);
    out->Put<std::uint64_t>(sq_params_.train_min);
    out->Put<std::uint8_t>(sq_.trained() ? 1 : 0);
    if (sq_.trained()) {
      sq_.Serialize(out);
      out->PutVector(codes_);
    }
  }
}

Status FlatRows::Deserialize(BinaryReader* in, bool has_sq) {
  const std::size_t width = dim();
  PPANNS_RETURN_IF_ERROR(GetMatrix(in, &data_));
  PPANNS_RETURN_IF_ERROR(in->GetVector(&deleted_));
  if (data_.dim() != width || deleted_.size() != data_.size()) {
    return Status::IOError(std::string(name_) + ": inconsistent payload");
  }
  for (std::uint8_t d : deleted_) num_deleted_ += (d != 0);
  if (!has_sq) return Status::OK();
  sq_params_.enabled = true;
  std::uint64_t refine_factor = 0, train_min = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&refine_factor));
  PPANNS_RETURN_IF_ERROR(in->Get(&train_min));
  sq_params_.refine_factor = refine_factor;
  sq_params_.train_min = train_min;
  std::uint8_t sq_trained = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&sq_trained));
  if (sq_trained == 0) return Status::OK();
  Result<Sq8Quantizer> q = Sq8Quantizer::Deserialize(in);
  if (!q.ok()) return q.status();
  sq_ = std::move(q).value();
  PPANNS_RETURN_IF_ERROR(in->GetVector(&codes_));
  if (sq_.dim() != width || codes_.size() != data_.size() * width) {
    return Status::IOError(std::string(name_) + ": inconsistent SQ sidecar");
  }
  return Status::OK();
}

FlatScan::FlatScan(const FlatRows& rows, const float* query, std::size_t k,
                   SearchContext* ctx)
    : FlatScan(rows, query, k, ctx, rows.sq_active()) {}

FlatScan::FlatScan(const FlatRows& rows, const float* query, std::size_t k,
                   SearchContext* ctx, bool use_sq)
    : rows_(rows),
      query_(query),
      k_(k),
      ctx_(ctx),
      probe_(ctx),
      use_sq_(use_sq),
      top_(k),
      shortlist_(use_sq ? ShortlistCap(rows.sq_params(), k, rows.size()) : 0) {
  if (ctx_ != nullptr) start_ = SearchContext::Clock::now();
  if (use_sq_) {
    qcode_.resize(rows_.dim());
    rows_.sq_.Encode(query_, qcode_.data());
  }
}

template <typename NextId>
void FlatScan::Run(NextId next) {
  VectorId ids[kKernelBlock];
  const float* rows[kKernelBlock];
  const std::int8_t* codes[kKernelBlock];
  VectorId id = 0;
  const std::size_t d = rows_.dim();
  while (!stopped_) {
    std::size_t bn = 0;
    while (bn < kKernelBlock && next(&id)) {
      if (probe_.ShouldStop(scanned_ + bn)) {
        stopped_ = true;
        break;
      }
      ids[bn] = id;
      if (use_sq_) {
        codes[bn] = rows_.code(id);
        PrefetchRead(codes[bn]);
      } else {
        rows[bn] = rows_.data_.row(id);
        PrefetchRead(rows[bn]);
      }
      ++bn;
    }
    if (bn == 0) return;
    scanned_ += bn;
    if (use_sq_) {
      // int32 code distances only pick the shortlist; Finish() restores
      // exact float distances before anything is returned.
      std::int32_t dists[kKernelBlock];
      L2BatchInt8(qcode_.data(), codes, bn, d, dists);
      for (std::size_t j = 0; j < bn; ++j) {
        // The selector rejects exactly the offers at or above its
        // threshold, so skipping those calls leaves it unchanged.
        if (dists[j] < shortlist_.threshold()) {
          shortlist_.Offer(ids[j], dists[j]);
        }
      }
    } else {
      float dists[kKernelBlock];
      L2Batch(query_, rows, bn, d, dists);
      for (std::size_t j = 0; j < bn; ++j) {
        if (dists[j] < top_.Threshold()) top_.Offer(Neighbor{ids[j], dists[j]});
      }
    }
  }
}

void FlatScan::ScanLive() {
  std::size_t i = 0;
  Run([&](VectorId* id) {
    while (i < rows_.capacity() && rows_.IsDeleted(static_cast<VectorId>(i))) {
      ++i;
    }
    if (i == rows_.capacity()) return false;
    *id = static_cast<VectorId>(i++);
    return true;
  });
}

void FlatScan::Scan(std::span<const VectorId> ids) {
  std::size_t i = 0;
  Run([&](VectorId* id) {
    if (i == ids.size()) return false;
    *id = ids[i++];
    return true;
  });
}

bool FlatScan::ShouldStop() {
  if (!stopped_) stopped_ = probe_.ShouldStop(scanned_);
  return stopped_;
}

std::vector<Neighbor> FlatScan::Finish(std::size_t extra_distances) {
  const auto filtered = ctx_ != nullptr ? SearchContext::Clock::now()
                                        : SearchContext::Clock::time_point{};
  std::vector<Neighbor> out;
  std::size_t refined = 0;
  if (use_sq_) {
    // The refine stage: the float tier of this scan over the shortlist.
    const std::vector<VectorId> shortlist = shortlist_.ExtractIds();
    refined = shortlist.size();
    FlatScan exact(rows_, query_, k_, nullptr, /*use_sq=*/false);
    exact.Scan(shortlist);
    out = exact.Finish();
  } else {
    out = top_.ExtractSorted();
  }
  if (ctx_ != nullptr) {
    ctx_->stats.nodes_visited += scanned_;
    ctx_->stats.distance_computations += scanned_ + refined + extra_distances;
    ctx_->stats.filter_seconds += SecondsBetween(start_, filtered);
    if (use_sq_) {
      ctx_->stats.refine_seconds +=
          SecondsBetween(filtered, SearchContext::Clock::now());
    }
  }
  return out;
}

}  // namespace ppanns
