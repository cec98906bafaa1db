#include "index/sq8.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ppanns {

namespace {
// Degenerate (constant) dimensions get a tiny positive scale so encode's
// division is well-defined; every value then maps to code -64 and decodes
// back to the dimension minimum exactly.
constexpr float kMinScale = 1e-20f;
}  // namespace

void Sq8Quantizer::Train(RowView rows) {
  PPANNS_CHECK(!rows.empty());
  dim_ = rows.dim();
  min_.assign(dim_, std::numeric_limits<float>::max());
  std::vector<float> max(dim_, std::numeric_limits<float>::lowest());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const float* r = rows.row(i);
    for (std::size_t j = 0; j < dim_; ++j) {
      min_[j] = std::min(min_[j], r[j]);
      max[j] = std::max(max[j], r[j]);
    }
  }
  scale_.resize(dim_);
  for (std::size_t j = 0; j < dim_; ++j) {
    scale_[j] = std::max((max[j] - min_[j]) / 127.0f, kMinScale);
  }
}

void Sq8Quantizer::Encode(const float* v, std::int8_t* out) const {
  // Codes live in [-64, 63]: 7-bit resolution so any code difference fits in
  // int8, which is what lets the SIMD int8 kernel square byte differences
  // without widening shuffles (see SquaredL2Int8's range contract).
  for (std::size_t j = 0; j < dim_; ++j) {
    const float t = (v[j] - min_[j]) / scale_[j];
    const float r = std::nearbyintf(std::clamp(t, 0.0f, 127.0f));
    out[j] = static_cast<std::int8_t>(static_cast<int>(r) - 64);
  }
}

void Sq8Quantizer::Decode(const std::int8_t* code, float* out) const {
  for (std::size_t j = 0; j < dim_; ++j) {
    out[j] = min_[j] + (static_cast<int>(code[j]) + 64) * scale_[j];
  }
}

void Sq8Quantizer::Serialize(BinaryWriter* out) const {
  out->Put<std::uint64_t>(dim_);
  out->PutVector(min_);
  out->PutVector(scale_);
}

Result<Sq8Quantizer> Sq8Quantizer::Deserialize(BinaryReader* in) {
  Sq8Quantizer q;
  std::uint64_t dim = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&dim));
  PPANNS_RETURN_IF_ERROR(in->GetVector(&q.min_));
  PPANNS_RETURN_IF_ERROR(in->GetVector(&q.scale_));
  if (q.min_.size() != dim || q.scale_.size() != dim) {
    return Status::IOError("Sq8: inconsistent quantizer payload");
  }
  for (float s : q.scale_) {
    if (!(s > 0.0f)) return Status::IOError("Sq8: non-positive scale");
  }
  q.dim_ = dim;
  return q;
}

}  // namespace ppanns
