#include "baselines/hnsw_ame.h"

#include "common/timer.h"
#include "core/sorted_k_buffer.h"

namespace ppanns {

Result<HnswAmeSystem> HnswAmeSystem::Build(const FloatMatrix& data,
                                           const PpannsParams& params) {
  Rng rng(params.seed);
  Result<DcpeScheme> dcpe =
      DcpeScheme::Create(data.dim(), params.dcpe_s, params.dcpe_beta);
  if (!dcpe.ok()) return dcpe.status();
  Result<AmeScheme> ame =
      AmeScheme::KeyGen(data.dim(), rng, params.dce_scale_hint);
  if (!ame.ok()) return ame.status();
  auto ame_ptr = std::make_shared<AmeScheme>(std::move(*ame));

  HnswIndex index(data.dim(), params.hnsw);
  std::vector<AmeCiphertext> cts;
  cts.reserve(data.size());
  std::vector<float> sap(data.dim());
  for (std::size_t i = 0; i < data.size(); ++i) {
    dcpe->Encrypt(data.row(i), sap.data(), rng);
    index.Add(sap.data());
    cts.push_back(ame_ptr->Encrypt(data.row(i), rng));
  }
  return HnswAmeSystem(std::move(index), std::move(cts), std::move(ame_ptr),
                       std::move(*dcpe), params.seed);
}

AmeQueryToken HnswAmeSystem::EncryptQuery(const float* q) {
  AmeQueryToken token;
  token.sap.resize(index_.dim());
  dcpe_.Encrypt(q, token.sap.data(), rng_);
  token.trapdoor = ame_->GenTrapdoor(q, rng_);
  return token;
}

SearchResult HnswAmeSystem::Search(const AmeQueryToken& token, std::size_t k,
                                   const SearchSettings& settings) const {
  SearchResult result;
  if (k == 0 || index_.size() == 0) return result;
  const std::size_t k_prime =
      settings.k_prime > 0 ? std::max(settings.k_prime, k) : 4 * k;
  const std::size_t ef =
      settings.ef_search > 0 ? settings.ef_search : std::max<std::size_t>(k_prime, 64);

  Timer filter_timer;
  const std::vector<Neighbor> candidates =
      index_.Search(token.sap.data(), k_prime, ef);
  result.counters.filter_seconds = filter_timer.ElapsedSeconds();
  result.counters.filter_candidates = candidates.size();

  if (!settings.refine) {
    const std::size_t out_k = std::min(k, candidates.size());
    for (std::size_t i = 0; i < out_k; ++i) result.ids.push_back(candidates[i].id);
    return result;
  }

  Timer refine_timer;
  SortedKBuffer buffer(
      k, CanonicalCloser([&](VectorId o, VectorId p) {
        ++result.counters.dce_comparisons;
        return AmeScheme::DistanceComp(ame_cts_[candidates[o].id],
                                       ame_cts_[candidates[p].id],
                                       token.trapdoor);
      }));
  for (std::size_t pos = 0; pos < candidates.size(); ++pos) {
    buffer.Offer(static_cast<VectorId>(pos));
  }
  for (VectorId pos : buffer.sorted()) result.ids.push_back(candidates[pos].id);
  result.counters.refine_seconds = refine_timer.ElapsedSeconds();
  return result;
}

}  // namespace ppanns
