// HNSW-AME — the paper's own ablation baseline (Section VII-B, Fig. 6):
// identical filter phase (HNSW over DCPE/SAP ciphertexts), but the refine
// phase performs its secure distance comparisons with AME instead of DCE.
// Each AME comparison costs O(d^2) vs DCE's O(d), which is where the >=100x
// end-to-end gap comes from.
//
// This class bundles the owner and server halves for benchmarking
// convenience; the trust split is the same as the main scheme.

#ifndef PPANNS_BASELINES_HNSW_AME_H_
#define PPANNS_BASELINES_HNSW_AME_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "core/cloud_server.h"
#include "core/keys.h"
#include "crypto/ame.h"

namespace ppanns {

/// Query token for HNSW-AME: SAP ciphertext + AME trapdoor (16 matrices).
struct AmeQueryToken {
  std::vector<float> sap;
  AmeTrapdoor trapdoor;
};

class HnswAmeSystem {
 public:
  /// Encrypts `data` under DCPE + AME and builds the HNSW graph over the
  /// SAP ciphertexts (same graph parameters as the main scheme).
  static Result<HnswAmeSystem> Build(const FloatMatrix& data,
                                     const PpannsParams& params);

  /// User-side query encryption.
  AmeQueryToken EncryptQuery(const float* q);

  /// Server-side filter-and-refine with AME comparisons in the refine buffer.
  SearchResult Search(const AmeQueryToken& token, std::size_t k,
                      const SearchSettings& settings = {}) const;

  std::size_t size() const { return index_.size(); }
  const HnswIndex& index() const { return index_; }

 private:
  HnswAmeSystem(HnswIndex index, std::vector<AmeCiphertext> cts,
                std::shared_ptr<AmeScheme> ame, DcpeScheme dcpe,
                std::uint64_t seed)
      : index_(std::move(index)),
        ame_cts_(std::move(cts)),
        ame_(std::move(ame)),
        dcpe_(std::move(dcpe)),
        rng_(seed ^ 0xA3E) {}

  HnswIndex index_;
  std::vector<AmeCiphertext> ame_cts_;
  std::shared_ptr<AmeScheme> ame_;
  DcpeScheme dcpe_;
  Rng rng_;
};

}  // namespace ppanns

#endif  // PPANNS_BASELINES_HNSW_AME_H_
