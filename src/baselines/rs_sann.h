// RS-SANN baseline (Peng et al., Information Sciences 2017) — Section VII-B.
//
// Architecture: the database is AES-CTR encrypted (distance-incomparable);
// an LSH index supplies candidates server-side; the *user* downloads the
// encrypted candidates, decrypts them, and performs the refine phase locally.
//
// Reimplementation (compared in fig7_baselines, docs/benchmarks.md): the
// LSH index, AES layer, candidate lookup, user-side decrypt + exact ranking
// all execute for real; the
// client<->server link is accounted through netsim (1 round; candidate blobs
// dominate the traffic). This preserves what Fig. 7 / Fig. 9 measure: heavy
// user-side cost and communication that grows with the candidate count
// needed for high recall.

#ifndef PPANNS_BASELINES_RS_SANN_H_
#define PPANNS_BASELINES_RS_SANN_H_

#include <array>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "crypto/aes.h"
#include "index/lsh.h"
#include "netsim/comm_cost.h"

namespace ppanns {

struct RsSannParams {
  LshParams lsh;
  std::size_t probes_per_table = 8;  ///< multi-probe budget for recall
  std::uint64_t seed = 0x25;
};

/// End-to-end RS-SANN system (owner + server + user halves bundled for
/// benchmarking; the ciphertext/key separation is preserved internally).
class RsSannSystem {
 public:
  struct QueryOutcome {
    std::vector<VectorId> ids;
    CostBreakdown cost;
  };

  static Result<RsSannSystem> Build(const FloatMatrix& data, RsSannParams params);

  /// Executes one query end-to-end, reporting the cost split.
  /// `probes_override` != SIZE_MAX replaces the configured multiprobe
  /// budget (recall/cost sweep knob).
  QueryOutcome Search(const float* q, std::size_t k,
                      std::size_t probes_override = SIZE_MAX) const;

  std::size_t size() const { return lsh_->size(); }

 private:
  RsSannSystem(std::unique_ptr<LshIndex> lsh, Aes128 aes,
               std::vector<std::vector<std::uint8_t>> blobs, RsSannParams params,
               std::size_t dim)
      : lsh_(std::move(lsh)), aes_(aes), blobs_(std::move(blobs)),
        params_(params), dim_(dim) {}

  std::unique_ptr<LshIndex> lsh_;
  Aes128 aes_;  ///< user-side key; server stores only blobs_
  std::vector<std::vector<std::uint8_t>> blobs_;  ///< AES-CTR ciphertexts
  RsSannParams params_;
  std::size_t dim_;
};

}  // namespace ppanns

#endif  // PPANNS_BASELINES_RS_SANN_H_
