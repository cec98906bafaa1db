// PACM-ANN baseline (Zhou, Shi, Fanti — PACMANN, ePrint 2024/1600) —
// Section VII-B.
//
// Architecture: the proximity graph lives on the server, but the *user*
// drives the greedy graph walk: every beam expansion privately fetches the
// expanded node's adjacency list and vector via PIR, in interactive rounds.
//
// Reimplementation (compared in fig7_baselines, docs/benchmarks.md): the
// graph walk runs for real over our HNSW graph (counting every visited node
// — this is genuine user-side compute); each visited node's fetch is
// charged one sublinear PIR server scan (executed as a real O(sqrt(n))
// memory pass, matching PACMANN's sublinear PIR) plus the transfer of the
// node payload, and the walk proceeds in batched rounds. This preserves the
// structural costs Fig. 7 / Fig. 9 attribute to PACM-ANN: many interactive
// rounds and user-side distance computations.

#ifndef PPANNS_BASELINES_PACM_ANN_H_
#define PPANNS_BASELINES_PACM_ANN_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "index/hnsw.h"
#include "netsim/comm_cost.h"

namespace ppanns {

struct PacmAnnParams {
  HnswParams hnsw;
  std::size_t ef_search = 64;
  std::size_t fetch_batch = 8;     ///< node fetches batched per round
  double pir_expansion = 4.0;      ///< response bytes per plaintext byte
  std::uint64_t seed = 0x9ac;
};

class PacmAnnSystem {
 public:
  struct QueryOutcome {
    std::vector<VectorId> ids;
    CostBreakdown cost;
  };

  static Result<PacmAnnSystem> Build(const FloatMatrix& data,
                                     PacmAnnParams params);

  QueryOutcome Search(const float* q, std::size_t k) const;

  /// Beam width knob (recall/efficiency trade-off, like our ef_search).
  void set_ef_search(std::size_t ef) { params_.ef_search = ef; }

  std::size_t size() const { return index_->size(); }

 private:
  PacmAnnSystem(std::unique_ptr<HnswIndex> index, PacmAnnParams params,
                std::size_t n);

  /// One sublinear PIR evaluation: a real O(sqrt n) memory pass.
  float PirServerScan() const;

  std::unique_ptr<HnswIndex> index_;
  PacmAnnParams params_;
  std::size_t dim_;
  std::vector<float> pir_workload_;  ///< sqrt(n)-sized scan target
};

}  // namespace ppanns

#endif  // PPANNS_BASELINES_PACM_ANN_H_
