// PRI-ANN baseline (Servan-Schreiber et al., S&P 2022) — Section VII-B.
//
// Architecture: LSH buckets are fetched by the client through single-round
// private information retrieval, so the server learns neither the query nor
// which buckets matched; the user ranks the retrieved candidates locally.
//
// Reimplementation (compared in fig7_baselines, docs/benchmarks.md): LSH
// candidate generation and the user-side ranking run for real; the PIR layer
// is modeled by its dominant costs — the server performs work linear in the
// bucket-table size per retrieved table (executed as a real memory scan, not
// a sleep), and responses carry a constant ciphertext-expansion factor. One
// round of communication, as in the original (distributed point functions;
// no server-to-server traffic).

#ifndef PPANNS_BASELINES_PRI_ANN_H_
#define PPANNS_BASELINES_PRI_ANN_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "index/lsh.h"
#include "netsim/comm_cost.h"

namespace ppanns {

struct PriAnnParams {
  LshParams lsh;
  std::size_t probes_per_table = 8;
  double pir_expansion = 4.0;  ///< response bytes per plaintext byte
  std::uint64_t seed = 0x9a1;
};

class PriAnnSystem {
 public:
  struct QueryOutcome {
    std::vector<VectorId> ids;
    CostBreakdown cost;
  };

  static Result<PriAnnSystem> Build(const FloatMatrix& data, PriAnnParams params);

  QueryOutcome Search(const float* q, std::size_t k) const;

  std::size_t size() const { return lsh_->size(); }

 private:
  PriAnnSystem(std::unique_ptr<LshIndex> lsh, PriAnnParams params,
               std::size_t dim, std::size_t n)
      : lsh_(std::move(lsh)), params_(params), dim_(dim), n_(n),
        pir_workload_(n * 2, 1.0f) {}

  /// Executes the linear PIR server scan for one table retrieval (real
  /// compute standing in for the DPF evaluation over the bucket table).
  float PirServerScan() const;

  std::unique_ptr<LshIndex> lsh_;
  PriAnnParams params_;
  std::size_t dim_;
  std::size_t n_;
  std::vector<float> pir_workload_;
};

}  // namespace ppanns

#endif  // PPANNS_BASELINES_PRI_ANN_H_
