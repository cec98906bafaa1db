#include "core/cloud_server.h"

#include <algorithm>

#include "common/timer.h"
#include "core/comparison_heap.h"

namespace ppanns {

SearchResult CloudServer::Search(const QueryToken& token, std::size_t k,
                                 const SearchSettings& settings,
                                 SearchContext* ctx) const {
  SearchResult result;
  if (k == 0 || db_.index->size() == 0) return result;

  // Run with a local context when the caller passed none, so the result
  // counters always report what the query cost.
  SearchContext local;
  if (ctx == nullptr) ctx = &local;
  ApplyContextSettings(ctx, settings);

  const std::size_t k_prime = ResolveKPrime(settings, k);

  // ---- Filter phase (Algorithm 2, line 1): k'-ANNS over SAP ciphertexts on
  // the configured backend; distances are computed on the encrypted vectors
  // at plaintext cost. The backend probes `ctx` from its hot loop.
  Timer filter_timer;
  const std::vector<Neighbor> candidates =
      db_.index->Search(token.sap.data(), k_prime, settings.ef_search, ctx);
  result.counters.filter_seconds = filter_timer.ElapsedSeconds();
  result.counters.filter_candidates = candidates.size();

  if (!settings.refine) {
    // Filter-only variant: the SAP ranking is final (approximate).
    const std::size_t out_k = std::min(k, candidates.size());
    result.ids.reserve(out_k);
    for (std::size_t i = 0; i < out_k; ++i) result.ids.push_back(candidates[i].id);
    FillCounters(&result.counters, *ctx);
    return result;
  }

  // ---- Refine phase (Algorithm 2, lines 2-9): exact DCE comparisons. The
  // context is probed between heap offers (candidate granularity — DCE
  // comparisons are orders of magnitude costlier than a row scan).
  Timer refine_timer;
  std::size_t* comparisons = &result.counters.dce_comparisons;
  ComparisonHeap heap(k, [this, &token, comparisons](VectorId a, VectorId b) {
    ++*comparisons;
    return DceScheme::Closer(db_.dce[a], db_.dce[b], token.trapdoor);
  });
  // Blocked offers: gather a block of candidates and prefetch their DCE
  // ciphertext payloads, then run the comparison-heavy offers over warm
  // lines. Offers apply in candidate order, so ids match the unblocked loop;
  // the abandon probe keeps candidate granularity (it runs as each candidate
  // is gathered).
  VectorId block[kKernelBlock];
  std::size_t ci = 0;
  bool abandoned = false;
  while (ci < candidates.size() && !abandoned) {
    std::size_t bn = 0;
    for (; ci < candidates.size() && bn < kKernelBlock; ++ci) {
      if (ctx->ShouldAbandon()) {
        abandoned = true;
        break;
      }
      const VectorId id = candidates[ci].id;
      PrefetchRead(db_.dce[id].data.data());
      block[bn++] = id;
    }
    heap.OfferBatch(block, bn);
  }
  result.ids = heap.ExtractSorted();
  result.counters.refine_seconds = refine_timer.ElapsedSeconds();
  ctx->stats.dce_comparisons += result.counters.dce_comparisons;
  FillCounters(&result.counters, *ctx);
  return result;
}

VectorId CloudServer::ApplyInsert(const InsertEdit& edit,
                                  const EncryptedVector& v) {
  PPANNS_CHECK(v.sap.size() == db_.index->dim() && edit.id == db_.dce.size());
  db_.index->ApplyInsert(edit, v.sap.data());
  db_.dce.push_back(v.dce);
  return edit.id;
}

Status CloudServer::Delete(VectorId id) {
  Result<RemoveEdit> edit = PlanDelete(id);
  if (!edit.ok()) return edit.status();
  ApplyDelete(*edit);
  return Status::OK();
}

void CloudServer::ApplyDelete(const RemoveEdit& edit) {
  db_.index->ApplyRemove(edit);
  // Blank the DCE ciphertext: the server drops the deleted payload while
  // keeping ids stable.
  db_.dce[edit.id].data.clear();
  db_.dce[edit.id].data.shrink_to_fit();
}

std::size_t CloudServer::StorageBytes() const {
  // SAP layer + index structure + DCE layer.
  return db_.index->StorageBytes() + db_.DceBytes();
}

}  // namespace ppanns
