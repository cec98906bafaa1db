#include "core/cloud_server.h"

#include <algorithm>

#include "common/timer.h"
#include "core/sorted_k_buffer.h"

namespace ppanns {

void RefineCandidates(std::span<const Neighbor> candidates,
                      std::span<const DceCiphertext* const> dce,
                      const QueryToken& token, std::size_t k,
                      const SearchSettings& settings, SearchContext* ctx,
                      SearchResult* result) {
  ctx->stats.filter_candidates += candidates.size();
  if (!settings.refine) {
    // Filter-only variant: the SAP ranking is final (approximate).
    const std::size_t out_k = std::min(k, candidates.size());
    result->ids.reserve(out_k);
    for (std::size_t i = 0; i < out_k; ++i) {
      result->ids.push_back(candidates[i].id);
    }
  } else {
    // Exact DCE comparisons under the canonical order over candidate
    // positions (see the contract in cloud_server.h).
    Timer refine_timer;
    std::size_t* comparisons = &ctx->stats.dce_comparisons;
    SortedKBuffer buffer(
        k, CanonicalCloser([dce, &token, comparisons](VectorId o, VectorId p) {
          ++*comparisons;
          return DceScheme::DistanceComp(*dce[o], *dce[p], token.trapdoor);
        }));
    // Blocked offers: gather a block of candidates and prefetch their DCE
    // ciphertext payloads, then run the comparison-heavy offers over warm
    // lines. Offers apply in candidate order, so ids match the unblocked
    // loop. The context is probed as each candidate is gathered (candidate
    // granularity — DCE comparisons dwarf a row scan); a spent filter budget
    // does not abandon refinement, only cancellation or the deadline does.
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
        PrefetchRead(dce[ci]->data.data());
        block[bn++] = static_cast<VectorId>(ci);
      }
      buffer.OfferBatch(block, bn);
    }
    result->ids.reserve(buffer.size());
    for (VectorId pos : buffer.sorted()) {
      result->ids.push_back(candidates[pos].id);
    }
    ctx->stats.refine_seconds += refine_timer.ElapsedSeconds();
  }
  // The last step of every serving path: one copy of the query's stats.
  static_cast<SearchStats&>(result->counters) = ctx->stats;
  result->counters.early_exit = ctx->early_exit();
}

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

  // ---- Filter phase (Algorithm 2, line 1): k'-ANNS over SAP ciphertexts on
  // the configured backend; distances are computed on the encrypted vectors
  // at plaintext cost. The backend probes `ctx` from its hot loop.
  Timer filter_timer;
  const std::vector<Neighbor> candidates = db_.index->Search(
      token.sap.data(), ResolveKPrime(settings, k), settings.ef_search, ctx);
  ctx->stats.filter_seconds += filter_timer.ElapsedSeconds();

  std::vector<const DceCiphertext*> dce;
  if (settings.refine) {
    dce.reserve(candidates.size());
    for (const Neighbor& nb : candidates) dce.push_back(&db_.dce[nb.id]);
  }
  RefineCandidates(candidates, dce, token, k, settings, ctx, &result);
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
