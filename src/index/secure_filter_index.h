// The pluggable filter-phase contract of the PP-ANNS scheme.
//
// Algorithm 2 fixes only what the filter phase must do — k'-ANNS over SAP
// ciphertexts — not how. This interface abstracts the substrate so the
// encrypted database can be backed by any of the index families the paper
// names (proximity graphs, inverted files, locality-sensitive hashing) or by
// an exact linear scan, chosen per deployment via PpannsParams::index_kind
// and reconstructed transparently on load (the serialized envelope records
// the backend).
//
// Contract highlights every adapter upholds:
//  * Ids are dense, assigned in insertion order, and never reused; removed
//    ids keep their slot (capacity() counts them, size() does not) so the
//    DCE ciphertext array stays aligned by VectorId.
//  * Search never returns a removed id.
//  * Search is const and safe to call concurrently from many threads
//    (the batched PpannsService facade relies on this).
//  * Serialize/Deserialize round-trips to an identical index: the same
//    queries return the same results before and after.

#ifndef PPANNS_INDEX_SECURE_FILTER_INDEX_H_
#define PPANNS_INDEX_SECURE_FILTER_INDEX_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/search_context.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/types.h"
#include "index/brute_force.h"
#include "index/hnsw.h"
#include "index/ivf.h"
#include "index/lsh.h"

namespace ppanns {

class ThreadPool;

/// Per-backend construction knobs, bundled so call sites can configure every
/// backend up front and switch kinds freely.
struct SecureFilterIndexOptions {
  HnswParams hnsw;
  IvfParams ivf;
  LshParams lsh;
  /// Int8 scalar-quantized filter tier for the flat backends (ivf, brute);
  /// ignored by hnsw/lsh. See index/sq8.h.
  SqParams sq;
};

/// Abstract k'-ANNS index over SAP ciphertexts (the filter phase substrate).
class SecureFilterIndex {
 public:
  virtual ~SecureFilterIndex() = default;

  virtual IndexKind kind() const = 0;

  /// Inserts a vector (length dim()), returning its dense id:
  /// ApplyInsert(PlanInsert(v), v).
  VectorId Add(const float* v) {
    const InsertEdit edit = PlanInsert(v);
    ApplyInsert(edit, v);
    return edit.id;
  }

  /// Plans the insertion of `v` (length dim()) without changing the index;
  /// the edit's id is capacity(). The plan is deterministic: equal indexes
  /// produce equal edits. HNSW does all of its linking work here (the
  /// descent, the per-level beam searches, the neighbor selection and the
  /// back-links; see HnswIndex::PlanInsert) and returns every adjacency list
  /// that changes. The flat backends (ivf, lsh, brute) return the id alone, and
  /// planning it allocates nothing.
  virtual InsertEdit PlanInsert(const float* v) const;

  /// Applies an edit planned against this index, or against a byte-identical
  /// copy of it, with the same vector `v` — the replicas of a shard apply the
  /// edit their primary planned. HNSW appends the row and assigns the
  /// planned lists (no distance work); the flat backends run their own
  /// insert, which is already cheap, and check that it lands on the planned
  /// id.
  virtual void ApplyInsert(const InsertEdit& edit, const float* v) = 0;

  /// Inserts all rows of `data` in order.
  void AddBatch(const FloatMatrix& data) {
    for (std::size_t i = 0; i < data.size(); ++i) Add(data.row(i));
  }

  /// Bulk-builds over all rows of `data` (ids assigned in row order, exactly
  /// like AddBatch). `data` is a RowView, so sharded callers can hand a
  /// strided view straight into the shared SAP matrix instead of
  /// materializing a per-shard copy. Backends with a parallel builder (HNSW)
  /// fan the construction across `build_threads` threads — see
  /// HnswIndex::AddBatchParallel for the reproducibility contract;
  /// ivf/lsh/brute fall back to a sequential
  /// Add loop (their insert is already cheap, so parallel build is a no-op
  /// there). `pool` may be null or busy; backends then use dedicated threads.
  virtual void BuildParallel(RowView data, ThreadPool* pool,
                             std::size_t build_threads) {
    (void)pool;
    (void)build_threads;
    for (std::size_t i = 0; i < data.size(); ++i) Add(data.row(i));
  }

  /// Plans the removal of a vector without changing the index.
  /// InvalidArgument if out of range, NotFound if already removed. The plan
  /// is deterministic: equal indexes produce equal edits at any thread
  /// count. HNSW does all of its repair work here (the in-neighbor sweep
  /// over its contiguous level-0 block and its upper lists, the re-linking
  /// searches and the back-links for the edges each repair gained; see
  /// HnswIndex::PlanRemove) and returns every adjacency list that changes.
  /// The flat backends (ivf,
  /// lsh, brute) only validate: their edit is the tombstone alone, and
  /// planning it allocates nothing.
  virtual Result<RemoveEdit> PlanRemove(VectorId id) const;

  /// Applies an edit planned against this index, or against a byte-identical
  /// copy of it — the replicas of a shard apply the edit their primary
  /// planned. The id keeps its slot; it never appears in Search results
  /// again. HNSW only assigns the planned lists (no distance work); the flat
  /// backends set the tombstone and unhook the id from their lists/buckets.
  virtual void ApplyRemove(const RemoveEdit& edit) = 0;

  /// Up to k (id, distance) pairs ascending by squared L2 distance over the
  /// stored (ciphertext) vectors. `breadth` is the backend's search-width
  /// knob — HNSW ef_search, IVF nprobe, LSH probes per table; the exact scan
  /// ignores it. 0 picks a backend default scaled to k.
  ///
  /// The context-free overload is the legacy API: it forwards a null
  /// context, costs nothing extra, and returns ids bit-for-bit identical to
  /// pre-context builds. The `ctx` overload is the cancellable pipeline:
  /// every backend probes the context from inside its hot loop (every
  /// kCancelCheckStride steps at most), stops early on cancellation /
  /// deadline / node budget with the best-so-far prefix, and accumulates
  /// SearchStats into ctx->stats.
  std::vector<Neighbor> Search(const float* query, std::size_t k,
                               std::size_t breadth) const {
    return Search(query, k, breadth, nullptr);
  }
  virtual std::vector<Neighbor> Search(const float* query, std::size_t k,
                                       std::size_t breadth,
                                       SearchContext* ctx) const = 0;

  virtual std::size_t size() const = 0;      ///< live vectors
  virtual std::size_t capacity() const = 0;  ///< live + removed (= next id)
  virtual std::size_t dim() const = 0;
  virtual bool IsDeleted(VectorId id) const = 0;

  /// The stored SAP ciphertext rows, aligned by VectorId (removed rows keep
  /// their slot).
  virtual const FloatMatrix& data() const = 0;

  /// Total resident bytes of the index (space accounting, Section V-C).
  virtual std::size_t StorageBytes() const = 0;

  /// Writes a self-describing envelope (backend kind + payload) that
  /// DeserializeSecureFilterIndex can reconstruct without external context.
  virtual void Serialize(BinaryWriter* out) const = 0;

  /// A fresh, empty index of the same kind, dimension and construction
  /// parameters (including the SQ tier configuration) as this one — the
  /// rebuild target of tombstone compaction: the maintenance path gathers
  /// the live rows and BuildParallel()s them into the clone, then swaps it
  /// in. Only *parameters* carry over, never contents.
  virtual std::unique_ptr<SecureFilterIndex> MakeEmptyLike() const = 0;

  /// Downcast hook for graph-specific diagnostics (edge inspection, HNSW
  /// stats). Null for non-graph backends.
  virtual const HnswIndex* AsHnsw() const { return nullptr; }
};

/// Creates an empty index of `kind` for d-dimensional vectors.
Result<std::unique_ptr<SecureFilterIndex>> MakeSecureFilterIndex(
    IndexKind kind, std::size_t dim, const SecureFilterIndexOptions& options = {});

/// Wraps an already-built HNSW index (legacy v1 packages, graph tooling).
std::unique_ptr<SecureFilterIndex> WrapHnswIndex(HnswIndex index);

/// Reads the envelope written by SecureFilterIndex::Serialize and
/// reconstructs the matching backend.
Result<std::unique_ptr<SecureFilterIndex>> DeserializeSecureFilterIndex(
    BinaryReader* in);

/// "hnsw" | "ivf" | "lsh" | "brute".
const char* IndexKindName(IndexKind kind);

/// Inverse of IndexKindName; InvalidArgument on unknown names.
Result<IndexKind> ParseIndexKind(const std::string& name);

}  // namespace ppanns

#endif  // PPANNS_INDEX_SECURE_FILTER_INDEX_H_
