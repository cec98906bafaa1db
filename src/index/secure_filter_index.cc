#include "index/secure_filter_index.h"

#include <algorithm>
#include <utility>

namespace ppanns {
namespace {

constexpr std::uint32_t kEnvelopeMagic = 0x53464958;  // "SFIX"
constexpr std::uint32_t kEnvelopeVersion = 1;

void WriteEnvelope(IndexKind kind, BinaryWriter* out) {
  out->Put<std::uint32_t>(kEnvelopeMagic);
  out->Put<std::uint32_t>(kEnvelopeVersion);
  out->Put<std::uint8_t>(static_cast<std::uint8_t>(kind));
}

// ---- HNSW: the paper's default substrate (Section V-A). ---------------------
class HnswFilterIndex final : public SecureFilterIndex {
 public:
  explicit HnswFilterIndex(HnswIndex index) : index_(std::move(index)) {}

  IndexKind kind() const override { return IndexKind::kHnsw; }
  InsertEdit PlanInsert(const float* v) const override {
    return index_.PlanInsert(v);
  }
  void ApplyInsert(const InsertEdit& edit, const float* v) override {
    index_.ApplyInsert(edit, v);
  }
  Result<RemoveEdit> PlanRemove(VectorId id) const override {
    return index_.PlanRemove(id);
  }
  void ApplyRemove(const RemoveEdit& edit) override {
    index_.ApplyRemove(edit);
  }

  void BuildParallel(RowView data, ThreadPool* pool,
                     std::size_t build_threads) override {
    index_.AddBatchParallel(data, pool, build_threads);
  }

  std::vector<Neighbor> Search(const float* query, std::size_t k,
                               std::size_t breadth,
                               SearchContext* ctx) const override {
    const std::size_t ef = breadth > 0 ? breadth : std::max<std::size_t>(k, 64);
    return index_.Search(query, k, ef, nullptr, ctx);
  }

  std::size_t size() const override { return index_.size(); }
  std::size_t capacity() const override { return index_.capacity(); }
  std::size_t dim() const override { return index_.dim(); }
  bool IsDeleted(VectorId id) const override { return index_.IsDeleted(id); }
  const FloatMatrix& data() const override { return index_.data(); }

  std::size_t StorageBytes() const override {
    // SAP rows + level-0 graph edges.
    return index_.data().data().size() * sizeof(float) +
           index_.ComputeStats().total_edges_level0 * sizeof(VectorId);
  }

  void Serialize(BinaryWriter* out) const override {
    WriteEnvelope(kind(), out);
    index_.Serialize(out);
  }

  const HnswIndex* AsHnsw() const override { return &index_; }

  std::unique_ptr<SecureFilterIndex> MakeEmptyLike() const override {
    return std::make_unique<HnswFilterIndex>(
        HnswIndex(index_.dim(), index_.params()));
  }

 private:
  HnswIndex index_;
};

// ---- IVF: inverted-file substrate. ------------------------------------------
class IvfFilterIndex final : public SecureFilterIndex {
 public:
  explicit IvfFilterIndex(IvfIndex index) : index_(std::move(index)) {}

  IndexKind kind() const override { return IndexKind::kIvf; }
  void ApplyInsert(const InsertEdit& edit, const float* v) override {
    const VectorId id = index_.Add(v);
    PPANNS_CHECK(id == edit.id);
  }
  void ApplyRemove(const RemoveEdit& edit) override {
    PPANNS_CHECK(index_.Remove(edit.id).ok());
  }

  std::vector<Neighbor> Search(const float* query, std::size_t k,
                               std::size_t breadth,
                               SearchContext* ctx) const override {
    // `breadth` maps onto nprobe; the default probes a quarter of the lists,
    // floored so small k still sees several clusters.
    const std::size_t nprobe =
        breadth > 0 ? breadth
                    : std::max<std::size_t>(index_.params().num_lists / 4, 4);
    return index_.Search(query, k, nprobe, ctx);
  }

  std::size_t size() const override { return index_.size(); }
  std::size_t capacity() const override { return index_.capacity(); }
  std::size_t dim() const override { return index_.dim(); }
  bool IsDeleted(VectorId id) const override { return index_.IsDeleted(id); }
  const FloatMatrix& data() const override { return index_.data(); }
  std::size_t StorageBytes() const override { return index_.StorageBytes(); }

  void Serialize(BinaryWriter* out) const override {
    WriteEnvelope(kind(), out);
    index_.Serialize(out);
  }

  std::unique_ptr<SecureFilterIndex> MakeEmptyLike() const override {
    return std::make_unique<IvfFilterIndex>(
        IvfIndex(index_.dim(), index_.params(), index_.sq_params()));
  }

 private:
  IvfIndex index_;
};

// ---- LSH: hashing substrate (the QALSH/Riazi-style filter). -----------------
class LshFilterIndex final : public SecureFilterIndex {
 public:
  explicit LshFilterIndex(LshIndex index) : index_(std::move(index)) {}

  IndexKind kind() const override { return IndexKind::kLsh; }
  void ApplyInsert(const InsertEdit& edit, const float* v) override {
    const VectorId id = index_.Add(v);
    PPANNS_CHECK(id == edit.id);
  }
  void ApplyRemove(const RemoveEdit& edit) override {
    PPANNS_CHECK(index_.Remove(edit.id).ok());
  }

  std::vector<Neighbor> Search(const float* query, std::size_t k,
                               std::size_t breadth,
                               SearchContext* ctx) const override {
    // `breadth` maps onto multi-probe perturbations per table; the default
    // probes every +-1 single-hash perturbation.
    const std::size_t probes =
        breadth > 0 ? breadth : 2 * index_.params().num_hashes;
    return index_.Search(query, k, probes, ctx);
  }

  std::size_t size() const override { return index_.size(); }
  std::size_t capacity() const override { return index_.capacity(); }
  std::size_t dim() const override { return index_.dim(); }
  bool IsDeleted(VectorId id) const override { return index_.IsDeleted(id); }
  const FloatMatrix& data() const override { return index_.data(); }
  std::size_t StorageBytes() const override { return index_.StorageBytes(); }

  void Serialize(BinaryWriter* out) const override {
    WriteEnvelope(kind(), out);
    index_.Serialize(out);
  }

  std::unique_ptr<SecureFilterIndex> MakeEmptyLike() const override {
    // The self-seeded constructor redraws projections from params.seed, so
    // the clone hashes identically to a fresh build with these params.
    return std::make_unique<LshFilterIndex>(
        LshIndex(index_.dim(), index_.params()));
  }

 private:
  LshIndex index_;
};

// ---- Brute force: the exact reference substrate. ----------------------------
class BruteForceFilterIndex final : public SecureFilterIndex {
 public:
  explicit BruteForceFilterIndex(BruteForceIndex index)
      : index_(std::move(index)) {}

  IndexKind kind() const override { return IndexKind::kBruteForce; }
  void ApplyInsert(const InsertEdit& edit, const float* v) override {
    const VectorId id = index_.Add(v);
    PPANNS_CHECK(id == edit.id);
  }
  void ApplyRemove(const RemoveEdit& edit) override {
    PPANNS_CHECK(index_.Remove(edit.id).ok());
  }

  std::vector<Neighbor> Search(const float* query, std::size_t k,
                               std::size_t breadth,
                               SearchContext* ctx) const override {
    (void)breadth;  // the scan is always exhaustive
    return index_.Search(query, k, ctx);
  }

  std::size_t size() const override { return index_.size(); }
  std::size_t capacity() const override { return index_.capacity(); }
  std::size_t dim() const override { return index_.dim(); }
  bool IsDeleted(VectorId id) const override { return index_.IsDeleted(id); }
  const FloatMatrix& data() const override { return index_.data(); }
  std::size_t StorageBytes() const override { return index_.StorageBytes(); }

  void Serialize(BinaryWriter* out) const override {
    WriteEnvelope(kind(), out);
    index_.Serialize(out);
  }

  std::unique_ptr<SecureFilterIndex> MakeEmptyLike() const override {
    return std::make_unique<BruteForceFilterIndex>(
        BruteForceIndex(index_.dim(), index_.sq_params()));
  }

 private:
  BruteForceIndex index_;
};

}  // namespace

InsertEdit SecureFilterIndex::PlanInsert(const float* v) const {
  (void)v;
  InsertEdit edit;
  edit.id = static_cast<VectorId>(capacity());
  return edit;
}

Result<RemoveEdit> SecureFilterIndex::PlanRemove(VectorId id) const {
  if (id >= capacity()) {
    return Status::InvalidArgument(std::string(IndexKindName(kind())) +
                                   ": bad id");
  }
  if (IsDeleted(id)) {
    return Status::NotFound(std::string(IndexKindName(kind())) +
                            ": already deleted");
  }
  RemoveEdit edit;
  edit.id = id;
  return edit;
}

Result<std::unique_ptr<SecureFilterIndex>> MakeSecureFilterIndex(
    IndexKind kind, std::size_t dim, const SecureFilterIndexOptions& options) {
  if (dim == 0) {
    return Status::InvalidArgument("SecureFilterIndex: zero dimension");
  }
  switch (kind) {
    case IndexKind::kHnsw:
      return std::unique_ptr<SecureFilterIndex>(
          new HnswFilterIndex(HnswIndex(dim, options.hnsw)));
    case IndexKind::kIvf:
      return std::unique_ptr<SecureFilterIndex>(
          new IvfFilterIndex(IvfIndex(dim, options.ivf, options.sq)));
    case IndexKind::kLsh:
      return std::unique_ptr<SecureFilterIndex>(
          new LshFilterIndex(LshIndex(dim, options.lsh)));
    case IndexKind::kBruteForce:
      return std::unique_ptr<SecureFilterIndex>(
          new BruteForceFilterIndex(BruteForceIndex(dim, options.sq)));
  }
  return Status::InvalidArgument("SecureFilterIndex: unknown kind");
}

std::unique_ptr<SecureFilterIndex> WrapHnswIndex(HnswIndex index) {
  return std::make_unique<HnswFilterIndex>(std::move(index));
}

Result<std::unique_ptr<SecureFilterIndex>> DeserializeSecureFilterIndex(
    BinaryReader* in) {
  std::uint32_t magic = 0, version = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&magic));
  if (magic != kEnvelopeMagic) {
    return Status::IOError("SecureFilterIndex: bad magic");
  }
  PPANNS_RETURN_IF_ERROR(in->Get(&version));
  if (version != kEnvelopeVersion) {
    return Status::IOError("SecureFilterIndex: unsupported version");
  }
  std::uint8_t kind_byte = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&kind_byte));
  switch (static_cast<IndexKind>(kind_byte)) {
    case IndexKind::kHnsw: {
      Result<HnswIndex> index = HnswIndex::Deserialize(in);
      if (!index.ok()) return index.status();
      return std::unique_ptr<SecureFilterIndex>(
          new HnswFilterIndex(std::move(*index)));
    }
    case IndexKind::kIvf: {
      Result<IvfIndex> index = IvfIndex::Deserialize(in);
      if (!index.ok()) return index.status();
      return std::unique_ptr<SecureFilterIndex>(
          new IvfFilterIndex(std::move(*index)));
    }
    case IndexKind::kLsh: {
      Result<LshIndex> index = LshIndex::Deserialize(in);
      if (!index.ok()) return index.status();
      return std::unique_ptr<SecureFilterIndex>(
          new LshFilterIndex(std::move(*index)));
    }
    case IndexKind::kBruteForce: {
      Result<BruteForceIndex> index = BruteForceIndex::Deserialize(in);
      if (!index.ok()) return index.status();
      return std::unique_ptr<SecureFilterIndex>(
          new BruteForceFilterIndex(std::move(*index)));
    }
  }
  return Status::IOError("SecureFilterIndex: unknown backend kind");
}

const char* IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kHnsw: return "hnsw";
    case IndexKind::kIvf: return "ivf";
    case IndexKind::kLsh: return "lsh";
    case IndexKind::kBruteForce: return "brute";
  }
  return "unknown";
}

Result<IndexKind> ParseIndexKind(const std::string& name) {
  if (name == "hnsw") return IndexKind::kHnsw;
  if (name == "ivf") return IndexKind::kIvf;
  if (name == "lsh") return IndexKind::kLsh;
  if (name == "brute" || name == "bruteforce") return IndexKind::kBruteForce;
  return Status::InvalidArgument("unknown index kind '" + name +
                                 "' (expected hnsw|ivf|lsh|brute)");
}

}  // namespace ppanns
