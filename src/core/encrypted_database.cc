#include "core/encrypted_database.h"

#include "index/hnsw.h"

namespace ppanns {
namespace {

// v1 stored a bare HnswIndex payload; v2 stores the self-describing
// SecureFilterIndex envelope (backend kind + payload). Both load.
constexpr std::uint32_t kVersion = 2;

}  // namespace

void EncryptedDatabase::Serialize(BinaryWriter* out) const {
  PPANNS_CHECK(index != nullptr);
  out->Put<std::uint32_t>(kEncryptedDatabaseMagic);
  out->Put<std::uint32_t>(kVersion);
  index->Serialize(out);
  out->Put<std::uint64_t>(dce.size());
  for (const auto& c : dce) {
    out->Put<std::uint64_t>(c.block);
    out->PutVector(c.data);
  }
}

Result<EncryptedDatabase> EncryptedDatabase::Deserialize(BinaryReader* in) {
  std::uint32_t magic = 0, version = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&magic));
  if (magic != kEncryptedDatabaseMagic) {
    return Status::IOError("EncryptedDatabase: bad magic");
  }
  PPANNS_RETURN_IF_ERROR(in->Get(&version));

  std::unique_ptr<SecureFilterIndex> index;
  if (version == 1) {
    // Legacy package: implicit HNSW backend.
    Result<HnswIndex> hnsw = HnswIndex::Deserialize(in);
    if (!hnsw.ok()) return hnsw.status();
    index = WrapHnswIndex(std::move(*hnsw));
  } else if (version == kVersion) {
    Result<std::unique_ptr<SecureFilterIndex>> loaded =
        DeserializeSecureFilterIndex(in);
    if (!loaded.ok()) return loaded.status();
    index = std::move(*loaded);
  } else {
    return Status::IOError("EncryptedDatabase: unsupported version");
  }

  std::uint64_t n = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&n));
  // Checked before the count sizes anything: a hostile count must come back
  // as a Status, not as an allocation failure.
  if (n != index->capacity()) {
    return Status::IOError("EncryptedDatabase: index/ciphertext mismatch");
  }
  std::vector<DceCiphertext> dce(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    DceCiphertext& c = dce[i];
    std::uint64_t block = 0;
    PPANNS_RETURN_IF_ERROR(in->Get(&block));
    c.block = block;
    PPANNS_RETURN_IF_ERROR(in->GetVector(&c.data));
    // An empty payload is the tombstone of a deleted vector (the id keeps
    // its slot) and is only legal if the index agrees the id is dead — the
    // refine phase reads 4*block doubles from every live candidate. Live
    // ciphertexts must have the full four blocks.
    if (c.data.empty()) {
      if (!index->IsDeleted(static_cast<VectorId>(i))) {
        return Status::IOError("EncryptedDatabase: blank ciphertext for live vector");
      }
    } else if (c.data.size() != 4 * c.block) {
      return Status::IOError("EncryptedDatabase: bad ciphertext size");
    }
  }
  return EncryptedDatabase{std::move(index), std::move(dce)};
}

}  // namespace ppanns
