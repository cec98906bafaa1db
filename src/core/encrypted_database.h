// The server-side encrypted database: SAP ciphertexts (inside the filter
// index), DCE ciphertexts, and nothing else. Produced by the data owner,
// consumed by the cloud server (Fig. 3, B1/B2).

#ifndef PPANNS_CORE_ENCRYPTED_DATABASE_H_
#define PPANNS_CORE_ENCRYPTED_DATABASE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "crypto/dce.h"
#include "index/secure_filter_index.h"

namespace ppanns {

/// First four bytes of a serialized EncryptedDatabase ("PPDB").
inline constexpr std::uint32_t kEncryptedDatabaseMagic = 0x50504442;

/// One vector's outsourceable ciphertext pair (used for insertions).
struct EncryptedVector {
  std::vector<float> sap;  ///< SAP ciphertext, length d
  DceCiphertext dce;       ///< DCE ciphertext, 4 x (2 d_pad + 16)
};

/// The complete outsourced package. The filter index is built over the SAP
/// ciphertexts (it owns them; `index->data()` is C_P^SAP), `dce` holds
/// C_P^DCE aligned by VectorId. The backend kind travels inside the index's
/// serialized envelope, so Deserialize reconstructs the right substrate.
struct EncryptedDatabase {
  std::unique_ptr<SecureFilterIndex> index;
  std::vector<DceCiphertext> dce;

  /// Bytes of the DCE layer (space accounting, Section V-C).
  std::size_t DceBytes() const {
    std::size_t total = 0;
    for (const auto& c : dce) total += c.data.size() * sizeof(double);
    return total;
  }

  void Serialize(BinaryWriter* out) const;
  static Result<EncryptedDatabase> Deserialize(BinaryReader* in);
};

}  // namespace ppanns

#endif  // PPANNS_CORE_ENCRYPTED_DATABASE_H_
