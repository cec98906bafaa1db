// Readers/writers for the standard ANN benchmark file formats (.fvecs /
// .bvecs / .ivecs, as used by SIFT1M/GIST/Deep) plus whole-file helpers.
//
// When real dataset files are present under data/, bench binaries load them;
// otherwise the synthetic generators in src/datagen are used (see
// src/datagen/synthetic.h).

#ifndef PPANNS_COMMON_IO_H_
#define PPANNS_COMMON_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace ppanns {

/// Reads an .fvecs file: each record is [int32 d][d x float32].
/// `max_rows` = 0 means "all".
Result<FloatMatrix> ReadFvecs(const std::string& path, std::size_t max_rows = 0);

/// Reads a .bvecs file: each record is [int32 d][d x uint8], widened to float.
Result<FloatMatrix> ReadBvecs(const std::string& path, std::size_t max_rows = 0);

/// Reads an .ivecs file (ground truth lists): [int32 k][k x int32] per row.
Result<std::vector<std::vector<std::int32_t>>> ReadIvecs(
    const std::string& path, std::size_t max_rows = 0);

/// Writes a FloatMatrix as .fvecs.
Status WriteFvecs(const std::string& path, const FloatMatrix& m);

/// Writes/reads a raw byte blob (for serialized indexes and ciphertexts).
Status WriteFile(const std::string& path, const std::vector<std::uint8_t>& buf);
Result<std::vector<std::uint8_t>> ReadFile(const std::string& path);

/// True if `path` exists and is a regular file.
bool FileExists(const std::string& path);

}  // namespace ppanns

#endif  // PPANNS_COMMON_IO_H_
