// Minimal binary (de)serialization for index/ciphertext persistence.
//
// Little-endian, no framing; each module writes a magic + version header of
// its own. Writers append to a byte buffer; readers consume from a view with
// range checks returning Status.

#ifndef PPANNS_COMMON_SERIALIZE_H_
#define PPANNS_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace ppanns {

/// Appends fixed-width scalars and vectors to a growable byte buffer.
class BinaryWriter {
 public:
  template <typename T>
  void Put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  template <typename T>
  void PutVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Put<std::uint64_t>(v.size());
    if (v.empty()) return;  // data() may be null for an empty vector
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    buf_.insert(buf_.end(), p, p + v.size() * sizeof(T));
  }

  void PutString(const std::string& s) {
    Put<std::uint64_t>(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Appends `n` raw bytes with no length prefix — for payloads that are
  /// already encoded (e.g. a framed RPC message body).
  void PutBytes(const std::uint8_t* data, std::size_t n) {
    if (n == 0) return;  // data may be null for an empty payload
    buf_.insert(buf_.end(), data, data + n);
  }

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> TakeBuffer() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Consumes scalars and vectors from a byte span with bounds checking.
class BinaryReader {
 public:
  BinaryReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit BinaryReader(const std::vector<std::uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}

  template <typename T>
  Status Get(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > size_) {
      return Status::OutOfRange("BinaryReader: truncated input");
    }
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  template <typename T>
  Status GetVector(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint64_t n = 0;
    PPANNS_RETURN_IF_ERROR(Get(&n));
    // Divide instead of multiplying: n * sizeof(T) can wrap for a crafted
    // length, which would pass the bounds check and abort in resize().
    if (n > (size_ - pos_) / sizeof(T)) {
      return Status::OutOfRange("BinaryReader: truncated vector");
    }
    out->resize(n);
    if (n > 0) {  // an empty vector's data() may be null: skip the memcpy
      std::memcpy(out->data(), data_ + pos_, n * sizeof(T));
    }
    pos_ += n * sizeof(T);
    return Status::OK();
  }

  Status GetString(std::string* out) {
    std::uint64_t n = 0;
    PPANNS_RETURN_IF_ERROR(Get(&n));
    if (pos_ + n > size_) {
      return Status::OutOfRange("BinaryReader: truncated string");
    }
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return Status::OK();
  }

  /// Advances past `n` bytes without reading them.
  Status Skip(std::size_t n) {
    if (n > size_ - pos_) {
      return Status::OutOfRange("BinaryReader: truncated input");
    }
    pos_ += n;
    return Status::OK();
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  /// Current read offset and the underlying bytes — for readers that must
  /// checksum a region they just consumed (the v3 "PPSH" envelope CRC).
  std::size_t position() const { return pos_; }
  const std::uint8_t* bytes() const { return data_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Writes a FloatMatrix as [n][dim][n*dim floats].
inline void PutMatrix(const FloatMatrix& m, BinaryWriter* out) {
  out->Put<std::uint64_t>(m.size());
  out->Put<std::uint64_t>(m.dim());
  out->PutVector(m.data());
}

/// Reads a FloatMatrix written by PutMatrix, with shape validation. The
/// shape is cross-checked against the (bounds-checked) payload length by
/// division, so crafted n/dim headers cannot pass via n*dim overflow.
inline Status GetMatrix(BinaryReader* in, FloatMatrix* out) {
  std::uint64_t n = 0, dim = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&n));
  PPANNS_RETURN_IF_ERROR(in->Get(&dim));
  std::vector<float> data;
  PPANNS_RETURN_IF_ERROR(in->GetVector(&data));
  const bool shape_ok =
      dim == 0 ? (n == 0 && data.empty())
               : (data.size() % dim == 0 && data.size() / dim == n);
  if (!shape_ok) {
    return Status::IOError("FloatMatrix: shape/payload mismatch");
  }
  FloatMatrix m(n, dim);
  m.data() = std::move(data);
  *out = std::move(m);
  return Status::OK();
}

}  // namespace ppanns

#endif  // PPANNS_COMMON_SERIALIZE_H_
