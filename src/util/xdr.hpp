// XDR-style big-endian encoding primitives.
//
// The netCDF classic format stores all header fields and array data in a
// well-defined big-endian layout "similar to XDR but extended to support
// efficient storage of arrays of nonbyte data" (paper §3.1). These helpers
// convert between host representation and that on-disk form.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace pnc::xdr {

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "mixed-endian hosts are not supported");

/// True when the host byte order already matches the on-disk (big-endian)
/// order, in which case array conversion degenerates to memcpy.
constexpr bool kHostIsBig = std::endian::native == std::endian::big;

template <typename T>
constexpr T ByteSwap(T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  if constexpr (sizeof(T) == 1) {
    return v;
  } else {
    auto bytes = std::bit_cast<std::array<std::byte, sizeof(T)>>(v);
    for (std::size_t i = 0; i < sizeof(T) / 2; ++i)
      std::swap(bytes[i], bytes[sizeof(T) - 1 - i]);
    return std::bit_cast<T>(bytes);
  }
}

template <typename T>
constexpr T ToBig(T v) {
  return kHostIsBig ? v : ByteSwap(v);
}
template <typename T>
constexpr T FromBig(T v) {
  return kHostIsBig ? v : ByteSwap(v);
}

/// Append-only big-endian encoder used for header serialization.
class Encoder {
 public:
  explicit Encoder(std::vector<std::byte>& out) : out_(out) {}

  void PutBytes(std::span<const std::byte> b) {
    out_.insert(out_.end(), b.begin(), b.end());
  }
  void PutU8(std::uint8_t v) { out_.push_back(std::byte{v}); }

  template <typename T>
  void PutScalar(T v) {
    T big = ToBig(v);
    auto* p = reinterpret_cast<const std::byte*>(&big);
    out_.insert(out_.end(), p, p + sizeof(T));
  }

  void PutI16(std::int16_t v) { PutScalar(v); }
  void PutI32(std::int32_t v) { PutScalar(v); }
  void PutI64(std::int64_t v) { PutScalar(v); }
  void PutU32(std::uint32_t v) { PutScalar(v); }
  void PutU64(std::uint64_t v) { PutScalar(v); }
  void PutF32(float v) { PutScalar(v); }
  void PutF64(double v) { PutScalar(v); }

  /// netCDF name encoding: 4-byte length, bytes, zero-padding to a 4-byte
  /// boundary.
  void PutName(std::string_view s);

  /// Zero padding up to a 4-byte boundary relative to buffer start.
  void PadTo4();

  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  std::vector<std::byte>& out_;
};

/// Cursor-based big-endian decoder with bounds checking.
class Decoder {
 public:
  explicit Decoder(std::span<const std::byte> in) : in_(in) {}

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return in_.size() - pos_; }

  Status GetBytes(std::span<std::byte> out);

  template <typename T>
  Status GetScalar(T& v) {
    if (remaining() < sizeof(T)) return Status(Err::kTrunc, "decode scalar");
    T big;
    std::memcpy(&big, in_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    v = FromBig(big);
    return Status::Ok();
  }

  Status GetI32(std::int32_t& v) { return GetScalar(v); }
  Status GetI64(std::int64_t& v) { return GetScalar(v); }
  Status GetU32(std::uint32_t& v) { return GetScalar(v); }
  Status GetU64(std::uint64_t& v) { return GetScalar(v); }
  Status GetF32(float& v) { return GetScalar(v); }
  Status GetF64(double& v) { return GetScalar(v); }

  Status GetName(std::string& s);
  Status SkipPadTo4();

 private:
  std::span<const std::byte> in_;
  std::size_t pos_ = 0;
};

/// Round x up to the nearest multiple of 4 (netCDF header/data padding rule).
constexpr std::uint64_t RoundUp4(std::uint64_t x) { return (x + 3) & ~3ULL; }

/// Convert an array of host-order scalars to big-endian bytes (and back).
/// These are the hot paths used when staging variable data for file I/O.
/// An empty array touches neither pointer (a zero-count put may pass null).
template <typename T>
void EncodeArray(std::span<const T> in, std::byte* out) {
  if (in.empty()) return;
  if constexpr (kHostIsBig || sizeof(T) == 1) {
    std::memcpy(out, in.data(), in.size_bytes());
  } else {
    for (std::size_t i = 0; i < in.size(); ++i) {
      T big = ToBig(in[i]);
      std::memcpy(out + i * sizeof(T), &big, sizeof(T));
    }
  }
}

template <typename T>
void DecodeArray(const std::byte* in, std::span<T> out) {
  if (out.empty()) return;
  if constexpr (kHostIsBig || sizeof(T) == 1) {
    std::memcpy(out.data(), in, out.size_bytes());
  } else {
    for (std::size_t i = 0; i < out.size(); ++i) {
      T big;
      std::memcpy(&big, in + i * sizeof(T), sizeof(T));
      out[i] = FromBig(big);
    }
  }
}

}  // namespace pnc::xdr
