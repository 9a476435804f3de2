// CRC-32 (ISO-HDLC / zlib polynomial, reflected 0xEDB88320).
//
// Used by the crash-consistency commit protocol to checksum the shadow
// header and the commit record, so a torn write is detected rather than
// trusted, and by the data-integrity layer to checksum every data write
// inline. Table-driven (slicing-by-8), computed at compile time; no
// dependencies.
//
// Crc32Combine is the GF(2) shift from zlib's crc32_combine: the CRC of
// A||B from CRC(A), CRC(B) and len(B) alone, in O(log len(B)) and without
// touching the bytes. It lets pieces of one chunk, checksummed where they
// were written, be joined into the chunk's CRC.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "util/bytes.hpp"

namespace pnc {

namespace detail {

constexpr std::uint32_t kCrc32Poly = 0xEDB88320u;

/// kCrc32Tables[0] is the classic byte table; kCrc32Tables[k][i] is the CRC
/// register after byte i is followed by k zero bytes, so eight bytes can be
/// folded in one step.
constexpr std::array<std::array<std::uint32_t, 256>, 8> MakeCrc32Tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? kCrc32Poly ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i)
    for (int k = 1; k < 8; ++k)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}
inline constexpr auto kCrc32Tables = MakeCrc32Tables();

/// a * b modulo the CRC polynomial, in the reflected bit order (x^0 is the
/// top bit). `a` must be nonzero.
constexpr std::uint32_t MultModP(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = 1u << 31;
  std::uint32_t p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1u) ? (b >> 1) ^ kCrc32Poly : b >> 1;
  }
  return p;
}

/// kX2n[k] = x^(2^k) modulo the polynomial.
constexpr std::array<std::uint32_t, 32> MakeX2nTable() {
  std::array<std::uint32_t, 32> t{};
  std::uint32_t p = 1u << 30;  // x^1
  t[0] = p;
  for (int n = 1; n < 32; ++n) t[n] = p = MultModP(p, p);
  return t;
}
inline constexpr auto kX2n = MakeX2nTable();

}  // namespace detail

/// One-shot or incremental CRC-32. Start with crc = 0; feed chunks by
/// passing the previous return value back in.
inline std::uint32_t Crc32(ConstByteSpan data, std::uint32_t crc = 0) {
  const auto& t = detail::kCrc32Tables;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  crc = ~crc;
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; p += 8, n -= 8) {
      std::uint32_t lo = 0, hi = 0;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= crc;
      crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
  }
  for (; n > 0; ++p, --n)
    crc = t[0][(crc ^ static_cast<std::uint32_t>(*p)) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

/// CRC-32 of A||B given crc1 = Crc32(A), crc2 = Crc32(B), len2 = |B|.
inline std::uint32_t Crc32Combine(std::uint32_t crc1, std::uint32_t crc2,
                                  std::uint64_t len2) {
  // x^(8*len2): walk the bits of len2, starting at x^(2^3) = x^8.
  std::uint32_t shift = 1u << 31;  // x^0
  for (unsigned k = 3; len2 != 0; len2 >>= 1, ++k)
    if (len2 & 1u) shift = detail::MultModP(detail::kX2n[k & 31], shift);
  return detail::MultModP(shift, crc1) ^ crc2;
}

/// CRC-32 of `len` zero bytes, without materializing them. Feeding zeros
/// shifts the (pre-inverted) register, which is what combining the all-ones
/// start value with the all-ones final xor computes.
inline std::uint32_t Crc32OfZeros(std::uint64_t len) {
  return Crc32Combine(~0u, ~0u, len);
}

}  // namespace pnc
