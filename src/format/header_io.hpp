// Reading a netCDF header of unknown length from storage.
//
// The header's encoded length is only known after parsing it, so readers
// fetch a prefix, attempt a decode, and geometrically grow the prefix while
// the decoder reports truncation. Shared by the serial library and by the
// PnetCDF root process ("let the root process fetch the file header,
// broadcast it to all processes", paper §4.2.1).
#pragma once

#include <functional>

#include "format/header.hpp"

namespace ncformat {

/// read_at(offset, out) must fill `out` from the file (zero-filling past
/// EOF) or return the storage error. `file_size` bounds the growth; a file
/// shorter than the 4-byte magic is not netCDF (kNotNc).
inline pnc::Result<Header> ReadHeader(
    std::uint64_t file_size,
    const std::function<pnc::Status(std::uint64_t, pnc::ByteSpan)>& read_at) {
  if (file_size < 4)
    return pnc::Status(pnc::Err::kNotNc, "shorter than the netCDF magic");
  std::uint64_t try_size = 8 * 1024;
  for (;;) {
    const std::uint64_t n = std::min(try_size, file_size);
    std::vector<std::byte> buf(n);
    PNC_RETURN_IF_ERROR(read_at(0, buf));
    auto r = Header::Decode(buf);
    if (r.ok()) return r;
    if (r.status().code() != pnc::Err::kTrunc || n >= file_size)
      return r.status();
    try_size *= 4;
  }
}

}  // namespace ncformat
