// Mapping variable accesses to file byte regions.
//
// Every netCDF data access (single element, whole array, subarray, strided
// subarray) reduces to a set of contiguous byte extents in the file, derived
// from the variable's begin offset, its shape, and — for record variables —
// the record interleaving (record r of variable v lives at
// v.begin + r * recsize; Figure 1). Both the serial library (which does
// buffered POSIX-style I/O over the extents) and PnetCDF (which builds MPI
// file views from them) consume this one implementation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "format/header.hpp"
#include "util/bytes.hpp"

namespace ncformat {

/// Access bounds checking policy: reads must stay within the current number
/// of records, while writes may grow the record dimension.
enum class AccessKind { kRead, kWrite };

/// Validate (start, count, stride) against the variable's shape. `stride`
/// may be empty (meaning all ones). Returns kInvalidCoords / kEdge /
/// kStride on violations, mirroring the netCDF error taxonomy.
pnc::Status ValidateAccess(const Header& h, int varid,
                           std::span<const std::uint64_t> start,
                           std::span<const std::uint64_t> count,
                           std::span<const std::uint64_t> stride,
                           AccessKind kind);

/// Compute the file extents touched by (start, count, stride) on `varid`,
/// appended to `out` in row-major element order (which is also ascending
/// file order). Adjacent extents are coalesced. Does not validate; call
/// ValidateAccess first.
void AccessRegions(const Header& h, int varid,
                   std::span<const std::uint64_t> start,
                   std::span<const std::uint64_t> count,
                   std::span<const std::uint64_t> stride,
                   std::vector<pnc::Extent>& out);

/// Number of elements selected by `count` (product; 1 for scalars).
std::uint64_t AccessElems(std::span<const std::uint64_t> count);

/// One contiguous copy of a relayout: `len` bytes from `from` to `to`.
struct RelayoutMove {
  std::uint64_t from = 0, to = 0, len = 0;
};

/// The copies that move the data of `old_header` to where `new_header`
/// places it after re-entering define mode grew the header: each fixed
/// variable whole, each record variable record by record. Destinations
/// never precede their sources (the header only grows), so the list comes
/// highest destination first, the one order that never clobbers unmoved
/// data. kInternal if some copy would move data backwards.
pnc::Result<std::vector<RelayoutMove>> RelayoutMoves(
    const Header& old_header, const Header& new_header);

}  // namespace ncformat
