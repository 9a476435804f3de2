#include "format/layout.hpp"

#include <algorithm>

namespace ncformat {

std::uint64_t AccessElems(std::span<const std::uint64_t> count) {
  return pnc::ShapeProduct(count);
}

pnc::Status ValidateAccess(const Header& h, int varid,
                           std::span<const std::uint64_t> start,
                           std::span<const std::uint64_t> count,
                           std::span<const std::uint64_t> stride,
                           AccessKind kind) {
  if (varid < 0 || static_cast<std::size_t>(varid) >= h.vars.size())
    return pnc::Status(pnc::Err::kNotVar);
  const auto& v = h.vars[static_cast<std::size_t>(varid)];
  const std::size_t ndims = v.dimids.size();
  if (start.size() != ndims || count.size() != ndims ||
      (!stride.empty() && stride.size() != ndims))
    return pnc::Status(pnc::Err::kInvalidArg, "rank mismatch: " + v.name);

  const bool is_rec = h.IsRecordVar(varid);
  for (std::size_t d = 0; d < ndims; ++d) {
    const std::uint64_t st = stride.empty() ? 1 : stride[d];
    if (st == 0) return pnc::Status(pnc::Err::kStride, v.name);
    const bool growable = is_rec && d == 0 && kind == AccessKind::kWrite;
    const std::uint64_t bound =
        (is_rec && d == 0) ? h.numrecs
                           : h.dims[static_cast<std::size_t>(v.dimids[d])].len;
    if (growable) continue;  // the record dimension may grow on write
    if (count[d] == 0) continue;
    if (start[d] >= bound && !(start[d] == 0 && bound == 0))
      return pnc::Status(pnc::Err::kInvalidCoords, v.name);
    if (start[d] + (count[d] - 1) * st + 1 > bound)
      return pnc::Status(pnc::Err::kEdge, v.name);
  }
  return pnc::Status::Ok();
}

void AccessRegions(const Header& h, int varid,
                   std::span<const std::uint64_t> start,
                   std::span<const std::uint64_t> count,
                   std::span<const std::uint64_t> stride,
                   std::vector<pnc::Extent>& out) {
  const auto& v = h.vars[static_cast<std::size_t>(varid)];
  const std::size_t ndims = v.dimids.size();
  const std::uint64_t tsize = TypeSize(v.type);
  const bool is_rec = h.IsRecordVar(varid);

  auto stride_of = [&](std::size_t d) -> std::uint64_t {
    return stride.empty() ? 1 : stride[d];
  };

  // Scalar variable: one element at begin.
  if (ndims == 0) {
    out.push_back({v.begin, tsize});
    return;
  }
  for (std::size_t d = 0; d < ndims; ++d)
    if (count[d] == 0) return;

  // Element strides (in elements) of the in-record / in-variable array. For
  // record variables dimension 0 is handled via recsize below.
  const std::size_t first_inner = is_rec ? 1 : 0;
  std::vector<std::uint64_t> elem_stride(ndims, 1);
  for (std::size_t d = ndims - 1; d > first_inner; --d) {
    const auto& dim = h.dims[static_cast<std::size_t>(v.dimids[d])];
    elem_stride[d - 1] = elem_stride[d] * dim.len;
  }

  // Innermost dimension: contiguous rows only when its stride is 1 and it
  // is not the record dimension (records are interleaved, never contiguous;
  // the adjacent-extent coalescing below recovers the sole-record-variable
  // special case where records do end up back to back).
  const bool rec_inner = is_rec && ndims == 1;
  const bool contig_row = !rec_inner && stride_of(ndims - 1) == 1;
  const std::uint64_t row_elems = contig_row ? count[ndims - 1] : 1;
  const std::uint64_t row_len = row_elems * tsize;

  // Iterate the remaining index space with an odometer.
  std::vector<std::uint64_t> idx(ndims, 0);
  const std::size_t last_odo = contig_row ? ndims - 1 : ndims;
  std::uint64_t rows = 1;
  for (std::size_t d = 0; d < last_odo; ++d) rows *= count[d];

  out.reserve(out.size() + rows);
  for (std::uint64_t r = 0; r < rows; ++r) {
    std::uint64_t base;
    std::size_t d0;
    if (is_rec) {
      const std::uint64_t rec = start[0] + idx[0] * stride_of(0);
      base = v.begin + rec * h.recsize();
      d0 = 1;
    } else {
      base = v.begin;
      d0 = 0;
    }
    std::uint64_t elem = 0;
    for (std::size_t d = d0; d < last_odo; ++d)
      elem += (start[d] + idx[d] * stride_of(d)) * elem_stride[d];
    if (contig_row) {
      if (ndims - 1 >= d0) elem += start[ndims - 1] * elem_stride[ndims - 1];
    } else {
      // ndims-1 participates in the odometer (strided innermost dim).
    }
    const std::uint64_t off = base + elem * tsize;
    if (!out.empty() && out.back().end() == off) {
      out.back().len += row_len;
    } else {
      out.push_back({off, row_len});
    }
    // Advance odometer over dims [d?]..last_odo-1 — note dimension 0 of a
    // record variable is part of the odometer too (records advance).
    for (std::size_t d = last_odo; d-- > 0;) {
      if (++idx[d] < count[d]) break;
      idx[d] = 0;
    }
  }
}

pnc::Result<std::vector<RelayoutMove>> RelayoutMoves(
    const Header& old_header, const Header& new_header) {
  std::vector<RelayoutMove> moves;
  for (std::size_t i = 0; i < old_header.vars.size(); ++i) {
    const auto& ov = old_header.vars[i];
    const int nid = new_header.FindVar(ov.name);
    if (nid < 0) continue;  // vars cannot be deleted, but be defensive
    const auto& nv = new_header.vars[static_cast<std::size_t>(nid)];
    if (!old_header.IsRecordVar(static_cast<int>(i))) {
      moves.push_back({ov.begin, nv.begin, ov.vsize});
      continue;
    }
    for (std::uint64_t r = 0; r < old_header.numrecs; ++r)
      moves.push_back({ov.begin + r * old_header.recsize(),
                       nv.begin + r * new_header.recsize(), ov.vsize});
  }
  std::sort(moves.begin(), moves.end(),
            [](const RelayoutMove& a, const RelayoutMove& b) {
              return a.to > b.to;
            });
  for (const auto& m : moves)
    if (m.to < m.from)
      return pnc::Status(pnc::Err::kInternal, "relayout moved data backwards");
  return moves;
}

}  // namespace ncformat
