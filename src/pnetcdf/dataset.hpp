// Parallel netCDF (PnetCDF) — the paper's primary contribution.
//
// A parallel interface to netCDF classic files with minimal changes from the
// serial API (§4): dataset functions take a communicator and an MPI_Info of
// hints; define mode, attribute, and inquiry functions keep their serial
// syntax but are collective and consistency-checked; data mode splits into
// collective (`...All`, must be called by every process) and independent
// access (bracketed by BeginIndepData/EndIndepData).
//
// Two data-access APIs are provided (§4.1):
//  * the high-level API: typed calls on contiguous memory, mirroring the
//    serial var1/var/vara/vars/varm access methods;
//  * the flexible API: memory described by an MPI (simmpi) datatype, the
//    MPI-natural way to write noncontiguous user buffers. All high-level
//    calls are implemented over the flexible engine, as in the paper.
//
// Implementation (§4.2): the header is read by rank 0 and broadcast; every
// process caches a local copy, so inquiry functions are pure in-memory
// operations. Data access builds an MPI file view from the variable metadata
// plus (start, count, stride, imap) and goes through MPI-IO, where the
// two-phase collective optimization lives.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "format/convert.hpp"
#include "format/header.hpp"
#include "format/layout.hpp"
#include "mpiio/file.hpp"
#include "pfs/pfs.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/info.hpp"

namespace pnetcdf {

constexpr std::uint64_t kUnlimited = 0;
constexpr int kGlobal = ncformat::kGlobalVarId;

struct CreateOptions {
  bool clobber = true;
  bool use_cdf2 = true;
};

/// An open parallel dataset (the C API's ncid from ncmpi_create/open).
/// Copyable within a rank; each rank of the communicator holds its own.
class Dataset {
 public:
  // ---- dataset functions (collective; §4.1 adds comm + info) ----
  static pnc::Result<Dataset> Create(simmpi::Comm comm, pfs::FileSystem& fs,
                                     const std::string& path,
                                     const simmpi::Info& info,
                                     const CreateOptions& opts = {});
  static pnc::Result<Dataset> Open(simmpi::Comm comm, pfs::FileSystem& fs,
                                   const std::string& path, bool writable,
                                   const simmpi::Info& info);

  Dataset() = default;
  [[nodiscard]] bool valid() const { return impl_ != nullptr; }

  pnc::Status Redef();
  pnc::Status EndDef();
  pnc::Status Sync();
  pnc::Status Close();
  pnc::Status Abort();

  /// Switch this communicator's data mode to independent / back to
  /// collective. Both are collective calls (as in PnetCDF).
  pnc::Status BeginIndepData();
  pnc::Status EndIndepData();

  // ---- define mode functions (collective, same syntax as serial §4.1) ----
  pnc::Result<int> DefDim(const std::string& name, std::uint64_t len);
  pnc::Result<int> DefVar(const std::string& name, ncformat::NcType type,
                          std::vector<std::int32_t> dimids);
  pnc::Status RenameDim(int dimid, const std::string& name);
  pnc::Status RenameVar(int varid, const std::string& name);

  // ---- attribute functions ----
  pnc::Status PutAtt(int varid, ncformat::Attr att);
  pnc::Status PutAttText(int varid, const std::string& name,
                         std::string_view text);
  template <typename T>
  pnc::Status PutAttValues(int varid, const std::string& name,
                           ncformat::NcType type, std::span<const T> values) {
    if (sizeof(T) != ncformat::TypeSize(type))
      return pnc::Status(pnc::Err::kBadType, "attribute value width");
    return PutAtt(varid, ncformat::Attr::Numeric<T>(name, type, values));
  }
  pnc::Result<ncformat::Attr> GetAtt(int varid, const std::string& name) const;
  pnc::Status DelAtt(int varid, const std::string& name);

  // ---- inquiry functions (local memory only; no communication, §4.3) ----
  [[nodiscard]] const ncformat::Header& header() const;
  [[nodiscard]] int ndims() const;
  [[nodiscard]] int nvars() const;
  [[nodiscard]] int ngatts() const;
  [[nodiscard]] int unlimdim() const;
  [[nodiscard]] std::uint64_t numrecs() const;
  pnc::Result<int> DimId(const std::string& name) const;
  pnc::Result<int> VarId(const std::string& name) const;

  // ---- high-level data access API (typed, contiguous memory) ----
  // Collective variants end in "All" (§4.1 naming: "_all").
#define PNETCDF_DECLARE_TYPED(Name, ...) \
  template <typename T>                  \
  pnc::Status Name(__VA_ARGS__)

  PNETCDF_DECLARE_TYPED(PutVaraAll, int varid,
                        std::span<const std::uint64_t> start,
                        std::span<const std::uint64_t> count,
                        std::span<const T> data) {
    return TypedPut<T>(varid, start, count, {}, {}, data, true);
  }
  PNETCDF_DECLARE_TYPED(PutVara, int varid,
                        std::span<const std::uint64_t> start,
                        std::span<const std::uint64_t> count,
                        std::span<const T> data) {
    return TypedPut<T>(varid, start, count, {}, {}, data, false);
  }
  PNETCDF_DECLARE_TYPED(GetVaraAll, int varid,
                        std::span<const std::uint64_t> start,
                        std::span<const std::uint64_t> count,
                        std::span<T> out) {
    return TypedGet<T>(varid, start, count, {}, {}, out, true);
  }
  PNETCDF_DECLARE_TYPED(GetVara, int varid,
                        std::span<const std::uint64_t> start,
                        std::span<const std::uint64_t> count,
                        std::span<T> out) {
    return TypedGet<T>(varid, start, count, {}, {}, out, false);
  }

  PNETCDF_DECLARE_TYPED(PutVarsAll, int varid,
                        std::span<const std::uint64_t> start,
                        std::span<const std::uint64_t> count,
                        std::span<const std::uint64_t> stride,
                        std::span<const T> data) {
    return TypedPut<T>(varid, start, count, stride, {}, data, true);
  }
  PNETCDF_DECLARE_TYPED(PutVars, int varid,
                        std::span<const std::uint64_t> start,
                        std::span<const std::uint64_t> count,
                        std::span<const std::uint64_t> stride,
                        std::span<const T> data) {
    return TypedPut<T>(varid, start, count, stride, {}, data, false);
  }
  PNETCDF_DECLARE_TYPED(GetVarsAll, int varid,
                        std::span<const std::uint64_t> start,
                        std::span<const std::uint64_t> count,
                        std::span<const std::uint64_t> stride,
                        std::span<T> out) {
    return TypedGet<T>(varid, start, count, stride, {}, out, true);
  }
  PNETCDF_DECLARE_TYPED(GetVars, int varid,
                        std::span<const std::uint64_t> start,
                        std::span<const std::uint64_t> count,
                        std::span<const std::uint64_t> stride,
                        std::span<T> out) {
    return TypedGet<T>(varid, start, count, stride, {}, out, false);
  }

  PNETCDF_DECLARE_TYPED(PutVarmAll, int varid,
                        std::span<const std::uint64_t> start,
                        std::span<const std::uint64_t> count,
                        std::span<const std::uint64_t> stride,
                        std::span<const std::uint64_t> imap,
                        std::span<const T> data) {
    return TypedPut<T>(varid, start, count, stride, imap, data, true);
  }
  PNETCDF_DECLARE_TYPED(PutVarm, int varid,
                        std::span<const std::uint64_t> start,
                        std::span<const std::uint64_t> count,
                        std::span<const std::uint64_t> stride,
                        std::span<const std::uint64_t> imap,
                        std::span<const T> data) {
    return TypedPut<T>(varid, start, count, stride, imap, data, false);
  }
  PNETCDF_DECLARE_TYPED(GetVarmAll, int varid,
                        std::span<const std::uint64_t> start,
                        std::span<const std::uint64_t> count,
                        std::span<const std::uint64_t> stride,
                        std::span<const std::uint64_t> imap, std::span<T> out) {
    return TypedGet<T>(varid, start, count, stride, imap, out, true);
  }
  PNETCDF_DECLARE_TYPED(GetVarm, int varid,
                        std::span<const std::uint64_t> start,
                        std::span<const std::uint64_t> count,
                        std::span<const std::uint64_t> stride,
                        std::span<const std::uint64_t> imap, std::span<T> out) {
    return TypedGet<T>(varid, start, count, stride, imap, out, false);
  }

  PNETCDF_DECLARE_TYPED(PutVar1, int varid,
                        std::span<const std::uint64_t> index, T value) {
    std::vector<std::uint64_t> count(index.size(), 1);
    return TypedPut<T>(varid, index, count, {}, {},
                       std::span<const T>(&value, 1), false);
  }
  PNETCDF_DECLARE_TYPED(GetVar1, int varid,
                        std::span<const std::uint64_t> index, T& out) {
    std::vector<std::uint64_t> count(index.size(), 1);
    return TypedGet<T>(varid, index, count, {}, {}, std::span<T>(&out, 1),
                       false);
  }

  PNETCDF_DECLARE_TYPED(PutVarAll, int varid, std::span<const T> data) {
    return WholeVarPut<T>(varid, data, true);
  }
  PNETCDF_DECLARE_TYPED(GetVarAll, int varid, std::span<T> out) {
    return WholeVarGet<T>(varid, out, true);
  }
  PNETCDF_DECLARE_TYPED(PutVar, int varid, std::span<const T> data) {
    return WholeVarPut<T>(varid, data, false);
  }
  PNETCDF_DECLARE_TYPED(GetVar, int varid, std::span<T> out) {
    return WholeVarGet<T>(varid, out, false);
  }
#undef PNETCDF_DECLARE_TYPED

  // ---- flexible data access API (memory described by an MPI datatype) ----
  pnc::Status PutVaraAllFlex(int varid, std::span<const std::uint64_t> start,
                             std::span<const std::uint64_t> count,
                             const void* buf, std::uint64_t bufcount,
                             const simmpi::Datatype& buftype) {
    return FlexPut(varid, start, count, {}, buf, bufcount, buftype, true);
  }
  pnc::Status PutVaraFlex(int varid, std::span<const std::uint64_t> start,
                          std::span<const std::uint64_t> count,
                          const void* buf, std::uint64_t bufcount,
                          const simmpi::Datatype& buftype) {
    return FlexPut(varid, start, count, {}, buf, bufcount, buftype, false);
  }
  pnc::Status GetVaraAllFlex(int varid, std::span<const std::uint64_t> start,
                             std::span<const std::uint64_t> count, void* buf,
                             std::uint64_t bufcount,
                             const simmpi::Datatype& buftype) {
    return FlexGet(varid, start, count, {}, buf, bufcount, buftype, true);
  }
  pnc::Status GetVaraFlex(int varid, std::span<const std::uint64_t> start,
                          std::span<const std::uint64_t> count, void* buf,
                          std::uint64_t bufcount,
                          const simmpi::Datatype& buftype) {
    return FlexGet(varid, start, count, {}, buf, bufcount, buftype, false);
  }
  pnc::Status PutVarsAllFlex(int varid, std::span<const std::uint64_t> start,
                             std::span<const std::uint64_t> count,
                             std::span<const std::uint64_t> stride,
                             const void* buf, std::uint64_t bufcount,
                             const simmpi::Datatype& buftype) {
    return FlexPut(varid, start, count, stride, buf, bufcount, buftype, true);
  }
  pnc::Status GetVarsAllFlex(int varid, std::span<const std::uint64_t> start,
                             std::span<const std::uint64_t> count,
                             std::span<const std::uint64_t> stride, void* buf,
                             std::uint64_t bufcount,
                             const simmpi::Datatype& buftype) {
    return FlexGet(varid, start, count, stride, buf, bufcount, buftype, true);
  }

  /// One item of an aggregated (nonblocking wait_all) access: external-form
  /// bytes for the (start, count) region of `varid`.
  struct BatchItem {
    int varid = 0;
    std::span<const std::uint64_t> start, count;
    pnc::ByteSpan ext;
  };
  /// Collective: move every item's bytes in a single combined MPI-IO
  /// collective (one file view spanning all variables and records). The
  /// engine behind NonblockingQueue::WaitAll; items must not overlap in the
  /// file. Ranks may pass different item lists (including none).
  pnc::Status BatchAccess(std::span<BatchItem> items, bool is_write);

  /// The communicator this dataset was opened on.
  [[nodiscard]] simmpi::Comm& comm();
  /// MPI-IO hints in effect (after PnetCDF processed its own).
  [[nodiscard]] const mpiio::Hints& hints() const;

  /// Opaque implementation record (public so internal helpers can name it).
  struct Impl;

 private:

  pnc::Status CheckDataMode(bool need_write, bool collective) const;
  pnc::Status FlexPut(int varid, std::span<const std::uint64_t> start,
                      std::span<const std::uint64_t> count,
                      std::span<const std::uint64_t> stride, const void* buf,
                      std::uint64_t bufcount, const simmpi::Datatype& buftype,
                      bool collective);
  pnc::Status FlexGet(int varid, std::span<const std::uint64_t> start,
                      std::span<const std::uint64_t> count,
                      std::span<const std::uint64_t> stride, void* buf,
                      std::uint64_t bufcount, const simmpi::Datatype& buftype,
                      bool collective);

  /// The engine: move external bytes between `ext` and the file regions
  /// selected by (start, count, stride), collectively or independently.
  pnc::Status MoveExternal(int varid, std::span<const std::uint64_t> start,
                           std::span<const std::uint64_t> count,
                           std::span<const std::uint64_t> stride,
                           pnc::ByteSpan ext, bool is_write, bool collective);
  pnc::Status ConvergeNumrecs(std::uint64_t local_numrecs, bool collective);
  /// In collective context, agree on per-rank validation results so that a
  /// failing rank cannot strand its peers inside collective I/O: if any rank
  /// failed, every rank returns an error (its own, or kMultiDefine).
  pnc::Status CollectiveCheck(pnc::Status st, bool collective);
  pnc::Status RelayoutParallel(const ncformat::Header& old_header);

  template <typename T>
  pnc::Status TypedPut(int varid, std::span<const std::uint64_t> start,
                       std::span<const std::uint64_t> count,
                       std::span<const std::uint64_t> stride,
                       std::span<const std::uint64_t> imap,
                       std::span<const T> data, bool collective);
  template <typename T>
  pnc::Status TypedGet(int varid, std::span<const std::uint64_t> start,
                       std::span<const std::uint64_t> count,
                       std::span<const std::uint64_t> stride,
                       std::span<const std::uint64_t> imap, std::span<T> out,
                       bool collective);
  template <typename T>
  pnc::Status WholeVarPut(int varid, std::span<const T> data, bool collective);
  template <typename T>
  pnc::Status WholeVarGet(int varid, std::span<T> out, bool collective);

  std::shared_ptr<Impl> impl_;
};

// --------------------------------------------------------------- templates

template <typename T>
pnc::Status Dataset::TypedPut(int varid, std::span<const std::uint64_t> start,
                              std::span<const std::uint64_t> count,
                              std::span<const std::uint64_t> stride,
                              std::span<const std::uint64_t> imap,
                              std::span<const T> data, bool collective) {
  PNC_RETURN_IF_ERROR(CheckDataMode(/*need_write=*/true, collective));
  if (!imap.empty()) {
    // Mapped memory: gather into canonical order first (high-level varm).
    if (imap.size() != count.size())
      return pnc::Status(pnc::Err::kInvalidArg, "imap rank");
    const std::uint64_t nelems = ncformat::AccessElems(count);
    std::vector<T> tmp(nelems);
    std::vector<std::uint64_t> idx(count.size(), 0);
    for (std::uint64_t e = 0; e < nelems; ++e) {
      std::uint64_t m = 0;
      for (std::size_t d = 0; d < count.size(); ++d) m += idx[d] * imap[d];
      tmp[e] = data[m];
      for (std::size_t d = count.size(); d-- > 0;) {
        if (++idx[d] < count[d]) break;
        idx[d] = 0;
      }
    }
    return TypedPut<T>(varid, start, count, stride, {}, std::span<const T>(tmp),
                       collective);
  }
  const std::uint64_t nelems = ncformat::AccessElems(count);
  pnc::Status vst = ncformat::ValidateAccess(header(), varid, start, count,
                                             stride,
                                             ncformat::AccessKind::kWrite);
  if (vst.ok() && data.size() < nelems)
    vst = pnc::Status(pnc::Err::kInvalidArg, "buffer");
  PNC_RETURN_IF_ERROR(CollectiveCheck(vst, collective));
  const auto& v = header().vars[static_cast<std::size_t>(varid)];
  std::vector<std::byte> ext(nelems * ncformat::TypeSize(v.type));
  pnc::Status conv =
      ncformat::ToExternal<T>(data.first(nelems), v.type, ext.data());
  if (!conv.ok() && conv.code() != pnc::Err::kRange) return conv;
  PNC_RETURN_IF_ERROR(
      MoveExternal(varid, start, count, stride, ext, true, collective));
  return conv;
}

template <typename T>
pnc::Status Dataset::TypedGet(int varid, std::span<const std::uint64_t> start,
                              std::span<const std::uint64_t> count,
                              std::span<const std::uint64_t> stride,
                              std::span<const std::uint64_t> imap,
                              std::span<T> out, bool collective) {
  PNC_RETURN_IF_ERROR(CheckDataMode(/*need_write=*/false, collective));
  if (!imap.empty()) {
    if (imap.size() != count.size())
      return pnc::Status(pnc::Err::kInvalidArg, "imap rank");
    const std::uint64_t nelems = ncformat::AccessElems(count);
    std::vector<T> tmp(nelems);
    PNC_RETURN_IF_ERROR(TypedGet<T>(varid, start, count, stride, {},
                                    std::span<T>(tmp), collective));
    std::vector<std::uint64_t> idx(count.size(), 0);
    for (std::uint64_t e = 0; e < nelems; ++e) {
      std::uint64_t m = 0;
      for (std::size_t d = 0; d < count.size(); ++d) m += idx[d] * imap[d];
      out[m] = tmp[e];
      for (std::size_t d = count.size(); d-- > 0;) {
        if (++idx[d] < count[d]) break;
        idx[d] = 0;
      }
    }
    return pnc::Status::Ok();
  }
  const std::uint64_t nelems = ncformat::AccessElems(count);
  pnc::Status vst = ncformat::ValidateAccess(header(), varid, start, count,
                                             stride,
                                             ncformat::AccessKind::kRead);
  if (vst.ok() && out.size() < nelems)
    vst = pnc::Status(pnc::Err::kInvalidArg, "buffer");
  PNC_RETURN_IF_ERROR(CollectiveCheck(vst, collective));
  const auto& v = header().vars[static_cast<std::size_t>(varid)];
  std::vector<std::byte> ext(nelems * ncformat::TypeSize(v.type));
  PNC_RETURN_IF_ERROR(
      MoveExternal(varid, start, count, stride, ext, false, collective));
  return ncformat::FromExternal<T>(ext.data(), v.type, out.first(nelems));
}

template <typename T>
pnc::Status Dataset::WholeVarPut(int varid, std::span<const T> data,
                                 bool collective) {
  PNC_RETURN_IF_ERROR(CollectiveCheck(
      (varid < 0 || varid >= nvars()) ? pnc::Status(pnc::Err::kNotVar)
                                      : pnc::Status::Ok(),
      collective));
  auto shape = header().VarShape(varid);
  if (header().IsRecordVar(varid)) {
    const std::uint64_t per_rec = header().VarInstanceElems(varid);
    if (per_rec > 0) shape[0] = data.size() / per_rec;
  }
  std::vector<std::uint64_t> start(shape.size(), 0);
  return TypedPut<T>(varid, start, shape, {}, {}, data, collective);
}

template <typename T>
pnc::Status Dataset::WholeVarGet(int varid, std::span<T> out, bool collective) {
  PNC_RETURN_IF_ERROR(CollectiveCheck(
      (varid < 0 || varid >= nvars()) ? pnc::Status(pnc::Err::kNotVar)
                                      : pnc::Status::Ok(),
      collective));
  auto shape = header().VarShape(varid);
  std::vector<std::uint64_t> start(shape.size(), 0);
  return TypedGet<T>(varid, start, shape, {}, {}, out, collective);
}

}  // namespace pnetcdf
