// Serial netCDF library (the nc_* interface, C++ style).
//
// Implements the five function categories of the classic interface
// (paper §3.2):
//   (1) dataset functions      — Create/Open/Redef/EndDef/Sync/Abort/Close
//   (2) define mode functions  — DefDim/DefVar/Rename*
//   (3) attribute functions    — PutAtt/GetAtt/DelAtt/RenameAtt
//   (4) inquiry functions      — header(), DimId/VarId, counts
//   (5) data access functions  — Put/Get Var1, Var, Vara, Vars, Varm
//
// Single-process semantics; I/O goes through a user-space buffered layer
// over the (simulated) file system, independent of MPI-IO — this is the
// baseline the paper compares PnetCDF against in Figure 6.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "format/convert.hpp"
#include "format/header.hpp"
#include "format/layout.hpp"
#include "netcdf/buffered_file.hpp"
#include "pfs/pfs.hpp"

namespace netcdf {

/// Pass as the dimension length to DefDim for the unlimited dimension.
constexpr std::uint64_t kUnlimited = 0;
/// Pass as varid to the attribute functions for global attributes.
constexpr int kGlobal = ncformat::kGlobalVarId;

/// Fill behaviour (nc_set_fill). Default here is NoFill: unwritten regions
/// read back as zero bytes. Fill mode writes the classic fill values.
enum class FillMode { kNoFill, kFill };

/// Classic fill values (netcdf.h NC_FILL_*).
constexpr signed char kFillByte = -127;
constexpr char kFillChar = 0;
constexpr std::int16_t kFillShort = -32767;
constexpr std::int32_t kFillInt = -2147483647;
constexpr float kFillFloat = 9.9692099683868690e+36f;
constexpr double kFillDouble = 9.9692099683868690e+36;

struct CreateOptions {
  bool clobber = true;     ///< overwrite an existing dataset
  bool use_cdf2 = true;    ///< 64-bit-offset format (version byte 2)
  std::uint64_t buffer_size = 1ULL << 20;  ///< user-space I/O buffer
};

/// An open dataset handle (the C API's ncid). Copyable; copies alias the
/// same open file.
class Dataset {
 public:
  static pnc::Result<Dataset> Create(pfs::FileSystem& fs,
                                     const std::string& path,
                                     const CreateOptions& opts = {});
  static pnc::Result<Dataset> Open(pfs::FileSystem& fs, const std::string& path,
                                   bool writable,
                                   std::uint64_t buffer_size = 1ULL << 20);

  Dataset() = default;
  [[nodiscard]] bool valid() const { return impl_ != nullptr; }

  // ---- (1) dataset functions ----
  pnc::Status Redef();
  pnc::Status EndDef();
  pnc::Status Sync();
  pnc::Status Close();
  /// Close, discarding changes made in define mode since the last Redef;
  /// a freshly created file still in its first define mode is deleted.
  pnc::Status Abort();
  pnc::Status SetFill(FillMode m);

  // ---- (2) define mode functions ----
  pnc::Result<int> DefDim(const std::string& name, std::uint64_t len);
  pnc::Result<int> DefVar(const std::string& name, ncformat::NcType type,
                          std::vector<std::int32_t> dimids);
  pnc::Status RenameDim(int dimid, const std::string& name);
  pnc::Status RenameVar(int varid, const std::string& name);

  // ---- (3) attribute functions ----
  pnc::Status PutAtt(int varid, ncformat::Attr att);
  pnc::Status PutAttText(int varid, const std::string& name,
                         std::string_view text);
  template <typename T>
  pnc::Status PutAttValues(int varid, const std::string& name,
                           ncformat::NcType type, std::span<const T> values);
  pnc::Result<ncformat::Attr> GetAtt(int varid, const std::string& name) const;
  pnc::Status DelAtt(int varid, const std::string& name);
  pnc::Status RenameAtt(int varid, const std::string& old_name,
                        const std::string& new_name);

  // ---- (4) inquiry functions ----
  [[nodiscard]] const ncformat::Header& header() const;
  [[nodiscard]] int ndims() const;
  [[nodiscard]] int nvars() const;
  [[nodiscard]] int ngatts() const;
  [[nodiscard]] int unlimdim() const;
  [[nodiscard]] std::uint64_t numrecs() const;
  pnc::Result<int> DimId(const std::string& name) const;
  pnc::Result<int> VarId(const std::string& name) const;

  // ---- (5) data access functions ----
  template <typename T>
  pnc::Status PutVara(int varid, std::span<const std::uint64_t> start,
                      std::span<const std::uint64_t> count,
                      std::span<const T> data) {
    return PutVars<T>(varid, start, count, {}, data);
  }
  template <typename T>
  pnc::Status GetVara(int varid, std::span<const std::uint64_t> start,
                      std::span<const std::uint64_t> count, std::span<T> out) {
    return GetVars<T>(varid, start, count, {}, out);
  }
  template <typename T>
  pnc::Status PutVars(int varid, std::span<const std::uint64_t> start,
                      std::span<const std::uint64_t> count,
                      std::span<const std::uint64_t> stride,
                      std::span<const T> data);
  template <typename T>
  pnc::Status GetVars(int varid, std::span<const std::uint64_t> start,
                      std::span<const std::uint64_t> count,
                      std::span<const std::uint64_t> stride, std::span<T> out);
  /// Mapped access: imap[d] = distance in elements between consecutive
  /// indices of dimension d in the caller's memory.
  template <typename T>
  pnc::Status PutVarm(int varid, std::span<const std::uint64_t> start,
                      std::span<const std::uint64_t> count,
                      std::span<const std::uint64_t> stride,
                      std::span<const std::uint64_t> imap,
                      std::span<const T> data);
  template <typename T>
  pnc::Status GetVarm(int varid, std::span<const std::uint64_t> start,
                      std::span<const std::uint64_t> count,
                      std::span<const std::uint64_t> stride,
                      std::span<const std::uint64_t> imap, std::span<T> out);
  template <typename T>
  pnc::Status PutVar1(int varid, std::span<const std::uint64_t> index, T value);
  template <typename T>
  pnc::Status GetVar1(int varid, std::span<const std::uint64_t> index, T& out);
  /// Whole-variable access (all records for record variables).
  template <typename T>
  pnc::Status PutVar(int varid, std::span<const T> data);
  template <typename T>
  pnc::Status GetVar(int varid, std::span<T> out);

  /// Virtual clock of this (single-process) dataset; the Figure 6 serial
  /// baseline reads it to compute bandwidth.
  [[nodiscard]] simmpi::VirtualClock& clock();

 private:
  struct Impl;

  pnc::Status CheckDataMode(bool need_write) const;
  pnc::Status CheckDefineMode() const;
  /// Shared validation + region generation for data access. On success the
  /// staging buffer holds exactly the external bytes to move.
  pnc::Status PutExternal(int varid, std::span<const std::uint64_t> start,
                          std::span<const std::uint64_t> count,
                          std::span<const std::uint64_t> stride,
                          pnc::ConstByteSpan external);
  pnc::Status GetExternal(int varid, std::span<const std::uint64_t> start,
                          std::span<const std::uint64_t> count,
                          std::span<const std::uint64_t> stride,
                          pnc::ByteSpan external);
  pnc::Status MoveDataForRelayout(const ncformat::Header& old_header);
  pnc::Status FillVariable(int varid, std::uint64_t rec_from,
                           std::uint64_t rec_to);
  pnc::Status FillNewSpace(const ncformat::Header* old_header);

  std::shared_ptr<Impl> impl_;
};

// ----------------------------------------------------------------- inline
// Typed data-access fronts: convert between T and the variable's external
// type through a staging buffer, then move external bytes.

template <typename T>
pnc::Status Dataset::PutVars(int varid, std::span<const std::uint64_t> start,
                             std::span<const std::uint64_t> count,
                             std::span<const std::uint64_t> stride,
                             std::span<const T> data) {
  PNC_RETURN_IF_ERROR(CheckDataMode(/*need_write=*/true));
  PNC_RETURN_IF_ERROR(ncformat::ValidateAccess(header(), varid, start, count,
                                               stride,
                                               ncformat::AccessKind::kWrite));
  const std::uint64_t nelems = ncformat::AccessElems(count);
  if (data.size() < nelems) return pnc::Status(pnc::Err::kInvalidArg, "buffer");
  const auto& v = header().vars[static_cast<std::size_t>(varid)];
  std::vector<std::byte> ext(nelems * ncformat::TypeSize(v.type));
  // NC_ERANGE semantics: conversion completes, the error is reported after
  // the data has been written.
  pnc::Status conv = ncformat::ToExternal<T>(data.first(nelems), v.type,
                                             ext.data());
  if (!conv.ok() && conv.code() != pnc::Err::kRange) return conv;
  PNC_RETURN_IF_ERROR(PutExternal(varid, start, count, stride, ext));
  return conv;
}

template <typename T>
pnc::Status Dataset::GetVars(int varid, std::span<const std::uint64_t> start,
                             std::span<const std::uint64_t> count,
                             std::span<const std::uint64_t> stride,
                             std::span<T> out) {
  PNC_RETURN_IF_ERROR(CheckDataMode(/*need_write=*/false));
  PNC_RETURN_IF_ERROR(ncformat::ValidateAccess(header(), varid, start, count,
                                               stride,
                                               ncformat::AccessKind::kRead));
  const std::uint64_t nelems = ncformat::AccessElems(count);
  if (out.size() < nelems) return pnc::Status(pnc::Err::kInvalidArg, "buffer");
  const auto& v = header().vars[static_cast<std::size_t>(varid)];
  std::vector<std::byte> ext(nelems * ncformat::TypeSize(v.type));
  PNC_RETURN_IF_ERROR(GetExternal(varid, start, count, stride, ext));
  return ncformat::FromExternal<T>(ext.data(), v.type, out.first(nelems));
}

template <typename T>
pnc::Status Dataset::PutVarm(int varid, std::span<const std::uint64_t> start,
                             std::span<const std::uint64_t> count,
                             std::span<const std::uint64_t> stride,
                             std::span<const std::uint64_t> imap,
                             std::span<const T> data) {
  if (imap.empty()) return PutVars<T>(varid, start, count, stride, data);
  if (imap.size() != count.size())
    return pnc::Status(pnc::Err::kInvalidArg, "imap rank");
  const std::uint64_t nelems = ncformat::AccessElems(count);
  std::vector<T> tmp(nelems);
  // Gather from mapped memory into canonical row-major order.
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
  return PutVars<T>(varid, start, count, stride, std::span<const T>(tmp));
}

template <typename T>
pnc::Status Dataset::GetVarm(int varid, std::span<const std::uint64_t> start,
                             std::span<const std::uint64_t> count,
                             std::span<const std::uint64_t> stride,
                             std::span<const std::uint64_t> imap,
                             std::span<T> out) {
  if (imap.empty()) return GetVars<T>(varid, start, count, stride, out);
  if (imap.size() != count.size())
    return pnc::Status(pnc::Err::kInvalidArg, "imap rank");
  const std::uint64_t nelems = ncformat::AccessElems(count);
  std::vector<T> tmp(nelems);
  PNC_RETURN_IF_ERROR(GetVars<T>(varid, start, count, stride, std::span<T>(tmp)));
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

template <typename T>
pnc::Status Dataset::PutVar1(int varid, std::span<const std::uint64_t> index,
                             T value) {
  std::vector<std::uint64_t> count(index.size(), 1);
  return PutVars<T>(varid, index, count, {}, std::span<const T>(&value, 1));
}

template <typename T>
pnc::Status Dataset::GetVar1(int varid, std::span<const std::uint64_t> index,
                             T& out) {
  std::vector<std::uint64_t> count(index.size(), 1);
  return GetVars<T>(varid, index, count, {}, std::span<T>(&out, 1));
}

template <typename T>
pnc::Status Dataset::PutVar(int varid, std::span<const T> data) {
  if (varid < 0 || varid >= nvars()) return pnc::Status(pnc::Err::kNotVar);
  auto shape = header().VarShape(varid);
  // Whole-variable put on a record variable with zero records: infer the
  // record count from the data size, as the reference library does.
  if (header().IsRecordVar(varid)) {
    const std::uint64_t per_rec = header().VarInstanceElems(varid);
    if (per_rec > 0) shape[0] = data.size() / per_rec;
  }
  std::vector<std::uint64_t> start(shape.size(), 0);
  return PutVars<T>(varid, start, shape, {}, data);
}

template <typename T>
pnc::Status Dataset::GetVar(int varid, std::span<T> out) {
  if (varid < 0 || varid >= nvars()) return pnc::Status(pnc::Err::kNotVar);
  auto shape = header().VarShape(varid);
  std::vector<std::uint64_t> start(shape.size(), 0);
  return GetVars<T>(varid, start, shape, {}, out);
}

template <typename T>
pnc::Status Dataset::PutAttValues(int varid, const std::string& name,
                                  ncformat::NcType type,
                                  std::span<const T> values) {
  if (sizeof(T) != ncformat::TypeSize(type))
    return pnc::Status(pnc::Err::kBadType, "attribute value width");
  ncformat::Attr a = ncformat::Attr::Numeric<T>(name, type, values);
  return PutAtt(varid, std::move(a));
}

}  // namespace netcdf
