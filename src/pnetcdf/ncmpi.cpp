#include "pnetcdf/ncmpi.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>

#include "pnetcdf/nonblocking.hpp"
#include "util/turn.hpp"

namespace pnetcdf::capi {

namespace {

// One handle table per rank — the analogue of per-process tables under
// real MPI. The queues go first when a rank's tables are destroyed: each
// refers to its dataset.
struct Tables {
  std::map<int, Dataset> handles;
  std::map<int, std::unique_ptr<NonblockingQueue>> queues;
  int next_ncid = 0;
};
const pnc::turn::RankLocal<Tables> g_tables;

Dataset* Find(int ncid) {
  auto& handles = g_tables->handles;
  auto it = handles.find(ncid);
  return it == handles.end() ? nullptr : &it->second;
}

NonblockingQueue* Queue(int ncid) {
  auto* ds = Find(ncid);
  if (!ds) return nullptr;
  auto& q = g_tables->queues[ncid];
  if (!q) q = std::make_unique<NonblockingQueue>(*ds);
  return q.get();
}

int Install(Dataset ds, int* ncidp) {
  Tables& t = *g_tables;
  const int id = t.next_ncid++;
  t.handles.emplace(id, std::move(ds));
  *ncidp = id;
  return NC_NOERR;
}

constexpr int kBadId = static_cast<int>(pnc::Err::kBadId);
constexpr int kNotVarErr = static_cast<int>(pnc::Err::kNotVar);
constexpr int kBadTypeErr = static_cast<int>(pnc::Err::kBadType);

std::vector<std::uint64_t> ToU64(const MPI_Offset* p, std::size_t n) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint64_t>(p[i]);
  return v;
}

pnc::Result<std::size_t> VarRank(Dataset* ds, int varid) {
  if (varid < 0 || varid >= ds->nvars()) return pnc::Status(pnc::Err::kNotVar);
  return ds->header().vars[static_cast<std::size_t>(varid)].dimids.size();
}

}  // namespace

const char* ncmpi_strerror(int err) {
  return pnc::StrError(static_cast<pnc::Err>(err)).data();
}

// ------------------------------------------------------------------ files

int ncmpi_create(simmpi::Comm comm, pfs::FileSystem& fs, const char* path,
                 int cmode, const simmpi::Info& info, int* ncidp) {
  CreateOptions opts;
  opts.clobber = (cmode & NC_NOCLOBBER) == 0;
  // Classic CDF-1 unless NC_64BIT_OFFSET requests the 64-bit-offset format,
  // matching the C library's default.
  opts.use_cdf2 = (cmode & NC_64BIT_OFFSET) != 0;
  auto r = Dataset::Create(std::move(comm), fs, path, info, opts);
  if (!r.ok()) return r.status().raw();
  return Install(std::move(r).value(), ncidp);
}

int ncmpi_open(simmpi::Comm comm, pfs::FileSystem& fs, const char* path,
               int omode, const simmpi::Info& info, int* ncidp) {
  auto r = Dataset::Open(std::move(comm), fs, path, (omode & NC_WRITE) != 0,
                         info);
  if (!r.ok()) return r.status().raw();
  return Install(std::move(r).value(), ncidp);
}

int ncmpi_redef(int ncid) {
  auto* ds = Find(ncid);
  return ds ? ds->Redef().raw() : kBadId;
}
int ncmpi_enddef(int ncid) {
  auto* ds = Find(ncid);
  return ds ? ds->EndDef().raw() : kBadId;
}
int ncmpi_sync(int ncid) {
  auto* ds = Find(ncid);
  return ds ? ds->Sync().raw() : kBadId;
}
int ncmpi_abort(int ncid) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  const int rc = ds->Abort().raw();
  g_tables->queues.erase(ncid);
  g_tables->handles.erase(ncid);
  return rc;
}
int ncmpi_close(int ncid) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  const int rc = ds->Close().raw();
  g_tables->queues.erase(ncid);
  g_tables->handles.erase(ncid);
  return rc;
}
int ncmpi_begin_indep_data(int ncid) {
  auto* ds = Find(ncid);
  return ds ? ds->BeginIndepData().raw() : kBadId;
}
int ncmpi_end_indep_data(int ncid) {
  auto* ds = Find(ncid);
  return ds ? ds->EndIndepData().raw() : kBadId;
}

// ------------------------------------------------------------ define mode

int ncmpi_def_dim(int ncid, const char* name, MPI_Offset len, int* idp) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto r = ds->DefDim(name, static_cast<std::uint64_t>(len));
  if (!r.ok()) return r.status().raw();
  if (idp) *idp = r.value();
  return NC_NOERR;
}

int ncmpi_def_var(int ncid, const char* name, int xtype, int ndims,
                  const int* dimids, int* varidp) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  if (!ncformat::IsValidType(xtype)) return kBadTypeErr;
  std::vector<std::int32_t> dims(dimids, dimids + ndims);
  auto r = ds->DefVar(name, static_cast<ncformat::NcType>(xtype),
                      std::move(dims));
  if (!r.ok()) return r.status().raw();
  if (varidp) *varidp = r.value();
  return NC_NOERR;
}

int ncmpi_rename_dim(int ncid, int dimid, const char* name) {
  auto* ds = Find(ncid);
  return ds ? ds->RenameDim(dimid, name).raw() : kBadId;
}
int ncmpi_rename_var(int ncid, int varid, const char* name) {
  auto* ds = Find(ncid);
  return ds ? ds->RenameVar(varid, name).raw() : kBadId;
}

// ------------------------------------------------------------- attributes

int ncmpi_put_att_text(int ncid, int varid, const char* name, MPI_Offset len,
                       const char* op) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  return ds->PutAttText(varid, name,
                        std::string_view(op, static_cast<std::size_t>(len)))
      .raw();
}

int ncmpi_get_att_text(int ncid, int varid, const char* name, char* ip) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto r = ds->GetAtt(varid, name);
  if (!r.ok()) return r.status().raw();
  if (r.value().type != ncformat::NcType::kChar) return kBadTypeErr;
  std::memcpy(ip, r.value().data.data(), r.value().data.size());
  return NC_NOERR;
}

namespace {

/// Build a numeric attribute of external type `xtype` from host values of
/// type T, converting (with netCDF range semantics) on the way.
template <typename T>
int PutNumericAttr(int ncid, int varid, const char* name, int xtype,
                   MPI_Offset len, const T* op) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  if (!ncformat::IsValidType(xtype) || xtype == NC_CHAR) return kBadTypeErr;
  const auto type = static_cast<ncformat::NcType>(xtype);
  const auto n = static_cast<std::size_t>(len);
  // Convert to the external representation, then back into the host-order
  // packed form the Attr model holds.
  std::vector<std::byte> wire(n * ncformat::TypeSize(type));
  pnc::Status conv =
      ncformat::ToExternal<T>(std::span<const T>(op, n), type, wire.data());
  if (!conv.ok() && conv.code() != pnc::Err::kRange) return conv.raw();
  ncformat::Attr a;
  a.name = name;
  a.type = type;
  a.data.resize(wire.size());
  switch (type) {
    case ncformat::NcType::kByte:
      std::memcpy(a.data.data(), wire.data(), wire.size());
      break;
    case ncformat::NcType::kShort:
      pnc::xdr::DecodeArray<std::int16_t>(
          wire.data(), {reinterpret_cast<std::int16_t*>(a.data.data()), n});
      break;
    case ncformat::NcType::kInt:
      pnc::xdr::DecodeArray<std::int32_t>(
          wire.data(), {reinterpret_cast<std::int32_t*>(a.data.data()), n});
      break;
    case ncformat::NcType::kFloat:
      pnc::xdr::DecodeArray<float>(
          wire.data(), {reinterpret_cast<float*>(a.data.data()), n});
      break;
    case ncformat::NcType::kDouble:
      pnc::xdr::DecodeArray<double>(
          wire.data(), {reinterpret_cast<double*>(a.data.data()), n});
      break;
    case ncformat::NcType::kChar:
      return kBadTypeErr;
  }
  pnc::Status st = ds->PutAtt(varid, std::move(a));
  if (!st.ok()) return st.raw();
  return conv.raw();
}

/// Read a numeric attribute of any external type as host values of type T.
template <typename T>
int GetNumericAttr(int ncid, int varid, const char* name, T* ip) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto r = ds->GetAtt(varid, name);
  if (!r.ok()) return r.status().raw();
  const auto& a = r.value();
  if (a.type == ncformat::NcType::kChar) return kBadTypeErr;
  const std::size_t n = a.nelems();
  std::vector<std::byte> wire(a.data.size());
  // Host-order packed -> external wire -> T (reusing the checked paths).
  switch (a.type) {
    case ncformat::NcType::kByte:
      std::memcpy(wire.data(), a.data.data(), a.data.size());
      break;
    case ncformat::NcType::kShort:
      pnc::xdr::EncodeArray<std::int16_t>(
          {reinterpret_cast<const std::int16_t*>(a.data.data()), n},
          wire.data());
      break;
    case ncformat::NcType::kInt:
      pnc::xdr::EncodeArray<std::int32_t>(
          {reinterpret_cast<const std::int32_t*>(a.data.data()), n},
          wire.data());
      break;
    case ncformat::NcType::kFloat:
      pnc::xdr::EncodeArray<float>(
          {reinterpret_cast<const float*>(a.data.data()), n}, wire.data());
      break;
    case ncformat::NcType::kDouble:
      pnc::xdr::EncodeArray<double>(
          {reinterpret_cast<const double*>(a.data.data()), n}, wire.data());
      break;
    case ncformat::NcType::kChar:
      return kBadTypeErr;
  }
  return ncformat::FromExternal<T>(wire.data(), a.type, std::span<T>(ip, n))
      .raw();
}

}  // namespace

int ncmpi_put_att_double(int ncid, int varid, const char* name, int xtype,
                         MPI_Offset len, const double* op) {
  return PutNumericAttr<double>(ncid, varid, name, xtype, len, op);
}
int ncmpi_get_att_double(int ncid, int varid, const char* name, double* ip) {
  return GetNumericAttr<double>(ncid, varid, name, ip);
}
int ncmpi_put_att_int(int ncid, int varid, const char* name, int xtype,
                      MPI_Offset len, const int* op) {
  return PutNumericAttr<int>(ncid, varid, name, xtype, len, op);
}
int ncmpi_get_att_int(int ncid, int varid, const char* name, int* ip) {
  return GetNumericAttr<int>(ncid, varid, name, ip);
}

int ncmpi_inq_att(int ncid, int varid, const char* name, int* xtypep,
                  MPI_Offset* lenp) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto r = ds->GetAtt(varid, name);
  if (!r.ok()) return r.status().raw();
  if (xtypep) *xtypep = static_cast<int>(r.value().type);
  if (lenp) *lenp = static_cast<MPI_Offset>(r.value().nelems());
  return NC_NOERR;
}

int ncmpi_del_att(int ncid, int varid, const char* name) {
  auto* ds = Find(ncid);
  return ds ? ds->DelAtt(varid, name).raw() : kBadId;
}

// ---------------------------------------------------------------- inquiry

int ncmpi_inq(int ncid, int* ndimsp, int* nvarsp, int* ngattsp,
              int* unlimdimidp) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  if (ndimsp) *ndimsp = ds->ndims();
  if (nvarsp) *nvarsp = ds->nvars();
  if (ngattsp) *ngattsp = ds->ngatts();
  if (unlimdimidp) *unlimdimidp = ds->unlimdim();
  return NC_NOERR;
}
int ncmpi_inq_ndims(int ncid, int* ndimsp) {
  return ncmpi_inq(ncid, ndimsp, nullptr, nullptr, nullptr);
}
int ncmpi_inq_nvars(int ncid, int* nvarsp) {
  return ncmpi_inq(ncid, nullptr, nvarsp, nullptr, nullptr);
}
int ncmpi_inq_unlimdim(int ncid, int* unlimdimidp) {
  return ncmpi_inq(ncid, nullptr, nullptr, nullptr, unlimdimidp);
}

int ncmpi_inq_dimid(int ncid, const char* name, int* idp) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto r = ds->DimId(name);
  if (!r.ok()) return r.status().raw();
  if (idp) *idp = r.value();
  return NC_NOERR;
}

int ncmpi_inq_dim(int ncid, int dimid, char* name, MPI_Offset* lenp) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  const auto& h = ds->header();
  if (dimid < 0 || static_cast<std::size_t>(dimid) >= h.dims.size())
    return static_cast<int>(pnc::Err::kBadDim);
  const auto& d = h.dims[static_cast<std::size_t>(dimid)];
  if (name) std::strcpy(name, d.name.c_str());
  if (lenp)
    *lenp = static_cast<MPI_Offset>(d.is_unlimited() ? h.numrecs : d.len);
  return NC_NOERR;
}
int ncmpi_inq_dimlen(int ncid, int dimid, MPI_Offset* lenp) {
  return ncmpi_inq_dim(ncid, dimid, nullptr, lenp);
}

int ncmpi_inq_varid(int ncid, const char* name, int* varidp) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto r = ds->VarId(name);
  if (!r.ok()) return r.status().raw();
  if (varidp) *varidp = r.value();
  return NC_NOERR;
}

int ncmpi_inq_var(int ncid, int varid, char* name, int* xtypep, int* ndimsp,
                  int* dimids, int* nattsp) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  const auto& h = ds->header();
  if (varid < 0 || static_cast<std::size_t>(varid) >= h.vars.size())
    return kNotVarErr;
  const auto& v = h.vars[static_cast<std::size_t>(varid)];
  if (name) std::strcpy(name, v.name.c_str());
  if (xtypep) *xtypep = static_cast<int>(v.type);
  if (ndimsp) *ndimsp = static_cast<int>(v.dimids.size());
  if (dimids)
    for (std::size_t i = 0; i < v.dimids.size(); ++i)
      dimids[i] = v.dimids[i];
  if (nattsp) *nattsp = static_cast<int>(v.attrs.size());
  return NC_NOERR;
}

int ncmpi_inq_num_rec_vars(int ncid, int* nump) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  int n = 0;
  for (int v = 0; v < ds->nvars(); ++v)
    if (ds->header().IsRecordVar(v)) ++n;
  if (nump) *nump = n;
  return NC_NOERR;
}

int ncmpi_inq_recsize(int ncid, MPI_Offset* recsizep) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  if (recsizep) *recsizep = static_cast<MPI_Offset>(ds->header().recsize());
  return NC_NOERR;
}

pnc::Result<Dataset*> ncmpi_dataset(int ncid) {
  auto* ds = Find(ncid);
  if (!ds) return pnc::Status(pnc::Err::kBadId);
  return ds;
}

// -------------------------------------------------------- data access

namespace {

template <typename T>
int PutVaraImpl(int ncid, int varid, const MPI_Offset* start,
                const MPI_Offset* count, const T* op, bool all) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto rank = VarRank(ds, varid);
  if (!rank.ok()) return rank.status().raw();
  auto st = ToU64(start, rank.value());
  auto ct = ToU64(count, rank.value());
  const std::uint64_t n = ncformat::AccessElems(ct);
  std::span<const T> data(op, n);
  return (all ? ds->PutVaraAll<T>(varid, st, ct, data)
              : ds->PutVara<T>(varid, st, ct, data))
      .raw();
}

template <typename T>
int GetVaraImpl(int ncid, int varid, const MPI_Offset* start,
                const MPI_Offset* count, T* ip, bool all) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto rank = VarRank(ds, varid);
  if (!rank.ok()) return rank.status().raw();
  auto st = ToU64(start, rank.value());
  auto ct = ToU64(count, rank.value());
  const std::uint64_t n = ncformat::AccessElems(ct);
  std::span<T> out(ip, n);
  return (all ? ds->GetVaraAll<T>(varid, st, ct, out)
              : ds->GetVara<T>(varid, st, ct, out))
      .raw();
}

template <typename T>
int PutVarsImpl(int ncid, int varid, const MPI_Offset* start,
                const MPI_Offset* count, const MPI_Offset* stride,
                const T* op, bool all) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto rank = VarRank(ds, varid);
  if (!rank.ok()) return rank.status().raw();
  auto st = ToU64(start, rank.value());
  auto ct = ToU64(count, rank.value());
  auto sd = ToU64(stride, rank.value());
  const std::uint64_t n = ncformat::AccessElems(ct);
  std::span<const T> data(op, n);
  return (all ? ds->PutVarsAll<T>(varid, st, ct, sd, data)
              : ds->PutVars<T>(varid, st, ct, sd, data))
      .raw();
}

template <typename T>
int GetVarsImpl(int ncid, int varid, const MPI_Offset* start,
                const MPI_Offset* count, const MPI_Offset* stride, T* ip,
                bool all) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto rank = VarRank(ds, varid);
  if (!rank.ok()) return rank.status().raw();
  auto st = ToU64(start, rank.value());
  auto ct = ToU64(count, rank.value());
  auto sd = ToU64(stride, rank.value());
  const std::uint64_t n = ncformat::AccessElems(ct);
  std::span<T> out(ip, n);
  return (all ? ds->GetVarsAll<T>(varid, st, ct, sd, out)
              : ds->GetVars<T>(varid, st, ct, sd, out))
      .raw();
}

template <typename T>
int PutVar1Impl(int ncid, int varid, const MPI_Offset* index, const T* op) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto rank = VarRank(ds, varid);
  if (!rank.ok()) return rank.status().raw();
  auto idx = ToU64(index, rank.value());
  return ds->PutVar1<T>(varid, idx, *op).raw();
}

template <typename T>
int GetVar1Impl(int ncid, int varid, const MPI_Offset* index, T* ip) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto rank = VarRank(ds, varid);
  if (!rank.ok()) return rank.status().raw();
  auto idx = ToU64(index, rank.value());
  return ds->GetVar1<T>(varid, idx, *ip).raw();
}

template <typename T>
int PutVarImpl(int ncid, int varid, const T* op, bool all) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto rank = VarRank(ds, varid);
  if (!rank.ok()) return rank.status().raw();
  // Mirror the C API contract: the buffer holds the entire variable (all
  // current records for record variables).
  const std::uint64_t n = pnc::ShapeProduct(ds->header().VarShape(varid));
  std::span<const T> data(op, n);
  return (all ? ds->PutVarAll<T>(varid, data) : ds->PutVar<T>(varid, data))
      .raw();
}

template <typename T>
int GetVarImpl(int ncid, int varid, T* ip, bool all) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto rank = VarRank(ds, varid);
  if (!rank.ok()) return rank.status().raw();
  const std::uint64_t n = pnc::ShapeProduct(ds->header().VarShape(varid));
  std::span<T> out(ip, n);
  return (all ? ds->GetVarAll<T>(varid, out) : ds->GetVar<T>(varid, out))
      .raw();
}

}  // namespace

#define PNETCDF_CAPI_DEFINE(SUFFIX, CTYPE)                                    \
  int ncmpi_put_var1_##SUFFIX(int ncid, int varid, const MPI_Offset* index,   \
                              const CTYPE* op) {                              \
    return PutVar1Impl<CTYPE>(ncid, varid, index, op);                        \
  }                                                                           \
  int ncmpi_get_var1_##SUFFIX(int ncid, int varid, const MPI_Offset* index,   \
                              CTYPE* ip) {                                    \
    return GetVar1Impl<CTYPE>(ncid, varid, index, ip);                        \
  }                                                                           \
  int ncmpi_put_var_##SUFFIX(int ncid, int varid, const CTYPE* op) {          \
    return PutVarImpl<CTYPE>(ncid, varid, op, false);                         \
  }                                                                           \
  int ncmpi_get_var_##SUFFIX(int ncid, int varid, CTYPE* ip) {                \
    return GetVarImpl<CTYPE>(ncid, varid, ip, false);                         \
  }                                                                           \
  int ncmpi_put_var_##SUFFIX##_all(int ncid, int varid, const CTYPE* op) {    \
    return PutVarImpl<CTYPE>(ncid, varid, op, true);                          \
  }                                                                           \
  int ncmpi_get_var_##SUFFIX##_all(int ncid, int varid, CTYPE* ip) {          \
    return GetVarImpl<CTYPE>(ncid, varid, ip, true);                          \
  }                                                                           \
  int ncmpi_put_vara_##SUFFIX(int ncid, int varid, const MPI_Offset* start,   \
                              const MPI_Offset* count, const CTYPE* op) {     \
    return PutVaraImpl<CTYPE>(ncid, varid, start, count, op, false);          \
  }                                                                           \
  int ncmpi_get_vara_##SUFFIX(int ncid, int varid, const MPI_Offset* start,   \
                              const MPI_Offset* count, CTYPE* ip) {           \
    return GetVaraImpl<CTYPE>(ncid, varid, start, count, ip, false);          \
  }                                                                           \
  int ncmpi_put_vara_##SUFFIX##_all(int ncid, int varid,                      \
                                    const MPI_Offset* start,                  \
                                    const MPI_Offset* count,                  \
                                    const CTYPE* op) {                        \
    return PutVaraImpl<CTYPE>(ncid, varid, start, count, op, true);           \
  }                                                                           \
  int ncmpi_get_vara_##SUFFIX##_all(int ncid, int varid,                      \
                                    const MPI_Offset* start,                  \
                                    const MPI_Offset* count, CTYPE* ip) {     \
    return GetVaraImpl<CTYPE>(ncid, varid, start, count, ip, true);           \
  }                                                                           \
  int ncmpi_put_vars_##SUFFIX(int ncid, int varid, const MPI_Offset* start,   \
                              const MPI_Offset* count,                        \
                              const MPI_Offset* stride, const CTYPE* op) {    \
    return PutVarsImpl<CTYPE>(ncid, varid, start, count, stride, op, false);  \
  }                                                                           \
  int ncmpi_get_vars_##SUFFIX(int ncid, int varid, const MPI_Offset* start,   \
                              const MPI_Offset* count,                        \
                              const MPI_Offset* stride, CTYPE* ip) {          \
    return GetVarsImpl<CTYPE>(ncid, varid, start, count, stride, ip, false);  \
  }                                                                           \
  int ncmpi_put_vars_##SUFFIX##_all(                                          \
      int ncid, int varid, const MPI_Offset* start, const MPI_Offset* count,  \
      const MPI_Offset* stride, const CTYPE* op) {                            \
    return PutVarsImpl<CTYPE>(ncid, varid, start, count, stride, op, true);   \
  }                                                                           \
  int ncmpi_get_vars_##SUFFIX##_all(                                          \
      int ncid, int varid, const MPI_Offset* start, const MPI_Offset* count,  \
      const MPI_Offset* stride, CTYPE* ip) {                                  \
    return GetVarsImpl<CTYPE>(ncid, varid, start, count, stride, ip, true);   \
  }

PNETCDF_CAPI_DEFINE(text, char)
PNETCDF_CAPI_DEFINE(schar, signed char)
PNETCDF_CAPI_DEFINE(short, short)
PNETCDF_CAPI_DEFINE(int, int)
PNETCDF_CAPI_DEFINE(float, float)
PNETCDF_CAPI_DEFINE(double, double)
PNETCDF_CAPI_DEFINE(longlong, long long)
#undef PNETCDF_CAPI_DEFINE

// --------------------------------------------------- nonblocking access

namespace {

template <typename T>
int IputImpl(int ncid, int varid, const MPI_Offset* start,
             const MPI_Offset* count, const T* op, int* request) {
  auto* q = Queue(ncid);
  if (!q) return kBadId;
  auto* ds = Find(ncid);
  auto rank = VarRank(ds, varid);
  if (!rank.ok()) return rank.status().raw();
  auto st = ToU64(start, rank.value());
  auto ct = ToU64(count, rank.value());
  const std::uint64_t n = ncformat::AccessElems(ct);
  auto r = q->IputVara<T>(varid, st, ct, std::span<const T>(op, n));
  if (!r.ok()) return r.status().raw();
  if (request) *request = r.value();
  return NC_NOERR;
}

template <typename T>
int IgetImpl(int ncid, int varid, const MPI_Offset* start,
             const MPI_Offset* count, T* ip, int* request) {
  auto* q = Queue(ncid);
  if (!q) return kBadId;
  auto* ds = Find(ncid);
  auto rank = VarRank(ds, varid);
  if (!rank.ok()) return rank.status().raw();
  auto st = ToU64(start, rank.value());
  auto ct = ToU64(count, rank.value());
  const std::uint64_t n = ncformat::AccessElems(ct);
  auto r = q->IgetVara<T>(varid, st, ct, std::span<T>(ip, n));
  if (!r.ok()) return r.status().raw();
  if (request) *request = r.value();
  return NC_NOERR;
}

}  // namespace

#define PNETCDF_CAPI_DEFINE_NB(SUFFIX, CTYPE)                                 \
  int ncmpi_iput_vara_##SUFFIX(int ncid, int varid, const MPI_Offset* start,  \
                               const MPI_Offset* count, const CTYPE* op,      \
                               int* request) {                                \
    return IputImpl<CTYPE>(ncid, varid, start, count, op, request);           \
  }                                                                           \
  int ncmpi_iget_vara_##SUFFIX(int ncid, int varid, const MPI_Offset* start,  \
                               const MPI_Offset* count, CTYPE* ip,            \
                               int* request) {                                \
    return IgetImpl<CTYPE>(ncid, varid, start, count, ip, request);           \
  }

PNETCDF_CAPI_DEFINE_NB(text, char)
PNETCDF_CAPI_DEFINE_NB(schar, signed char)
PNETCDF_CAPI_DEFINE_NB(short, short)
PNETCDF_CAPI_DEFINE_NB(int, int)
PNETCDF_CAPI_DEFINE_NB(float, float)
PNETCDF_CAPI_DEFINE_NB(double, double)
PNETCDF_CAPI_DEFINE_NB(longlong, long long)
#undef PNETCDF_CAPI_DEFINE_NB

int ncmpi_wait_all(int ncid, int nreqs, int* requests, int* statuses) {
  auto* q = Queue(ncid);
  if (!q) return kBadId;
  std::vector<pnc::Status> sts;
  const pnc::Status overall = q->WaitAll(&sts);
  if (statuses && requests) {
    // The queue reports statuses in request-id (posting) order; ids are
    // dense and increasing, so map by position of the sorted request list.
    std::vector<int> order(requests, requests + nreqs);
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < nreqs; ++i) {
      const auto pos = static_cast<std::size_t>(
          std::lower_bound(sorted.begin(), sorted.end(), order[i]) -
          sorted.begin());
      statuses[i] = pos < sts.size() ? sts[pos].raw() : NC_NOERR;
    }
  }
  return overall.raw();
}

}  // namespace pnetcdf::capi
