// The ncmpi_* C-style interface (paper §4: "We distinguish the parallel API
// from the original serial API by prefixing the C function calls with
// ncmpi_").
//
// This is the flat-function face of the library, mirroring the production
// PnetCDF C API so that code written against it ports by search-and-replace:
// integer ncid handles, int error codes (NC_NOERR == 0, negative on error),
// MPI_Offset start/count vectors, and the typed data-access function matrix
// (put/get x var1/var/vara/vars x type x optional _all).
//
// Environment adaptations: the first arguments of ncmpi_create/open take the
// simmpi communicator and the simulated file system instead of MPI_Comm and
// a path-resolved mount. Handle tables are per rank (a pnc::turn::RankLocal,
// since every rank of a run shares one thread), as they would be per process
// under real MPI.
#pragma once

#include "pnetcdf/dataset.hpp"

namespace pnetcdf::capi {

using MPI_Offset = long long;

// nc_type tags (match netcdf.h).
constexpr int NC_BYTE = 1;
constexpr int NC_CHAR = 2;
constexpr int NC_SHORT = 3;
constexpr int NC_INT = 4;
constexpr int NC_FLOAT = 5;
constexpr int NC_DOUBLE = 6;

// create/open mode flags (match netcdf.h).
constexpr int NC_CLOBBER = 0;
constexpr int NC_NOCLOBBER = 0x0004;
constexpr int NC_NOWRITE = 0;
constexpr int NC_WRITE = 0x0001;
constexpr int NC_64BIT_OFFSET = 0x0200;

constexpr MPI_Offset NC_UNLIMITED = 0;
constexpr int NC_GLOBAL = -1;
constexpr int NC_NOERR = 0;

/// Human-readable error string (mirrors ncmpi_strerror).
const char* ncmpi_strerror(int err);

// ---- dataset functions ----
int ncmpi_create(simmpi::Comm comm, pfs::FileSystem& fs, const char* path,
                 int cmode, const simmpi::Info& info, int* ncidp);
int ncmpi_open(simmpi::Comm comm, pfs::FileSystem& fs, const char* path,
               int omode, const simmpi::Info& info, int* ncidp);
int ncmpi_redef(int ncid);
int ncmpi_enddef(int ncid);
int ncmpi_sync(int ncid);
int ncmpi_abort(int ncid);
int ncmpi_close(int ncid);
int ncmpi_begin_indep_data(int ncid);
int ncmpi_end_indep_data(int ncid);

// ---- define mode functions ----
int ncmpi_def_dim(int ncid, const char* name, MPI_Offset len, int* idp);
int ncmpi_def_var(int ncid, const char* name, int xtype, int ndims,
                  const int* dimids, int* varidp);
int ncmpi_rename_dim(int ncid, int dimid, const char* name);
int ncmpi_rename_var(int ncid, int varid, const char* name);

// ---- attribute functions ----
int ncmpi_put_att_text(int ncid, int varid, const char* name, MPI_Offset len,
                       const char* op);
int ncmpi_get_att_text(int ncid, int varid, const char* name, char* ip);
int ncmpi_put_att_double(int ncid, int varid, const char* name, int xtype,
                         MPI_Offset len, const double* op);
int ncmpi_get_att_double(int ncid, int varid, const char* name, double* ip);
int ncmpi_put_att_int(int ncid, int varid, const char* name, int xtype,
                      MPI_Offset len, const int* op);
int ncmpi_get_att_int(int ncid, int varid, const char* name, int* ip);
int ncmpi_inq_att(int ncid, int varid, const char* name, int* xtypep,
                  MPI_Offset* lenp);
int ncmpi_del_att(int ncid, int varid, const char* name);

// ---- inquiry functions ----
int ncmpi_inq(int ncid, int* ndimsp, int* nvarsp, int* ngattsp,
              int* unlimdimidp);
int ncmpi_inq_ndims(int ncid, int* ndimsp);
int ncmpi_inq_nvars(int ncid, int* nvarsp);
int ncmpi_inq_unlimdim(int ncid, int* unlimdimidp);
int ncmpi_inq_dimid(int ncid, const char* name, int* idp);
int ncmpi_inq_dim(int ncid, int dimid, char* name, MPI_Offset* lenp);
int ncmpi_inq_dimlen(int ncid, int dimid, MPI_Offset* lenp);
int ncmpi_inq_varid(int ncid, const char* name, int* varidp);
int ncmpi_inq_var(int ncid, int varid, char* name, int* xtypep, int* ndimsp,
                  int* dimids, int* nattsp);
int ncmpi_inq_num_rec_vars(int ncid, int* nump);
int ncmpi_inq_recsize(int ncid, MPI_Offset* recsizep);

// ---- data access functions (typed matrix) ----
// For every external C type suffix {text, schar, short, int, float, double,
// longlong} there are put/get variants for var1 (single element), var
// (whole variable), vara (subarray) and vars (strided subarray), each in an
// independent and a collective (_all) flavor, mirroring the production API.
#define PNETCDF_CAPI_DECLARE(SUFFIX, CTYPE)                                   \
  int ncmpi_put_var1_##SUFFIX(int ncid, int varid, const MPI_Offset* index,   \
                              const CTYPE* op);                               \
  int ncmpi_get_var1_##SUFFIX(int ncid, int varid, const MPI_Offset* index,   \
                              CTYPE* ip);                                     \
  int ncmpi_put_var_##SUFFIX(int ncid, int varid, const CTYPE* op);           \
  int ncmpi_get_var_##SUFFIX(int ncid, int varid, CTYPE* ip);                 \
  int ncmpi_put_var_##SUFFIX##_all(int ncid, int varid, const CTYPE* op);     \
  int ncmpi_get_var_##SUFFIX##_all(int ncid, int varid, CTYPE* ip);           \
  int ncmpi_put_vara_##SUFFIX(int ncid, int varid, const MPI_Offset* start,   \
                              const MPI_Offset* count, const CTYPE* op);      \
  int ncmpi_get_vara_##SUFFIX(int ncid, int varid, const MPI_Offset* start,   \
                              const MPI_Offset* count, CTYPE* ip);            \
  int ncmpi_put_vara_##SUFFIX##_all(int ncid, int varid,                      \
                                    const MPI_Offset* start,                  \
                                    const MPI_Offset* count, const CTYPE* op);\
  int ncmpi_get_vara_##SUFFIX##_all(int ncid, int varid,                      \
                                    const MPI_Offset* start,                  \
                                    const MPI_Offset* count, CTYPE* ip);      \
  int ncmpi_put_vars_##SUFFIX(int ncid, int varid, const MPI_Offset* start,   \
                              const MPI_Offset* count,                        \
                              const MPI_Offset* stride, const CTYPE* op);     \
  int ncmpi_get_vars_##SUFFIX(int ncid, int varid, const MPI_Offset* start,   \
                              const MPI_Offset* count,                        \
                              const MPI_Offset* stride, CTYPE* ip);           \
  int ncmpi_put_vars_##SUFFIX##_all(                                          \
      int ncid, int varid, const MPI_Offset* start, const MPI_Offset* count,  \
      const MPI_Offset* stride, const CTYPE* op);                             \
  int ncmpi_get_vars_##SUFFIX##_all(                                          \
      int ncid, int varid, const MPI_Offset* start, const MPI_Offset* count,  \
      const MPI_Offset* stride, CTYPE* ip);

PNETCDF_CAPI_DECLARE(text, char)
PNETCDF_CAPI_DECLARE(schar, signed char)
PNETCDF_CAPI_DECLARE(short, short)
PNETCDF_CAPI_DECLARE(int, int)
PNETCDF_CAPI_DECLARE(float, float)
PNETCDF_CAPI_DECLARE(double, double)
PNETCDF_CAPI_DECLARE(longlong, long long)
#undef PNETCDF_CAPI_DECLARE

// ---- nonblocking data access (ncmpi_iput/iget + ncmpi_wait_all) ----
// Posted requests aggregate into one collective at wait time (§4.2.2).
#define PNETCDF_CAPI_DECLARE_NB(SUFFIX, CTYPE)                                \
  int ncmpi_iput_vara_##SUFFIX(int ncid, int varid, const MPI_Offset* start,  \
                               const MPI_Offset* count, const CTYPE* op,      \
                               int* request);                                 \
  int ncmpi_iget_vara_##SUFFIX(int ncid, int varid, const MPI_Offset* start,  \
                               const MPI_Offset* count, CTYPE* ip,            \
                               int* request);

PNETCDF_CAPI_DECLARE_NB(text, char)
PNETCDF_CAPI_DECLARE_NB(schar, signed char)
PNETCDF_CAPI_DECLARE_NB(short, short)
PNETCDF_CAPI_DECLARE_NB(int, int)
PNETCDF_CAPI_DECLARE_NB(float, float)
PNETCDF_CAPI_DECLARE_NB(double, double)
PNETCDF_CAPI_DECLARE_NB(longlong, long long)
#undef PNETCDF_CAPI_DECLARE_NB

/// Collective: complete `nreqs` posted requests (pass the ids returned by
/// the iput/iget calls). Per-request statuses land in `statuses` when
/// non-null. Completes ALL pending requests of the ncid, as the production
/// library allows with NC_REQ_ALL; the id list is used for status mapping.
int ncmpi_wait_all(int ncid, int nreqs, int* requests, int* statuses);

/// Access the underlying C++ Dataset of a handle (extension point; not part
/// of the mirrored API).
pnc::Result<Dataset*> ncmpi_dataset(int ncid);

}  // namespace pnetcdf::capi
