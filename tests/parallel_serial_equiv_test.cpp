// The strongest interoperability property in the repository: for randomized
// schemas and data, a dataset written through the PARALLEL library (with the
// writes partitioned across ranks, through two-phase collective I/O, type
// conversion, record interleaving — the whole stack) must be BYTE-IDENTICAL
// to the same dataset written through the SERIAL library by one process.
//
// "our parallel netCDF design retains the original netCDF file format" (§4)
// is tested here literally, not structurally.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "format/commit.hpp"
#include "netcdf/dataset.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"
#include "util/rng.hpp"

namespace {

using ncformat::NcType;

struct Schema {
  struct VarSpec {
    std::string name;
    NcType type;
    std::vector<std::int32_t> dimids;
  };
  std::vector<ncformat::Dim> dims;
  std::vector<VarSpec> vars;
  std::uint64_t nrecs = 0;
};

Schema RandomSchema(pnc::SplitMix64& rng) {
  Schema s;
  const bool unlimited = rng.Below(2) == 1;
  const int ndims = 2 + static_cast<int>(rng.Below(2));  // 2..3 fixed dims
  if (unlimited) s.dims.push_back({"time", ncformat::kUnlimitedLen});
  for (int d = 0; d < ndims; ++d)
    s.dims.push_back({"dim" + std::to_string(d),
                      4 * (1 + rng.Below(3))});  // 4, 8, or 12
  const int nvars = 1 + static_cast<int>(rng.Below(4));
  for (int v = 0; v < nvars; ++v) {
    Schema::VarSpec var;
    var.name = "v" + std::to_string(v);
    // Numeric types only; char follows a different value model.
    const NcType types[] = {NcType::kByte, NcType::kShort, NcType::kInt,
                            NcType::kFloat, NcType::kDouble};
    var.type = types[rng.Below(5)];
    const bool record = unlimited && rng.Below(2) == 1;
    if (record) var.dimids.push_back(0);
    const int extra = 1 + static_cast<int>(rng.Below(2));
    for (int d = 0; d < extra; ++d)
      var.dimids.push_back(static_cast<std::int32_t>(
          (unlimited ? 1 : 0) + rng.Below(static_cast<std::uint64_t>(ndims))));
    s.vars.push_back(std::move(var));
  }
  s.nrecs = unlimited ? 1 + rng.Below(4) : 0;
  return s;
}

/// Deterministic value for element i of variable v — both writers use this.
double ValueAt(int v, std::uint64_t i) {
  return static_cast<double>((v + 1) * 7 + static_cast<double>(i % 97));
}

template <typename DS>
void Define(DS& ds, const Schema& s) {
  for (const auto& d : s.dims) ASSERT_TRUE(ds.DefDim(d.name, d.len).ok());
  for (const auto& v : s.vars)
    ASSERT_TRUE(ds.DefVar(v.name, v.type, v.dimids).ok());
  ASSERT_TRUE(ds.PutAttText(-1, "writer", "equiv-test").ok());
  ASSERT_TRUE(ds.EndDef().ok());
}

std::vector<std::byte> Bytes(pfs::FileSystem& fs, const std::string& path) {
  auto f = fs.Open(path).value();
  std::vector<std::byte> out(f.size());
  f.HarnessRead(0, out, 0.0);
  return out;
}

/// [lo, hi) of `n` for `rank` of `size`: equal slabs, remainder to the last
/// ranks; some ranks may hold nothing, and the collective still completes.
std::pair<std::uint64_t, std::uint64_t> Slab(std::uint64_t n, int rank,
                                             int size) {
  const auto p = static_cast<std::uint64_t>(size);
  const std::uint64_t per = (n + p - 1) / p;
  const std::uint64_t lo = std::min(n, per * static_cast<std::uint64_t>(rank));
  return {lo, std::min(n, lo + per)};
}

/// The two lifecycles both writers run: every variable whole, then Close;
/// or the fixed variables whole, then the record variables one record at a
/// time with a Sync after each record, then Close.
enum class Lifecycle { kWholeVars, kSyncPerRecord };

/// Put the [start, start + count) block of variable `v`, valued by its
/// row-major element index, through `put`.
template <typename Put>
void PutBlock(const ncformat::Header& h, int v, std::vector<std::uint64_t> start,
              std::vector<std::uint64_t> count, std::uint64_t nrecs, Put&& put) {
  auto shape = h.VarShape(v);
  if (h.IsRecordVar(v)) shape[0] = nrecs;
  // Elements of `count` in row-major order, mapped to their index in the
  // whole variable.
  std::vector<double> vals(pnc::ShapeProduct(count));
  std::vector<std::uint64_t> idx(count.size(), 0);
  for (double& val : vals) {
    std::uint64_t lin = 0;
    for (std::size_t d = 0; d < shape.size(); ++d)
      lin = lin * shape[d] + start[d] + idx[d];
    val = ValueAt(v, lin);
    for (std::size_t d = count.size(); d-- > 0;) {
      if (++idx[d] < count[d]) break;
      idx[d] = 0;
    }
  }
  put(v, start, count, vals);
}

/// Write `s` through either library's dataset `ds`: this process's slab
/// (rank `rank` of `size`) of dimension 0 of each whole variable, or of
/// dimension 1 of each record.
template <typename DS, typename Put>
void WriteLifecycle(DS& ds, const Schema& s, Lifecycle life, int rank,
                    int size, Put&& put) {
  Define(ds, s);
  const ncformat::Header& h = ds.header();
  const int nvars = static_cast<int>(s.vars.size());
  const bool by_record = life == Lifecycle::kSyncPerRecord;
  for (int v = 0; v < nvars; ++v) {
    if (by_record && h.IsRecordVar(v)) continue;
    auto shape = h.VarShape(v);
    if (h.IsRecordVar(v)) shape[0] = s.nrecs;
    if (shape.empty()) continue;
    std::vector<std::uint64_t> start(shape.size(), 0), count = shape;
    const auto [lo, hi] = Slab(shape[0], rank, size);
    start[0] = lo;
    count[0] = hi - lo;
    PutBlock(h, v, start, count, s.nrecs, put);
  }
  if (!by_record) return;
  for (std::uint64_t rec = 0; rec < s.nrecs; ++rec) {
    for (int v = 0; v < nvars; ++v) {
      if (!h.IsRecordVar(v)) continue;
      auto shape = h.VarShape(v);
      std::vector<std::uint64_t> start(shape.size(), 0), count = shape;
      const auto [lo, hi] = Slab(shape[1], rank, size);
      start[0] = rec;
      count[0] = 1;
      start[1] = lo;
      count[1] = hi - lo;
      PutBlock(h, v, start, count, s.nrecs, put);
    }
    ASSERT_TRUE(ds.Sync().ok());
  }
}

class EquivP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EquivP, ParallelFileEqualsSerialFile) {
  pnc::SplitMix64 rng(GetParam());
  const Schema schema = RandomSchema(rng);
  const int nprocs = 1 << rng.Below(3);  // 1, 2, or 4

  for (const Lifecycle life :
       {Lifecycle::kWholeVars, Lifecycle::kSyncPerRecord}) {
    SCOPED_TRACE(life == Lifecycle::kWholeVars ? "whole variables"
                                               : "a Sync per record");
    pfs::FileSystem fs;

    // ---- serial reference ----
    {
      auto ds = netcdf::Dataset::Create(fs, "serial.nc").value();
      WriteLifecycle(ds, schema, life, 0, 1,
                     [&](int v, std::span<const std::uint64_t> start,
                         std::span<const std::uint64_t> count,
                         std::span<const double> vals) {
                       ASSERT_TRUE(
                           ds.PutVara<double>(v, start, count, vals).ok());
                     });
      ASSERT_TRUE(ds.Close().ok());
    }

    // ---- parallel writer: the same schema and lifecycle, each write
    //      partitioned over the ranks ----
    simmpi::Run(nprocs, [&](simmpi::Comm& c) {
      auto ds = pnetcdf::Dataset::Create(c, fs, "parallel.nc",
                                         simmpi::NullInfo())
                    .value();
      WriteLifecycle(ds, schema, life, c.rank(), c.size(),
                     [&](int v, std::span<const std::uint64_t> start,
                         std::span<const std::uint64_t> count,
                         std::span<const double> vals) {
                       ASSERT_TRUE(
                           ds.PutVaraAll<double>(v, start, count, vals).ok());
                     });
      ASSERT_TRUE(ds.Close().ok());
    });

    // ---- the property: the files and their commit journals ----
    for (const auto& [a_path, b_path] :
         {std::pair{std::string("serial.nc"), std::string("parallel.nc")},
          std::pair{ncformat::JournalPath("serial.nc"),
                    ncformat::JournalPath("parallel.nc")}}) {
      const auto a = Bytes(fs, a_path);
      const auto b = Bytes(fs, b_path);
      ASSERT_EQ(a.size(), b.size())
          << a_path << " and " << b_path << " sizes differ (seed "
          << GetParam() << ", nprocs " << nprocs << ")";
      EXPECT_EQ(a, b) << a_path << " and " << b_path << " bytes differ (seed "
                      << GetParam() << ", nprocs " << nprocs << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivP, ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
