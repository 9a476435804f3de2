// End-to-end tests for the PnetCDF library: the collective write/read
// lifecycle of Figure 4, both data-access APIs, independent data mode,
// define-mode consistency checking, record variables, and parallel
// redefinition.
#include "pnetcdf/dataset.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "netcdf/dataset.hpp"
#include "simmpi/runtime.hpp"

namespace pnetcdf {
namespace {

using ncformat::NcType;
using simmpi::Comm;

// Figure 4(a): collectively create, define, put_vara_all, close.
TEST(Lifecycle, Figure4WriteThenRead) {
  pfs::FileSystem fs;
  const int nprocs = 4;
  const std::uint64_t rows_per_rank = 2, cols = 5;
  simmpi::Run(nprocs, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "fig4.nc", simmpi::NullInfo()).value();
    const int zd = ds.DefDim("z", rows_per_rank * nprocs).value();
    const int xd = ds.DefDim("x", cols).value();
    const int v = ds.DefVar("tt", NcType::kDouble, {zd, xd}).value();
    ASSERT_TRUE(ds.PutAttText(kGlobal, "source", "figure-4").ok());
    ASSERT_TRUE(ds.EndDef().ok());

    // Z-partition: each rank owns a row slab.
    std::vector<double> mine(rows_per_rank * cols);
    std::iota(mine.begin(), mine.end(),
              100.0 * static_cast<double>(c.rank()));
    const std::uint64_t st[] = {rows_per_rank * static_cast<std::uint64_t>(c.rank()), 0};
    const std::uint64_t ct[] = {rows_per_rank, cols};
    ASSERT_TRUE(ds.PutVaraAll<double>(v, st, ct, mine).ok());
    ASSERT_TRUE(ds.Close().ok());

    // Figure 4(b): collectively open, inquire, get_vars_all, close.
    auto rd = Dataset::Open(c, fs, "fig4.nc", false, simmpi::NullInfo()).value();
    EXPECT_EQ(rd.nvars(), 1);
    EXPECT_EQ(rd.GetAtt(kGlobal, "source").value().AsText(), "figure-4");
    const int rv = rd.VarId("tt").value();
    std::vector<double> back(rows_per_rank * cols);
    const std::uint64_t stride[] = {1, 1};
    ASSERT_TRUE(rd.GetVarsAll<double>(rv, st, ct, stride, back).ok());
    EXPECT_EQ(back, mine);
    ASSERT_TRUE(rd.Close().ok());
  });
}

// The interoperability oracle: a file written collectively by PnetCDF must
// be byte-level valid classic netCDF — readable by the *serial* library —
// and vice versa ("our parallel netCDF design retains the original netCDF
// file format", §4).
TEST(Interop, PnetcdfWritesSerialReads) {
  pfs::FileSystem fs;
  simmpi::Run(4, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "interop1.nc", simmpi::NullInfo()).value();
    const int t = ds.DefDim("time", kUnlimited).value();
    const int x = ds.DefDim("x", 8).value();
    const int v = ds.DefVar("series", NcType::kFloat, {t, x}).value();
    const int f = ds.DefVar("fixed", NcType::kInt, {x}).value();
    ASSERT_TRUE(ds.PutAttText(v, "units", "K").ok());
    ASSERT_TRUE(ds.EndDef().ok());

    // Each rank writes two columns of each of 3 records, plus a slice of the
    // fixed variable.
    const std::uint64_t c0 = 2 * static_cast<std::uint64_t>(c.rank());
    for (std::uint64_t rec = 0; rec < 3; ++rec) {
      const std::uint64_t st[] = {rec, c0};
      const std::uint64_t ct[] = {1, 2};
      const std::vector<float> vals{
          static_cast<float>(10 * rec + c0),
          static_cast<float>(10 * rec + c0 + 1)};
      ASSERT_TRUE(ds.PutVaraAll<float>(v, st, ct, vals).ok());
    }
    const std::uint64_t stf[] = {c0};
    const std::uint64_t ctf[] = {2};
    const std::vector<std::int32_t> iv{static_cast<std::int32_t>(c0),
                                       static_cast<std::int32_t>(c0 + 1)};
    ASSERT_TRUE(ds.PutVaraAll<std::int32_t>(f, stf, ctf, iv).ok());
    ASSERT_TRUE(ds.Close().ok());
  });

  // Serial read-back.
  auto rd = netcdf::Dataset::Open(fs, "interop1.nc", false).value();
  EXPECT_EQ(rd.numrecs(), 3u);
  EXPECT_EQ(rd.GetAtt(rd.VarId("series").value(), "units").value().AsText(),
            "K");
  std::vector<float> all(3 * 8);
  ASSERT_TRUE(rd.GetVar<float>(rd.VarId("series").value(), all).ok());
  for (std::uint64_t rec = 0; rec < 3; ++rec)
    for (std::uint64_t i = 0; i < 8; ++i)
      EXPECT_EQ(all[rec * 8 + i], static_cast<float>(10 * rec + i));
  std::vector<std::int32_t> fixed(8);
  ASSERT_TRUE(rd.GetVar<std::int32_t>(rd.VarId("fixed").value(), fixed).ok());
  for (std::int32_t i = 0; i < 8; ++i) EXPECT_EQ(fixed[static_cast<std::size_t>(i)], i);
}

TEST(Interop, SerialWritesPnetcdfReads) {
  pfs::FileSystem fs;
  {
    auto ds = netcdf::Dataset::Create(fs, "interop2.nc").value();
    const int z = ds.DefDim("z", 6).value();
    const int v = ds.DefVar("data", NcType::kDouble, {z}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    std::vector<double> vals{0, 1, 2, 3, 4, 5};
    ASSERT_TRUE(ds.PutVar<double>(v, vals).ok());
    ASSERT_TRUE(ds.Close().ok());
  }
  simmpi::Run(3, [&](Comm& c) {
    auto ds =
        Dataset::Open(c, fs, "interop2.nc", false, simmpi::NullInfo()).value();
    const int v = ds.VarId("data").value();
    // Each rank reads its own pair.
    const std::uint64_t st[] = {2 * static_cast<std::uint64_t>(c.rank())};
    const std::uint64_t ct[] = {2};
    std::vector<double> mine(2);
    ASSERT_TRUE(ds.GetVaraAll<double>(v, st, ct, mine).ok());
    EXPECT_EQ(mine[0], static_cast<double>(2 * c.rank()));
    EXPECT_EQ(mine[1], static_cast<double>(2 * c.rank() + 1));
    ASSERT_TRUE(ds.Close().ok());
  });
}

class PartitionP : public ::testing::TestWithParam<std::tuple<int, int>> {};

// Property: for every partition axis and process count, a collective write
// of a 3-D array partitioned across ranks followed by a full serial read
// reconstructs exactly the global array. This is the paper's §5.1 workload
// in miniature (partitions Z, Y, X, ZY, ZX, YX, ZYX).
TEST_P(PartitionP, CollectiveWriteReconstructsGlobalArray) {
  const int nprocs = std::get<0>(GetParam());
  const int axis_mask = std::get<1>(GetParam());  // bit 0=Z, 1=Y, 2=X
  const std::uint64_t kZ = 8, kY = 8, kX = 8;
  pfs::FileSystem fs;

  // Factor nprocs across the selected axes (row-major over set bits).
  int nax = __builtin_popcount(static_cast<unsigned>(axis_mask));
  std::vector<int> factors(static_cast<std::size_t>(nax), 1);
  {
    int rem = nprocs;
    for (auto& f : factors) f = 1;
    std::size_t i = 0;
    while (rem > 1) {
      factors[i % factors.size()] *= 2;
      rem /= 2;
      ++i;
    }
  }

  simmpi::Run(nprocs, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "part.nc", simmpi::NullInfo()).value();
    const int zd = ds.DefDim("z", kZ).value();
    const int yd = ds.DefDim("y", kY).value();
    const int xd = ds.DefDim("x", kX).value();
    const int v = ds.DefVar("tt", NcType::kInt, {zd, yd, xd}).value();
    ASSERT_TRUE(ds.EndDef().ok());

    // Decompose.
    std::uint64_t start[3] = {0, 0, 0};
    std::uint64_t count[3] = {kZ, kY, kX};
    int rank_rem = c.rank();
    std::size_t fi = 0;
    for (int d = 0; d < 3; ++d) {
      if (!(axis_mask & (1 << d))) continue;
      const int nf = factors[fi++];
      const std::uint64_t dim = count[d];
      const int coord = rank_rem % nf;
      rank_rem /= nf;
      count[d] = dim / static_cast<std::uint64_t>(nf);
      start[d] = count[d] * static_cast<std::uint64_t>(coord);
    }

    std::vector<std::int32_t> mine(count[0] * count[1] * count[2]);
    // Value = global linear index, so reconstruction is checkable.
    std::size_t w = 0;
    for (std::uint64_t z = 0; z < count[0]; ++z)
      for (std::uint64_t y = 0; y < count[1]; ++y)
        for (std::uint64_t x = 0; x < count[2]; ++x)
          mine[w++] = static_cast<std::int32_t>(
              ((start[0] + z) * kY + start[1] + y) * kX + start[2] + x);
    ASSERT_TRUE(ds.PutVaraAll<std::int32_t>(v, start, count, mine).ok());

    // Collective read-back through the same decomposition.
    std::vector<std::int32_t> back(mine.size());
    ASSERT_TRUE(ds.GetVaraAll<std::int32_t>(v, start, count, back).ok());
    EXPECT_EQ(back, mine);
    ASSERT_TRUE(ds.Close().ok());
  });

  auto rd = netcdf::Dataset::Open(fs, "part.nc", false).value();
  std::vector<std::int32_t> all(kZ * kY * kX);
  ASSERT_TRUE(rd.GetVar<std::int32_t>(0, all).ok());
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(all[i], static_cast<std::int32_t>(i)) << i;
}

std::string PartitionName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* const kNames[] = {"",   "Z",  "Y",  "ZY",
                                       "X",  "ZX", "YX", "ZYX"};
  return std::string(kNames[std::get<1>(info.param)]) + "_p" +
         std::to_string(std::get<0>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AxesAndProcs, PartitionP,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1, 2, 4, 3, 5, 6, 7)),
    PartitionName);

TEST(IndependentMode, RequiresBeginEnd) {
  pfs::FileSystem fs;
  simmpi::Run(2, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "indep.nc", simmpi::NullInfo()).value();
    const int x = ds.DefDim("x", 4).value();
    const int v = ds.DefVar("a", NcType::kInt, {x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    const std::uint64_t st[] = {0};
    const std::uint64_t ct[] = {2};
    std::vector<std::int32_t> d{1, 2};
    // Independent call outside independent mode: error.
    EXPECT_EQ(ds.PutVara<std::int32_t>(v, st, ct, d).code(),
              pnc::Err::kNotIndep);
    ASSERT_TRUE(ds.BeginIndepData().ok());
    // Collective call inside independent mode: error.
    EXPECT_EQ(ds.PutVaraAll<std::int32_t>(v, st, ct, d).code(),
              pnc::Err::kInIndep);
    // Each rank writes its half independently.
    const std::uint64_t stm[] = {2 * static_cast<std::uint64_t>(c.rank())};
    const std::vector<std::int32_t> mine{10 * c.rank(), 10 * c.rank() + 1};
    EXPECT_TRUE(ds.PutVara<std::int32_t>(v, stm, ct, mine).ok());
    ASSERT_TRUE(ds.EndIndepData().ok());
    ASSERT_TRUE(ds.Close().ok());
  });
  auto rd = netcdf::Dataset::Open(fs, "indep.nc", false).value();
  std::vector<std::int32_t> all(4);
  ASSERT_TRUE(rd.GetVar<std::int32_t>(0, all).ok());
  EXPECT_EQ(all, (std::vector<std::int32_t>{0, 1, 10, 11}));
}

TEST(IndependentMode, RecordGrowthConvergesAtEnd) {
  pfs::FileSystem fs;
  simmpi::Run(3, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "igrow.nc", simmpi::NullInfo()).value();
    const int t = ds.DefDim("t", kUnlimited).value();
    const int v = ds.DefVar("a", NcType::kInt, {t}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    ASSERT_TRUE(ds.BeginIndepData().ok());
    // Rank r writes record r: ranks see different local numrecs.
    const std::uint64_t st[] = {static_cast<std::uint64_t>(c.rank())};
    const std::uint64_t ct[] = {1};
    const std::int32_t val = c.rank();
    ASSERT_TRUE(ds.PutVara<std::int32_t>(v, st, ct, {&val, 1}).ok());
    ASSERT_TRUE(ds.EndIndepData().ok());
    // After the collective exit, every rank agrees on the max.
    EXPECT_EQ(ds.numrecs(), 3u);
    ASSERT_TRUE(ds.Close().ok());
  });
  auto rd = netcdf::Dataset::Open(fs, "igrow.nc", false).value();
  EXPECT_EQ(rd.numrecs(), 3u);
}

TEST(Consistency, MismatchedDefinitionsDetectedAtEndDef) {
  pfs::FileSystem fs;
  simmpi::Run(2, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "mis.nc", simmpi::NullInfo()).value();
    // Ranks define different dimension lengths: must fail on all ranks.
    (void)ds.DefDim("x", c.rank() == 0 ? 4 : 8);
    EXPECT_EQ(ds.EndDef().code(), pnc::Err::kMultiDefine);
  });
}

TEST(Consistency, CollectiveValidationFailurePropagates) {
  pfs::FileSystem fs;
  simmpi::Run(2, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "val.nc", simmpi::NullInfo()).value();
    const int x = ds.DefDim("x", 4).value();
    const int v = ds.DefVar("a", NcType::kInt, {x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    // Rank 1 passes an out-of-bounds start; rank 0 is valid. Without the
    // collective agreement this would deadlock rank 0 in two-phase I/O.
    const std::uint64_t st[] = {c.rank() == 0 ? 0ull : 100ull};
    const std::uint64_t ct[] = {2};
    std::vector<std::int32_t> d{1, 2};
    auto s = ds.PutVaraAll<std::int32_t>(v, st, ct, d);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(),
              c.rank() == 0 ? pnc::Err::kMultiDefine : pnc::Err::kInvalidCoords);
    ASSERT_TRUE(ds.Close().ok());
  });
}

TEST(FlexibleApi, NoncontiguousMemoryDatatype) {
  pfs::FileSystem fs;
  simmpi::Run(2, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "flex.nc", simmpi::NullInfo()).value();
    const int z = ds.DefDim("z", 4).value();
    const int x = ds.DefDim("x", 4).value();
    const int v = ds.DefVar("a", NcType::kDouble, {z, x}).value();
    ASSERT_TRUE(ds.EndDef().ok());

    // Memory holds an 8x4 local array with a 2-row halo at top; the owned
    // region is rows 2..3 (rank picks its slab). Describe it with a
    // subarray datatype — the flexible API's reason to exist (§4.1).
    std::vector<double> local(6 * 4, -1.0);
    for (std::uint64_t r = 0; r < 2; ++r)
      for (std::uint64_t x2 = 0; x2 < 4; ++x2)
        local[(2 + r) * 4 + x2] =
            static_cast<double>(100 * c.rank() + r * 4 + x2);
    const std::uint64_t msizes[] = {6, 4};
    const std::uint64_t msub[] = {2, 4};
    const std::uint64_t mstart[] = {2, 0};
    auto buftype =
        simmpi::Datatype::Subarray(msizes, msub, mstart, simmpi::DoubleType())
            .value();

    const std::uint64_t st[] = {2 * static_cast<std::uint64_t>(c.rank()), 0};
    const std::uint64_t ct[] = {2, 4};
    ASSERT_TRUE(
        ds.PutVaraAllFlex(v, st, ct, local.data(), 1, buftype).ok());

    // Read back through the flexible API into the same halo layout.
    std::vector<double> readback(6 * 4, -7.0);
    ASSERT_TRUE(
        ds.GetVaraAllFlex(v, st, ct, readback.data(), 1, buftype).ok());
    for (std::uint64_t r = 0; r < 2; ++r)
      for (std::uint64_t x2 = 0; x2 < 4; ++x2)
        EXPECT_EQ(readback[(2 + r) * 4 + x2],
                  static_cast<double>(100 * c.rank() + r * 4 + x2));
    // Halo untouched.
    EXPECT_EQ(readback[0], -7.0);
    ASSERT_TRUE(ds.Close().ok());
  });
}

TEST(FlexibleApi, SizeMismatchRejected) {
  pfs::FileSystem fs;
  simmpi::Run(2, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "flexbad.nc", simmpi::NullInfo()).value();
    const int x = ds.DefDim("x", 4).value();
    const int v = ds.DefVar("a", NcType::kInt, {x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    const std::uint64_t st[] = {0};
    const std::uint64_t ct[] = {4};
    std::vector<std::int32_t> d(2);
    EXPECT_EQ(ds.PutVaraAllFlex(v, st, ct, d.data(), 2, simmpi::IntType())
                  .code(),
              pnc::Err::kTypeMismatch);
    ASSERT_TRUE(ds.Close().ok());
  });
}

TEST(FlexibleApi, TypeConversionViaFlexiblePath) {
  pfs::FileSystem fs;
  simmpi::Run(1, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "flexconv.nc", simmpi::NullInfo()).value();
    const int x = ds.DefDim("x", 3).value();
    const int v = ds.DefVar("s", NcType::kShort, {x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    const std::uint64_t st[] = {0};
    const std::uint64_t ct[] = {3};
    const std::vector<double> dv{1.0, 2.0, 3.0};
    ASSERT_TRUE(ds.PutVaraAllFlex(v, st, ct, dv.data(), 3,
                                  simmpi::DoubleType())
                    .ok());
    std::vector<float> fv(3);
    ASSERT_TRUE(
        ds.GetVaraAllFlex(v, st, ct, fv.data(), 3, simmpi::FloatType()).ok());
    EXPECT_EQ(fv, (std::vector<float>{1.0f, 2.0f, 3.0f}));
    ASSERT_TRUE(ds.Close().ok());
  });
}

TEST(HighLevelApi, Var1VarmVarPaths) {
  pfs::FileSystem fs;
  simmpi::Run(2, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "hl.nc", simmpi::NullInfo()).value();
    const int r = ds.DefDim("r", 2).value();
    const int col = ds.DefDim("c", 2).value();
    const int v = ds.DefVar("m", NcType::kInt, {r, col}).value();
    ASSERT_TRUE(ds.EndDef().ok());

    // Var1 (independent mode).
    ASSERT_TRUE(ds.BeginIndepData().ok());
    if (c.rank() == 0) {
      const std::uint64_t idx[] = {0, 0};
      ASSERT_TRUE(ds.PutVar1<std::int32_t>(v, idx, 7).ok());
    }
    ASSERT_TRUE(ds.EndIndepData().ok());
    c.Barrier();

    // Varm with transpose on rank 0 (collective, both ranks call).
    const std::uint64_t st[] = {0, 0};
    const std::uint64_t ct[] = {2, 2};
    const std::uint64_t imap[] = {1, 2};
    std::vector<std::int32_t> mem{1, 3, 2, 4};  // transposed storage
    ASSERT_TRUE(ds.PutVarmAll<std::int32_t>(v, st, ct, {}, imap, mem).ok());

    std::vector<std::int32_t> whole(4);
    ASSERT_TRUE(ds.GetVarAll<std::int32_t>(v, whole).ok());
    EXPECT_EQ(whole, (std::vector<std::int32_t>{1, 2, 3, 4}));

    std::int32_t one = 0;
    ASSERT_TRUE(ds.BeginIndepData().ok());
    const std::uint64_t idx[] = {1, 0};
    ASSERT_TRUE(ds.GetVar1<std::int32_t>(v, idx, one).ok());
    EXPECT_EQ(one, 3);
    ASSERT_TRUE(ds.EndIndepData().ok());
    ASSERT_TRUE(ds.Close().ok());
  });
}

TEST(ParallelRedef, HeaderGrowthMovesDataInParallel) {
  pfs::FileSystem fs;
  simmpi::Run(4, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "redef.nc", simmpi::NullInfo()).value();
    const int x = ds.DefDim("x", 64).value();
    const int a = ds.DefVar("a", NcType::kDouble, {x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    std::vector<double> av(16);
    std::iota(av.begin(), av.end(), 16.0 * c.rank());
    const std::uint64_t st[] = {16 * static_cast<std::uint64_t>(c.rank())};
    const std::uint64_t ct[] = {16};
    ASSERT_TRUE(ds.PutVaraAll<double>(a, st, ct, av).ok());

    ASSERT_TRUE(ds.Redef().ok());
    const int b = ds.DefVar("b", NcType::kDouble, {x}).value();
    ASSERT_TRUE(
        ds.PutAttText(kGlobal, "pad", std::string(1024, 'p')).ok());
    ASSERT_TRUE(ds.EndDef().ok());
    std::vector<double> bv(16, static_cast<double>(c.rank()));
    ASSERT_TRUE(ds.PutVaraAll<double>(b, st, ct, bv).ok());

    std::vector<double> back(16);
    ASSERT_TRUE(ds.GetVaraAll<double>(a, st, ct, back).ok());
    EXPECT_EQ(back, av);
    ASSERT_TRUE(ds.Close().ok());
  });
  // Serial validation of the whole file.
  auto rd = netcdf::Dataset::Open(fs, "redef.nc", false).value();
  std::vector<double> all(64);
  ASSERT_TRUE(rd.GetVar<double>(rd.VarId("a").value(), all).ok());
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_EQ(all[i], static_cast<double>(i));
}

TEST(Hints, HeaderAlignReservesSpace) {
  pfs::FileSystem fs;
  simmpi::Run(2, [&](Comm& c) {
    simmpi::Info info;
    info.Set("nc_header_align_size", "8192");
    auto ds = Dataset::Create(c, fs, "align.nc", info).value();
    const int x = ds.DefDim("x", 4).value();
    (void)ds.DefVar("a", NcType::kInt, {x});
    ASSERT_TRUE(ds.EndDef().ok());
    EXPECT_EQ(ds.header().data_begin(), 8192u);
    ASSERT_TRUE(ds.Close().ok());
  });
}

TEST(Hints, AlignedHeaderAvoidsDataMoveOnRedef) {
  pfs::FileSystem fs;
  simmpi::Run(2, [&](Comm& c) {
    simmpi::Info info;
    info.Set("nc_header_align_size", "8192");
    auto ds = Dataset::Create(c, fs, "align2.nc", info).value();
    const int x = ds.DefDim("x", 8).value();
    const int a = ds.DefVar("a", NcType::kInt, {x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    const std::uint64_t begin_before =
        ds.header().vars[static_cast<std::size_t>(a)].begin;
    ASSERT_TRUE(ds.Redef().ok());
    ASSERT_TRUE(ds.PutAttText(kGlobal, "note", "small growth").ok());
    ASSERT_TRUE(ds.EndDef().ok());
    EXPECT_EQ(ds.header().vars[static_cast<std::size_t>(a)].begin,
              begin_before);
    ASSERT_TRUE(ds.Close().ok());
  });
}

TEST(ModeErrors, DefineModeRules) {
  pfs::FileSystem fs;
  simmpi::Run(2, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "mode.nc", simmpi::NullInfo()).value();
    const int x = ds.DefDim("x", 2).value();
    const int v = ds.DefVar("a", NcType::kInt, {x}).value();
    const std::uint64_t st[] = {0};
    const std::uint64_t ct[] = {2};
    std::vector<std::int32_t> d{1, 2};
    EXPECT_EQ(ds.PutVaraAll<std::int32_t>(v, st, ct, d).code(),
              pnc::Err::kInDefine);
    EXPECT_EQ(ds.BeginIndepData().code(), pnc::Err::kInDefine);
    ASSERT_TRUE(ds.EndDef().ok());
    EXPECT_EQ(ds.DefDim("y", 2).status().code(), pnc::Err::kNotInDefine);
    ASSERT_TRUE(ds.Redef().ok());
    EXPECT_TRUE(ds.DefDim("y", 2).ok());
    ASSERT_TRUE(ds.EndDef().ok());
    ASSERT_TRUE(ds.Close().ok());
  });
}

TEST(OpenErrors, MissingFileFailsOnAllRanks) {
  pfs::FileSystem fs;
  simmpi::Run(3, [&](Comm& c) {
    auto r = Dataset::Open(c, fs, "nope.nc", false, simmpi::NullInfo());
    EXPECT_FALSE(r.ok());
  });
}

TEST(OpenErrors, NotANetcdfFile) {
  pfs::FileSystem fs;
  {
    auto f = fs.Create("junk.bin", false).value();
    std::vector<std::byte> junk(512, std::byte{0x77});
    f.HarnessWrite(0, junk, 0.0);
  }
  simmpi::Run(2, [&](Comm& c) {
    auto r = Dataset::Open(c, fs, "junk.bin", false, simmpi::NullInfo());
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), pnc::Err::kNotNc);
  });
  // A file shorter than the 4-byte magic is not netCDF either, through
  // both libraries' one header reader.
  for (const std::string prefix : {"", "CD", "CDF"}) {
    SCOPED_TRACE(std::to_string(prefix.size()) + "-byte file");
    auto f = fs.Create("short.nc", false).value();
    f.HarnessWrite(0, std::as_bytes(std::span(prefix)), 0.0);
    ASSERT_EQ(f.size(), prefix.size());
    auto serial = netcdf::Dataset::Open(fs, "short.nc", false);
    EXPECT_EQ(serial.status().code(), pnc::Err::kNotNc);
    simmpi::Run(2, [&](Comm& c) {
      auto r = Dataset::Open(c, fs, "short.nc", false, simmpi::NullInfo());
      EXPECT_EQ(r.status().code(), pnc::Err::kNotNc);
    });
  }
}

TEST(Abort, FreshCreateRemovesFile) {
  pfs::FileSystem fs;
  simmpi::Run(2, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "ab.nc", simmpi::NullInfo()).value();
    (void)ds.DefDim("x", 2);
    ASSERT_TRUE(ds.Abort().ok());
  });
  EXPECT_FALSE(fs.Exists("ab.nc"));
}

TEST(RecordVars, StridedRecordAccessAcrossRanks) {
  pfs::FileSystem fs;
  simmpi::Run(2, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "recs.nc", simmpi::NullInfo()).value();
    const int t = ds.DefDim("t", kUnlimited).value();
    const int x = ds.DefDim("x", 2).value();
    const int v = ds.DefVar("a", NcType::kInt, {t, x}).value();
    const int w = ds.DefVar("b", NcType::kDouble, {t}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    // Rank r writes records r, r+2, r+4 (stride 2) of var a.
    const std::uint64_t st[] = {static_cast<std::uint64_t>(c.rank()), 0};
    const std::uint64_t ct[] = {3, 2};
    const std::uint64_t sd[] = {2, 1};
    std::vector<std::int32_t> mine(6);
    for (int i = 0; i < 6; ++i) mine[static_cast<std::size_t>(i)] = 100 * c.rank() + i;
    ASSERT_TRUE(ds.PutVarsAll<std::int32_t>(v, st, ct, sd, mine).ok());
    EXPECT_EQ(ds.numrecs(), 6u);
    // And the scalar record var collectively.
    const std::uint64_t stw[] = {static_cast<std::uint64_t>(c.rank())};
    const std::uint64_t ctw[] = {3};
    const std::uint64_t sdw[] = {2};
    std::vector<double> wv{0.5 + c.rank(), 2.5 + c.rank(), 4.5 + c.rank()};
    ASSERT_TRUE(ds.PutVarsAll<double>(w, stw, ctw, sdw, wv).ok());
    ASSERT_TRUE(ds.Close().ok());
  });
  auto rd = netcdf::Dataset::Open(fs, "recs.nc", false).value();
  std::vector<std::int32_t> all(12);
  ASSERT_TRUE(rd.GetVar<std::int32_t>(rd.VarId("a").value(), all).ok());
  EXPECT_EQ(all, (std::vector<std::int32_t>{0, 1, 100, 101, 2, 3, 102, 103,
                                            4, 5, 104, 105}));
  std::vector<double> ws(6);
  ASSERT_TRUE(rd.GetVar<double>(rd.VarId("b").value(), ws).ok());
  EXPECT_EQ(ws, (std::vector<double>{0.5, 1.5, 2.5, 3.5, 4.5, 5.5}));
}

TEST(DataModeAttr, InPlaceReplaceAllowed) {
  pfs::FileSystem fs;
  simmpi::Run(2, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "dmattr.nc", simmpi::NullInfo()).value();
    ASSERT_TRUE(ds.PutAttText(kGlobal, "status", "draft").ok());
    ASSERT_TRUE(ds.EndDef().ok());
    ASSERT_TRUE(ds.PutAttText(kGlobal, "status", "final").ok());
    EXPECT_EQ(ds.PutAttText(kGlobal, "status", "much longer value").code(),
              pnc::Err::kNotInDefine);
    ASSERT_TRUE(ds.Close().ok());
  });
  auto rd = netcdf::Dataset::Open(fs, "dmattr.nc", false).value();
  EXPECT_EQ(rd.GetAtt(netcdf::kGlobal, "status").value().AsText(), "final");
}

}  // namespace
}  // namespace pnetcdf
