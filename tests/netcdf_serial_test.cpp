// End-to-end tests for the serial netCDF library: the write/read lifecycle
// of §3.2, all five data access methods, mode rules, attributes, record
// variables, redefinition with data relocation, and fill mode.
#include "netcdf/dataset.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace netcdf {
namespace {

using ncformat::NcType;

std::vector<double> Seq(std::size_t n, double base = 0.0) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), base);
  return v;
}

class SerialDataset : public ::testing::Test {
 protected:
  pfs::FileSystem fs_;
};

TEST_F(SerialDataset, CreateDefineWriteReadClose) {
  // The canonical sequence from paper §3.2.
  auto ds = Dataset::Create(fs_, "basic.nc").value();
  const int zd = ds.DefDim("z", 2).value();
  const int yd = ds.DefDim("y", 3).value();
  const int vid = ds.DefVar("field", NcType::kDouble, {zd, yd}).value();
  ASSERT_TRUE(ds.PutAttText(kGlobal, "title", "unit test").ok());
  ASSERT_TRUE(ds.PutAttText(vid, "units", "K").ok());
  ASSERT_TRUE(ds.EndDef().ok());
  auto data = Seq(6, 1.0);
  ASSERT_TRUE(ds.PutVar<double>(vid, data).ok());
  ASSERT_TRUE(ds.Close().ok());

  auto rd = Dataset::Open(fs_, "basic.nc", /*writable=*/false).value();
  EXPECT_EQ(rd.ndims(), 2);
  EXPECT_EQ(rd.nvars(), 1);
  EXPECT_EQ(rd.ngatts(), 1);
  EXPECT_EQ(rd.GetAtt(kGlobal, "title").value().AsText(), "unit test");
  const int v = rd.VarId("field").value();
  EXPECT_EQ(rd.GetAtt(v, "units").value().AsText(), "K");
  std::vector<double> out(6);
  ASSERT_TRUE(rd.GetVar<double>(v, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(SerialDataset, SubarrayAndStridedAccess) {
  auto ds = Dataset::Create(fs_, "sub.nc").value();
  const int z = ds.DefDim("z", 4).value();
  const int y = ds.DefDim("y", 4).value();
  const int v = ds.DefVar("a", NcType::kInt, {z, y}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  std::vector<std::int32_t> all(16);
  std::iota(all.begin(), all.end(), 0);
  ASSERT_TRUE(ds.PutVar<std::int32_t>(v, all).ok());

  // Subarray: rows 1..2, cols 2..3.
  std::vector<std::int32_t> sub(4);
  const std::uint64_t st[] = {1, 2};
  const std::uint64_t ct[] = {2, 2};
  ASSERT_TRUE(ds.GetVara<std::int32_t>(v, st, ct, sub).ok());
  EXPECT_EQ(sub, (std::vector<std::int32_t>{6, 7, 10, 11}));

  // Strided: every other element of row 0.
  std::vector<std::int32_t> strided(2);
  const std::uint64_t s2[] = {0, 0};
  const std::uint64_t c2[] = {1, 2};
  const std::uint64_t str[] = {1, 2};
  ASSERT_TRUE(ds.GetVars<std::int32_t>(v, s2, c2, str, strided).ok());
  EXPECT_EQ(strided, (std::vector<std::int32_t>{0, 2}));

  // Strided write-back and verify.
  const std::vector<std::int32_t> neg{-1, -2};
  ASSERT_TRUE(ds.PutVars<std::int32_t>(v, s2, c2, str, neg).ok());
  std::vector<std::int32_t> row(4);
  const std::uint64_t c3[] = {1, 4};
  ASSERT_TRUE(ds.GetVara<std::int32_t>(v, s2, c3, row).ok());
  EXPECT_EQ(row, (std::vector<std::int32_t>{-1, 1, -2, 3}));
}

TEST_F(SerialDataset, SingleElementAccess) {
  auto ds = Dataset::Create(fs_, "v1.nc").value();
  const int x = ds.DefDim("x", 5).value();
  const int v = ds.DefVar("a", NcType::kFloat, {x}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  const std::uint64_t idx[] = {3};
  ASSERT_TRUE(ds.PutVar1<float>(v, idx, 42.5f).ok());
  float out = 0;
  ASSERT_TRUE(ds.GetVar1<float>(v, idx, out).ok());
  EXPECT_EQ(out, 42.5f);
}

TEST_F(SerialDataset, MappedAccessTransposes) {
  auto ds = Dataset::Create(fs_, "varm.nc").value();
  const int r = ds.DefDim("r", 2).value();
  const int c = ds.DefDim("c", 3).value();
  const int v = ds.DefVar("m", NcType::kInt, {r, c}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  // Memory holds the transpose (3x2, column-major relative to the file):
  // imap maps file dim r -> memory stride 1, file dim c -> memory stride 2.
  const std::vector<std::int32_t> mem{1, 4, 2, 5, 3, 6};  // (3 rows of [.,.])
  const std::uint64_t st[] = {0, 0};
  const std::uint64_t ct[] = {2, 3};
  const std::uint64_t imap[] = {1, 2};
  ASSERT_TRUE(
      ds.PutVarm<std::int32_t>(v, st, ct, {}, imap, mem).ok());
  std::vector<std::int32_t> file_order(6);
  ASSERT_TRUE(ds.GetVara<std::int32_t>(v, st, ct, file_order).ok());
  EXPECT_EQ(file_order, (std::vector<std::int32_t>{1, 2, 3, 4, 5, 6}));

  std::vector<std::int32_t> back(6);
  ASSERT_TRUE(ds.GetVarm<std::int32_t>(v, st, ct, {}, imap, back).ok());
  EXPECT_EQ(back, mem);
}

TEST_F(SerialDataset, RecordVariablesGrowAndInterleave) {
  auto ds = Dataset::Create(fs_, "rec.nc").value();
  const int t = ds.DefDim("time", kUnlimited).value();
  const int x = ds.DefDim("x", 3).value();
  const int a = ds.DefVar("a", NcType::kDouble, {t, x}).value();
  const int b = ds.DefVar("b", NcType::kInt, {t}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  EXPECT_EQ(ds.numrecs(), 0u);

  for (std::uint64_t rec = 0; rec < 4; ++rec) {
    const std::uint64_t st[] = {rec, 0};
    const std::uint64_t ct[] = {1, 3};
    auto vals = Seq(3, 10.0 * static_cast<double>(rec));
    ASSERT_TRUE(ds.PutVara<double>(a, st, ct, vals).ok());
    const std::uint64_t st1[] = {rec};
    const std::uint64_t ct1[] = {1};
    const std::int32_t iv = static_cast<std::int32_t>(rec);
    ASSERT_TRUE(ds.PutVara<std::int32_t>(b, st1, ct1, {&iv, 1}).ok());
  }
  EXPECT_EQ(ds.numrecs(), 4u);
  ASSERT_TRUE(ds.Close().ok());

  auto rd = Dataset::Open(fs_, "rec.nc", false).value();
  EXPECT_EQ(rd.numrecs(), 4u);
  const std::uint64_t st[] = {2, 0};
  const std::uint64_t ct[] = {2, 3};
  std::vector<double> out(6);
  ASSERT_TRUE(rd.GetVara<double>(rd.VarId("a").value(), st, ct, out).ok());
  EXPECT_EQ(out, (std::vector<double>{20, 21, 22, 30, 31, 32}));
  std::vector<std::int32_t> bs(4);
  ASSERT_TRUE(rd.GetVar<std::int32_t>(rd.VarId("b").value(), bs).ok());
  EXPECT_EQ(bs, (std::vector<std::int32_t>{0, 1, 2, 3}));
}

TEST_F(SerialDataset, TypeConversionOnTheWayThrough) {
  auto ds = Dataset::Create(fs_, "conv.nc").value();
  const int x = ds.DefDim("x", 3).value();
  const int v = ds.DefVar("small", NcType::kShort, {x}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  // Write doubles into a short variable.
  const std::vector<double> dv{1.0, -2.0, 3.5};
  const std::uint64_t st[] = {0};
  const std::uint64_t ct[] = {3};
  ASSERT_TRUE(ds.PutVara<double>(v, st, ct, dv).ok());
  std::vector<std::int32_t> iv(3);
  ASSERT_TRUE(ds.GetVara<std::int32_t>(v, st, ct, iv).ok());
  EXPECT_EQ(iv, (std::vector<std::int32_t>{1, -2, 3}));
}

TEST_F(SerialDataset, RangeErrorReportedButWritten) {
  auto ds = Dataset::Create(fs_, "range.nc").value();
  const int x = ds.DefDim("x", 2).value();
  const int v = ds.DefVar("s", NcType::kByte, {x}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  const std::vector<std::int32_t> big{1000, 5};
  const std::uint64_t st[] = {0};
  const std::uint64_t ct[] = {2};
  EXPECT_EQ(ds.PutVara<std::int32_t>(v, st, ct, big).code(), pnc::Err::kRange);
  std::vector<std::int32_t> out(2);
  ASSERT_TRUE(ds.GetVara<std::int32_t>(v, st, ct, out).ok());
  EXPECT_EQ(out[1], 5);  // in-range value landed
}

TEST_F(SerialDataset, ModeRulesEnforced) {
  auto ds = Dataset::Create(fs_, "mode.nc").value();
  const int x = ds.DefDim("x", 2).value();
  const int v = ds.DefVar("a", NcType::kInt, {x}).value();
  // Data access in define mode fails.
  std::vector<std::int32_t> data{1, 2};
  const std::uint64_t st[] = {0};
  const std::uint64_t ct[] = {2};
  EXPECT_EQ(ds.PutVara<std::int32_t>(v, st, ct, data).code(),
            pnc::Err::kInDefine);
  ASSERT_TRUE(ds.EndDef().ok());
  // Define calls in data mode fail.
  EXPECT_EQ(ds.DefDim("y", 3).status().code(), pnc::Err::kNotInDefine);
  EXPECT_EQ(ds.EndDef().code(), pnc::Err::kNotInDefine);
  // Writes through a read-only handle fail.
  ASSERT_TRUE(ds.Close().ok());
  auto rd = Dataset::Open(fs_, "mode.nc", false).value();
  EXPECT_EQ(rd.PutVara<std::int32_t>(0, st, ct, data).code(),
            pnc::Err::kPermission);
  EXPECT_EQ(rd.Redef().code(), pnc::Err::kPermission);
}

TEST_F(SerialDataset, BoundsErrors) {
  auto ds = Dataset::Create(fs_, "bounds.nc").value();
  const int x = ds.DefDim("x", 4).value();
  const int v = ds.DefVar("a", NcType::kInt, {x}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  std::vector<std::int32_t> d(8, 0);
  const std::uint64_t st[] = {2};
  const std::uint64_t ct[] = {3};
  EXPECT_EQ(ds.PutVara<std::int32_t>(v, st, ct, d).code(), pnc::Err::kEdge);
  const std::uint64_t st2[] = {5};
  EXPECT_EQ(ds.PutVara<std::int32_t>(v, st2, ct, d).code(),
            pnc::Err::kInvalidCoords);
  EXPECT_EQ(ds.PutVara<std::int32_t>(7, st, ct, d).code(), pnc::Err::kNotVar);
}

TEST_F(SerialDataset, AttributeLifecycle) {
  auto ds = Dataset::Create(fs_, "attr.nc").value();
  const double pts[] = {1.0, 2.0, 3.0};
  ASSERT_TRUE(ds.PutAttValues<double>(kGlobal, "levels", NcType::kDouble, pts)
                  .ok());
  ASSERT_TRUE(ds.PutAttText(kGlobal, "old_name", "v").ok());
  ASSERT_TRUE(ds.RenameAtt(kGlobal, "old_name", "new_name").ok());
  EXPECT_EQ(ds.GetAtt(kGlobal, "old_name").status().code(), pnc::Err::kNotAtt);
  ASSERT_TRUE(ds.GetAtt(kGlobal, "new_name").ok());
  ASSERT_TRUE(ds.DelAtt(kGlobal, "new_name").ok());
  EXPECT_EQ(ds.ngatts(), 1);
  ASSERT_TRUE(ds.EndDef().ok());
  ASSERT_TRUE(ds.Close().ok());

  // Data-mode update: same type, same size is allowed; growth is not.
  auto wr = Dataset::Open(fs_, "attr.nc", true).value();
  const double pts2[] = {9.0, 8.0, 7.0};
  EXPECT_TRUE(
      wr.PutAttValues<double>(kGlobal, "levels", NcType::kDouble, pts2).ok());
  const double pts3[] = {1, 2, 3, 4};
  EXPECT_EQ(
      wr.PutAttValues<double>(kGlobal, "levels", NcType::kDouble, pts3).code(),
      pnc::Err::kNotInDefine);
  EXPECT_EQ(wr.PutAttText(kGlobal, "brand_new", "x").code(),
            pnc::Err::kNotInDefine);
}

TEST_F(SerialDataset, RedefAddVariableMovesData) {
  auto ds = Dataset::Create(fs_, "redef.nc").value();
  const int x = ds.DefDim("x", 8).value();
  const int a = ds.DefVar("a", NcType::kDouble, {x}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  auto av = Seq(8, 100.0);
  ASSERT_TRUE(ds.PutVar<double>(a, av).ok());

  // Re-enter define mode, add a variable and an attribute: the header grows
  // and "a"'s data must move (paper §4.3 calls this costly — but correct).
  ASSERT_TRUE(ds.Redef().ok());
  const int b = ds.DefVar("b", NcType::kDouble, {x}).value();
  ASSERT_TRUE(ds.PutAttText(kGlobal, "note",
                            std::string(512, 'n'))  // force header growth
                  .ok());
  ASSERT_TRUE(ds.EndDef().ok());
  auto bv = Seq(8, 200.0);
  ASSERT_TRUE(ds.PutVar<double>(b, bv).ok());

  std::vector<double> out(8);
  ASSERT_TRUE(ds.GetVar<double>(a, out).ok());
  EXPECT_EQ(out, av);
  ASSERT_TRUE(ds.Close().ok());

  auto rd = Dataset::Open(fs_, "redef.nc", false).value();
  ASSERT_TRUE(rd.GetVar<double>(rd.VarId("a").value(), out).ok());
  EXPECT_EQ(out, av);
  ASSERT_TRUE(rd.GetVar<double>(rd.VarId("b").value(), out).ok());
  EXPECT_EQ(out, bv);
}

TEST_F(SerialDataset, RedefWithRecordsRedistributes) {
  auto ds = Dataset::Create(fs_, "redefrec.nc").value();
  const int t = ds.DefDim("t", kUnlimited).value();
  const int x = ds.DefDim("x", 2).value();
  const int a = ds.DefVar("a", NcType::kInt, {t, x}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  for (std::uint64_t r = 0; r < 3; ++r) {
    const std::uint64_t st[] = {r, 0};
    const std::uint64_t ct[] = {1, 2};
    const std::vector<std::int32_t> v{static_cast<std::int32_t>(10 * r),
                                      static_cast<std::int32_t>(10 * r + 1)};
    ASSERT_TRUE(ds.PutVara<std::int32_t>(a, st, ct, v).ok());
  }
  // Adding a second record variable changes recsize: records must be
  // redistributed into the new interleaving.
  ASSERT_TRUE(ds.Redef().ok());
  const int b = ds.DefVar("b", NcType::kDouble, {t, x}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  (void)b;
  std::vector<std::int32_t> out(6);
  ASSERT_TRUE(ds.GetVar<std::int32_t>(a, out).ok());
  EXPECT_EQ(out, (std::vector<std::int32_t>{0, 1, 10, 11, 20, 21}));
}

TEST_F(SerialDataset, AbortFreshCreateDeletesFile) {
  auto ds = Dataset::Create(fs_, "aborted.nc").value();
  (void)ds.DefDim("x", 2);
  ASSERT_TRUE(ds.Abort().ok());
  EXPECT_FALSE(fs_.Exists("aborted.nc"));
}

TEST_F(SerialDataset, AbortRedefRestoresHeader) {
  auto ds = Dataset::Create(fs_, "abort2.nc").value();
  (void)ds.DefDim("x", 2);
  ASSERT_TRUE(ds.EndDef().ok());
  ASSERT_TRUE(ds.Redef().ok());
  (void)ds.DefDim("y", 3);
  ASSERT_TRUE(ds.Abort().ok());
  EXPECT_EQ(ds.ndims(), 1);
}

TEST_F(SerialDataset, NoClobberRespected) {
  ASSERT_TRUE(Dataset::Create(fs_, "exists.nc").value().Close().ok());
  CreateOptions opts;
  opts.clobber = false;
  EXPECT_EQ(Dataset::Create(fs_, "exists.nc", opts).status().code(),
            pnc::Err::kExists);
}

TEST_F(SerialDataset, FillModeWritesFillValues) {
  auto ds = Dataset::Create(fs_, "fill.nc").value();
  ASSERT_TRUE(ds.SetFill(FillMode::kFill).ok());
  const int x = ds.DefDim("x", 4).value();
  const int v = ds.DefVar("d", NcType::kDouble, {x}).value();
  const int t = ds.DefDim("t", kUnlimited).value();
  const int r = ds.DefVar("r", NcType::kInt, {t, x}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  std::vector<double> out(4);
  ASSERT_TRUE(ds.GetVar<double>(v, out).ok());
  for (auto d : out) EXPECT_EQ(d, kFillDouble);
  // Writing record 2 fills the skipped records 0 and 1.
  const std::uint64_t st[] = {2, 0};
  const std::uint64_t ct[] = {1, 4};
  const std::vector<std::int32_t> rv{1, 2, 3, 4};
  ASSERT_TRUE(ds.PutVara<std::int32_t>(r, st, ct, rv).ok());
  std::vector<std::int32_t> rec0(4);
  const std::uint64_t st0[] = {0, 0};
  ASSERT_TRUE(ds.GetVara<std::int32_t>(r, st0, ct, rec0).ok());
  for (auto i : rec0) EXPECT_EQ(i, kFillInt);
}

TEST_F(SerialDataset, NoFillReadsZeroes) {
  auto ds = Dataset::Create(fs_, "nofill.nc").value();
  const int x = ds.DefDim("x", 4).value();
  const int v = ds.DefVar("d", NcType::kInt, {x}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  std::vector<std::int32_t> out(4, -1);
  ASSERT_TRUE(ds.GetVar<std::int32_t>(v, out).ok());
  for (auto i : out) EXPECT_EQ(i, 0);
}

TEST_F(SerialDataset, CharVariableText) {
  auto ds = Dataset::Create(fs_, "text.nc").value();
  const int n = ds.DefDim("len", 12).value();
  const int v = ds.DefVar("name", NcType::kChar, {n}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  const std::string s = "hello world!";
  const std::uint64_t st[] = {0};
  const std::uint64_t ct[] = {12};
  ASSERT_TRUE(ds.PutVara<char>(v, st, ct, {s.data(), s.size()}).ok());
  std::vector<char> out(12);
  ASSERT_TRUE(ds.GetVara<char>(v, st, ct, out).ok());
  EXPECT_EQ(std::string(out.data(), 12), s);
}

TEST_F(SerialDataset, ScalarVariable) {
  auto ds = Dataset::Create(fs_, "scalar.nc").value();
  const int v = ds.DefVar("answer", NcType::kInt, {}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  ASSERT_TRUE(ds.PutVar1<std::int32_t>(v, {}, 42).ok());
  std::int32_t out = 0;
  ASSERT_TRUE(ds.GetVar1<std::int32_t>(v, {}, out).ok());
  EXPECT_EQ(out, 42);
}

TEST_F(SerialDataset, SyncPersistsNumrecs) {
  auto ds = Dataset::Create(fs_, "sync.nc").value();
  const int t = ds.DefDim("t", kUnlimited).value();
  const int v = ds.DefVar("v", NcType::kInt, {t}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  const std::uint64_t st[] = {0};
  const std::uint64_t ct[] = {1};
  const std::int32_t one = 1;
  ASSERT_TRUE(ds.PutVara<std::int32_t>(v, st, ct, {&one, 1}).ok());
  ASSERT_TRUE(ds.Sync().ok());
  // A second reader sees the record immediately after sync.
  auto rd = Dataset::Open(fs_, "sync.nc", false).value();
  EXPECT_EQ(rd.numrecs(), 1u);
}

// Sync after every record append: each Sync commits the count to the
// journal slot alone, and Close's one numrecs patch at offset 4 goes past
// the cache, so it cannot evict the cached tail block. The appends read
// nothing back from pfs (the committed sums combine with the committed
// prefix and read nothing either), and the reopened file holds every
// record that was written.
TEST_F(SerialDataset, SyncPerStepAppendReadsNothing) {
  CreateOptions opts;
  opts.buffer_size = 4096;  // the file outgrows one block after 4 steps
  auto ds = Dataset::Create(fs_, "append.nc", opts).value();
  const int t = ds.DefDim("t", kUnlimited).value();
  const int x = ds.DefDim("x", 125).value();
  const int v = ds.DefVar("v", NcType::kDouble, {t, x}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  constexpr std::uint64_t kSteps = 24;
  fs_.ResetStats();
  for (std::uint64_t rec = 0; rec < kSteps; ++rec) {
    const std::uint64_t st[] = {rec, 0};
    const std::uint64_t ct[] = {1, 125};
    const auto row = Seq(125, 1000.0 * static_cast<double>(rec));
    ASSERT_TRUE(ds.PutVara<double>(v, st, ct, row).ok());
    ASSERT_TRUE(ds.Sync().ok());
  }
  EXPECT_EQ(fs_.stats().bytes_read, 0u);
  EXPECT_EQ(fs_.stats().read_requests, 0u);
  ASSERT_TRUE(ds.Close().ok());
  EXPECT_EQ(fs_.stats().bytes_read, 0u);
  EXPECT_GT(fs_.Open("append.nc").value().size(), 4 * opts.buffer_size);

  auto rd = Dataset::Open(fs_, "append.nc", /*writable=*/false).value();
  ASSERT_EQ(rd.numrecs(), kSteps);
  for (std::uint64_t rec = 0; rec < kSteps; ++rec) {
    std::vector<double> got(125);
    const std::uint64_t st[] = {rec, 0};
    const std::uint64_t ct[] = {1, 125};
    ASSERT_TRUE(rd.GetVara<double>(v, st, ct, got).ok());
    EXPECT_EQ(got, Seq(125, 1000.0 * static_cast<double>(rec))) << rec;
  }
}

TEST_F(SerialDataset, LargeVariableChecksCdf1Limit) {
  CreateOptions opts;
  opts.use_cdf2 = false;
  auto ds = Dataset::Create(fs_, "big1.nc", opts).value();
  const int x = ds.DefDim("x", 600ull << 20).value();
  (void)ds.DefVar("a", NcType::kInt, {x});
  (void)ds.DefVar("b", NcType::kInt, {x});
  EXPECT_EQ(ds.EndDef().code(), pnc::Err::kVarSize);
}

TEST_F(SerialDataset, VirtualClockAdvancesWithIo) {
  auto ds = Dataset::Create(fs_, "clock.nc").value();
  const int x = ds.DefDim("x", 1 << 18).value();
  const int v = ds.DefVar("a", NcType::kDouble, {x}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  const double t0 = ds.clock().now();
  ASSERT_TRUE(ds.PutVar<double>(v, Seq(1 << 18)).ok());
  ASSERT_TRUE(ds.Sync().ok());
  EXPECT_GT(ds.clock().now(), t0);
}

}  // namespace
}  // namespace netcdf
