// Tests for dataset comparison (ncmpidiff) and copying (nccopy), and for
// how the command-line tools attach a dataset on disk.
#include "tools/compare.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>

#include "tools/verify.hpp"

namespace nctools {
namespace {

using ncformat::NcType;

netcdf::Dataset MakeBase(pfs::FileSystem& fs, const std::string& path) {
  auto ds = netcdf::Dataset::Create(fs, path).value();
  const int t = ds.DefDim("time", netcdf::kUnlimited).value();
  const int x = ds.DefDim("x", 4).value();
  const int v = ds.DefVar("series", NcType::kFloat, {t, x}).value();
  const int c = ds.DefVar("label", NcType::kChar, {x}).value();
  EXPECT_TRUE(ds.PutAttText(netcdf::kGlobal, "title", "base").ok());
  EXPECT_TRUE(ds.PutAttText(v, "units", "K").ok());
  EXPECT_TRUE(ds.EndDef().ok());
  std::vector<float> sv(2 * 4);
  std::iota(sv.begin(), sv.end(), 0.0f);
  EXPECT_TRUE(ds.PutVar<float>(v, sv).ok());
  const std::string s = "abcd";
  EXPECT_TRUE(ds.PutVar<char>(c, {s.data(), 4}).ok());
  return ds;
}

TEST(Compare, IdenticalFilesAreEqual) {
  pfs::FileSystem fs;
  auto a = MakeBase(fs, "a.nc");
  auto b = MakeBase(fs, "b.nc");
  auto r = CompareDatasets(a, b).value();
  EXPECT_TRUE(r.equal) << r.differences.front();
  EXPECT_TRUE(r.differences.empty());
}

TEST(Compare, DataDifferenceLocated) {
  pfs::FileSystem fs;
  auto a = MakeBase(fs, "a.nc");
  auto b = MakeBase(fs, "b.nc");
  const std::uint64_t idx[] = {1, 2};
  ASSERT_TRUE(b.PutVar1<float>(b.VarId("series").value(), idx, 99.0f).ok());
  auto r = CompareDatasets(a, b).value();
  ASSERT_FALSE(r.equal);
  ASSERT_EQ(r.differences.size(), 1u);
  EXPECT_NE(r.differences[0].find("series"), std::string::npos);
  EXPECT_NE(r.differences[0].find("index 6"), std::string::npos);
}

TEST(Compare, ToleranceAbsorbsSmallDeltas) {
  pfs::FileSystem fs;
  auto a = MakeBase(fs, "a.nc");
  auto b = MakeBase(fs, "b.nc");
  const std::uint64_t idx[] = {0, 0};
  ASSERT_TRUE(b.PutVar1<float>(b.VarId("series").value(), idx, 0.0005f).ok());
  DiffOptions strict;
  EXPECT_FALSE(CompareDatasets(a, b, strict).value().equal);
  DiffOptions loose;
  loose.tolerance = 0.001;
  EXPECT_TRUE(CompareDatasets(a, b, loose).value().equal);
}

TEST(Compare, SchemaDifferencesReported) {
  pfs::FileSystem fs;
  auto a = MakeBase(fs, "a.nc");
  auto ds = netcdf::Dataset::Create(fs, "c.nc").value();
  (void)ds.DefDim("time", netcdf::kUnlimited);
  (void)ds.DefDim("x", 5);                               // length differs
  (void)ds.DefVar("series", NcType::kDouble,             // type differs
                  {0, 1});
  (void)ds.PutAttText(netcdf::kGlobal, "title", "other");  // value differs
  ASSERT_TRUE(ds.EndDef().ok());
  DiffOptions header_only;
  header_only.compare_data = false;
  auto r = CompareDatasets(a, ds, header_only).value();
  ASSERT_FALSE(r.equal);
  // x length, title value, series type, label missing.
  EXPECT_GE(r.differences.size(), 4u);
}

TEST(Compare, TextDataCompared) {
  pfs::FileSystem fs;
  auto a = MakeBase(fs, "a.nc");
  auto b = MakeBase(fs, "b.nc");
  const std::string s = "abXd";
  ASSERT_TRUE(b.PutVar<char>(b.VarId("label").value(), {s.data(), 4}).ok());
  auto r = CompareDatasets(a, b).value();
  ASSERT_FALSE(r.equal);
  EXPECT_NE(r.differences[0].find("label"), std::string::npos);
}

TEST(Copy, PreservesEverything) {
  pfs::FileSystem fs;
  auto a = MakeBase(fs, "src.nc");
  ASSERT_TRUE(a.Close().ok());
  ASSERT_TRUE(CopyDataset(fs, "src.nc", "dst.nc").ok());
  auto src = netcdf::Dataset::Open(fs, "src.nc", false).value();
  auto dst = netcdf::Dataset::Open(fs, "dst.nc", false).value();
  auto r = CompareDatasets(src, dst).value();
  EXPECT_TRUE(r.equal) << r.differences.front();
}

TEST(Copy, ConvertsBetweenCdfVersions) {
  pfs::FileSystem fs;
  auto a = MakeBase(fs, "src.nc");  // CDF-2 by default
  ASSERT_TRUE(a.Close().ok());
  CopyOptions v1;
  v1.use_cdf2 = false;
  ASSERT_TRUE(CopyDataset(fs, "src.nc", "v1.nc", v1).ok());
  auto out = netcdf::Dataset::Open(fs, "v1.nc", false).value();
  EXPECT_EQ(out.header().version, 1);
  auto src = netcdf::Dataset::Open(fs, "src.nc", false).value();
  EXPECT_TRUE(CompareDatasets(src, out).value().equal);
}

TEST(Copy, MissingSourceFails) {
  pfs::FileSystem fs;
  EXPECT_FALSE(CopyDataset(fs, "nope.nc", "out.nc").ok());
}

// A dataset on disk that was synced but never closed: the primary's own
// numrecs field still holds EndDef's count, the journal beside it the
// synced one. AttachDiskDataset attaches both, so the tools read the synced
// record; the primary alone shows the count of its last Close.
TEST(AttachDiskDataset, ReadersSeeTheSyncedCountOfAnUnclosedFile) {
  const std::filesystem::path dir =
      std::filesystem::current_path() / "attach_disk_dataset";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "g.nc").string();
  const std::string jpath = ncformat::JournalPath(path);
  const std::vector<float> row = {1.5f, 2.5f, 3.5f, 4.5f};
  {
    pfs::FileSystem fs;
    ASSERT_TRUE(fs.CreateOnDisk(path, path).ok());
    ASSERT_TRUE(fs.CreateOnDisk(jpath, jpath).ok());
    auto ds = netcdf::Dataset::Create(fs, path).value();
    const int t = ds.DefDim("time", netcdf::kUnlimited).value();
    const int x = ds.DefDim("x", 4).value();
    const int v = ds.DefVar("series", NcType::kFloat, {t, x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    const std::uint64_t st[] = {0, 0};
    const std::uint64_t ct[] = {1, 4};
    ASSERT_TRUE(ds.PutVara<float>(v, st, ct, row).ok());
    ASSERT_TRUE(ds.Sync().ok());
  }  // dropped without a Close
  {
    pfs::FileSystem fs;
    ASSERT_TRUE(AttachDiskDataset(fs, path).ok());
    auto ds = netcdf::Dataset::Open(fs, path, false);
    ASSERT_TRUE(ds.ok()) << ds.status().message();
    ASSERT_EQ(ds.value().numrecs(), 1u);
    std::vector<float> got(4);
    ASSERT_TRUE(ds.value().GetVar<float>(0, got).ok());
    EXPECT_EQ(got, row);
  }
  {
    pfs::FileSystem fs;
    ASSERT_TRUE(fs.AttachDisk(path, path).ok());
    EXPECT_EQ(netcdf::Dataset::Open(fs, path, false).value().numrecs(), 0u);
  }
  // With no journal beside it, the primary alone is attached.
  std::filesystem::remove(jpath);
  pfs::FileSystem fs;
  ASSERT_TRUE(AttachDiskDataset(fs, path).ok());
  EXPECT_TRUE(fs.Exists(path));
  EXPECT_FALSE(fs.Exists(jpath));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nctools
