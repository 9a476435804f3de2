// Failure injection and robustness: corrupted files are rejected gracefully
// (on every rank), truncation is detected, oversized/garbage metadata cannot
// crash the readers, and the buffered I/O layer stays coherent.
#include <gtest/gtest.h>

#include "format/header_io.hpp"
#include "hdf5lite/h5file.hpp"
#include "netcdf/buffered_file.hpp"
#include "netcdf/dataset.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace {

using ncformat::NcType;
using pnc_test::CorruptByte;
using pnc_test::MakeValidFile;

TEST(Corruption, BadMagicRejectedBySerialOpen) {
  pfs::FileSystem fs;
  MakeValidFile(fs, "f.nc");
  pnc_test::DropJournal(fs, "f.nc");  // corruption sans journal: must reject
  CorruptByte(fs, "f.nc", 0, std::byte{'X'});
  auto r = netcdf::Dataset::Open(fs, "f.nc", false);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), pnc::Err::kNotNc);
}

TEST(Corruption, BadVersionRejected) {
  pfs::FileSystem fs;
  MakeValidFile(fs, "f.nc");
  pnc_test::DropJournal(fs, "f.nc");  // corruption sans journal: must reject
  CorruptByte(fs, "f.nc", 3, std::byte{9});
  EXPECT_FALSE(netcdf::Dataset::Open(fs, "f.nc", false).ok());
}

TEST(Corruption, GarbageListTagRejected) {
  pfs::FileSystem fs;
  MakeValidFile(fs, "f.nc");
  pnc_test::DropJournal(fs, "f.nc");  // corruption sans journal: must reject
  // The dim_list tag lives at offset 8; stomp it with a bogus tag value.
  CorruptByte(fs, "f.nc", 11, std::byte{0x77});
  EXPECT_FALSE(netcdf::Dataset::Open(fs, "f.nc", false).ok());
}

TEST(Corruption, ParallelOpenFailsOnAllRanks) {
  pfs::FileSystem fs;
  MakeValidFile(fs, "f.nc");
  pnc_test::DropJournal(fs, "f.nc");  // corruption sans journal: must reject
  CorruptByte(fs, "f.nc", 0, std::byte{0});
  simmpi::Run(4, [&](simmpi::Comm& c) {
    auto r = pnetcdf::Dataset::Open(c, fs, "f.nc", false, simmpi::NullInfo());
    EXPECT_FALSE(r.ok());
    // Every rank gets the same (broadcast) verdict — nobody hangs.
    EXPECT_EQ(r.status().code(), pnc::Err::kNotNc);
  });
}

TEST(Corruption, TruncatedFileDetected) {
  pfs::FileSystem fs;
  MakeValidFile(fs, "f.nc");
  pnc_test::DropJournal(fs, "f.nc");  // corruption sans journal: must reject
  auto f = fs.Open(fs.Open("f.nc").value().path()).value();
  f.Truncate(10);  // keep the magic, cut the rest of the header
  auto r = netcdf::Dataset::Open(fs, "f.nc", false);
  ASSERT_FALSE(r.ok());
}

TEST(Corruption, InsaneCountsRejectedNotAllocated) {
  // A header claiming 2^31-ish dims must fail cleanly, not OOM: the name
  // decode hits the buffer bound first.
  pfs::FileSystem fs;
  auto f = fs.Create("evil.nc", false).value();
  std::vector<std::byte> evil;
  pnc::xdr::Encoder enc(evil);
  enc.PutU8('C');
  enc.PutU8('D');
  enc.PutU8('F');
  enc.PutU8(1);
  enc.PutU32(0);           // numrecs
  enc.PutI32(0x0A);        // dim tag
  enc.PutI32(0x7FFFFFFF);  // preposterous count
  f.HarnessWrite(0, evil, 0.0);
  auto r = netcdf::Dataset::Open(fs, "evil.nc", false);
  ASSERT_FALSE(r.ok());
}

TEST(Corruption, Hdf5liteBadSuperblock) {
  pfs::FileSystem fs;
  simmpi::Run(2, [&](simmpi::Comm& c) {
    auto f = hdf5lite::File::Create(c, fs, "x.h5l", simmpi::NullInfo()).value();
    const std::uint64_t dims[] = {4};
    auto ds = f.CreateDataset("d", NcType::kInt, dims).value();
    ASSERT_TRUE(ds.Close().ok());
    ASSERT_TRUE(f.Close().ok());
  });
  CorruptByte(fs, "x.h5l", 0, std::byte{0});
  simmpi::Run(2, [&](simmpi::Comm& c) {
    EXPECT_FALSE(
        hdf5lite::File::Open(c, fs, "x.h5l", false, simmpi::NullInfo()).ok());
  });
}

TEST(HeaderIo, GrowingPrefixReadConverges) {
  // A header larger than the initial 8 KiB probe must still decode.
  pfs::FileSystem fs;
  auto ds = netcdf::Dataset::Create(fs, "big.nc").value();
  const int x = ds.DefDim("x", 2).value();
  for (int v = 0; v < 600; ++v)
    (void)ds.DefVar("variable_with_a_long_name_" + std::to_string(v),
                    NcType::kInt, {x});
  ASSERT_TRUE(ds.EndDef().ok());
  ASSERT_TRUE(ds.Close().ok());
  ASSERT_GT(ds.header().EncodedSize(), 8u * 1024);

  auto rd = netcdf::Dataset::Open(fs, "big.nc", false);
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(rd.value().nvars(), 600);

  // And through the parallel open path (root reads + broadcast).
  simmpi::Run(3, [&](simmpi::Comm& c) {
    auto p = pnetcdf::Dataset::Open(c, fs, "big.nc", false, simmpi::NullInfo());
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.value().nvars(), 600);
  });
}

TEST(BufferedFile, CoherentAcrossFlushBoundaries) {
  pfs::FileSystem fs;
  auto file = fs.Create("b.dat", false).value();
  simmpi::VirtualClock clock;
  netcdf::BufferedFile io(file, &clock, /*buffer_size=*/4096);

  pnc::SplitMix64 rng(99);
  std::vector<std::byte> ref(20000);
  for (auto& b : ref) b = static_cast<std::byte>(rng.Next());

  // Write in odd-sized slices that straddle block boundaries.
  std::size_t pos = 0;
  while (pos < ref.size()) {
    const std::size_t n = std::min<std::size_t>(37 + pos % 991, ref.size() - pos);
    ASSERT_TRUE(io.WriteAt(pos, pnc::ConstByteSpan(ref.data() + pos, n)).ok());
    pos += n;
  }
  // Read back through the same buffered handle in different odd slices.
  std::vector<std::byte> got(ref.size());
  pos = 0;
  while (pos < got.size()) {
    const std::size_t n = std::min<std::size_t>(53 + pos % 613, got.size() - pos);
    ASSERT_TRUE(io.ReadAt(pos, pnc::ByteSpan(got.data() + pos, n)).ok());
    pos += n;
  }
  EXPECT_EQ(got, ref);

  // After Flush, an unbuffered reader sees everything.
  ASSERT_TRUE(io.Flush().ok());
  std::vector<std::byte> raw(ref.size());
  auto f2 = fs.Open("b.dat").value();
  f2.HarnessRead(0, raw, 0.0);
  EXPECT_EQ(raw, ref);
}

TEST(BufferedFile, LargeRequestsChunkedAtBufferSize) {
  pfs::FileSystem fs;
  auto file = fs.Create("c.dat", false).value();
  simmpi::VirtualClock clock;
  netcdf::BufferedFile io(file, &clock, /*buffer_size=*/4096);
  std::vector<std::byte> big(64 * 1024, std::byte{0x5C});
  fs.ResetStats();
  ASSERT_TRUE(io.WriteAt(0, big).ok());
  // 64 KiB at 4 KiB per request = 16 requests: the serial library's
  // user-space buffering granularity (its Figure 6 handicap).
  EXPECT_EQ(fs.stats().write_requests, 16u);
}

TEST(BufferedFile, ReadModifyWriteWithinBlock) {
  pfs::FileSystem fs;
  auto file = fs.Create("d.dat", false).value();
  {
    std::vector<std::byte> bg(8192, std::byte{0xAB});
    file.HarnessWrite(0, bg, 0.0);
  }
  simmpi::VirtualClock clock;
  netcdf::BufferedFile io(file, &clock, 4096);
  const std::byte patch[] = {std::byte{1}, std::byte{2}, std::byte{3}};
  ASSERT_TRUE(io.WriteAt(100, pnc::ConstByteSpan(patch, 3)).ok());
  ASSERT_TRUE(io.Flush().ok());
  std::vector<std::byte> out(8192);
  file.HarnessRead(0, out, 0.0);
  EXPECT_EQ(out[99], std::byte{0xAB});
  EXPECT_EQ(out[100], std::byte{1});
  EXPECT_EQ(out[102], std::byte{3});
  EXPECT_EQ(out[103], std::byte{0xAB});
}

// A rank with nothing to write still joins the collective put, with an
// empty (null-data) buffer. For one-byte types the encoder copies the
// buffer as-is, and it must not hand the null pointer to memcpy.
TEST(ZeroCount, CharAndSCharCollectivePutsWithEmptyBuffers) {
  pfs::FileSystem fs;
  simmpi::Run(3, [&](simmpi::Comm& c) {
    auto ds = pnetcdf::Dataset::Create(c, fs, "z.nc", simmpi::NullInfo())
                  .value();
    const int x = ds.DefDim("x", 8).value();
    const int vc = ds.DefVar("c", NcType::kChar, {x}).value();
    const int vs = ds.DefVar("s", NcType::kByte, {x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    // Rank 1 writes nothing; ranks 0 and 2 write the two halves.
    const std::uint64_t lo = c.rank() == 2 ? 4 : 0;
    const std::uint64_t n = c.rank() == 1 ? 0 : 4;
    const std::vector<char> text(n, static_cast<char>('a' + c.rank()));
    const std::vector<signed char> bytes(n,
                                         static_cast<signed char>(c.rank()));
    const std::uint64_t st[] = {lo};
    const std::uint64_t ct[] = {n};
    ASSERT_TRUE(ds.PutVaraAll<char>(vc, st, ct, text).ok());
    ASSERT_TRUE(ds.PutVaraAll<signed char>(vs, st, ct, bytes).ok());
    std::vector<char> none;
    const std::uint64_t zero[] = {0};
    ASSERT_TRUE(ds.PutVaraAll<char>(vc, st, zero, none).ok());
    ASSERT_TRUE(ds.Close().ok());
  });
  auto rd = netcdf::Dataset::Open(fs, "z.nc", false).value();
  std::vector<char> text(8);
  ASSERT_TRUE(rd.GetVar<char>(rd.VarId("c").value(), text).ok());
  EXPECT_EQ(std::string(text.begin(), text.end()), "aaaacccc");
  std::vector<signed char> bytes(8);
  ASSERT_TRUE(rd.GetVar<signed char>(rd.VarId("s").value(), bytes).ok());
  EXPECT_EQ(bytes, (std::vector<signed char>{0, 0, 0, 0, 2, 2, 2, 2}));
}

TEST(Discard, TimingPreservedWithoutStorage) {
  // discard_data must not change completion times, only storage.
  pfs::Config a, b;
  b.discard_data = true;
  pfs::FileSystem fs_a(a), fs_b(b);
  auto fa = fs_a.Create("t", false).value();
  auto fb = fs_b.Create("t", false).value();
  std::vector<std::byte> data(1 << 20, std::byte{7});
  const double ta = fa.HarnessWrite(12345, data, 0.0);
  const double tb = fb.HarnessWrite(12345, data, 0.0);
  EXPECT_DOUBLE_EQ(ta, tb);
  EXPECT_EQ(fa.size(), fb.size());
  EXPECT_EQ(fs_b.stats().bytes_written, data.size());
}

}  // namespace
