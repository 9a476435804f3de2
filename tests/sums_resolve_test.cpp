// Chunk sums built from written bytes (format/sums.hpp): the CRC kernel,
// fragment recording and resolution, and an equivalence oracle.
//
// Every data write records the CRC of the bytes it sent, per chunk, and a
// Sync/Close combines those fragments into the chunk's committed sum instead
// of reading the file back. The oracle below checks, after each scenario,
// that the committed table is exactly what a recompute from the file bytes
// (ncformat::RecomputeSums / ScrubData) gives, and that the scenarios whose
// fragments tile their chunks read nothing at all during Sync and Close.
// Scenarios that cannot tile (overlapping rewrites, overlapping sieve
// windows, a relayout) must still match the oracle through a fallback read.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "format/pfs_io.hpp"
#include "format/header.hpp"
#include "format/sums.hpp"
#include "mpiio/file.hpp"
#include "netcdf/dataset.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"
#include "test_support.hpp"
#include "tools/verify.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace {

using ncformat::ChunkSum;
using ncformat::ChunkSumMap;
using ncformat::NcType;
using simmpi::Comm;

using pnc_test::CommittedSums;
using pnc_test::EnvGuard;

// ------------------------------------------------------------ CRC kernel

/// The byte-at-a-time loop the slicing kernel replaced: the reference.
std::uint32_t Crc32Bytewise(pnc::ConstByteSpan data, std::uint32_t crc = 0) {
  crc = ~crc;
  for (const std::byte b : data)
    crc = pnc::detail::kCrc32Tables[0][(crc ^ static_cast<std::uint32_t>(b)) &
                                       0xFFu] ^
          (crc >> 8);
  return ~crc;
}

std::vector<std::byte> RandomBytes(std::size_t n, std::uint64_t seed) {
  pnc::SplitMix64 rng(seed);
  std::vector<std::byte> b(n);
  for (auto& x : b) x = static_cast<std::byte>(rng.Next() & 0xFF);
  return b;
}

TEST(Crc32, KnownVector) {
  const char* s = "123456789";
  EXPECT_EQ(pnc::Crc32(pnc::ConstByteSpan(
                reinterpret_cast<const std::byte*>(s), 9)),
            0xCBF43926u);
  EXPECT_EQ(pnc::Crc32({}), 0u);
}

// Slicing-by-8 is bit-identical to the bytewise loop for every length in
// 0..64, for random lengths up to 70000, at every start alignment 0..7, and
// when fed incrementally.
TEST(Crc32, SlicingMatchesBytewiseAtEveryAlignment) {
  const std::vector<std::byte> buf = RandomBytes(70000 + 8, 7);
  std::vector<std::size_t> lens;
  for (std::size_t n = 0; n <= 64; ++n) lens.push_back(n);
  pnc::SplitMix64 rng(11);
  for (int i = 0; i < 200; ++i) lens.push_back(rng.Next() % 70001);
  lens.push_back(70000);
  for (const std::size_t n : lens) {
    for (std::size_t align = 0; align < 8; ++align) {
      const pnc::ConstByteSpan s(buf.data() + align, n);
      ASSERT_EQ(pnc::Crc32(s), Crc32Bytewise(s)) << n << " @" << align;
      const std::size_t cut = n / 3;
      ASSERT_EQ(pnc::Crc32(s.subspan(cut), pnc::Crc32(s.first(cut))),
                Crc32Bytewise(s))
          << "incremental " << n << " @" << align;
    }
  }
}

TEST(Crc32, CombineEqualsCrcOfConcatenation) {
  const std::vector<std::byte> buf = RandomBytes(200000, 3);
  pnc::SplitMix64 rng(5);
  for (int i = 0; i < 300; ++i) {
    const std::size_t a = rng.Next() % 100000;
    const std::size_t b = i < 20 ? static_cast<std::size_t>(i)
                                 : rng.Next() % 100000;
    const pnc::ConstByteSpan A(buf.data(), a), B(buf.data() + a, b);
    ASSERT_EQ(pnc::Crc32Combine(pnc::Crc32(A), pnc::Crc32(B), b),
              pnc::Crc32(pnc::ConstByteSpan(buf.data(), a + b)))
        << a << "+" << b;
  }
}

TEST(Crc32, OfZerosMatchesMaterializedZeros) {
  const std::vector<std::byte> zeros(70000, std::byte{0});
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 4096u, 65536u, 65537u,
                              70000u}) {
    EXPECT_EQ(pnc::Crc32OfZeros(n),
              pnc::Crc32(pnc::ConstByteSpan(zeros.data(), n)))
        << n;
  }
}

// ------------------------------------------------- fragments, unit level

constexpr std::uint64_t kDb = 100;  // data_begin of the unit-level maps
constexpr std::uint64_t kCs = 4096;

/// A file image plus a reader over it that counts the bytes it serves.
struct Image {
  std::vector<std::byte> bytes;
  std::uint64_t read_bytes = 0;
  ncformat::RawRead Reader() {
    return [this](std::uint64_t off, pnc::ByteSpan out) {
      std::memcpy(out.data(), bytes.data() + off, out.size());
      read_bytes += out.size();
      return pnc::Status::Ok();
    };
  }
  /// Write `n` random bytes at `off` into the image and record them.
  void Write(ChunkSumMap& m, std::uint64_t off, std::uint64_t n,
             std::uint64_t seed) {
    const std::vector<std::byte> d = RandomBytes(n, seed);
    if (bytes.size() < off + n) bytes.resize(off + n);
    std::memcpy(bytes.data() + off, d.data(), n);
    m.RecordWrite(off, d);
  }
};

ChunkSumMap NewMap() {
  ChunkSumMap m;
  m.SetGeometry(kCs, kDb);
  return m;
}

/// Every entry equals the CRC of the image bytes it covers.
void ExpectEntriesMatch(const ChunkSumMap& m, const Image& img) {
  for (const auto& [c, sum] : m.entries()) {
    const std::uint64_t start = m.ChunkStart(c);
    ASSERT_LE(start + sum.len, img.bytes.size()) << "chunk " << c;
    EXPECT_EQ(sum.len, std::min<std::uint64_t>(kCs, img.bytes.size() - start))
        << "chunk " << c;
    EXPECT_EQ(sum.crc, pnc::Crc32(pnc::ConstByteSpan(
                           img.bytes.data() + start, sum.len)))
        << "chunk " << c;
  }
}

TEST(ChunkFragments, TilingWritesResolveWithoutReading) {
  ChunkSumMap m = NewMap();
  Image img;
  img.bytes.resize(kDb);
  // Out of order, unaligned, spanning chunk boundaries, ending mid-chunk.
  img.Write(m, kDb + 5000, 7000, 1);
  img.Write(m, kDb, 5000, 2);
  img.Write(m, kDb + 12000, 123, 3);
  img.Write(m, 0, kDb, 4);  // header bytes: ignored by the map
  ASSERT_TRUE(m.ResolveDirty(img.bytes.size(), img.Reader()).ok());
  EXPECT_EQ(img.read_bytes, 0u);
  EXPECT_EQ(m.entries().size(), 3u);
  EXPECT_TRUE(m.dirty().empty());
  ExpectEntriesMatch(m, img);
}

TEST(ChunkFragments, AppendsCombineWithCommittedPrefix) {
  ChunkSumMap m = NewMap();
  Image img;
  img.bytes.resize(kDb);
  img.Write(m, kDb, 1000, 1);
  ASSERT_TRUE(m.ResolveDirty(img.bytes.size(), img.Reader()).ok());
  for (std::uint64_t step = 0; step < 6; ++step) {
    img.Write(m, img.bytes.size(), 1500, 10 + step);  // crosses chunk ends
    ASSERT_TRUE(m.ResolveDirty(img.bytes.size(), img.Reader()).ok());
  }
  EXPECT_EQ(img.read_bytes, 0u);
  ExpectEntriesMatch(m, img);
}

TEST(ChunkFragments, OverlapsHolesAndMarksFallBackToOneChunkRead) {
  ChunkSumMap m = NewMap();
  Image img;
  img.bytes.resize(kDb);
  img.Write(m, kDb, 4 * kCs, 1);
  ASSERT_TRUE(m.ResolveDirty(img.bytes.size(), img.Reader()).ok());
  img.read_bytes = 0;
  img.Write(m, kDb + 10, 20, 2);             // chunk 0: rewrite inside prefix
  img.Write(m, kDb + kCs, kCs, 3);           // chunk 1: clean full rewrite
  img.Write(m, kDb + 2 * kCs, 100, 4);       // chunk 2: overlapping pair
  img.Write(m, kDb + 2 * kCs + 50, 100, 5);
  m.MarkDirtyRange(kDb + 3 * kCs + 7, 1);    // chunk 3: fragment-less mark
  ASSERT_TRUE(m.ResolveDirty(img.bytes.size(), img.Reader()).ok());
  EXPECT_EQ(img.read_bytes, 3 * kCs);  // chunks 0, 2 and 3, nothing else
  ExpectEntriesMatch(m, img);
}

TEST(ChunkFragments, DiscardedWritesSumAsZeros) {
  ChunkSumMap m = NewMap();
  m.RecordWrite(kDb, std::vector<std::byte>(kCs + 10, std::byte{0x5A}),
                /*discarded=*/true);
  Image img;
  img.bytes.assign(kDb + kCs + 10, std::byte{0});
  ASSERT_TRUE(m.ResolveDirty(img.bytes.size(), img.Reader()).ok());
  EXPECT_EQ(img.read_bytes, 0u);
  ExpectEntriesMatch(m, img);
}

// The flat blob the parallel flush gathers reproduces the dirty state: two
// "ranks" each writing half of a chunk resolve on a third map as one.
TEST(ChunkFragments, EncodeMergeAcrossRanks) {
  ChunkSumMap a = NewMap(), b = NewMap(), root = NewMap();
  Image img;
  img.bytes.resize(kDb);
  img.Write(a, kDb, 3000, 1);
  img.Write(b, kDb + 3000, kCs, 2);
  img.Write(a, kDb + 3000 + kCs, kCs - 3000, 3);
  b.MarkDirtyRange(kDb + 2 * kCs, 1);  // chunk 2: marked by b only
  root.MergeDirty(a.EncodeDirty());
  root.MergeDirty(b.EncodeDirty());
  ASSERT_EQ(root.dirty().size(), 3u);
  EXPECT_TRUE(root.dirty().at(2).needs_read);
  img.bytes.resize(kDb + 3 * kCs);
  ASSERT_TRUE(root.ResolveDirty(img.bytes.size(), img.Reader()).ok());
  EXPECT_EQ(img.read_bytes, kCs);  // only the marked chunk
  ExpectEntriesMatch(root, img);
}

// ------------------------------------------------ verified reads, unit level

/// A file image whose reader logs every request it serves, and can flip one
/// bit of the byte at `flip_at` in the next `transient_flips` requests that
/// cover it (a read-side flip: the image itself stays intact).
struct LoggedImage {
  std::vector<std::byte> bytes;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> requests;  ///< [off, end)
  std::uint64_t flip_at = ~0ull;
  int transient_flips = 0;
  ncformat::RawRead Reader() {
    return [this](std::uint64_t off, pnc::ByteSpan out) {
      std::memcpy(out.data(), bytes.data() + off, out.size());
      requests.emplace_back(off, off + out.size());
      if (transient_flips > 0 && flip_at >= off && flip_at < off + out.size()) {
        out[flip_at - off] ^= std::byte{0x10};
        --transient_flips;
      }
      return pnc::Status::Ok();
    };
  }
};

/// `data_bytes` random bytes after a kDb-byte header, with every chunk of
/// size `chunk` summed as a closing commit would leave it.
LoggedImage SummedImage(std::uint64_t data_bytes, ChunkSumMap& m,
                        std::uint64_t chunk = kCs) {
  LoggedImage img;
  img.bytes = RandomBytes(kDb + data_bytes, 5);
  m = ncformat::RecomputeSums(chunk, kDb, img.bytes.size(), img.Reader())
          .value();
  img.requests.clear();
  return img;
}

/// VerifiedRead of [off, end) over `img`; the bytes must equal the image's.
pnc::Status ReadRange(const ChunkSumMap& m, LoggedImage& img,
                      std::uint64_t off, std::uint64_t end,
                      std::uint64_t file_size = 0) {
  std::vector<std::byte> out(end - off);
  const pnc::Status st = ncformat::VerifiedRead(
      m, off, pnc::ByteSpan(out),
      file_size != 0 ? file_size : img.bytes.size(), img.Reader(),
      /*heal_attempts=*/4, 0.0);
  if (st.ok()) {
    EXPECT_EQ(0, std::memcmp(out.data(), img.bytes.data() + off, out.size()))
        << "wrong bytes for [" << off << ", " << end << ")";
  }
  return st;
}

using Req = std::pair<std::uint64_t, std::uint64_t>;
using Reqs = std::vector<Req>;

// A range inside one chunk is read as that whole chunk, in one request.
TEST(VerifiedReadCover, RangeInsideOneChunkReadsTheChunk) {
  ChunkSumMap m;
  LoggedImage img = SummedImage(4 * kCs, m);
  ASSERT_TRUE(ReadRange(m, img, kDb + kCs + 10, kDb + kCs + 110).ok());
  EXPECT_EQ(img.requests, (Reqs{{kDb + kCs, kDb + 2 * kCs}}));
}

// A range spanning several chunks widens only at its two ends.
TEST(VerifiedReadCover, StraddlingRangeWidensBothEnds) {
  ChunkSumMap m;
  LoggedImage img = SummedImage(4 * kCs, m);
  ASSERT_TRUE(ReadRange(m, img, kDb + 100, kDb + 3 * kCs - 5).ok());
  EXPECT_EQ(img.requests, (Reqs{{kDb, kDb + 3 * kCs}}));
}

TEST(VerifiedReadCover, ChunkAlignedRangeIsNotWidened) {
  ChunkSumMap m;
  LoggedImage img = SummedImage(4 * kCs, m);
  ASSERT_TRUE(ReadRange(m, img, kDb + kCs, kDb + 3 * kCs).ok());
  EXPECT_EQ(img.requests, (Reqs{{kDb + kCs, kDb + 3 * kCs}}));
}

// Header bytes below data_begin belong to no chunk: the start stays put.
TEST(VerifiedReadCover, RangeFromTheHeaderIsNotWidenedDown) {
  ChunkSumMap m;
  LoggedImage img = SummedImage(4 * kCs, m);
  ASSERT_TRUE(ReadRange(m, img, 40, kDb + 10).ok());
  EXPECT_EQ(img.requests, (Reqs{{40, kDb + kCs}}));
  img.requests.clear();
  ASSERT_TRUE(ReadRange(m, img, 0, kDb).ok());  // header only
  EXPECT_EQ(img.requests, (Reqs{{0, kDb}}));
}

// The tail chunk is summed up to the file's end, so the cover ends there.
TEST(VerifiedReadCover, ShortLastChunkCoversItsSummedExtent) {
  ChunkSumMap m;
  LoggedImage img = SummedImage(3 * kCs + 1000, m);
  ChunkSum tail;
  ASSERT_TRUE(m.Lookup(3, &tail));
  ASSERT_EQ(tail.len, 1000u);
  ASSERT_TRUE(ReadRange(m, img, kDb + 3 * kCs + 10, kDb + 3 * kCs + 30).ok());
  EXPECT_EQ(img.requests, (Reqs{{kDb + 3 * kCs, kDb + 3 * kCs + 1000}}));
}

// A boundary chunk that cannot be verified (dirty this session, or with no
// committed sum) is not widened to; its verifiable neighbour still is.
TEST(VerifiedReadCover, DirtyOrUnsummedBoundaryChunkIsNotWidened) {
  ChunkSumMap m;
  LoggedImage img = SummedImage(4 * kCs, m);
  m.MarkDirtyRange(kDb + kCs + 1, 1);  // chunk 1
  ASSERT_TRUE(ReadRange(m, img, kDb + kCs + 500, kDb + 2 * kCs + 7).ok());
  EXPECT_EQ(img.requests, (Reqs{{kDb + kCs + 500, kDb + 3 * kCs}}));

  ChunkSumMap partial;  // chunk 2 unsummed, chunk 1 summed
  partial.SetGeometry(kCs, kDb);
  ChunkSum s1;
  ASSERT_TRUE(m.Lookup(1, &s1));
  partial.Set(1, s1);
  img.requests.clear();
  ASSERT_TRUE(ReadRange(partial, img, kDb + kCs + 500, kDb + 2 * kCs + 7).ok());
  EXPECT_EQ(img.requests, (Reqs{{kDb + kCs, kDb + 2 * kCs + 7}}));
}

// A summed extent past the file's end describes bytes that are gone: the
// chunk is treated as unsummed, never widened to, never flagged corrupt.
TEST(VerifiedReadCover, SummedExtentPastFileSizeIsNotWidened) {
  ChunkSumMap m;
  LoggedImage img = SummedImage(4 * kCs, m);
  const std::uint64_t short_size = kDb + 2 * kCs + 100;  // truncated file
  ASSERT_TRUE(
      ReadRange(m, img, kDb + 2 * kCs + 10, kDb + 2 * kCs + 50, short_size)
          .ok());
  EXPECT_EQ(img.requests, (Reqs{{kDb + 2 * kCs + 10, kDb + 2 * kCs + 50}}));
  // The chunk before it still widens the start.
  img.requests.clear();
  ASSERT_TRUE(
      ReadRange(m, img, kDb + kCs + 10, kDb + 2 * kCs + 50, short_size).ok());
  EXPECT_EQ(img.requests, (Reqs{{kDb + kCs, kDb + 2 * kCs + 50}}));
}

TEST(VerifiedReadCover, ChunkSizes4KiBAnd16MiB) {
  for (const char* cs : {"4096", "16777216"}) {
    SCOPED_TRACE(std::string("PNC_SUM_CHUNK=") + cs);
    EnvGuard chunk("PNC_SUM_CHUNK", cs);
    const std::uint64_t c = ncformat::SumChunkSize();
    ASSERT_EQ(c, std::strtoull(cs, nullptr, 10));
    ChunkSumMap m;
    LoggedImage img = SummedImage(2 * c + 7, m, c);
    ASSERT_TRUE(ReadRange(m, img, kDb + c / 2, kDb + c + c / 2).ok());
    EXPECT_EQ(img.requests, (Reqs{{kDb, kDb + 2 * c}}));
  }
}

// A transient flip in the cover's slack fails its chunk's CRC like any
// other; the whole-chunk re-read heals it and the caller's bytes are right.
TEST(VerifiedReadCover, FlipInSlackHealsWithOneChunkReread) {
  ChunkSumMap m;
  LoggedImage img = SummedImage(4 * kCs, m);
  img.flip_at = kDb + 2 * kCs + 3000;  // chunk 2, past the range's end
  img.transient_flips = 1;
  ASSERT_TRUE(ReadRange(m, img, kDb + 100, kDb + 2 * kCs + 50).ok());
  EXPECT_EQ(img.requests,
            (Reqs{{kDb, kDb + 3 * kCs}, {kDb + 2 * kCs, kDb + 3 * kCs}}));
}

// The same flip at rest keeps mismatching: kDataCorrupt after the heal
// budget, although the damaged byte lies outside the caller's range.
TEST(VerifiedReadCover, AtRestFlipInSlackSurfacesDataCorrupt) {
  ChunkSumMap m;
  LoggedImage img = SummedImage(4 * kCs, m);
  img.bytes[kDb + 2 * kCs + 3000] ^= std::byte{0x01};
  EXPECT_EQ(ReadRange(m, img, kDb + 100, kDb + 2 * kCs + 50).code(),
            pnc::Err::kDataCorrupt);
  EXPECT_EQ(img.requests.size(), 1u + 4u);  // the cover, then 4 re-reads
}

// ------------------------------------------------- end-to-end oracle

/// Recompute `path`'s table from its bytes (RecomputeSums) and demand the
/// committed one equals it, entry for entry, and that a scrub of the
/// committed table finds nothing corrupt.
void ExpectTableMatchesFile(pfs::FileSystem& fs, const std::string& path) {
  const std::optional<ncformat::ChunkSumMap> got = CommittedSums(fs, path);
  ASSERT_TRUE(got.has_value()) << path << ": table not closed/trusted";
  auto primary = fs.Open(path).value();
  const std::uint64_t fsize = primary.size();
  const ncformat::RawRead raw = [&](std::uint64_t off, pnc::ByteSpan out) {
    primary.HarnessRead(off, out, 0.0);
    return pnc::Status::Ok();
  };
  auto want = ncformat::RecomputeSums(got->chunk_size(), got->data_begin(),
                                      fsize, raw);
  ASSERT_TRUE(want.ok()) << want.status().message();
  EXPECT_EQ(got->entries(), want.value().entries()) << path;
  auto scrub = ncformat::ScrubData(*got, true, fsize, raw).value();
  EXPECT_EQ(scrub.corrupt, 0u) << path;
}

/// Bytes pfs served while `fn` ran on every rank (rank 0 measures; the
/// barriers keep every rank's I/O inside the window).
template <typename Fn>
std::uint64_t BytesReadDuring(Comm& c, pfs::FileSystem& fs, Fn&& fn) {
  c.Barrier();
  if (c.rank() == 0) fs.ResetStats();
  c.Barrier();
  fn();
  c.Barrier();
  const std::uint64_t n = fs.stats().bytes_read;
  c.Barrier();
  return n;
}

// Fig. 5 partitions of tt(Z, Y, X) over 3 and 4 ranks. Primes of the rank
// count are dealt round-robin over the partition's axes.
constexpr std::uint64_t kZ = 12, kY = 24, kX = 24;

void WritePartition(Comm& c, pnetcdf::Dataset& ds, int v, unsigned mask) {
  std::vector<int> primes;
  for (int p = c.size(), f = 2; p > 1;) {
    if (p % f == 0) {
      primes.push_back(f);
      p /= f;
    } else {
      ++f;
    }
  }
  std::uint64_t nf[3] = {1, 1, 1};
  std::vector<int> axes;
  for (int d = 0; d < 3; ++d)
    if (mask & (1u << d)) axes.push_back(d);
  for (std::size_t i = 0; i < primes.size(); ++i)
    nf[axes[i % axes.size()]] *= static_cast<std::uint64_t>(primes[i]);
  const std::uint64_t dims[3] = {kZ, kY, kX};
  std::uint64_t start[3], count[3];
  std::uint64_t rem = static_cast<std::uint64_t>(c.rank());
  for (int d = 0; d < 3; ++d) {
    count[d] = dims[d] / nf[d];
    start[d] = count[d] * (rem % nf[d]);
    rem /= nf[d];
  }
  std::vector<double> mine;
  for (std::uint64_t z = 0; z < count[0]; ++z)
    for (std::uint64_t y = 0; y < count[1]; ++y)
      for (std::uint64_t x = 0; x < count[2]; ++x)
        mine.push_back(static_cast<double>(
            ((start[0] + z) * kY + start[1] + y) * kX + start[2] + x));
  ASSERT_TRUE(ds.PutVaraAll<double>(v, start, count, mine).ok());
}

/// Create tt, write it in `mask`'s partition, Close; returns the bytes read
/// during Close (the flush).
std::uint64_t PartitionRun(pfs::FileSystem& fs, int nprocs, unsigned mask) {
  std::uint64_t read_at_close = 0;
  simmpi::Run(nprocs, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Create(c, fs, "p.nc", simmpi::NullInfo()).value();
    const int z = ds.DefDim("z", kZ).value();
    const int y = ds.DefDim("y", kY).value();
    const int x = ds.DefDim("x", kX).value();
    const int v = ds.DefVar("tt", NcType::kDouble, {z, y, x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    WritePartition(c, ds, v, mask);
    const std::uint64_t n =
        BytesReadDuring(c, fs, [&] { ASSERT_TRUE(ds.Close().ok()); });
    if (c.rank() == 0) read_at_close = n;
  });
  return read_at_close;
}

TEST(SumsOracle, Fig5PartitionsAt3And4Ranks) {
  EnvGuard chunk("PNC_SUM_CHUNK", "4096");  // tt spans 13.5 chunks
  for (const int nprocs : {3, 4}) {
    for (const unsigned mask : {1u, 2u, 4u, 3u, 5u, 6u, 7u}) {
      SCOPED_TRACE(std::to_string(nprocs) + " ranks, mask " +
                   std::to_string(mask));
      pfs::FileSystem fs;
      EXPECT_EQ(PartitionRun(fs, nprocs, mask), 0u);
      ExpectTableMatchesFile(fs, "p.nc");
    }
  }
}

TEST(SumsOracle, ChunkSizes4KiBAnd16MiB) {
  for (const char* cs : {"4096", "16777216"}) {
    SCOPED_TRACE(std::string("PNC_SUM_CHUNK=") + cs);
    EnvGuard chunk("PNC_SUM_CHUNK", cs);
    pfs::FileSystem fs;
    EXPECT_EQ(PartitionRun(fs, 4, 7u), 0u);
    ExpectTableMatchesFile(fs, "p.nc");
    EXPECT_EQ(CommittedSums(fs, "p.nc").value().chunk_size(),
              std::strtoull(cs, nullptr, 10));
  }
}

// Benchmark mode: the store keeps nothing and reads return zeros, so the
// fragments are CRCs of zeros and must equal what a read-back of the (zero)
// file commits. The journal is discarded too, so the tables are compared
// at the mpiio funnel: fragments recorded by 4 ranks' collective writes
// against a forced read-back of every chunk.
TEST(SumsOracle, DiscardDataSumsZeros) {
  EnvGuard chunk("PNC_SUM_CHUNK", "4096");
  pfs::Config cfg;
  cfg.discard_data = true;
  pfs::FileSystem fs(cfg);
  EXPECT_EQ(PartitionRun(fs, 4, 6u), 0u);  // and the flush reads nothing

  std::vector<std::vector<std::byte>> blobs(4);
  simmpi::Run(4, [&](Comm& c) {
    auto f = mpiio::File::Open(c, fs, "z.bin", mpiio::kCreate | mpiio::kRdWr,
                               simmpi::NullInfo())
                 .value();
    ChunkSumMap m = NewMap();
    f.AttachSums(&m, /*verify=*/false);
    const std::vector<std::byte> mine = RandomBytes(5000, 20 + c.rank());
    const std::uint64_t off = kDb + 5000 * static_cast<std::uint64_t>(c.rank());
    ASSERT_TRUE(f.WriteAtAll(off, mine.data(), mine.size(), simmpi::ByteType())
                    .ok());
    blobs[static_cast<std::size_t>(c.rank())] = m.EncodeDirty();
    ASSERT_TRUE(f.Close().ok());
  });
  auto file = fs.Open("z.bin").value();
  const std::uint64_t fsize = file.size();
  ASSERT_EQ(fsize, kDb + 4 * 5000);
  Image zeros;
  zeros.bytes.assign(fsize, std::byte{0});
  ChunkSumMap from_frags = NewMap(), from_file = NewMap();
  for (const auto& b : blobs) from_frags.MergeDirty(b);
  ASSERT_TRUE(from_frags.ResolveDirty(fsize, zeros.Reader()).ok());
  EXPECT_EQ(zeros.read_bytes, 0u);
  from_file.MarkDirtyRange(kDb, fsize - kDb);
  ASSERT_TRUE(from_file
                  .ResolveDirty(fsize,
                                [&](std::uint64_t o, pnc::ByteSpan out) {
                                  file.HarnessRead(o, out, 0.0);
                                  return pnc::Status::Ok();
                                })
                  .ok());
  EXPECT_EQ(from_frags.entries(), from_file.entries());
  EXPECT_EQ(from_file.entries().size(), 5u);
}

/// Two interleaved record variables, 4 ranks, one record per step with a
/// Sync after each. Record slices (2 x 4000 B) straddle 4 KiB chunks.
constexpr std::uint64_t kRecX = 1000;

void AppendRecords(Comm& c, pnetcdf::Dataset& ds, std::uint64_t from,
                   std::uint64_t to, pfs::FileSystem& fs,
                   std::uint64_t* read_at_sync) {
  const std::uint64_t part = kRecX / static_cast<std::uint64_t>(c.size());
  const std::uint64_t x0 = part * static_cast<std::uint64_t>(c.rank());
  for (std::uint64_t rec = from; rec < to; ++rec) {
    for (int v = 0; v < 2; ++v) {
      std::vector<std::int32_t> mine(part);
      for (std::uint64_t i = 0; i < part; ++i)
        mine[i] = static_cast<std::int32_t>(rec * 100000 + v * 10000 + x0 + i);
      const std::uint64_t st[] = {rec, x0};
      const std::uint64_t ct[] = {1, part};
      ASSERT_TRUE(ds.PutVaraAll<std::int32_t>(v, st, ct, mine).ok());
    }
    *read_at_sync +=
        BytesReadDuring(c, fs, [&] { ASSERT_TRUE(ds.Sync().ok()); });
  }
}

pnetcdf::Dataset CreateRecords(Comm& c, pfs::FileSystem& fs) {
  auto ds =
      pnetcdf::Dataset::Create(c, fs, "rec.nc", simmpi::NullInfo()).value();
  const int t = ds.DefDim("time", pnetcdf::kUnlimited).value();
  const int x = ds.DefDim("x", kRecX).value();
  EXPECT_TRUE(ds.DefVar("a", NcType::kInt, {t, x}).ok());
  EXPECT_TRUE(ds.DefVar("b", NcType::kInt, {t, x}).ok());
  EXPECT_TRUE(ds.EndDef().ok());
  return ds;
}

TEST(SumsOracle, RecordAppendsWithSyncPerStep) {
  EnvGuard chunk("PNC_SUM_CHUNK", "4096");
  pfs::FileSystem fs;
  std::uint64_t read_at_sync = 0, read_at_close = 0;
  simmpi::Run(4, [&](Comm& c) {
    auto ds = CreateRecords(c, fs);
    std::uint64_t mine = 0;
    AppendRecords(c, ds, 0, 6, fs, &mine);
    const std::uint64_t n =
        BytesReadDuring(c, fs, [&] { ASSERT_TRUE(ds.Close().ok()); });
    if (c.rank() == 0) {
      read_at_sync = mine;
      read_at_close = n;
    }
  });
  EXPECT_EQ(read_at_sync, 0u);
  EXPECT_EQ(read_at_close, 0u);
  ExpectTableMatchesFile(fs, "rec.nc");
}

// A second session appends after the first one's committed tail chunk: the
// committed prefix entry plus the new fragments tile it, no read needed.
TEST(SumsOracle, ReopenAndAppendUsesCommittedPrefix) {
  EnvGuard chunk("PNC_SUM_CHUNK", "4096");
  pfs::FileSystem fs;
  simmpi::Run(4, [&](Comm& c) {
    auto ds = CreateRecords(c, fs);
    std::uint64_t ignored = 0;
    AppendRecords(c, ds, 0, 3, fs, &ignored);
    ASSERT_TRUE(ds.Close().ok());
  });
  std::uint64_t read_during = 0;
  simmpi::Run(4, [&](Comm& c) {
    auto ds = pnetcdf::Dataset::Open(c, fs, "rec.nc", /*writable=*/true,
                                     simmpi::NullInfo())
                  .value();
    std::uint64_t mine = 0;
    AppendRecords(c, ds, 3, 5, fs, &mine);
    mine += BytesReadDuring(c, fs, [&] { ASSERT_TRUE(ds.Close().ok()); });
    if (c.rank() == 0) read_during = mine;
  });
  EXPECT_EQ(read_during, 0u);
  ExpectTableMatchesFile(fs, "rec.nc");
}

TEST(SumsOracle, SerialRecordAppendsAndReopen) {
  EnvGuard chunk("PNC_SUM_CHUNK", "4096");
  pfs::FileSystem fs;
  const auto put_records = [&fs](netcdf::Dataset& ds, std::uint64_t from,
                              std::uint64_t to) {
    for (std::uint64_t rec = from; rec < to; ++rec) {
      std::vector<std::int32_t> row(kRecX);
      for (std::uint64_t i = 0; i < kRecX; ++i)
        row[i] = static_cast<std::int32_t>(rec * 1000 + i);
      const std::uint64_t st[] = {rec, 0};
      const std::uint64_t ct[] = {1, kRecX};
      ASSERT_TRUE(ds.PutVara<std::int32_t>(0, st, ct, row).ok());
      fs.ResetStats();
      ASSERT_TRUE(ds.Sync().ok());
      EXPECT_EQ(fs.stats().bytes_read, 0u) << "record " << rec;
    }
  };
  {
    auto ds = netcdf::Dataset::Create(fs, "s.nc").value();
    const int t = ds.DefDim("time", netcdf::kUnlimited).value();
    const int x = ds.DefDim("x", kRecX).value();
    ASSERT_TRUE(ds.DefVar("a", NcType::kInt, {t, x}).ok());
    ASSERT_TRUE(ds.EndDef().ok());
    put_records(ds, 0, 4);
    ASSERT_TRUE(ds.Close().ok());
  }
  ExpectTableMatchesFile(fs, "s.nc");
  {
    auto ds = netcdf::Dataset::Open(fs, "s.nc", /*writable=*/true).value();
    put_records(ds, 4, 7);
    fs.ResetStats();
    ASSERT_TRUE(ds.Close().ok());
    EXPECT_EQ(fs.stats().bytes_read, 0u);
  }
  ExpectTableMatchesFile(fs, "s.nc");
}

// A partial tail chunk: 3 chunks and 100 bytes, written by 4 ranks
// independently, tiles without a read.
TEST(SumsOracle, PartialTailChunk) {
  EnvGuard chunk("PNC_SUM_CHUNK", "4096");
  constexpr std::uint64_t kN = 3 * 4096 + 100;
  pfs::FileSystem fs;
  std::uint64_t read_at_close = 0;
  simmpi::Run(4, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Create(c, fs, "t.nc", simmpi::NullInfo()).value();
    const int x = ds.DefDim("x", kN).value();
    const int v = ds.DefVar("d", NcType::kByte, {x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    const std::uint64_t r = static_cast<std::uint64_t>(c.rank());
    const std::uint64_t lo = kN * r / 4, hi = kN * (r + 1) / 4;
    std::vector<signed char> mine(hi - lo, static_cast<signed char>(r + 1));
    ASSERT_TRUE(ds.BeginIndepData().ok());
    const std::uint64_t st[] = {lo};
    const std::uint64_t ct[] = {hi - lo};
    ASSERT_TRUE(ds.PutVara<signed char>(v, st, ct, mine).ok());
    ASSERT_TRUE(ds.EndIndepData().ok());
    const std::uint64_t n =
        BytesReadDuring(c, fs, [&] { ASSERT_TRUE(ds.Close().ok()); });
    if (c.rank() == 0) read_at_close = n;
  });
  EXPECT_EQ(read_at_close, 0u);
  ExpectTableMatchesFile(fs, "t.nc");
  EXPECT_EQ(CommittedSums(fs, "t.nc").value().entries().at(3).len, 100u);
}

// A rank with nothing to write joins each collective put with an empty
// (null-data) char buffer: it records no fragment, the others' fragments
// still tile every chunk, and the committed table matches the file.
TEST(SumsOracle, ZeroCountCharPutsAt3Ranks) {
  EnvGuard chunk("PNC_SUM_CHUNK", "4096");
  constexpr std::uint64_t kN = 3 * 4096 + 100;
  pfs::FileSystem fs;
  std::uint64_t read_at_close = 0;
  simmpi::Run(3, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Create(c, fs, "z.nc", simmpi::NullInfo()).value();
    const int x = ds.DefDim("x", kN).value();
    const int v = ds.DefVar("t", NcType::kChar, {x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    // Rank 1 writes nothing; ranks 0 and 2 write the two halves.
    const std::uint64_t lo = c.rank() == 2 ? kN / 2 : 0;
    const std::uint64_t n = c.rank() == 1 ? 0 : kN / 2;
    const std::vector<char> mine(n, static_cast<char>('a' + c.rank()));
    const std::uint64_t st[] = {lo};
    const std::uint64_t ct[] = {n};
    ASSERT_TRUE(ds.PutVaraAll<char>(v, st, ct, mine).ok());
    const std::uint64_t n0 =
        BytesReadDuring(c, fs, [&] { ASSERT_TRUE(ds.Close().ok()); });
    if (c.rank() == 0) read_at_close = n0;
  });
  EXPECT_EQ(read_at_close, 0u);
  ExpectTableMatchesFile(fs, "z.nc");
}

// Rewriting bytes already written this session overlaps a fragment, and
// two ranks' interleaved sieve windows overlap each other: neither can be
// combined, so the flush reads those chunks and still matches the oracle.
TEST(SumsOracle, OverlappingRewriteFallsBackToRead) {
  EnvGuard chunk("PNC_SUM_CHUNK", "4096");
  constexpr std::uint64_t kN = 5 * 4096;
  pfs::FileSystem fs;
  std::uint64_t read_at_close = 0;
  simmpi::Run(2, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Create(c, fs, "o.nc", simmpi::NullInfo()).value();
    const int x = ds.DefDim("x", kN).value();
    const int v = ds.DefVar("d", NcType::kByte, {x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    const std::uint64_t half = kN / 2;
    const std::uint64_t lo = half * static_cast<std::uint64_t>(c.rank());
    std::vector<signed char> mine(half, 1);
    const std::uint64_t st[] = {lo};
    const std::uint64_t ct[] = {half};
    ASSERT_TRUE(ds.PutVaraAll<signed char>(v, st, ct, mine).ok());
    // Each rank rewrites 10 bytes in the middle of its first chunk.
    std::vector<signed char> again(10, 2);
    const std::uint64_t st2[] = {lo + 100};
    const std::uint64_t ct2[] = {10};
    ASSERT_TRUE(ds.PutVaraAll<signed char>(v, st2, ct2, again).ok());
    const std::uint64_t n =
        BytesReadDuring(c, fs, [&] { ASSERT_TRUE(ds.Close().ok()); });
    if (c.rank() == 0) read_at_close = n;
  });
  EXPECT_GT(read_at_close, 0u);
  ExpectTableMatchesFile(fs, "o.nc");
}

TEST(SumsOracle, OverlappingSieveWindowsFallBackToRead) {
  EnvGuard chunk("PNC_SUM_CHUNK", "4096");
  constexpr std::uint64_t kRows = 32, kCols = 256;
  pfs::FileSystem fs;
  std::uint64_t read_at_close = 0;
  simmpi::Run(2, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Create(c, fs, "v.nc", simmpi::NullInfo()).value();
    const int y = ds.DefDim("y", kRows).value();
    const int x = ds.DefDim("x", kCols).value();
    const int v = ds.DefVar("d", NcType::kByte, {y, x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    // Rank r owns the columns of parity r: both windows span the grid.
    ASSERT_TRUE(ds.BeginIndepData().ok());
    std::vector<signed char> mine(kRows * kCols / 2,
                                  static_cast<signed char>(c.rank() + 3));
    const std::uint64_t st[] = {0, static_cast<std::uint64_t>(c.rank())};
    const std::uint64_t ct[] = {kRows, kCols / 2};
    const std::uint64_t sd[] = {1, 2};
    ASSERT_TRUE(ds.PutVars<signed char>(v, st, ct, sd, mine).ok());
    ASSERT_TRUE(ds.EndIndepData().ok());
    const std::uint64_t n =
        BytesReadDuring(c, fs, [&] { ASSERT_TRUE(ds.Close().ok()); });
    if (c.rank() == 0) read_at_close = n;
  });
  EXPECT_GT(read_at_close, 0u);
  ExpectTableMatchesFile(fs, "v.nc");
}

// Redef with a header that outgrows the data offset moves the data region:
// every old sum is void and the moved bytes are summed again.
TEST(SumsOracle, RedefThatMovesTheDataRegion) {
  EnvGuard chunk("PNC_SUM_CHUNK", "4096");
  const std::string big(6000, 'h');
  {
    pfs::FileSystem fs;
    simmpi::Run(4, [&](Comm& c) {
      auto ds = CreateRecords(c, fs);
      std::uint64_t ignored = 0;
      AppendRecords(c, ds, 0, 2, fs, &ignored);
      ASSERT_TRUE(ds.Close().ok());
    });
    const std::uint64_t db_before =
        CommittedSums(fs, "rec.nc").value().data_begin();
    simmpi::Run(4, [&](Comm& c) {
      auto ds = pnetcdf::Dataset::Open(c, fs, "rec.nc", /*writable=*/true,
                                       simmpi::NullInfo())
                    .value();
      ASSERT_TRUE(ds.Redef().ok());
      ASSERT_TRUE(ds.PutAttText(pnetcdf::kGlobal, "history", big).ok());
      ASSERT_TRUE(ds.EndDef().ok());
      std::uint64_t ignored = 0;
      AppendRecords(c, ds, 2, 3, fs, &ignored);
      ASSERT_TRUE(ds.Close().ok());
    });
    EXPECT_GT(CommittedSums(fs, "rec.nc").value().data_begin(), db_before);
    ExpectTableMatchesFile(fs, "rec.nc");
  }
  {
    pfs::FileSystem fs;
    {
      auto ds = netcdf::Dataset::Create(fs, "s.nc").value();
      const int x = ds.DefDim("x", 3000).value();
      const int v = ds.DefVar("d", NcType::kInt, {x}).value();
      ASSERT_TRUE(ds.EndDef().ok());
      std::vector<std::int32_t> vals(3000);
      for (std::size_t i = 0; i < vals.size(); ++i)
        vals[i] = static_cast<std::int32_t>(i * 7);
      ASSERT_TRUE(ds.PutVar<std::int32_t>(v, vals).ok());
      ASSERT_TRUE(ds.Close().ok());
    }
    {
      auto ds = netcdf::Dataset::Open(fs, "s.nc", /*writable=*/true).value();
      ASSERT_TRUE(ds.Redef().ok());
      ASSERT_TRUE(ds.PutAttText(netcdf::kGlobal, "history", big).ok());
      ASSERT_TRUE(ds.EndDef().ok());
      ASSERT_TRUE(ds.Close().ok());
    }
    ExpectTableMatchesFile(fs, "s.nc");
  }
}

// ------------------------------------------------- failed data writes

/// Byte `i` of the data region of `path`, read through the harness.
std::byte DataByte(pfs::FileSystem& fs, const std::string& path,
                   std::uint64_t i) {
  auto f = fs.Open(path).value();
  std::vector<std::byte> b(f.size());
  f.HarnessRead(0, b, 0.0);
  const auto h = ncformat::Header::Decode(b).value();
  return b[h.vars[0].begin + i];
}

// A data write that fails mid-session (permanently, or after a short
// prefix already landed) leaves its chunks marked with no fragment, so the
// flush sums what is really on disk. The scrub after a read-only reopen
// then reports no corruption the bytes do not justify, and a read returns
// exactly the bytes on disk.
TEST(SumsFailedWrite, FailedWriteNeverLeavesAStaleSum) {
  EnvGuard chunk("PNC_SUM_CHUNK", "4096");
  constexpr std::uint64_t kN = 4 * 4096;
  for (const bool partial : {false, true}) {
    SCOPED_TRACE(partial ? "short prefix then permanent" : "permanent");
    pfs::FileSystem fs;
    pfs::FaultPolicy pol;
    if (partial) {
      pol.short_write_prob = 1.0;  // op 0 lands half, op 1 (resume) fails
      pol.permanent_ops = {1};
    } else {
      pol.permanent_ops = {0};
    }
    simmpi::Run(2, [&](Comm& c) {
      auto ds =
          pnetcdf::Dataset::Create(c, fs, "f.nc", simmpi::NullInfo()).value();
      const int x = ds.DefDim("x", kN).value();
      const int v = ds.DefVar("d", NcType::kByte, {x}).value();
      ASSERT_TRUE(ds.EndDef().ok());
      ASSERT_TRUE(ds.BeginIndepData().ok());
      const std::uint64_t half = kN / 2;
      const std::uint64_t lo = half * static_cast<std::uint64_t>(c.rank());
      std::vector<signed char> first(half, 1);
      const std::uint64_t st[] = {lo};
      const std::uint64_t ct[] = {half};
      ASSERT_TRUE(ds.PutVara<signed char>(v, st, ct, first).ok());
      ASSERT_TRUE(ds.EndIndepData().ok());
      ASSERT_TRUE(ds.Sync().ok());  // chunk sums committed for the 1s
      ASSERT_TRUE(ds.BeginIndepData().ok());
      c.Barrier();
      if (c.rank() == 0) {
        // Rank 0 rewrites 3000 bytes across chunks 0/1 under the fault.
        fs.SetFaultPolicy(pol);
        std::vector<signed char> second(3000, 7);
        const std::uint64_t st2[] = {2000};
        const std::uint64_t ct2[] = {3000};
        EXPECT_FALSE(ds.PutVara<signed char>(v, st2, ct2, second).ok());
        fs.SetFaultPolicy({});
      }
      c.Barrier();
      ASSERT_TRUE(ds.EndIndepData().ok());
      ASSERT_TRUE(ds.Close().ok());
    });
    if (partial) {
      EXPECT_EQ(fs.stats().short_writes, 1u);
      EXPECT_EQ(DataByte(fs, "f.nc", 2000), std::byte{7})
          << "the short prefix did not land";
    }
    auto v = nctools::VerifyFile(fs, "f.nc", {.repair = false, .data = true});
    ASSERT_TRUE(v.ok()) << v.status().message();
    ASSERT_TRUE(v.value().scrub.has_value());
    EXPECT_TRUE(v.value().scrub->trusted);
    EXPECT_EQ(v.value().scrub->corrupt, 0u);
    ExpectTableMatchesFile(fs, "f.nc");
    // A verified read returns what the disk holds, with status 0.
    auto rd = netcdf::Dataset::Open(fs, "f.nc", /*writable=*/false).value();
    std::vector<signed char> got(kN);
    ASSERT_TRUE(rd.GetVar<signed char>(0, got).ok());
    EXPECT_EQ(got[0], 1);
    EXPECT_EQ(got[kN - 1], 1);
    ASSERT_TRUE(rd.Close().ok());
  }
}

}  // namespace
