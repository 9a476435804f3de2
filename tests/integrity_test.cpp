// End-to-end data integrity: the chunk-checksum layer (format/sums.hpp)
// must make silent data corruption impossible through every read path.
//
// The invariant under test, everywhere: a read API either returns the bytes
// that were written (possibly after healing a transient flip) or it returns
// kDataCorrupt — it NEVER returns wrong bytes with an OK status. The matrix
// crosses serial and 4-rank access, independent / two-phase-collective /
// data-sieving read paths, transient read-side flips (bitflip_read_prob)
// and sticky at-rest damage, plus the offline scrub (ncverify --data
// semantics via nctools::VerifyFile), the --repair re-baseline, and the
// PNC_SUMS=0 determinism guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "format/header.hpp"
#include "format/sums.hpp"
#include "iostat/events.hpp"
#include "iostat/iostat.hpp"
#include "iostat/report.hpp"
#include "netcdf/dataset.hpp"
#include "pnetcdf/dataset.hpp"
#include "pnetcdf/nonblocking.hpp"
#include "simmpi/runtime.hpp"
#include "test_support.hpp"
#include "tools/verify.hpp"
#include "util/xdr.hpp"

namespace {

using ncformat::NcType;
using simmpi::Comm;

using pnc_test::CommittedState;
using pnc_test::CommittedSums;
using pnc_test::EnvGuard;

/// Decode `path`'s header through the harness (fault-free) read path.
ncformat::Header HeaderOf(pfs::FileSystem& fs, const std::string& path) {
  auto f = fs.Open(path).value();
  std::vector<std::byte> bytes(std::min<std::uint64_t>(f.size(), 64 * 1024));
  f.HarnessRead(0, bytes, 0.0);
  auto h = ncformat::Header::Decode(bytes);
  EXPECT_TRUE(h.ok()) << h.status().message();
  return std::move(h).value();
}

/// First data byte of `path` = the lowest variable begin offset.
std::uint64_t DataBegin(pfs::FileSystem& fs, const std::string& path) {
  const ncformat::Header h = HeaderOf(fs, path);
  std::uint64_t db = 0;
  bool first = true;
  for (const auto& v : h.vars) {
    if (first || v.begin < db) db = v.begin;
    first = false;
  }
  EXPECT_FALSE(first) << "no variables in " << path;
  return db;
}

/// Whole primary file via the harness path (never fault-injected).
std::vector<std::byte> FileBytes(pfs::FileSystem& fs,
                                 const std::string& path) {
  auto f = fs.Open(path).value();
  std::vector<std::byte> b(f.size());
  if (!b.empty()) f.HarnessRead(0, b, 0.0);
  return b;
}

/// Flip every bit of the byte at `offset` (guaranteed to change it).
void FlipByteAt(pfs::FileSystem& fs, const std::string& path,
                std::uint64_t offset) {
  const std::byte old = pnc_test::ByteAt(fs, path, offset);
  pnc_test::CorruptByte(fs, path, offset, old ^ std::byte{0xFF});
}

// --------------------------------------------------------- serial fixture

constexpr std::uint64_t kSerialElems = 256 * 1024;  // 256 KiB = 4 sum chunks

signed char PatternAt(std::uint64_t i) {
  return static_cast<signed char>((i * 31 + 7) % 251 - 125);
}

/// One byte variable "d" of `n` elements filled with PatternAt.
void MakePatternFile(pfs::FileSystem& fs, const std::string& path,
                     std::uint64_t n = kSerialElems) {
  auto ds = netcdf::Dataset::Create(fs, path).value();
  const int x = ds.DefDim("x", n).value();
  const int v = ds.DefVar("d", NcType::kByte, {x}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  std::vector<signed char> vals(n);
  for (std::uint64_t i = 0; i < n; ++i) vals[i] = PatternAt(i);
  ASSERT_TRUE(ds.PutVar<signed char>(v, vals).ok());
  ASSERT_TRUE(ds.Close().ok());
}

// ----------------------------------------------- serial read-side bitflips

// The core invariant swept over flip probabilities and seeds: every full
// read either comes back byte-perfect (the flip healed, or never landed in
// a read) or fails with kDataCorrupt. An OK status with wrong bytes is the
// one outcome that must never occur.
TEST(Integrity, SerialBitflipReadNeverSilent) {
  std::uint64_t total_flips = 0;
  int healed_or_clean = 0, corrupt = 0;
  for (const double p : {1e-3, 0.05, 0.5}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
      pfs::FileSystem fs;
      MakePatternFile(fs, "b.nc");
      auto ds = netcdf::Dataset::Open(fs, "b.nc", false).value();
      pfs::FaultPolicy pol;
      pol.bitflip_read_prob = p;
      pol.seed = 0x17E6ull + seed * 0x9E3779B97F4A7C15ull;
      SCOPED_TRACE("p=" + std::to_string(p) +
                   " " + pnc_test::DescribePolicy(pol));
      fs.SetFaultPolicy(pol);
      fs.ResetStats();

      std::vector<signed char> got(kSerialElems);
      const pnc::Status rs =
          ds.GetVar<signed char>(ds.VarId("d").value(), got);
      total_flips += fs.stats().bitflips;
      fs.SetFaultPolicy({});
      if (rs.ok()) {
        for (std::uint64_t i = 0; i < kSerialElems; ++i)
          ASSERT_EQ(got[i], PatternAt(i)) << "silent corruption at " << i;
        EXPECT_TRUE(ds.Close().ok());
        ++healed_or_clean;
      } else {
        EXPECT_EQ(rs.code(), pnc::Err::kDataCorrupt) << rs.message();
        // Sticky: the session cannot be closed as if it were healthy.
        EXPECT_EQ(ds.Close().code(), pnc::Err::kDataCorrupt);
        ++corrupt;
      }
    }
  }
  // The sweep actually exercised the hazard, and verification absorbed at
  // least some of it (p=1e-3 cases are virtually always flip-free or
  // healed; p=0.5 re-reads may keep flipping and surface kDataCorrupt).
  EXPECT_GT(total_flips, 0u);
  EXPECT_GT(healed_or_clean, 0);
}

// A transient read-side flip on intact media must HEAL: the chunk re-read
// sees clean bytes, the caller gets a byte-perfect buffer and an OK status.
TEST(Integrity, SerialBitflipReadHeals) {
  bool healed = false;
  for (std::uint64_t seed = 1; seed <= 16 && !healed; ++seed) {
    pfs::FileSystem fs;
    MakePatternFile(fs, "h.nc");
    auto ds = netcdf::Dataset::Open(fs, "h.nc", false).value();
    pfs::FaultPolicy pol;
    pol.bitflip_read_prob = 0.5;
    pol.seed = seed;
    SCOPED_TRACE(pnc_test::DescribePolicy(pol));
    fs.SetFaultPolicy(pol);
    fs.ResetStats();
    std::vector<signed char> got(kSerialElems);
    const pnc::Status rs = ds.GetVar<signed char>(ds.VarId("d").value(), got);
    const std::uint64_t flips = fs.stats().bitflips;
    fs.SetFaultPolicy({});
    if (rs.ok() && flips > 0) {
      for (std::uint64_t i = 0; i < kSerialElems; ++i)
        ASSERT_EQ(got[i], PatternAt(i)) << "healed read still wrong at " << i;
      EXPECT_TRUE(ds.Close().ok());
      healed = true;
    }
  }
  EXPECT_TRUE(healed) << "no seed produced a healed flip";
}

// ------------------------------------------------- serial at-rest damage

// A byte corrupted on the medium between sessions keeps mismatching every
// re-read; the read must surface kDataCorrupt — silently returning the
// damaged buffer is the pre-integrity-layer behaviour this PR removes.
TEST(Integrity, SerialAtRestCorruptionSurfacesStickyError) {
  pfs::FileSystem fs;
  MakePatternFile(fs, "a.nc");
  const std::uint64_t db = DataBegin(fs, "a.nc");
  FlipByteAt(fs, "a.nc", db + 1000);

  auto ds = netcdf::Dataset::Open(fs, "a.nc", false).value();
  std::vector<signed char> got(kSerialElems);
  const pnc::Status rs = ds.GetVar<signed char>(ds.VarId("d").value(), got);
  EXPECT_EQ(rs.code(), pnc::Err::kDataCorrupt) << rs.message();
  EXPECT_EQ(ds.Close().code(), pnc::Err::kDataCorrupt);
}

// The pfs corrupt_at_rest schedule (persisted decay triggered by reads)
// drives the same surface: heal re-reads see the same damage — and may
// decay further — so the read must fail, and the offline scrub must then
// find the chunk.
TEST(Integrity, SerialAtRestDecayDetectedThenScrubbed) {
  // The decay byte is uniform over each request, and the buffered block
  // read spans the header and the zero-fill tail past EOF too — sweep
  // seeds until a flip lands inside a data chunk. Every intermediate
  // outcome still has to satisfy the no-silent-corruption invariant.
  bool surfaced = false;
  for (std::uint64_t seed = 1; seed <= 24 && !surfaced; ++seed) {
    pfs::FileSystem fs;
    MakePatternFile(fs, "r.nc");
    auto ds = netcdf::Dataset::Open(fs, "r.nc", false).value();
    pfs::FaultPolicy pol;
    pol.corrupt_at_rest = 1.0;
    pol.seed = seed;
    SCOPED_TRACE(pnc_test::DescribePolicy(pol));
    fs.SetFaultPolicy(pol);
    fs.ResetStats();
    std::vector<signed char> got(kSerialElems);
    const pnc::Status rs = ds.GetVar<signed char>(ds.VarId("d").value(), got);
    fs.SetFaultPolicy({});
    EXPECT_GE(fs.stats().at_rest_corruptions, 1u);
    if (rs.ok()) {
      // Decay missed the data chunks (header bytes or past-EOF fill):
      // the returned buffer must still be byte-perfect.
      for (std::uint64_t i = 0; i < kSerialElems; ++i)
        ASSERT_EQ(got[i], PatternAt(i)) << "silent corruption at " << i;
      (void)ds.Close();
      continue;
    }
    EXPECT_EQ(rs.code(), pnc::Err::kDataCorrupt) << rs.message();
    EXPECT_EQ(ds.Close().code(), pnc::Err::kDataCorrupt);

    // The damage is on the medium now; the offline scrub must find it.
    auto v = nctools::VerifyFile(fs, "r.nc", {.repair = false, .data = true});
    ASSERT_TRUE(v.ok()) << v.status().message();
    ASSERT_TRUE(v.value().scrub.has_value());
    EXPECT_TRUE(v.value().scrub->trusted);
    EXPECT_GE(v.value().scrub->corrupt, 1u);
    surfaced = true;
  }
  EXPECT_TRUE(surfaced) << "no seed decayed a data chunk";
}

// --------------------------------------------- 4-rank read-path matrix

constexpr int kRanks = 4;
constexpr std::uint64_t kRows = 256, kCols = 256;

signed char Cell(std::uint64_t r, std::uint64_t c) {
  return static_cast<signed char>((r * 31 + c * 7) % 251 - 125);
}

/// 256x256 byte grid "d", each rank writing its row band, fault-free.
void CreateGrid(pfs::FileSystem& fs) {
  simmpi::Run(kRanks, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Create(c, fs, "g.nc", simmpi::NullInfo()).value();
    const int y = ds.DefDim("y", kRows).value();
    const int x = ds.DefDim("x", kCols).value();
    const int v = ds.DefVar("d", NcType::kByte, {y, x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    const std::uint64_t band = kRows / kRanks;
    const std::uint64_t r0 = band * static_cast<std::uint64_t>(c.rank());
    std::vector<signed char> mine(band * kCols);
    for (std::uint64_t i = 0; i < band; ++i)
      for (std::uint64_t j = 0; j < kCols; ++j)
        mine[i * kCols + j] = Cell(r0 + i, j);
    const std::uint64_t st[] = {r0, 0};
    const std::uint64_t ct[] = {band, kCols};
    ASSERT_TRUE(ds.PutVaraAll<signed char>(v, st, ct, mine).ok());
    ASSERT_TRUE(ds.Close().ok());
  });
}

enum class ReadMode { kCollective, kIndependent, kSieved };

const char* ModeName(ReadMode m) {
  switch (m) {
    case ReadMode::kCollective: return "collective(two-phase)";
    case ReadMode::kIndependent: return "independent(contiguous)";
    case ReadMode::kSieved: return "independent(sieved column)";
  }
  return "?";
}

// Every parallel read path — two-phase collective, contiguous independent,
// and data-sieving strided — under transient read-side flips on a 4-rank
// read-only open (the verify-armed parallel mode): per rank, OK means
// byte-perfect, anything else is kDataCorrupt.
TEST(Integrity, ParallelBitflipMatrixNeverSilent) {
  std::uint64_t total_flips = 0;
  for (const ReadMode mode :
       {ReadMode::kCollective, ReadMode::kIndependent, ReadMode::kSieved}) {
    for (const double p : {1e-3, 0.05}) {
      // Many aggregator windows: verified windows round up to the chunk
      // grid, so the collective's chunk is smaller than its 8 KiB window.
      std::optional<EnvGuard> chunk;
      if (mode == ReadMode::kCollective) chunk.emplace("PNC_SUM_CHUNK", "4096");
      pfs::FileSystem fs;
      CreateGrid(fs);
      simmpi::Run(kRanks, [&](Comm& c) {
        simmpi::Info info;
        if (mode == ReadMode::kCollective)
          info.Set("cb_buffer_size", "8192");  // many aggregator windows
        auto ds =
            pnetcdf::Dataset::Open(c, fs, "g.nc", false, info).value();
        pfs::FaultPolicy pol;
        pol.bitflip_read_prob = p;
        SCOPED_TRACE(std::string(ModeName(mode)) + " " +
                     pnc_test::DescribePolicy(pol));
        if (c.rank() == 0) {
          fs.SetFaultPolicy(pol);
          fs.ResetStats();
        }
        c.Barrier();

        const int v = ds.VarId("d").value();
        const std::uint64_t band = kRows / kRanks;
        const std::uint64_t r0 = band * static_cast<std::uint64_t>(c.rank());
        pnc::Status rs;
        std::vector<signed char> got;
        // (row, col) of got[i] for the correctness check below.
        std::vector<std::pair<std::uint64_t, std::uint64_t>> where;
        if (mode == ReadMode::kCollective) {
          got.resize(band * kCols);
          const std::uint64_t st[] = {r0, 0};
          const std::uint64_t ct[] = {band, kCols};
          rs = ds.GetVaraAll<signed char>(v, st, ct, got);
          for (std::uint64_t i = 0; i < band; ++i)
            for (std::uint64_t j = 0; j < kCols; ++j)
              where.emplace_back(r0 + i, j);
        } else if (mode == ReadMode::kIndependent) {
          ASSERT_TRUE(ds.BeginIndepData().ok());
          got.resize(band * kCols);
          const std::uint64_t st[] = {r0, 0};
          const std::uint64_t ct[] = {band, kCols};
          rs = ds.GetVara<signed char>(v, st, ct, got);
          ASSERT_TRUE(ds.EndIndepData().ok());
          for (std::uint64_t i = 0; i < band; ++i)
            for (std::uint64_t j = 0; j < kCols; ++j)
              where.emplace_back(r0 + i, j);
        } else {
          // Column band: kRows segments of 64 B spaced kCols apart — the
          // shape the data-sieving path coalesces into one big read.
          ASSERT_TRUE(ds.BeginIndepData().ok());
          const std::uint64_t cband = kCols / kRanks;
          const std::uint64_t c0 = cband * static_cast<std::uint64_t>(c.rank());
          got.resize(kRows * cband);
          const std::uint64_t st[] = {0, c0};
          const std::uint64_t ct[] = {kRows, cband};
          rs = ds.GetVara<signed char>(v, st, ct, got);
          ASSERT_TRUE(ds.EndIndepData().ok());
          for (std::uint64_t i = 0; i < kRows; ++i)
            for (std::uint64_t j = 0; j < cband; ++j)
              where.emplace_back(i, c0 + j);
        }

        if (rs.ok()) {
          for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], Cell(where[i].first, where[i].second))
                << "silent corruption, rank " << c.rank() << " elem " << i;
        } else {
          EXPECT_EQ(rs.code(), pnc::Err::kDataCorrupt) << rs.message();
        }
        c.Barrier();
        if (c.rank() == 0) fs.SetFaultPolicy({});
        c.Barrier();
        const pnc::Status cs = ds.Close();
        if (rs.ok())
          EXPECT_TRUE(cs.ok()) << cs.message();
        else
          EXPECT_EQ(cs.code(), pnc::Err::kDataCorrupt);
      });
      total_flips += fs.stats().bitflips;
    }
  }
  EXPECT_GT(total_flips, 0u);  // the matrix really injected flips
}

// At-rest damage under a 4-rank collective read of the full grid: no rank
// may return OK with wrong bytes, and at least one rank must report
// kDataCorrupt (the damage cannot heal, so it may not vanish either).
TEST(Integrity, ParallelAtRestCorruptionSurfaces) {
  pfs::FileSystem fs;
  CreateGrid(fs);
  const std::uint64_t db = DataBegin(fs, "g.nc");
  FlipByteAt(fs, "g.nc", db + 12345);

  simmpi::Run(kRanks, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Open(c, fs, "g.nc", false, simmpi::NullInfo())
            .value();
    const int v = ds.VarId("d").value();
    std::vector<signed char> got(kRows * kCols);
    const std::uint64_t st[] = {0, 0};
    const std::uint64_t ct[] = {kRows, kCols};
    const pnc::Status rs = ds.GetVaraAll<signed char>(v, st, ct, got);
    if (rs.ok()) {
      for (std::uint64_t r = 0; r < kRows; ++r)
        for (std::uint64_t cc = 0; cc < kCols; ++cc)
          ASSERT_EQ(got[r * kCols + cc], Cell(r, cc))
              << "silent corruption on rank " << c.rank();
    } else {
      EXPECT_EQ(rs.code(), pnc::Err::kDataCorrupt) << rs.message();
    }
    // Somebody saw it: the min raw status across ranks is kDataCorrupt.
    EXPECT_EQ(c.AllreduceMin(rs.raw()),
              pnc::Status(pnc::Err::kDataCorrupt, "").raw());
    (void)ds.Close();
  });
}

// A flip in the closing numrecs patch (primary bytes [4, 8)) leaves the
// primary torn only in its record count. A read-only open recovers the
// count in memory; the header body and the data region still match what
// the closing commit summed, so verification stays on and a data flip from
// the same session surfaces as kDataCorrupt instead of wrong values.
class TornNumrecsP : public ::testing::TestWithParam<int> {};

TEST_P(TornNumrecsP, ReadOnlyOpenStillVerifiesData) {
  constexpr std::uint64_t kRecs = 2, kWidth = 12;
  const int nprocs = GetParam();
  const auto value = [](std::uint64_t i) {
    return static_cast<std::int32_t>(1000 + 7 * i);
  };
  pfs::FileSystem fs;
  if (nprocs == 0) {
    auto ds = netcdf::Dataset::Create(fs, "n.nc").value();
    const int t = ds.DefDim("time", netcdf::kUnlimited).value();
    const int x = ds.DefDim("x", kWidth).value();
    const int v = ds.DefVar("r", NcType::kInt, {t, x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    std::vector<std::int32_t> vals(kRecs * kWidth);
    for (std::uint64_t i = 0; i < vals.size(); ++i) vals[i] = value(i);
    const std::uint64_t st[] = {0, 0};
    const std::uint64_t ct[] = {kRecs, kWidth};
    ASSERT_TRUE(ds.PutVara<std::int32_t>(v, st, ct, vals).ok());
    ASSERT_TRUE(ds.Close().ok());
  } else {
    simmpi::Run(nprocs, [&](Comm& c) {
      auto ds =
          pnetcdf::Dataset::Create(c, fs, "n.nc", simmpi::NullInfo()).value();
      const int t = ds.DefDim("time", pnetcdf::kUnlimited).value();
      const int x = ds.DefDim("x", kWidth).value();
      const int v = ds.DefVar("r", NcType::kInt, {t, x}).value();
      ASSERT_TRUE(ds.EndDef().ok());
      const std::uint64_t share = kWidth / static_cast<std::uint64_t>(nprocs);
      const std::uint64_t lo = share * static_cast<std::uint64_t>(c.rank());
      std::vector<std::int32_t> mine;
      for (std::uint64_t rec = 0; rec < kRecs; ++rec)
        for (std::uint64_t i = lo; i < lo + share; ++i)
          mine.push_back(value(rec * kWidth + i));
      const std::uint64_t st[] = {0, lo};
      const std::uint64_t ct[] = {kRecs, share};
      ASSERT_TRUE(ds.PutVaraAll<std::int32_t>(v, st, ct, mine).ok());
      ASSERT_TRUE(ds.Close().ok());
    });
  }
  FlipByteAt(fs, "n.nc", 7);  // the low byte of the closing numrecs patch
  FlipByteAt(fs, "n.nc", DataBegin(fs, "n.nc") + 5);
  auto vr = nctools::VerifyFile(fs, "n.nc");
  ASSERT_TRUE(vr.ok()) << vr.status().message();
  ASSERT_EQ(vr.value().state, ncformat::FileState::kTornRecoverable)
      << vr.value().detail;

  const std::uint64_t st[] = {0, 0};
  const std::uint64_t ct[] = {kRecs, kWidth};
  const auto check = [&](std::uint64_t numrecs, pnc::Status rs,
                         const std::vector<std::int32_t>& got) {
    EXPECT_EQ(numrecs, kRecs);
    EXPECT_EQ(rs.code(), pnc::Err::kDataCorrupt) << rs.message();
    if (!rs.ok()) return;
    for (std::uint64_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], value(i)) << "silent corruption at element " << i;
  };
  if (nprocs == 0) {
    auto ds = netcdf::Dataset::Open(fs, "n.nc", false).value();
    std::vector<std::int32_t> got(kRecs * kWidth);
    const pnc::Status rs = ds.GetVara<std::int32_t>(0, st, ct, got);
    check(ds.numrecs(), rs, got);
    return;
  }
  simmpi::Run(nprocs, [&](Comm& c) {
    auto ds = pnetcdf::Dataset::Open(c, fs, "n.nc", false, simmpi::NullInfo())
                  .value();
    std::vector<std::int32_t> got(kRecs * kWidth);
    const pnc::Status rs = ds.GetVaraAll<std::int32_t>(0, st, ct, got);
    check(ds.numrecs(), rs, got);
    (void)ds.Close();
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, TornNumrecsP, ::testing::Values(0, 3),
                         [](const ::testing::TestParamInfo<int>& i) {
                           return i.param == 0 ? std::string("serial")
                                               : "p" + std::to_string(i.param);
                         });

// ------------------------------------- write-path bitflip property sweep

// Write-side flips are the case a read-back of the file cannot catch: the
// medium stores a flipped bit while the write reports success, so a sum
// recomputed from the file bytes blesses the damage. Sums taken from the
// bytes as they left memory do not. The sweep arms flips only while data is
// written (after EndDef, cleared before Close), reopens read-only with no
// faults, and demands: bytes on disk as written => the read is OK and
// byte-perfect; a flip that landed in the data => kDataCorrupt.
enum class WriteMode { kCollective, kIndependent, kSieved };

const char* WriteModeName(WriteMode m) {
  switch (m) {
    case WriteMode::kCollective: return "collective(two-phase)";
    case WriteMode::kIndependent: return "independent(contiguous)";
    case WriteMode::kSieved: return "independent(sieved)";
  }
  return "?";
}

// 48 rows divide among 1, 3 and 4 ranks; an odd column count lets every
// rank's stride-2 sieve window end on a written column, so the windows of
// neighbouring row bands abut with no gap between them.
constexpr std::uint64_t kSweepRows = 48, kSweepCols = 255;
constexpr int kSweepSeeds = 60;

/// The value a fully written sweep grid holds at (r, c). Sieved runs write
/// the even columns only; the odd ones keep the zeros of a new file.
signed char SweepCell(std::uint64_t r, std::uint64_t c, WriteMode m) {
  if (m == WriteMode::kSieved && c % 2 != 0) return 0;
  return static_cast<signed char>((r * 37 + c * 11 + 5) % 251 - 125);
}

std::vector<std::byte> SweepExpected(WriteMode m) {
  std::vector<std::byte> b(kSweepRows * kSweepCols);
  for (std::uint64_t r = 0; r < kSweepRows; ++r)
    for (std::uint64_t c = 0; c < kSweepCols; ++c)
      b[r * kSweepCols + c] = static_cast<std::byte>(SweepCell(r, c, m));
  return b;
}

/// Write the sweep grid from `nprocs` ranks with flips armed only around
/// the data calls.
void WriteSweepParallel(pfs::FileSystem& fs, int nprocs, WriteMode mode,
                        const pfs::FaultPolicy& pol) {
  simmpi::Run(nprocs, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Create(c, fs, "w.nc", simmpi::NullInfo()).value();
    const int y = ds.DefDim("y", kSweepRows).value();
    const int x = ds.DefDim("x", kSweepCols).value();
    const int v = ds.DefVar("d", NcType::kByte, {y, x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    c.Barrier();
    if (c.rank() == 0) fs.SetFaultPolicy(pol);
    c.Barrier();
    const std::uint64_t P = static_cast<std::uint64_t>(c.size());
    const std::uint64_t me = static_cast<std::uint64_t>(c.rank());
    const std::uint64_t r0 = kSweepRows * me / P;
    const std::uint64_t r1 = kSweepRows * (me + 1) / P;
    std::vector<signed char> mine;
    if (mode == WriteMode::kCollective) {
      // Column bands: noncontiguous per rank, contiguous per aggregator.
      const std::uint64_t c0 = kSweepCols * me / P;
      const std::uint64_t c1 = kSweepCols * (me + 1) / P;
      for (std::uint64_t r = 0; r < kSweepRows; ++r)
        for (std::uint64_t cc = c0; cc < c1; ++cc)
          mine.push_back(SweepCell(r, cc, mode));
      const std::uint64_t st[] = {0, c0};
      const std::uint64_t ct[] = {kSweepRows, c1 - c0};
      ASSERT_TRUE(ds.PutVaraAll<signed char>(v, st, ct, mine).ok());
    } else {
      ASSERT_TRUE(ds.BeginIndepData().ok());
      const std::uint64_t step = mode == WriteMode::kSieved ? 2 : 1;
      for (std::uint64_t r = r0; r < r1; ++r)
        for (std::uint64_t cc = 0; cc < kSweepCols; cc += step)
          mine.push_back(SweepCell(r, cc, mode));
      const std::uint64_t st[] = {r0, 0};
      const std::uint64_t ct[] = {r1 - r0, (kSweepCols + step - 1) / step};
      const std::uint64_t sd[] = {1, step};
      ASSERT_TRUE(ds.PutVars<signed char>(v, st, ct, sd, mine).ok());
      ASSERT_TRUE(ds.EndIndepData().ok());
    }
    c.Barrier();
    if (c.rank() == 0) fs.SetFaultPolicy({});
    c.Barrier();
    ASSERT_TRUE(ds.Close().ok());
  });
}

/// Serial-library twin: whole-variable puts go straight to the file in
/// buffer-size pieces; row puts go through the (4 KiB) block cache, whose
/// evictions write the data while flips are armed.
void WriteSweepSerial(pfs::FileSystem& fs, bool by_row,
                      const pfs::FaultPolicy& pol) {
  auto ds = netcdf::Dataset::Create(fs, "w.nc", {.buffer_size = 4096}).value();
  const int y = ds.DefDim("y", kSweepRows).value();
  const int x = ds.DefDim("x", kSweepCols).value();
  const int v = ds.DefVar("d", NcType::kByte, {y, x}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  ASSERT_TRUE(ds.Sync().ok());  // the header leaves the block cache unarmed
  fs.SetFaultPolicy(pol);
  std::vector<signed char> all(kSweepRows * kSweepCols);
  for (std::uint64_t r = 0; r < kSweepRows; ++r)
    for (std::uint64_t c = 0; c < kSweepCols; ++c)
      all[r * kSweepCols + c] = SweepCell(r, c, WriteMode::kIndependent);
  if (by_row) {
    for (std::uint64_t r = 0; r < kSweepRows; ++r) {
      const std::uint64_t st[] = {r, 0};
      const std::uint64_t ct[] = {1, kSweepCols};
      ASSERT_TRUE(ds.PutVara<signed char>(
                        v, st, ct,
                        std::span<const signed char>(all).subspan(
                            r * kSweepCols, kSweepCols))
                      .ok());
    }
  } else {
    ASSERT_TRUE(ds.PutVar<signed char>(v, all).ok());
  }
  fs.SetFaultPolicy({});
  ASSERT_TRUE(ds.Close().ok());
}

struct SweepVerdict {
  bool landed = false;  ///< the data region on disk differs from the intent
  pnc::Status read;     ///< full-grid read after a fault-free reopen
  bool bytes_ok = false;
};

SweepVerdict ReadSweep(pfs::FileSystem& fs, WriteMode mode) {
  SweepVerdict out;
  const std::vector<std::byte> want = SweepExpected(mode);
  const std::vector<std::byte> disk = FileBytes(fs, "w.nc");
  const std::uint64_t db = DataBegin(fs, "w.nc");
  out.landed = disk.size() < db + want.size() ||
               !std::equal(want.begin(), want.end(), disk.begin() + db);
  auto ds = netcdf::Dataset::Open(fs, "w.nc", /*writable=*/false).value();
  std::vector<signed char> got(kSweepRows * kSweepCols);
  out.read = ds.GetVar<signed char>(ds.VarId("d").value(), got);
  out.bytes_ok = std::equal(got.begin(), got.end(), want.begin(),
                            [](signed char g, std::byte w) {
                              return static_cast<std::byte>(g) == w;
                            });
  (void)ds.Close();
  return out;
}

TEST(Integrity, WriteBitflipSweepNeverSilent) {
  EnvGuard chunk("PNC_SUM_CHUNK", "4096");  // the grid spans 3 + 1 chunks
  int runs = 0, landed = 0;
  const auto check = [&](const std::string& label, pfs::FileSystem& fs,
                         WriteMode mode, const pfs::FaultPolicy& pol) {
    SCOPED_TRACE(label + " " + pnc_test::DescribePolicy(pol));
    const SweepVerdict v = ReadSweep(fs, mode);
    ++runs;
    if (v.landed) {
      ++landed;
      EXPECT_EQ(v.read.code(), pnc::Err::kDataCorrupt)
          << "a flipped data byte was read back with status "
          << v.read.raw();
    } else {
      EXPECT_TRUE(v.read.ok()) << v.read.message();
      EXPECT_TRUE(v.bytes_ok) << "OK read returned wrong bytes";
    }
  };
  for (int seed = 1; seed <= kSweepSeeds; ++seed) {
    pfs::FaultPolicy pol;
    pol.seed = static_cast<std::uint64_t>(seed);
    pol.bitflip_write_prob = 0.2;
    for (const int nprocs : {1, 3, 4}) {
      for (const WriteMode mode : {WriteMode::kCollective,
                                   WriteMode::kIndependent,
                                   WriteMode::kSieved}) {
        pfs::FileSystem fs;
        WriteSweepParallel(fs, nprocs, mode, pol);
        check(std::to_string(nprocs) + " ranks " + WriteModeName(mode), fs,
              mode, pol);
      }
    }
    for (const bool by_row : {false, true}) {
      pfs::FileSystem fs;
      WriteSweepSerial(fs, by_row, pol);
      check(by_row ? "serial rows" : "serial whole", fs,
            WriteMode::kIndependent, pol);
    }
  }
  // The sweep is only meaningful if flips really landed in the data.
  std::printf("[ write sweep ] %d of %d runs landed a data flip\n", landed,
              runs);
  EXPECT_GT(landed, runs / 10);
}

// The full-lifecycle replay of the chaos matrix's record-append run (4
// ranks, cb_nodes=1) with write flips armed from Create to Close, over 60
// seeds. Here flips also hit the header and the commit journal with its
// chunk-sum table. Data flips must surface; a wrong value returned with
// status 0 may only come from a flip on the commit path: a damaged header
// or numrecs, a primary left torn (a reopen then runs with sums off), or a
// table that no longer loads as trusted.
TEST(Integrity, ChaosLifecycleWriteFlipsSurfaceUnlessCommitPathHit) {
  int wrong_with_ok = 0, commit_path = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    pfs::FileSystem fs;
    pfs::FaultPolicy pol;
    pol.seed = seed;
    pol.bitflip_write_prob = 0.2;
    fs.SetFaultPolicy(pol);
    simmpi::Info info;
    info.Set("cb_nodes", "1");
    simmpi::Run(4, [&](Comm& c) {
      auto r = pnetcdf::Dataset::Create(c, fs, "chaos.nc", info);
      if (!r.ok()) return;
      auto ds = std::move(r).value();
      const int t = ds.DefDim("time", pnetcdf::kUnlimited).value();
      const int x = ds.DefDim("x", 8).value();
      const int v = ds.DefVar("r", NcType::kInt, {t, x}).value();
      pnc::Status st = ds.EndDef();
      for (std::uint64_t rec = 0; rec < 2 && st.ok(); ++rec) {
        const std::int32_t base =
            static_cast<std::int32_t>(100 * rec + 10 * c.rank());
        const std::vector<std::int32_t> mine = {base, base + 1};
        const std::uint64_t start[] = {rec,
                                       static_cast<std::uint64_t>(2 * c.rank())};
        const std::uint64_t count[] = {1, 2};
        st = ds.PutVaraAll<std::int32_t>(v, start, count, mine);
      }
      (void)ds.Close();
    });
    fs.SetFaultPolicy({});
    if (!fs.Exists("chaos.nc")) continue;

    std::vector<pnc::Status> got_st(4);
    std::vector<bool> wrong(4, false);
    simmpi::Run(4, [&](Comm& c) {
      const std::size_t me = static_cast<std::size_t>(c.rank());
      auto r = pnetcdf::Dataset::Open(c, fs, "chaos.nc", false, info);
      if (!r.ok()) {
        got_st[me] = r.status();
        return;
      }
      auto ds = std::move(r).value();
      std::vector<std::int32_t> mine(4, -1);
      const std::uint64_t start[] = {0, static_cast<std::uint64_t>(2 * me)};
      const std::uint64_t count[] = {2, 2};
      const auto vid = ds.VarId("r");
      got_st[me] = vid.ok() ? ds.GetVaraAll<std::int32_t>(vid.value(), start,
                                                          count, mine)
                            : vid.status();
      for (std::int32_t rec = 0; rec < 2; ++rec)
        for (std::int32_t k = 0; k < 2; ++k)
          wrong[me] = wrong[me] ||
                      mine[static_cast<std::size_t>(2 * rec + k)] !=
                          100 * rec + 10 * c.rank() + k;
      (void)ds.Close();
    });
    bool silent = false;
    for (std::size_t k = 0; k < 4; ++k) silent |= got_st[k].ok() && wrong[k];
    if (!silent) continue;
    ++wrong_with_ok;
    // Attribute it: the header must decode with both records, and the
    // table must still load as trusted, for the data path to be at fault.
    // The label names what was flipped, from the decoded primary and the
    // verify report.
    const std::vector<std::byte> bytes = FileBytes(fs, "chaos.nc");
    const auto h = ncformat::Header::Decode(bytes);
    auto vr = nctools::VerifyFile(fs, "chaos.nc", {.data = true});
    const bool torn =
        !vr.ok() || vr.value().state != ncformat::FileState::kClean;
    const bool sums_trusted = vr.ok() && vr.value().scrub.has_value() &&
                              vr.value().scrub->trusted;
    // A torn primary's header body against the committed CRC, which skips
    // the numrecs field.
    const auto body_crc_ok = [&] {
      const ncformat::CommitState cs = CommittedState(fs, "chaos.nc");
      return bytes.size() >= cs.header_len &&
             ncformat::HeaderCrc(pnc::ConstByteSpan(bytes).first(
                 cs.header_len)) == cs.header_crc;
    };
    const char* cause =
        !h.ok()                  ? "primary header body does not decode"
        : !vr.ok()               ? "verify failed"
        : torn && !body_crc_ok() ? "primary header body CRC mismatch"
        : torn || h.value().numrecs != 2 ? "primary numrecs field differs"
        : h.value().vars.size() != 1     ? "primary header body differs"
        : !sums_trusted                  ? "table untrusted"
                                         : nullptr;
    if (cause != nullptr) ++commit_path;
    EXPECT_NE(cause, nullptr) << "seed " << seed
                              << ": wrong values with status 0, header, "
                              << "journal and table intact";
    std::printf("[ chaos seed %2llu ] wrong-with-OK: %s\n",
                static_cast<unsigned long long>(seed),
                cause != nullptr ? cause : "data path");
  }
  std::printf("[ chaos replay ] %d of 60 seeds wrong-with-OK, %d on the "
              "commit path\n",
              wrong_with_ok, commit_path);
}

// ------------------------------------------------------- offline scrub

// ncverify --data semantics, API level: every injected at-rest corruption
// — first data byte, chunk interior, both sides of a chunk boundary, last
// byte — is detected and attributed to the right chunk. 100% detection.
TEST(Integrity, ScrubDetectsEveryInjectedCorruption) {
  EnvGuard chunk("PNC_SUM_CHUNK", "4096");
  constexpr std::uint64_t kN = 16 * 1024;  // 4 chunks of 4 KiB
  const std::uint64_t offsets[] = {0, 4095, 4096, 8191, 12288, kN - 1};
  for (const std::uint64_t off : offsets) {
    SCOPED_TRACE("corrupt data byte " + std::to_string(off));
    pfs::FileSystem fs;
    MakePatternFile(fs, "s.nc", kN);
    const std::uint64_t db = DataBegin(fs, "s.nc");
    FlipByteAt(fs, "s.nc", db + off);

    auto v = nctools::VerifyFile(fs, "s.nc", {.repair = false, .data = true});
    ASSERT_TRUE(v.ok()) << v.status().message();
    ASSERT_TRUE(v.value().scrub.has_value());
    const ncformat::ScrubReport& s = *v.value().scrub;
    EXPECT_TRUE(s.trusted);
    EXPECT_EQ(s.corrupt, 1u);
    EXPECT_EQ(s.unsummed, 0u);
    ASSERT_EQ(s.corrupt_chunks.size(), 1u);
    EXPECT_EQ(s.corrupt_chunks[0], off / 4096);
  }

  // Multiple damaged chunks in one file: all of them reported.
  pfs::FileSystem fs;
  MakePatternFile(fs, "s.nc", kN);
  const std::uint64_t db = DataBegin(fs, "s.nc");
  for (const std::uint64_t off : {100ull, 9000ull, 14000ull})
    FlipByteAt(fs, "s.nc", db + off);
  auto v = nctools::VerifyFile(fs, "s.nc", {.repair = false, .data = true});
  ASSERT_TRUE(v.ok()) << v.status().message();
  ASSERT_TRUE(v.value().scrub.has_value());
  EXPECT_EQ(v.value().scrub->corrupt, 3u);
}

// --repair --data re-baselines: the rebuilt table covers every chunk and
// a follow-up scrub is clean (the operator vouched for the current bytes).
TEST(Integrity, ScrubRepairRebuildsBaseline) {
  EnvGuard chunk("PNC_SUM_CHUNK", "4096");
  constexpr std::uint64_t kN = 16 * 1024;
  pfs::FileSystem fs;
  MakePatternFile(fs, "t.nc", kN);
  const std::uint64_t db = DataBegin(fs, "t.nc");
  FlipByteAt(fs, "t.nc", db + 5000);

  auto first = nctools::VerifyFile(fs, "t.nc", {.repair = false, .data = true});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().scrub->corrupt, 1u);

  auto rebuilt =
      nctools::VerifyFile(fs, "t.nc", {.repair = true, .data = true});
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().message();
  EXPECT_TRUE(rebuilt.value().sums_rebuilt);

  auto after = nctools::VerifyFile(fs, "t.nc", {.repair = false, .data = true});
  ASSERT_TRUE(after.ok());
  const ncformat::ScrubReport& s = *after.value().scrub;
  EXPECT_TRUE(s.trusted);
  EXPECT_EQ(s.corrupt, 0u);
  EXPECT_EQ(s.unsummed, 0u);
  EXPECT_EQ(s.clean, 4u);
}

// A missing journal — the one sidecar, which carries the chunk-sum table —
// degrades to honest "unsummed" coverage, never to a false corruption
// verdict (and never to a false clean one).
TEST(Integrity, ScrubWithoutSidecarReportsUnsummed) {
  pfs::FileSystem fs;
  MakePatternFile(fs, "u.nc");
  pnc_test::DropJournal(fs, "u.nc");
  auto v = nctools::VerifyFile(fs, "u.nc", {.repair = false, .data = true});
  ASSERT_TRUE(v.ok()) << v.status().message();
  ASSERT_TRUE(v.value().scrub.has_value());
  const ncformat::ScrubReport& s = *v.value().scrub;
  EXPECT_FALSE(s.trusted);
  EXPECT_EQ(s.corrupt, 0u);
  EXPECT_EQ(s.clean, 0u);
  EXPECT_GT(s.unsummed, 0u);

  // --repair --data on a file without a journal starts a fresh one whose
  // closed table covers every chunk.
  auto rebuilt =
      nctools::VerifyFile(fs, "u.nc", {.repair = true, .data = true});
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().message();
  EXPECT_TRUE(rebuilt.value().sums_rebuilt);
  auto after = nctools::VerifyFile(fs, "u.nc", {.repair = false, .data = true});
  ASSERT_TRUE(after.ok()) << after.status().message();
  EXPECT_TRUE(after.value().has_journal);
  EXPECT_EQ(after.value().state, ncformat::FileState::kClean);
  EXPECT_TRUE(after.value().scrub->trusted);
  EXPECT_EQ(after.value().scrub->unsummed, 0u);
  EXPECT_EQ(after.value().scrub->clean, s.unsummed);
}

// The table rides the journal, so a writable open of a file without one
// (a legacy file) starts one: the session's closing commit then covers what
// it wrote, and scrub catches a later flip. With PNC_SUMS=0 no journal is
// created and the file keeps its legacy, journal-less life.
TEST(Integrity, WritableOpenOfJournalLessFileStartsJournal) {
  for (const int nprocs : {0, 3}) {
    SCOPED_TRACE(nprocs == 0 ? "serial" : "3 ranks");
    pfs::FileSystem fs;
    MakePatternFile(fs, "l.nc");
    pnc_test::DropJournal(fs, "l.nc");
    std::vector<signed char> vals(kSerialElems);
    for (std::uint64_t i = 0; i < kSerialElems; ++i)
      vals[i] = static_cast<signed char>(PatternAt(i) + 1);
    if (nprocs == 0) {
      auto ds = netcdf::Dataset::Open(fs, "l.nc", /*writable=*/true).value();
      ASSERT_TRUE(ds.PutVar<signed char>(ds.VarId("d").value(), vals).ok());
      ASSERT_TRUE(ds.Close().ok());
    } else {
      simmpi::Run(nprocs, [&](Comm& c) {
        auto ds = pnetcdf::Dataset::Open(c, fs, "l.nc", /*writable=*/true,
                                         simmpi::NullInfo())
                      .value();
        const std::uint64_t r = static_cast<std::uint64_t>(c.rank());
        const std::uint64_t n = static_cast<std::uint64_t>(nprocs);
        const std::uint64_t lo = kSerialElems * r / n;
        const std::uint64_t hi = kSerialElems * (r + 1) / n;
        const std::uint64_t st[] = {lo};
        const std::uint64_t ct[] = {hi - lo};
        ASSERT_TRUE(ds.PutVaraAll<signed char>(
                          ds.VarId("d").value(), st, ct,
                          std::span<const signed char>(vals).subspan(lo,
                                                                     hi - lo))
                        .ok());
        ASSERT_TRUE(ds.Close().ok());
      });
    }
    auto v = nctools::VerifyFile(fs, "l.nc", {.repair = false, .data = true});
    ASSERT_TRUE(v.ok()) << v.status().message();
    EXPECT_TRUE(v.value().has_journal);
    EXPECT_EQ(v.value().state, ncformat::FileState::kClean);
    EXPECT_TRUE(v.value().scrub->trusted);
    EXPECT_EQ(v.value().scrub->unsummed, 0u);
    EXPECT_EQ(v.value().scrub->corrupt, 0u);
    EXPECT_GT(v.value().scrub->clean, 0u);
    FlipByteAt(fs, "l.nc", DataBegin(fs, "l.nc") + 7);
    auto flipped =
        nctools::VerifyFile(fs, "l.nc", {.repair = false, .data = true});
    ASSERT_TRUE(flipped.ok());
    EXPECT_EQ(flipped.value().scrub->corrupt, 1u);
  }

  EnvGuard no_sums("PNC_SUMS", "0");
  pfs::FileSystem fs;
  MakePatternFile(fs, "l.nc");
  pnc_test::DropJournal(fs, "l.nc");
  {
    auto ds = netcdf::Dataset::Open(fs, "l.nc", /*writable=*/true).value();
    ASSERT_TRUE(ds.Close().ok());
  }
  simmpi::Run(3, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Open(c, fs, "l.nc", /*writable=*/true,
                               simmpi::NullInfo())
            .value();
    ASSERT_TRUE(ds.Close().ok());
  });
  EXPECT_FALSE(fs.Exists(ncformat::JournalPath("l.nc")));
}

// ------------------------------------------------- determinism guard

// PNC_SUMS=0 switches the whole subsystem off: the journal commits no
// chunk-sum table, no second sidecar ever exists, and the primary file is
// bit-identical to one written with checksums on — the integrity layer
// never perturbs the netCDF bytes themselves.
TEST(Integrity, SumsOffIsBitIdenticalAndSidecarFree) {
  std::vector<std::byte> with, without;
  {
    pfs::FileSystem fs;
    MakePatternFile(fs, "d.nc");
    EXPECT_GT(CommittedState(fs, "d.nc").table_len, 0u);
    with = FileBytes(fs, "d.nc");
  }
  {
    EnvGuard off("PNC_SUMS", "0");
    pfs::FileSystem fs;
    MakePatternFile(fs, "d.nc");
    EXPECT_EQ(CommittedState(fs, "d.nc").table_len, 0u);
    EXPECT_FALSE(fs.Exists("d.nc.ncsum"));
    without = FileBytes(fs, "d.nc");
  }
  EXPECT_EQ(with, without);
}

TEST(Integrity, ParallelSumsOffIsBitIdenticalAndSidecarFree) {
  std::vector<std::byte> with, without;
  {
    pfs::FileSystem fs;
    CreateGrid(fs);
    EXPECT_GT(CommittedState(fs, "g.nc").table_len, 0u);
    with = FileBytes(fs, "g.nc");
  }
  {
    EnvGuard off("PNC_SUMS", "0");
    pfs::FileSystem fs;
    CreateGrid(fs);
    EXPECT_EQ(CommittedState(fs, "g.nc").table_len, 0u);
    EXPECT_FALSE(fs.Exists("g.nc.ncsum"));
    without = FileBytes(fs, "g.nc");
  }
  EXPECT_EQ(with, without);
}

// ------------------------------------------------- sidecar traffic

// The journal is the only sidecar, and every Sync/Close commit is one
// journal write plus one sync: [slot A | slot B | shadow | table] from
// offset 8, or from offset 0 with the magic over a blank journal. Create
// writes nothing, and the first EndDef writes the primary header alone.
// At the format level a counting store
// sees each call; at the dataset level pfs::Stats deltas do (a sync is a
// zero-length write request there), and the table's share is isolated by
// running the same lifecycle with PNC_SUMS=0.

/// In-memory CommitIo that records every write and sync it is asked for.
class CountingCommitIo final : public ncformat::CommitIo {
 public:
  struct Call {
    std::uint64_t offset, len;
  };
  pnc::Status Read(std::uint64_t offset, pnc::ByteSpan out) override {
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = offset + i < bytes.size() ? bytes[offset + i] : std::byte{0};
    return pnc::Status::Ok();
  }
  pnc::Status Write(std::uint64_t offset, pnc::ConstByteSpan data) override {
    writes.push_back({offset, data.size()});
    if (bytes.size() < offset + data.size()) bytes.resize(offset + data.size());
    std::copy(data.begin(), data.end(), bytes.begin() + offset);
    return pnc::Status::Ok();
  }
  pnc::Status Sync() override {
    ++syncs;
    return pnc::Status::Ok();
  }
  std::uint64_t Size() override { return bytes.size(); }

  std::vector<std::byte> bytes;
  std::vector<Call> writes;
  int syncs = 0;
};

std::vector<std::byte> EncodedHeader(int ndims) {
  ncformat::Header h;
  h.version = 2;
  for (int d = 0; d < ndims; ++d)
    h.dims.push_back({"d" + std::to_string(d), 8});
  std::vector<std::byte> bytes;
  h.Encode(bytes);
  return bytes;
}

TEST(SidecarTraffic, SumsCommitIsOneSlotAndTableWrite) {
  CountingCommitIo io;
  const std::vector<std::byte> header = EncodedHeader(1);
  ncformat::ChunkSumMap map;
  map.SetGeometry(4096, 128);
  map.Set(0, {4096, 0x1234u});
  ncformat::CommitState state = ncformat::PrimaryState(header, 0, false);
  // The first commit over the primary lays the journal down in one write,
  // [magic | slot A | zero slot B | shadow], and one sync. It is
  // session-OPEN, so it carries no table: nothing to trust.
  ASSERT_TRUE(ncformat::Commit(io, header, 0, &map, /*open=*/true, state).ok());
  ASSERT_EQ(io.writes.size(), 1u);
  EXPECT_EQ(io.syncs, 1);
  EXPECT_EQ(io.writes[0].offset, 0u);
  EXPECT_EQ(io.writes[0].len, ncformat::kJournalShadowOffset + header.size());
  EXPECT_EQ(state.seq, 1u);
  EXPECT_EQ(state.slot, 0);
  EXPECT_EQ(state.table_len, 0u);
  EXPECT_EQ(state.flags, ncformat::kCommitFlagOpen);
  EXPECT_FALSE(ncformat::ReadCommittedSums(io, state).value().has_value());

  // A data commit with a grown table and record count, closed: one write
  // from offset 8 through the table end, one sync.
  map.Set(1, {100, 0x5678u});
  ASSERT_TRUE(
      ncformat::Commit(io, header, 3, &map, /*open=*/false, state).ok());
  ASSERT_EQ(io.writes.size(), 2u);
  EXPECT_EQ(io.syncs, 2);
  EXPECT_EQ(io.writes[1].offset, ncformat::kJournalSlotOffset[0]);
  EXPECT_EQ(io.writes[1].len, 2 * ncformat::kJournalSlotSize + header.size() +
                                  map.EncodeTable().size());
  const auto read = ncformat::ReadCommitState(io).value();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->seq, 2u);
  EXPECT_EQ(read->slot, 1);
  EXPECT_EQ(read->numrecs, 3u);
  const std::optional<ncformat::ChunkSumMap> loaded =
      ncformat::ReadCommittedSums(io, *read).value();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->entries(), map.entries());
}

TEST(SidecarTraffic, FirstJournalCommitCarriesTheMagic) {
  CountingCommitIo j;
  // Present but empty: nothing committed (not "no journal").
  auto none = ncformat::ReadCommitState(j);
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none.value().has_value());

  // The header unchanged since the primary's (a Sync that grew the
  // records): a data commit, one write from offset 0 — magic, the new slot
  // A, a zeroed slot B and the shadow — and one sync.
  const std::vector<std::byte> header = EncodedHeader(1);
  ncformat::CommitState state = ncformat::PrimaryState(header, 0, false);
  ASSERT_TRUE(ncformat::Commit(j, header, 3, nullptr, false, state).ok());
  ASSERT_EQ(j.writes.size(), 1u);
  EXPECT_EQ(j.syncs, 1);
  EXPECT_EQ(j.writes[0].offset, 0u);
  EXPECT_EQ(j.writes[0].len, ncformat::kJournalShadowOffset + header.size());
  const auto first = ncformat::ReadCommitState(j).value();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->seq, 1u);
  EXPECT_EQ(first->slot, 0);
  EXPECT_EQ(first->numrecs, 3u);
  for (std::uint64_t i = ncformat::kJournalSlotOffset[1];
       i < ncformat::kJournalShadowOffset; ++i)
    ASSERT_EQ(j.bytes[i], std::byte{0}) << i;

  // A changed header over the primary (a Redef over a blank journal): a
  // header commit, [magic | zero slots | shadow] from offset 0, sync, then
  // slot A, sync.
  CountingCommitIo r;
  const std::vector<std::byte> grown = EncodedHeader(2);
  state = ncformat::PrimaryState(header, 0, false);
  ASSERT_TRUE(ncformat::Commit(r, grown, 0, nullptr, false, state).ok());
  ASSERT_EQ(r.writes.size(), 2u);
  EXPECT_EQ(r.syncs, 2);
  EXPECT_EQ(r.writes[0].offset, 0u);
  EXPECT_EQ(r.writes[0].len, ncformat::kJournalShadowOffset + grown.size());
  EXPECT_EQ(r.writes[1].offset, ncformat::kJournalSlotOffset[0]);
  EXPECT_EQ(r.writes[1].len, ncformat::kJournalSlotSize);
  EXPECT_EQ(ncformat::ReadCommitState(r).value()->seq, 1u);

  // A later header commit: the shadow alone, then the other slot.
  ASSERT_TRUE(ncformat::Commit(r, header, 0, nullptr, false, state).ok());
  ASSERT_EQ(r.writes.size(), 4u);
  EXPECT_EQ(r.syncs, 4);
  EXPECT_EQ(r.writes[2].offset, ncformat::kJournalShadowOffset);
  EXPECT_EQ(r.writes[2].len, header.size());
  EXPECT_EQ(r.writes[3].offset, ncformat::kJournalSlotOffset[1]);
  // Same header again: a data commit, one write and one sync.
  ASSERT_TRUE(ncformat::Commit(r, header, 5, nullptr, false, state).ok());
  ASSERT_EQ(r.writes.size(), 5u);
  EXPECT_EQ(r.syncs, 5);
  EXPECT_EQ(r.writes[4].offset, ncformat::kJournalSlotOffset[0]);
  EXPECT_EQ(ncformat::ReadCommitState(r).value()->numrecs, 5u);
}

/// A journal whose commit in force holds `header` with `slot_recs`
/// records (a header commit, then a data commit), and a primary holding
/// `header` with `primary_recs` in its numrecs field.
struct CommittedPair {
  CountingCommitIo journal, primary;
};
CommittedPair CommitPair(const std::vector<std::byte>& header,
                         std::uint64_t slot_recs, std::uint32_t primary_recs) {
  CommittedPair out;
  ncformat::CommitState state = ncformat::PrimaryState(header, 0, false);
  EXPECT_TRUE(
      ncformat::Commit(out.journal, header, 0, nullptr, true, state).ok());
  EXPECT_TRUE(ncformat::Commit(out.journal, header, slot_recs, nullptr, true,
                               state)
                  .ok());
  std::vector<std::byte> prim = header;
  const std::uint32_t big = pnc::xdr::ToBig(primary_recs);
  std::memcpy(prim.data() + 4, &big, 4);
  EXPECT_TRUE(out.primary.Write(0, prim).ok());
  out.primary.writes.clear();
  return out;
}

/// The record count of a decoded committed header image.
std::uint64_t NumrecsOf(const std::vector<std::byte>& image) {
  return ncformat::Header::Decode(image).value().numrecs;
}

// A Sync commits the record count to the journal slot alone, so the
// primary's field trails it until Close. Recovery reads that as clean, with
// the slot's count in the header it returns, and a repair catches the
// field up with the one 4-byte patch and its sync.
TEST(CommitRecovery, TrailingPrimaryCountIsCleanWithTheSlotsCount) {
  const std::vector<std::byte> header = EncodedHeader(1);
  CommittedPair p = CommitPair(header, 5, 2);
  auto rep = ncformat::AnalyzeCommit(&p.journal, p.primary);
  ASSERT_TRUE(rep.ok()) << rep.status().message();
  EXPECT_EQ(rep.value().state, ncformat::FileState::kClean)
      << rep.value().detail;
  EXPECT_TRUE(rep.value().numrecs_lag);
  EXPECT_FALSE(rep.value().numrecs_only);
  EXPECT_EQ(rep.value().committed.numrecs, 5u);
  EXPECT_EQ(NumrecsOf(rep.value().committed_header), 5u);
  EXPECT_EQ(ncformat::HeaderCrc(rep.value().committed_header),
            ncformat::HeaderCrc(header));

  ASSERT_TRUE(ncformat::RepairFromReport(rep.value(), p.primary).ok());
  ASSERT_EQ(p.primary.writes.size(), 1u);
  EXPECT_EQ(p.primary.writes[0].offset, 4u);
  EXPECT_EQ(p.primary.writes[0].len, 4u);
  EXPECT_EQ(p.primary.syncs, 1);
  rep = ncformat::AnalyzeCommit(&p.journal, p.primary);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.value().state, ncformat::FileState::kClean);
  EXPECT_FALSE(rep.value().numrecs_lag);
  EXPECT_EQ(NumrecsOf(rep.value().committed_header), 5u);

  // Nothing left to repair: no write, no sync.
  ASSERT_TRUE(ncformat::RepairFromReport(rep.value(), p.primary).ok());
  EXPECT_EQ(p.primary.writes.size(), 1u);
  EXPECT_EQ(p.primary.syncs, 1);
}

// A primary count above the slot's is a state the protocol never produces
// (the slot commits a count before any primary write carries it), so it
// stays torn: the committed header carries the slot's count and a repair
// rewrites the primary header.
TEST(CommitRecovery, LeadingPrimaryCountIsTornAndRepairsToTheSlotsCount) {
  const std::vector<std::byte> header = EncodedHeader(1);
  CommittedPair p = CommitPair(header, 5, 7);
  auto rep = ncformat::AnalyzeCommit(&p.journal, p.primary);
  ASSERT_TRUE(rep.ok()) << rep.status().message();
  EXPECT_EQ(rep.value().state, ncformat::FileState::kTornRecoverable)
      << rep.value().detail;
  EXPECT_TRUE(rep.value().numrecs_only);
  EXPECT_FALSE(rep.value().numrecs_lag);
  EXPECT_EQ(NumrecsOf(rep.value().committed_header), 5u);

  ASSERT_TRUE(ncformat::RepairFromReport(rep.value(), p.primary).ok());
  ASSERT_EQ(p.primary.writes.size(), 1u);
  EXPECT_EQ(p.primary.writes[0].offset, 0u);
  EXPECT_EQ(p.primary.writes[0].len, header.size());
  rep = ncformat::AnalyzeCommit(&p.journal, p.primary);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.value().state, ncformat::FileState::kClean);
  EXPECT_FALSE(rep.value().numrecs_lag);
  EXPECT_EQ(NumrecsOf(p.primary.bytes), 5u);
}

// A commit that restates the commit in force (same header, record count and
// flags, no table on either side) writes and syncs nothing and leaves the
// state as it was. A change to any one of those, or a table on either side,
// still commits: one write and one sync, or the two of a header commit.
TEST(SidecarTraffic, RestatementWritesNothing) {
  const std::vector<std::byte> header = EncodedHeader(1);
  ncformat::ChunkSumMap map;
  map.SetGeometry(4096, 128);
  map.Set(0, {4096, 0x1234u});
  struct Case {
    const char* what;
    std::vector<std::byte> header;
    std::uint64_t numrecs;
    const ncformat::ChunkSumMap* sums;
    bool open;
    std::size_t writes;  ///< and as many syncs
  };
  // Over an OPEN commit of `header`, 2 records and no table.
  const Case over_open[] = {
      {"restated OPEN", header, 2, &map, true, 0},
      {"numrecs", header, 3, &map, true, 1},
      {"flags", header, 2, nullptr, false, 1},
      {"header", EncodedHeader(2), 2, &map, true, 2},
  };
  // Over a closed commit of `header`, 2 records and no table (sums off).
  const Case over_closed[] = {
      {"restated closed", header, 2, nullptr, false, 0},
      {"table", header, 2, &map, false, 1},
  };
  for (const bool open_base : {true, false}) {
    CountingCommitIo base;
    ncformat::CommitState in_force = ncformat::PrimaryState(header, 0, false);
    // Records 1, then 2: seq 2 in slot B, which a skip must not flip.
    for (std::uint64_t recs = 1; recs <= 2; ++recs)
      ASSERT_TRUE(ncformat::Commit(base, header, recs,
                                   open_base ? &map : nullptr, open_base,
                                   in_force)
                      .ok());
    ASSERT_EQ(in_force.seq, 2u);
    ASSERT_EQ(in_force.table_len, 0u);
    for (const Case& c : open_base ? std::span<const Case>(over_open)
                                   : std::span<const Case>(over_closed)) {
      SCOPED_TRACE(c.what);
      CountingCommitIo io = base;
      io.writes.clear();
      io.syncs = 0;
      ncformat::CommitState state = in_force;
      ASSERT_TRUE(
          ncformat::Commit(io, c.header, c.numrecs, c.sums, c.open, state)
              .ok());
      EXPECT_EQ(io.writes.size(), c.writes);
      EXPECT_EQ(io.syncs, static_cast<int>(c.writes));
      const auto read = ncformat::ReadCommitState(io).value();
      ASSERT_TRUE(read.has_value());
      EXPECT_EQ(read->seq, state.seq);
      if (c.writes == 0) {
        EXPECT_EQ(io.bytes, base.bytes);
        EXPECT_EQ(state.seq, in_force.seq);
        EXPECT_EQ(state.slot, in_force.slot);
      } else {
        EXPECT_EQ(state.seq, in_force.seq + 1);
        EXPECT_EQ(state.slot, 1 - in_force.slot);
      }
    }
  }

  // The primary restated (an idle Sync after a fresh EndDef, sums on or
  // off) writes nothing either: the journal stays blank.
  for (const bool open : {true, false}) {
    CountingCommitIo io;
    ncformat::CommitState state = ncformat::PrimaryState(header, 2, open);
    ASSERT_TRUE(ncformat::Commit(io, header, 2, open ? &map : nullptr, open,
                                 state)
                    .ok());
    EXPECT_TRUE(io.writes.empty());
    EXPECT_EQ(io.syncs, 0);
    EXPECT_EQ(state.seq, 0u);
    EXPECT_FALSE(ncformat::ReadCommitState(io).value().has_value());
  }

  // A closing commit that restates a table still writes it: only a commit
  // with no table on either side is a restatement.
  CountingCommitIo io;
  ncformat::CommitState state = ncformat::PrimaryState(header, 2, false);
  ASSERT_TRUE(ncformat::Commit(io, header, 2, &map, false, state).ok());
  ASSERT_GT(state.table_len, 0u);
  io.writes.clear();
  io.syncs = 0;
  ASSERT_TRUE(ncformat::Commit(io, header, 2, &map, false, state).ok());
  EXPECT_EQ(io.writes.size(), 1u);
  EXPECT_EQ(io.syncs, 1);
  EXPECT_EQ(state.seq, 2u);
}

// The tear argument of a data commit, byte by byte: pfs tears a write as a
// prefix, so land every prefix of the one write over a committed journal.
// The journal must read as the old commit with its table intact, or the
// new commit with its table intact or unsummed — whichever slot is new.
// Over a blank journal (first_slot -1) the old commit is the primary: a
// prefix holds no valid slot, or the new one.
TEST(SidecarTraffic, DataCommitEveryPrefixIsOldOrNew) {
  const std::vector<std::byte> header = EncodedHeader(1);
  for (int first_slot = -1; first_slot < 2; ++first_slot) {
    CountingCommitIo base;
    ncformat::ChunkSumMap map;
    map.SetGeometry(4096, 128);
    map.Set(0, {4096, 0x1111u});
    ncformat::CommitState old = ncformat::PrimaryState(header, 1, false);
    for (int k = 0; k <= first_slot; ++k)  // the old commit sits in A or B
      ASSERT_TRUE(ncformat::Commit(base, header, 1, &map, false, old).ok());
    if (first_slot >= 0) {
      ASSERT_EQ(old.slot, first_slot);
    }
    const auto old_entries = map.entries();
    map.Set(1, {4096, 0x2222u});
    map.Set(2, {17, 0x3333u});
    CountingCommitIo full = base;
    ncformat::CommitState next = old;
    ASSERT_TRUE(ncformat::Commit(full, header, 2, &map, false, next).ok());
    const CountingCommitIo::Call w = full.writes.back();
    int old_seen = 0, new_seen = 0, new_unsummed = 0;
    for (std::uint64_t n = 0; n <= w.len; ++n) {
      SCOPED_TRACE("slot " + std::to_string(first_slot) + " prefix " +
                   std::to_string(n));
      CountingCommitIo torn = base;
      torn.bytes.resize(std::max<std::uint64_t>(torn.bytes.size(),
                                                w.offset + n));
      const auto at = static_cast<std::ptrdiff_t>(w.offset);
      std::copy_n(full.bytes.begin() + at, n, torn.bytes.begin() + at);
      const auto st = ncformat::ReadCommitState(torn).value();
      if (!st) {
        ASSERT_EQ(old.seq, 0u) << "a committed slot was lost";
        ++old_seen;  // the primary stands
        continue;
      }
      ASSERT_EQ(ncformat::HeaderCrc(header), st->header_crc);
      const std::optional<ncformat::ChunkSumMap> sums =
          ncformat::ReadCommittedSums(torn, *st).value();
      if (st->seq == old.seq) {
        EXPECT_EQ(st->numrecs, 1u);
        ASSERT_TRUE(sums.has_value());
        EXPECT_EQ(sums->entries(), old_entries);
        ++old_seen;
      } else {
        ASSERT_EQ(st->seq, next.seq);
        EXPECT_EQ(st->numrecs, 2u);
        if (sums) {
          EXPECT_EQ(sums->entries(), map.entries());
          ++new_seen;
        } else {
          ++new_unsummed;
        }
      }
    }
    EXPECT_GT(old_seen, 0);
    EXPECT_GT(new_unsummed, 0);
    EXPECT_GT(new_seen, 0);
  }
}

/// pfs write requests (syncs included) and bytes written during a step.
struct Traffic {
  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;
};

Traffic operator-(const Traffic& a, const Traffic& b) {
  return {a.requests - b.requests, a.bytes - b.bytes};
}

/// The steps of a small lifecycle whose journal traffic is pinned. The
/// growth steps write a record that extends the record count; each is
/// followed by the same write again, which does not.
enum Step {
  kCreate,
  kEndDef,
  kSyncAfterPut,
  kSyncIdle,
  kGrowPut,
  kRewritePut,
  kSyncAfterGrowth,
  kGrowWait,
  kRewriteWait,
  kSyncAfterWait,
  kSyncIdleAfterGrowth,
  kClose,
  kSteps
};

struct Lifecycle {
  Traffic step[kSteps];
  std::uint32_t disk_numrecs[kSteps] = {};  ///< primary bytes [4, 8) after
  std::uint64_t journal_seq[kSteps] = {};   ///< the commit in force after
  std::uint64_t journal_numrecs[kSteps] = {};  ///< and its record count
  std::uint64_t header_len = 0;
  std::uint64_t journal_size = 0;
  std::uint64_t table_len = 0;  ///< the committed chunk-sum table's size
  bool second_sidecar = false;  ///< anything but the journal beside t.nc
};

/// Serial (nprocs 0) or parallel: Create, define a fixed and a record
/// variable of the same size, EndDef, put, Sync, Sync, then two growth
/// rounds (a put, and in parallel an IputVara + WaitAll; each repeated
/// without growth, then a Sync), an idle Sync and Close, with each step's
/// pfs write traffic.
Lifecycle RunLifecycle(int nprocs) {
  constexpr std::uint64_t kLen = 64;
  pfs::FileSystem fs;
  Lifecycle out;
  const auto now = [&fs] {
    const pfs::Stats s = fs.stats();
    return Traffic{s.write_requests, s.bytes_written};
  };
  const auto record = [&](Step s, Traffic t0) {
    out.step[s] = now() - t0;
    if (s == kCreate) return;
    out.disk_numrecs[s] = pnc_test::DiskNumrecs(fs, "t.nc");
    const ncformat::CommitState committed = CommittedState(fs, "t.nc");
    out.journal_seq[s] = committed.seq;
    out.journal_numrecs[s] = committed.numrecs;
  };
  const std::vector<double> vals(kLen, 1.5);
  if (nprocs == 0) {
    Traffic t0 = now();
    auto ds = netcdf::Dataset::Create(fs, "t.nc").value();
    record(kCreate, t0);
    const int time = ds.DefDim("time", netcdf::kUnlimited).value();
    const int x = ds.DefDim("x", kLen).value();
    const int v = ds.DefVar("v", NcType::kDouble, {x}).value();
    const int r = ds.DefVar("r", NcType::kDouble, {time, x}).value();
    const auto step = [&](Step s, auto&& fn) {
      const Traffic t = now();
      EXPECT_TRUE(fn().ok()) << s;
      record(s, t);
    };
    const auto put_rec = [&](std::uint64_t rec) {
      const std::uint64_t st[] = {rec, 0};
      const std::uint64_t ct[] = {1, kLen};
      return ds.PutVara<double>(r, st, ct, vals);
    };
    const auto sync = [&] { return ds.Sync(); };
    step(kEndDef, [&] { return ds.EndDef(); });
    EXPECT_TRUE(ds.PutVar<double>(v, vals).ok());
    step(kSyncAfterPut, sync);
    step(kSyncIdle, sync);
    step(kGrowPut, [&] { return put_rec(0); });
    step(kRewritePut, [&] { return put_rec(0); });
    step(kSyncAfterGrowth, sync);
    step(kGrowWait, [&] { return put_rec(1); });
    step(kRewriteWait, [&] { return put_rec(1); });
    step(kSyncAfterWait, sync);
    step(kSyncIdleAfterGrowth, sync);
    step(kClose, [&] { return ds.Close(); });
  } else {
    simmpi::Run(nprocs, [&](Comm& c) {
      Traffic t0;
      // Rank 0 reads the counters between barriers, so every rank's I/O of
      // a step falls inside its window.
      const auto begin = [&] {
        c.Barrier();
        if (c.rank() == 0) t0 = now();
        c.Barrier();
      };
      const auto end = [&](Step s) {
        c.Barrier();
        if (c.rank() == 0) record(s, t0);
        c.Barrier();
      };
      begin();
      auto ds =
          pnetcdf::Dataset::Create(c, fs, "t.nc", simmpi::NullInfo()).value();
      end(kCreate);
      const int time = ds.DefDim("time", pnetcdf::kUnlimited).value();
      const int x = ds.DefDim("x", kLen).value();
      const int v = ds.DefVar("v", NcType::kDouble, {x}).value();
      const int r = ds.DefVar("r", NcType::kDouble, {time, x}).value();
      const auto step = [&](Step s, auto&& fn) {
        begin();
        EXPECT_TRUE(fn().ok()) << s;
        end(s);
      };
      const std::uint64_t share = kLen / static_cast<std::uint64_t>(c.size());
      const std::uint64_t lo = share * static_cast<std::uint64_t>(c.rank());
      const std::uint64_t n = c.rank() + 1 == c.size() ? kLen - lo : share;
      const std::span<const double> mine(vals.data(), n);
      const auto put_rec = [&](std::uint64_t rec) {
        const std::uint64_t st[] = {rec, lo};
        const std::uint64_t ct[] = {1, n};
        return ds.PutVaraAll<double>(r, st, ct, mine);
      };
      const auto wait_rec = [&](std::uint64_t rec) {
        pnetcdf::NonblockingQueue q(ds);
        const std::uint64_t st[] = {rec, lo};
        const std::uint64_t ct[] = {1, n};
        EXPECT_TRUE(q.IputVara<double>(r, st, ct, mine).ok());
        return q.WaitAll();
      };
      const auto sync = [&] { return ds.Sync(); };
      step(kEndDef, [&] { return ds.EndDef(); });
      const std::uint64_t st[] = {lo};
      const std::uint64_t ct[] = {n};
      EXPECT_TRUE(ds.PutVaraAll<double>(v, st, ct, mine).ok());
      step(kSyncAfterPut, sync);
      step(kSyncIdle, sync);
      step(kGrowPut, [&] { return put_rec(0); });
      step(kRewritePut, [&] { return put_rec(0); });
      step(kSyncAfterGrowth, sync);
      step(kGrowWait, [&] { return wait_rec(1); });
      step(kRewriteWait, [&] { return wait_rec(1); });
      step(kSyncAfterWait, sync);
      step(kSyncIdleAfterGrowth, sync);
      step(kClose, [&] { return ds.Close(); });
    });
  }
  out.header_len = HeaderOf(fs, "t.nc").EncodedSize();
  out.journal_size = fs.Open(ncformat::JournalPath("t.nc")).value().size();
  out.table_len = CommittedState(fs, "t.nc").table_len;
  out.second_sidecar = fs.Exists("t.nc.ncsum");
  return out;
}

class SidecarTrafficP : public ::testing::TestWithParam<int> {};

TEST_P(SidecarTrafficP, CreateWritesNothingAndEachCommitIsOneWrite) {
  const int nprocs = GetParam();
  const Lifecycle on = RunLifecycle(nprocs);
  Lifecycle off;
  {
    EnvGuard no_sums("PNC_SUMS", "0");
    off = RunLifecycle(nprocs);
  }
  EXPECT_FALSE(on.second_sidecar);
  EXPECT_FALSE(off.second_sidecar);
  EXPECT_EQ(off.table_len, 0u);
  const std::uint64_t h = on.header_len;
  const std::uint64_t table = on.table_len;
  ASSERT_GT(table, 0u);
  // The journal ends with the table, right after the shadow header.
  EXPECT_EQ(on.journal_size, ncformat::kJournalShadowOffset + h + table);
  EXPECT_EQ(off.journal_size, ncformat::kJournalShadowOffset + h);

  // Create writes nothing. The only request is the parallel library's
  // charged open round trip on the primary (a zero-length sync).
  const std::uint64_t open_trip = nprocs == 0 ? 0 : 1;
  EXPECT_EQ(on.step[kCreate].requests, open_trip);
  EXPECT_EQ(on.step[kCreate].bytes, 0u);
  EXPECT_EQ(off.step[kCreate].requests, open_trip);

  // The first EndDef writes the primary header (H bytes) and syncs it, on
  // the root alone: no data sync, no journal write. The primary is then the
  // commit in force (seq 0), sums on or off.
  for (const Lifecycle* l : {&on, static_cast<const Lifecycle*>(&off)}) {
    EXPECT_EQ(l->step[kEndDef].bytes, h);
    EXPECT_EQ(l->step[kEndDef].requests, 2u);
    EXPECT_EQ(l->journal_seq[kEndDef], 0u);
  }
  const std::uint64_t data_syncs =
      nprocs == 0 ? 1 : static_cast<std::uint64_t>(nprocs);

  // A Sync that grows no records restates the commit in force (same
  // header, record count and session-OPEN flag, no table), so with sums it
  // commits nothing: exactly the requests and bytes of the unsummed Sync,
  // the data sync alone (in parallel one collective sync, one request per
  // rank), and the journal's seq does not move.
  for (const auto& [s, prev] :
       {std::pair{kSyncAfterPut, kEndDef}, std::pair{kSyncIdle, kSyncAfterPut},
        std::pair{kSyncIdleAfterGrowth, kSyncAfterWait}}) {
    SCOPED_TRACE(s == kSyncAfterPut ? "Sync after a put" : "idle Sync");
    EXPECT_EQ(on.step[s].requests, off.step[s].requests);
    EXPECT_EQ(on.step[s].bytes, off.step[s].bytes);
    EXPECT_EQ(on.journal_seq[s], on.journal_seq[prev]);
    if (nprocs != 0) {
      EXPECT_EQ(on.step[s].requests, data_syncs);
      EXPECT_EQ(on.step[s].bytes, 0u);
    }
  }
  // An idle Sync writes no byte, serial included: the put before it is
  // flushed by the Sync after the put, and the commit is a restatement.
  for (const Step s : {kSyncIdle, kSyncIdleAfterGrowth}) {
    SCOPED_TRACE("idle Sync");
    EXPECT_EQ(on.step[s].bytes, 0u);
    EXPECT_EQ(off.step[s].bytes, 0u);
  }
  // A data commit writes [slot A | slot B | shadow] from offset 8; the
  // first one, over the primary, writes from offset 0 with the magic.
  const std::uint64_t commit_bytes = 2 * ncformat::kJournalSlotSize + h;
  const std::uint64_t first_commit_bytes = ncformat::kJournalShadowOffset + h;

  // A write that grows the records converges the count in memory only: a
  // collective put, or an IputVara + WaitAll, makes exactly the I/O of the
  // same write repeated without growth — no journal request, no data sync,
  // no numrecs patch — and the journal's count does not move until the
  // next Sync.
  for (const Lifecycle* l : {&on, static_cast<const Lifecycle*>(&off)}) {
    SCOPED_TRACE(l == &on ? "sums on" : "sums off");
    for (const auto& [grow, same, before, recs] :
         {std::tuple{kGrowPut, kRewritePut, kSyncIdle, 0u},
          std::tuple{kGrowWait, kRewriteWait, kSyncAfterGrowth, 1u}}) {
      if (nprocs != 0) {
        EXPECT_GT(l->step[grow].bytes, 0u);
      }
      EXPECT_EQ(l->step[grow].requests, l->step[same].requests);
      EXPECT_EQ(l->step[grow].bytes, l->step[same].bytes);
      EXPECT_EQ(l->journal_seq[grow], l->journal_seq[before]);
      EXPECT_EQ(l->journal_seq[same], l->journal_seq[before]);
      EXPECT_EQ(l->journal_numrecs[grow], recs);
      EXPECT_EQ(l->journal_numrecs[same], recs);
    }
    // The Sync after each growth round commits the grown count to the
    // journal slot alone: exactly the Sync after a put of as many bytes,
    // plus one journal write and its sync (a session-OPEN commit carries no
    // table). The first is the journal's first commit, from offset 0. No
    // numrecs patch, no second sync.
    for (const auto& [s, prev, recs, bytes] :
         {std::tuple{kSyncAfterGrowth, kSyncIdle, 1u, first_commit_bytes},
          std::tuple{kSyncAfterWait, kSyncAfterGrowth, 2u, commit_bytes}}) {
      SCOPED_TRACE(s == kSyncAfterGrowth ? "Sync after a put"
                                         : "Sync after a WaitAll");
      EXPECT_EQ(l->step[s].requests, l->step[kSyncAfterPut].requests + 2);
      EXPECT_EQ(l->step[s].bytes, l->step[kSyncAfterPut].bytes + bytes);
      EXPECT_EQ(l->journal_seq[s], l->journal_seq[prev] + 1);
      EXPECT_EQ(l->journal_numrecs[s], recs);
      if (nprocs != 0) {
        EXPECT_EQ(l->step[s].requests, data_syncs + 2);
      }
    }
    // The primary's count stays at EndDef's through every Sync, while the
    // journal's advances; Close catches it up.
    for (int s = kEndDef; s < kClose; ++s) {
      SCOPED_TRACE(s);
      EXPECT_EQ(l->disk_numrecs[s], 0u);
    }
    EXPECT_EQ(l->disk_numrecs[kClose], 2u);
    EXPECT_EQ(l->journal_numrecs[kClose], 2u);
  }
  // The primary lags at Close: an unsummed Close that grew nothing since
  // the last Sync syncs the data, as every Close that writes does, then
  // makes the 4-byte patch and its sync.
  EXPECT_EQ(off.step[kClose].requests, data_syncs + 2);
  EXPECT_EQ(off.step[kClose].bytes, 4u);

  // A summed Close adds one journal write, now closed and carrying the
  // table, and one sync.
  const Traffic close = on.step[kClose] - off.step[kClose];
  EXPECT_EQ(close.requests, 2u);
  EXPECT_EQ(close.bytes, commit_bytes + table);
}

/// Create t.nc with r(time, x), write record 0, Sync, and drop the handle
/// without a Close, as a writer that dies would: the journal holds one
/// record, the primary's count still EndDef's zero. Serial (nprocs 0) or
/// parallel.
void SyncAndAbandon(pfs::FileSystem& fs, int nprocs) {
  constexpr std::uint64_t kLen = 64;
  const std::vector<double> vals(kLen, 2.5);
  if (nprocs == 0) {
    auto ds = netcdf::Dataset::Create(fs, "t.nc").value();
    const int time = ds.DefDim("time", netcdf::kUnlimited).value();
    const int x = ds.DefDim("x", kLen).value();
    const int r = ds.DefVar("r", NcType::kDouble, {time, x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    const std::uint64_t st[] = {0, 0};
    const std::uint64_t ct[] = {1, kLen};
    ASSERT_TRUE(ds.PutVara<double>(r, st, ct, vals).ok());
    ASSERT_TRUE(ds.Sync().ok());
    return;
  }
  simmpi::Run(nprocs, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Create(c, fs, "t.nc", simmpi::NullInfo()).value();
    const int time = ds.DefDim("time", pnetcdf::kUnlimited).value();
    const int x = ds.DefDim("x", kLen).value();
    const int r = ds.DefVar("r", NcType::kDouble, {time, x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    const std::uint64_t share = kLen / static_cast<std::uint64_t>(c.size());
    const std::uint64_t lo = share * static_cast<std::uint64_t>(c.rank());
    const std::uint64_t n = c.rank() + 1 == c.size() ? kLen - lo : share;
    const std::uint64_t st[] = {0, lo};
    const std::uint64_t ct[] = {1, n};
    ASSERT_TRUE(
        ds.PutVaraAll<double>(r, st, ct, std::span(vals.data(), n)).ok());
    ASSERT_TRUE(ds.Sync().ok());
  });
}

/// The pfs write traffic of the Close of a writable reopen of t.nc that
/// writes nothing.
Traffic ReopenCloseTraffic(pfs::FileSystem& fs, int nprocs) {
  const auto now = [&fs] {
    const pfs::Stats s = fs.stats();
    return Traffic{s.write_requests, s.bytes_written};
  };
  Traffic t0, out;
  if (nprocs == 0) {
    auto ds = netcdf::Dataset::Open(fs, "t.nc", true).value();
    t0 = now();
    EXPECT_TRUE(ds.Close().ok());
    return now() - t0;
  }
  simmpi::Run(nprocs, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Open(c, fs, "t.nc", true, simmpi::NullInfo()).value();
    c.Barrier();
    if (c.rank() == 0) t0 = now();
    c.Barrier();
    EXPECT_TRUE(ds.Close().ok());
    c.Barrier();
    if (c.rank() == 0) out = now() - t0;
  });
  return out;
}

// A writable open of a file whose primary count trails the journal's (a
// Sync with no Close) records the lag, and its Close catches the primary up
// with the 4-byte patch and its sync, sums on or off, even though it grew
// nothing. The Close of a caught-up file makes neither. An unsummed
// parallel Close syncs the data only when it writes: here, to patch.
TEST_P(SidecarTrafficP, CloseCatchesUpOnlyALaggingPrimary) {
  const int nprocs = GetParam();
  for (const bool sums : {true, false}) {
    SCOPED_TRACE(sums ? "sums on" : "sums off");
    std::optional<EnvGuard> no_sums;
    if (!sums) no_sums.emplace("PNC_SUMS", "0");
    pfs::FileSystem fs;
    SyncAndAbandon(fs, nprocs);
    EXPECT_EQ(pnc_test::DiskNumrecs(fs, "t.nc"), 0u);
    EXPECT_EQ(CommittedState(fs, "t.nc").numrecs, 1u);
    const auto vr = nctools::VerifyFile(fs, "t.nc");
    ASSERT_TRUE(vr.ok()) << vr.status().message();
    EXPECT_EQ(vr.value().state, ncformat::FileState::kClean)
        << vr.value().detail;

    const Traffic lagging = ReopenCloseTraffic(fs, nprocs);
    EXPECT_EQ(pnc_test::DiskNumrecs(fs, "t.nc"), 1u);
    EXPECT_EQ(CommittedState(fs, "t.nc").numrecs, 1u);
    const Traffic caught_up = ReopenCloseTraffic(fs, nprocs);
    const std::uint64_t data_syncs =
        sums || nprocs == 0 ? 0 : static_cast<std::uint64_t>(nprocs);
    EXPECT_EQ(lagging.requests, caught_up.requests + data_syncs + 2);
    EXPECT_EQ(lagging.bytes, caught_up.bytes + 4);
    if (!sums) {
      // Unsummed, a caught-up Close writes nothing; the serial one syncs.
      EXPECT_EQ(caught_up.requests, nprocs == 0 ? 1u : 0u);
      EXPECT_EQ(caught_up.bytes, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, SidecarTrafficP, ::testing::Values(0, 3, 4),
                         [](const ::testing::TestParamInfo<int>& i) {
                           return i.param == 0 ? std::string("serial")
                                               : "p" + std::to_string(i.param);
                         });

// nc_abort closes the dataset. Outside a fresh create, an Abort ends the
// session by the close rule: after Create, record 0, Sync, record 1 and
// Abort, the journal slot is closed and carries the table, the primary's
// numrecs field has caught up with the slot's 2, and a read-only reopen
// verifies against the trusted table and reads both records.
class AbortP : public ::testing::TestWithParam<int> {};

TEST_P(AbortP, AbortEndsTheSessionByTheCloseRule) {
  const int nprocs = GetParam();
  constexpr std::uint64_t kLen = 64;
  const auto value = [](std::uint64_t rec, std::uint64_t i) {
    return static_cast<double>(100 * rec + i);
  };
  pfs::FileSystem fs;
  if (nprocs == 0) {
    auto ds = netcdf::Dataset::Create(fs, "t.nc").value();
    const int time = ds.DefDim("time", netcdf::kUnlimited).value();
    const int x = ds.DefDim("x", kLen).value();
    const int r = ds.DefVar("r", NcType::kDouble, {time, x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    for (std::uint64_t rec = 0; rec < 2; ++rec) {
      std::vector<double> vals(kLen);
      for (std::uint64_t i = 0; i < kLen; ++i) vals[i] = value(rec, i);
      const std::uint64_t st[] = {rec, 0};
      const std::uint64_t ct[] = {1, kLen};
      ASSERT_TRUE(ds.PutVara<double>(r, st, ct, vals).ok());
      if (rec == 0) {
        ASSERT_TRUE(ds.Sync().ok());
      }
    }
    ASSERT_TRUE(ds.Abort().ok());
  } else {
    simmpi::Run(nprocs, [&](Comm& c) {
      auto ds =
          pnetcdf::Dataset::Create(c, fs, "t.nc", simmpi::NullInfo()).value();
      const int time = ds.DefDim("time", pnetcdf::kUnlimited).value();
      const int x = ds.DefDim("x", kLen).value();
      const int r = ds.DefVar("r", NcType::kDouble, {time, x}).value();
      ASSERT_TRUE(ds.EndDef().ok());
      const std::uint64_t share = kLen / static_cast<std::uint64_t>(c.size());
      const std::uint64_t lo = share * static_cast<std::uint64_t>(c.rank());
      const std::uint64_t n = c.rank() + 1 == c.size() ? kLen - lo : share;
      for (std::uint64_t rec = 0; rec < 2; ++rec) {
        std::vector<double> vals(n);
        for (std::uint64_t i = 0; i < n; ++i) vals[i] = value(rec, lo + i);
        const std::uint64_t st[] = {rec, lo};
        const std::uint64_t ct[] = {1, n};
        ASSERT_TRUE(ds.PutVaraAll<double>(r, st, ct, vals).ok());
        if (rec == 0) {
          ASSERT_TRUE(ds.Sync().ok());
        }
      }
      ASSERT_TRUE(ds.Abort().ok());
    });
  }
  const ncformat::CommitState s = CommittedState(fs, "t.nc");
  EXPECT_EQ(s.flags & ncformat::kCommitFlagOpen, 0u);
  EXPECT_GT(s.table_len, 0u);
  EXPECT_EQ(s.numrecs, 2u);
  EXPECT_EQ(pnc_test::DiskNumrecs(fs, "t.nc"), 2u);
  const auto vr = nctools::VerifyFile(fs, "t.nc", {.data = true});
  ASSERT_TRUE(vr.ok()) << vr.status().message();
  EXPECT_EQ(vr.value().state, ncformat::FileState::kClean) << vr.value().detail;
  ASSERT_TRUE(vr.value().scrub.has_value());
  EXPECT_TRUE(vr.value().scrub->trusted);
  EXPECT_EQ(vr.value().scrub->corrupt, 0u);
  EXPECT_EQ(vr.value().scrub->unsummed, 0u);

  auto ds = netcdf::Dataset::Open(fs, "t.nc", /*writable=*/false).value();
  ASSERT_EQ(ds.numrecs(), 2u);
  std::vector<double> got(2 * kLen);
  ASSERT_TRUE(ds.GetVar<double>(ds.VarId("r").value(), got).ok());
  for (std::uint64_t rec = 0; rec < 2; ++rec)
    for (std::uint64_t i = 0; i < kLen; ++i)
      EXPECT_EQ(got[rec * kLen + i], value(rec, i)) << rec << "," << i;
  EXPECT_TRUE(ds.Close().ok());
}

INSTANTIATE_TEST_SUITE_P(Ranks, AbortP, ::testing::Values(0, 3),
                         [](const ::testing::TestParamInfo<int>& i) {
                           return i.param == 0 ? std::string("serial")
                                               : "p" + std::to_string(i.param);
                         });

// ------------------------------------ verified reads: one request per range

// The chunk grid starts at data_begin, but two-phase windows start on
// stripe or window boundaries and serial buffer blocks on block
// boundaries, so a physical read usually begins and ends inside a chunk.
// A verified read fetches its boundary chunks whole in the one request it
// makes anyway. Per call, through every read funnel: the same pfs read
// requests as the unsummed read, the boundary chunks' slack as the only
// extra bytes, and one CRC check per committed chunk each physical read
// overlaps.

signed char VCell(std::uint64_t i) {
  return static_cast<signed char>((i * 131 + 17) % 251 - 125);
}

/// A rows x cols byte grid "d", written serially and closed with sums,
/// whose 1001-byte history attribute puts data_begin off every chunk,
/// stripe and buffer-block boundary.
void CreateOffGridFile(pfs::FileSystem& fs, const std::string& path,
                       std::uint64_t rows, std::uint64_t cols) {
  auto ds = netcdf::Dataset::Create(fs, path).value();
  ASSERT_TRUE(
      ds.PutAttText(netcdf::kGlobal, "history", std::string(1001, 'h')).ok());
  const int y = ds.DefDim("y", rows).value();
  const int x = ds.DefDim("x", cols).value();
  const int v = ds.DefVar("d", NcType::kByte, {y, x}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  std::vector<signed char> vals(rows * cols);
  for (std::uint64_t i = 0; i < vals.size(); ++i) vals[i] = VCell(i);
  ASSERT_TRUE(ds.PutVar<signed char>(v, vals).ok());
  ASSERT_TRUE(ds.Close().ok());
}

/// One physical read, [off, end).
struct Range {
  std::uint64_t off = 0, end = 0;
};

/// What verifying the physical read `r` adds to the unsummed read: the
/// slack bytes its cover fetches and the chunks it checks — every
/// committed chunk whose summed extent overlaps `r` and lies within the
/// file.
struct CoverCost {
  std::uint64_t slack = 0, chunks = 0;
  std::uint64_t head = 0, tail = 0;  ///< slack before / after the read
};

CoverCost CostOf(const ncformat::ChunkSumMap& m, std::uint64_t fsize,
                 Range r) {
  CoverCost cc;
  if (r.end <= m.data_begin()) return cc;
  const std::uint64_t first = m.ChunkOf(std::max(r.off, m.data_begin()));
  for (std::uint64_t c = first; c <= m.ChunkOf(r.end - 1); ++c) {
    ncformat::ChunkSum sum;
    const std::uint64_t start = m.ChunkStart(c);
    if (!m.Lookup(c, &sum) || start + sum.len > fsize ||
        start + sum.len <= r.off)
      continue;
    ++cc.chunks;
    if (start < r.off) cc.head += r.off - start;
    if (start + sum.len > r.end) cc.tail += start + sum.len - r.end;
  }
  cc.slack = cc.head + cc.tail;
  return cc;
}

/// pfs read traffic, and chunk CRCs checked (all ranks).
struct ReadTraffic {
  std::uint64_t requests = 0, bytes = 0, verified = 0;
};

ReadTraffic ReadTrafficNow(pfs::FileSystem& fs) {
  const pfs::Stats s = fs.stats();
  ReadTraffic t{s.read_requests, s.bytes_read, 0};
#if PNC_IOSTAT_ENABLED
  const auto& reg = iostat::Registry::Get();
  for (int r = 0; r < reg.nranks(); ++r)
    t.verified += reg.Value(r, iostat::Ctr::kNcSumChunksVerified);
#endif
  return t;
}

ReadTraffic operator-(const ReadTraffic& a, const ReadTraffic& b) {
  return {a.requests - b.requests, a.bytes - b.bytes, a.verified - b.verified};
}

constexpr std::uint64_t kVRows = 1024, kVCols = 1000;  // 15 chunks + 40960 B
constexpr std::uint64_t kVBlock = 128 * 1024;  // serial buffer size
constexpr std::uint64_t kVWindow = 100000;     // two-phase cb_buffer_size
constexpr int kVAggs = 2;                      // cb_nodes

/// The serial calls of the traffic test: rows [r0, r1) of "d".
struct SerialCall {
  const char* name;
  std::uint64_t r0, r1;
};
const SerialCall kSerialCalls[] = {{"block load", 200, 203},
                                   {"two block loads", 500, 620},
                                   {"large-request bypass", 700, 1000},
                                   {"bypass to the short last chunk", 1, kVRows}};
/// The parallel calls, one per read funnel.
const ReadMode kParallelCalls[] = {ReadMode::kCollective,
                                   ReadMode::kIndependent, ReadMode::kSieved};

/// Rows [r0, r1) of the collective read on `rank` of `nprocs`.
std::pair<std::uint64_t, std::uint64_t> CollectiveRows(int rank, int nprocs) {
  const std::uint64_t lo = 3, hi = kVRows - 5;
  const std::uint64_t q = (hi - lo) / static_cast<std::uint64_t>(nprocs);
  const std::uint64_t r0 = lo + q * static_cast<std::uint64_t>(rank);
  return {r0, rank + 1 == nprocs ? hi : r0 + q};
}
std::uint64_t IndependentRow(int rank) {
  return 37 + 211 * static_cast<std::uint64_t>(rank);
}
constexpr std::uint64_t kIndependentRowCount = 150;
std::uint64_t SievedCol(int rank) {
  return 13 + 240 * static_cast<std::uint64_t>(rank);
}
constexpr std::uint64_t kSievedColCount = 200;

/// The physical reads one call makes, and the ends of the ranges it reads:
/// a verified read may fetch slack only beyond those.
struct CallReads {
  std::vector<Range> reads;
  std::set<std::uint64_t> range_ends;
};

/// The physical reads each call makes: buffer blocks (or bufsize pieces of
/// a large request) serially; in parallel one read per independent request
/// or sieve window, and one per two-phase window, following the file-domain
/// rule of mpiio/twophase.cpp. With `grid` (the verified session's sum
/// map) the bypass pieces and two-phase windows are cut on its chunk grid;
/// without (PNC_SUMS=0) at bufsize multiples and on the stripe grid.
std::vector<CallReads> ModelReads(int nprocs, std::uint64_t db,
                                  std::uint64_t fsize, std::uint64_t stripe,
                                  const ncformat::ChunkSumMap* grid) {
  std::vector<CallReads> calls;
  // Each read its own range: slack may fall at either end.
  const auto each_read_a_range = [](CallReads& c) {
    for (const Range& r : c.reads) c.range_ends.insert({r.off, r.end});
  };
  if (nprocs == 0) {
    std::uint64_t cached = ~0ull;  // block 0 holds the header read
    for (const auto& [name, r0, r1] : kSerialCalls) {
      CallReads call;
      const std::uint64_t a = db + r0 * kVCols, e = db + r1 * kVCols;
      if (e - a >= kVBlock) {
        std::uint64_t p = a;
        for (std::uint64_t k = 1; p < e; ++k) {
          std::uint64_t cut = std::min(e, a + k * kVBlock);
          if (grid != nullptr && cut < e)
            cut = grid->ChunkStart(grid->ChunkOf(cut));
          call.reads.push_back({p, cut});
          p = cut;
        }
        call.range_ends = {a, e};
        cached = ~0ull;
      } else {
        for (std::uint64_t b = a / kVBlock; b <= (e - 1) / kVBlock; ++b) {
          if (b != cached)
            call.reads.push_back(
                {b * kVBlock, std::min(fsize, (b + 1) * kVBlock)});
          cached = b;
        }
        each_read_a_range(call);
      }
      calls.push_back(call);
    }
    return calls;
  }
  const auto p = static_cast<std::uint64_t>(nprocs);
  // Two-phase: contiguous [gmin, gmax) split into domains and windows on
  // the grid. Stripe windows of a stripe or more are rounded down to a
  // stripe multiple, chunk windows up to a chunk multiple.
  CallReads coll;
  const std::uint64_t gmin = db + CollectiveRows(0, nprocs).first * kVCols;
  const std::uint64_t gmax =
      db + CollectiveRows(nprocs - 1, nprocs).second * kVCols;
  coll.range_ends = {gmin, gmax};
  if (nprocs == 1) {
    coll.reads.push_back({gmin, gmax});  // a one-rank collective is independent
  } else {
    const std::uint64_t origin = grid != nullptr ? db : 0;
    const std::uint64_t unit = grid != nullptr ? grid->chunk_size() : stripe;
    const std::uint64_t win = grid != nullptr ? (kVWindow + unit - 1) / unit * unit
                              : kVWindow >= unit ? kVWindow / unit * unit
                                                 : kVWindow;
    const std::uint64_t naggs = std::min<std::uint64_t>(kVAggs, p);
    const std::uint64_t base = origin + (gmin - origin) / unit * unit;
    const std::uint64_t per = (gmax - base + naggs - 1) / naggs;
    const std::uint64_t dsize = std::max(unit, (per + unit - 1) / unit * unit);
    for (std::uint64_t d = 0; d < naggs; ++d) {
      const std::uint64_t ds = base + d * dsize;
      const std::uint64_t de = std::min(gmax, ds + dsize);
      for (std::uint64_t w = ds; w < de; w += win) {
        const Range r{std::max(gmin, w), std::min(de, w + win)};
        if (r.off < r.end) coll.reads.push_back(r);
      }
    }
  }
  calls.push_back(coll);
  CallReads indep, sieved;
  for (int r = 0; r < nprocs; ++r) {
    const std::uint64_t a = db + IndependentRow(r) * kVCols;
    indep.reads.push_back({a, a + kIndependentRowCount * kVCols});
    sieved.reads.push_back({db + SievedCol(r),
                            db + (kVRows - 1) * kVCols + SievedCol(r) +
                                kSievedColCount});
  }
  each_read_a_range(indep);
  each_read_a_range(sieved);
  calls.push_back(indep);
  calls.push_back(sieved);
  return calls;
}

/// Make every call on a read-only open of `path` and return each call's
/// traffic; every call must return the written bytes.
std::vector<ReadTraffic> ReadCallTraffic(pfs::FileSystem& fs,
                                         const std::string& path,
                                         int nprocs) {
  std::vector<ReadTraffic> out;
  if (nprocs == 0) {
    auto ds = netcdf::Dataset::Open(fs, path, false, kVBlock).value();
    const int v = ds.VarId("d").value();
    for (const auto& [name, r0, r1] : kSerialCalls) {
      std::vector<signed char> got((r1 - r0) * kVCols);
      const std::uint64_t st[] = {r0, 0};
      const std::uint64_t ct[] = {r1 - r0, kVCols};
      const ReadTraffic t0 = ReadTrafficNow(fs);
      EXPECT_TRUE(ds.GetVara<signed char>(v, st, ct, got).ok());
      out.push_back(ReadTrafficNow(fs) - t0);
      std::uint64_t wrong = 0;
      for (std::uint64_t i = 0; i < got.size(); ++i)
        wrong += got[i] != VCell(r0 * kVCols + i);
      EXPECT_EQ(wrong, 0u) << "rows from " << r0;
    }
    EXPECT_TRUE(ds.Close().ok());
    return out;
  }
  simmpi::Run(nprocs, [&](Comm& c) {
    simmpi::Info info;
    info.Set("cb_buffer_size", std::to_string(kVWindow));
    info.Set("cb_nodes", std::to_string(kVAggs));
    auto ds = pnetcdf::Dataset::Open(c, fs, path, false, info).value();
    const int v = ds.VarId("d").value();
    ReadTraffic t0;
    for (const ReadMode mode : kParallelCalls) {
      const bool indep = mode != ReadMode::kCollective;
      if (indep) {
        ASSERT_TRUE(ds.BeginIndepData().ok());
      }
      std::uint64_t st[2], ct[2];
      if (mode == ReadMode::kCollective) {
        const auto [r0, r1] = CollectiveRows(c.rank(), c.size());
        st[0] = r0, st[1] = 0, ct[0] = r1 - r0, ct[1] = kVCols;
      } else if (mode == ReadMode::kIndependent) {
        st[0] = IndependentRow(c.rank()), st[1] = 0;
        ct[0] = kIndependentRowCount, ct[1] = kVCols;
      } else {
        st[0] = 0, st[1] = SievedCol(c.rank());
        ct[0] = kVRows, ct[1] = kSievedColCount;
      }
      std::vector<signed char> got(ct[0] * ct[1]);
      c.Barrier();
      if (c.rank() == 0) t0 = ReadTrafficNow(fs);
      c.Barrier();
      const pnc::Status rs = indep
                                 ? ds.GetVara<signed char>(v, st, ct, got)
                                 : ds.GetVaraAll<signed char>(v, st, ct, got);
      c.Barrier();
      if (c.rank() == 0) out.push_back(ReadTrafficNow(fs) - t0);
      c.Barrier();
      EXPECT_TRUE(rs.ok()) << ModeName(mode) << ": " << rs.message();
      for (std::uint64_t i = 0; i < ct[0]; ++i)
        for (std::uint64_t j = 0; j < ct[1]; ++j)
          ASSERT_EQ(got[i * ct[1] + j],
                    VCell((st[0] + i) * kVCols + st[1] + j))
              << ModeName(mode) << ", rank " << c.rank();
      if (indep) {
        ASSERT_TRUE(ds.EndIndepData().ok());
      }
    }
    EXPECT_TRUE(ds.Close().ok());
  });
  return out;
}

class VerifiedReadP : public ::testing::TestWithParam<int> {};

TEST_P(VerifiedReadP, OneRequestPerRange) {
  const int nprocs = GetParam();
  pfs::FileSystem fs;
  CreateOffGridFile(fs, "v.nc", kVRows, kVCols);
  const std::optional<ncformat::ChunkSumMap> sums = CommittedSums(fs, "v.nc");
  ASSERT_TRUE(sums.has_value());
  const std::uint64_t db = DataBegin(fs, "v.nc");
  const std::uint64_t fsize = fs.Open("v.nc").value().size();
  const std::uint64_t stripe = fs.config().stripe_size;
  const std::uint64_t cs = sums->chunk_size();
  ASSERT_EQ(sums->data_begin(), db);
  ASSERT_EQ(fsize, db + kVRows * kVCols);
  ASSERT_EQ(sums->entries().size(), (fsize - db + cs - 1) / cs);
  // Off the grid: no stripe, window, block or chunk boundary is a chunk's.
  ASSERT_NE(db % cs, 0u);
  ASSERT_NE(db % stripe, 0u);
  ASSERT_NE(db % kVBlock, 0u);

#if PNC_IOSTAT_ENABLED
  iostat::Registry::Get().Reset();
  iostat::SetSink(iostat::kSinkCounters, true);
#endif
  const std::vector<ReadTraffic> on = ReadCallTraffic(fs, "v.nc", nprocs);
  std::vector<ReadTraffic> off;
  {
    EnvGuard no_sums("PNC_SUMS", "0");
    off = ReadCallTraffic(fs, "v.nc", nprocs);
  }
#if PNC_IOSTAT_ENABLED
  iostat::SetSink(iostat::kSinkCounters, false);
  iostat::Registry::Get().Reset();
#endif

  const auto unsummed = ModelReads(nprocs, db, fsize, stripe, nullptr);
  const auto summed = ModelReads(nprocs, db, fsize, stripe, &*sums);
  ASSERT_EQ(off.size(), unsummed.size());
  ASSERT_EQ(on.size(), summed.size());
  for (std::size_t i = 0; i < summed.size(); ++i) {
    SCOPED_TRACE(nprocs == 0 ? kSerialCalls[i].name
                             : ModeName(kParallelCalls[i]));
    // The unsummed traffic is exactly the modelled reads.
    std::uint64_t bytes = 0;
    for (const Range& r : unsummed[i].reads) bytes += r.end - r.off;
    EXPECT_EQ(off[i].requests, unsummed[i].reads.size());
    EXPECT_EQ(off[i].bytes, bytes);
    EXPECT_EQ(off[i].verified, 0u);
    // Verified: one request per modelled read, each fetching only the
    // boundary chunks' slack, and that only at the outer ends of the
    // ranges the call reads; every cut inside a range lies on the chunk
    // grid, so no chunk is fetched twice.
    bytes = 0;
    CoverCost cost;
    for (const Range& r : summed[i].reads) {
      SCOPED_TRACE("[" + std::to_string(r.off) + ", " + std::to_string(r.end) +
                   ")");
      bytes += r.end - r.off;
      const CoverCost rc = CostOf(*sums, fsize, r);
      EXPECT_LT(rc.slack, 2 * cs);
      if (rc.head > 0) {
        EXPECT_EQ(summed[i].range_ends.count(r.off), 1u);
      }
      if (rc.tail > 0) {
        EXPECT_EQ(summed[i].range_ends.count(r.end), 1u);
      }
      cost.slack += rc.slack;
      cost.chunks += rc.chunks;
    }
    EXPECT_GT(cost.slack, 0u) << "the call's ranges end on chunk boundaries";
    EXPECT_EQ(on[i].requests, summed[i].reads.size());
    EXPECT_EQ(on[i].bytes, bytes + cost.slack);
#if PNC_IOSTAT_ENABLED
    EXPECT_EQ(on[i].verified, cost.chunks);
#endif
  }
  if (nprocs > 1) {
    // The 100,000-byte windows round up to the chunk grid, so the verified
    // two-phase read makes no more window reads than the unverified one
    // and fetches at most 1% more bytes.
    ASSERT_EQ(kParallelCalls[0], ReadMode::kCollective);
    EXPECT_LE(on[0].requests, off[0].requests);
    EXPECT_LE(on[0].bytes * 100, off[0].bytes * 101);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, VerifiedReadP, ::testing::Values(0, 1, 3, 4),
                         [](const ::testing::TestParamInfo<int>& i) {
                           return i.param == 0 ? std::string("serial")
                                               : "p" + std::to_string(i.param);
                         });

// ------------------------------------------- read-fault property sweep

// Read-side faults (transient flips, short reads) armed after a read-only
// open, swept over seeds, rank counts and every read funnel. A zero status
// is a promise: each rank's read either returns the written bytes or fails
// with kDataCorrupt. The sweep must also heal — including flips that land
// in a cover's slack, outside the caller's bytes — and an at-rest flip in
// a boundary chunk's slack must surface kDataCorrupt.

constexpr std::uint64_t kSRows = 256, kSCols = 250;  // 64000 B: 15.6 chunks
constexpr std::uint64_t kSBlock = 8192;   // serial buffer size

/// A read whose result a sweep checks: `got` against rows/cols of "d".
struct SweepRead {
  std::uint64_t st[2] = {0, 0}, ct[2] = {0, 0}, stride[2] = {1, 1};
  std::vector<signed char> got;
  [[nodiscard]] bool Matches() const {
    for (std::uint64_t i = 0; i < ct[0]; ++i)
      for (std::uint64_t j = 0; j < ct[1]; ++j)
        if (got[i * ct[1] + j] !=
            VCell((st[0] + i * stride[0]) * kSCols + st[1] + j * stride[1]))
          return false;
    return true;
  }
};

SweepRead SweepReadFor(ReadMode mode, int rank, int nprocs) {
  SweepRead r;
  const auto p = static_cast<std::uint64_t>(std::max(nprocs, 1));
  const auto k = static_cast<std::uint64_t>(rank);
  if (mode == ReadMode::kSieved) {
    const std::uint64_t w = kSCols / p;
    r.st[0] = 0, r.st[1] = 3 + w * k;
    r.ct[0] = kSRows, r.ct[1] = w - 3;
    if (nprocs == 0) r.stride[0] = 3, r.ct[0] = kSRows / 3, r.ct[1] = 40;
  } else if (nprocs == 0) {
    // Serial: one large request (the buffer bypass) or a short one that
    // goes through the block cache.
    r.st[0] = mode == ReadMode::kCollective ? 1 : 90;
    r.ct[0] = mode == ReadMode::kCollective ? kSRows - 1 : 20;
    r.ct[1] = kSCols;
  } else {
    const std::uint64_t band = kSRows / p;
    r.st[0] = band * k;
    r.ct[0] = k + 1 == p ? kSRows - r.st[0] : band;
    r.ct[1] = kSCols;
  }
  r.got.resize(r.ct[0] * r.ct[1]);
  return r;
}

/// Outcomes of one sweep cell.
struct SweepTally {
  int ok = 0, corrupt = 0, silent = 0, other = 0;
  void Add(const pnc::Status& st, bool matches) {
    if (st.ok())
      matches ? ++ok : ++silent;
    else
      st.code() == pnc::Err::kDataCorrupt ? ++corrupt : ++other;
  }
};

/// One read of `mode` on a read-only open of s.nc with `pol` armed after
/// the open; every rank's outcome lands in `tally`.
void SweepOnce(pfs::FileSystem& fs, int nprocs, ReadMode mode,
               const pfs::FaultPolicy& pol, SweepTally& tally) {
  if (nprocs == 0) {
    auto ds = netcdf::Dataset::Open(fs, "s.nc", false, kSBlock).value();
    fs.SetFaultPolicy(pol);
    SweepRead r = SweepReadFor(mode, 0, 0);
    const pnc::Status rs = ds.GetVars<signed char>(
        ds.VarId("d").value(), r.st, r.ct, r.stride, r.got);
    fs.SetFaultPolicy({});
    tally.Add(rs, r.Matches());
    const pnc::Status cs = ds.Close();
    EXPECT_EQ(cs.code(), rs.ok() ? pnc::Err::kNoErr : pnc::Err::kDataCorrupt);
    return;
  }
  simmpi::Run(nprocs, [&](Comm& c) {
    simmpi::Info info;
    info.Set("cb_buffer_size", "8192");  // several two-phase windows
    auto ds = pnetcdf::Dataset::Open(c, fs, "s.nc", false, info).value();
    if (c.rank() == 0) fs.SetFaultPolicy(pol);
    c.Barrier();
    const int v = ds.VarId("d").value();
    SweepRead r = SweepReadFor(mode, c.rank(), nprocs);
    pnc::Status rs;
    if (mode == ReadMode::kCollective) {
      rs = ds.GetVaraAll<signed char>(v, r.st, r.ct, r.got);
    } else {
      EXPECT_TRUE(ds.BeginIndepData().ok());
      rs = ds.GetVara<signed char>(v, r.st, r.ct, r.got);
      EXPECT_TRUE(ds.EndIndepData().ok());
    }
    c.Barrier();
    if (c.rank() == 0) fs.SetFaultPolicy({});
    c.Barrier();
    tally.Add(rs, r.Matches());
    const pnc::Status cs = ds.Close();
    EXPECT_EQ(cs.code(), rs.ok() ? pnc::Err::kNoErr : pnc::Err::kDataCorrupt)
        << "rank " << c.rank();
  });
}

/// A verified read straight over the faulted pfs file: [lo, hi) straddles
/// a chunk boundary, so most of its cover is slack. The raw reader locates
/// flips in the cover request against the harness bytes. True when a flip
/// landed in the slack and the read still returned the right bytes.
bool SlackFlipHealed(pfs::FileSystem& fs, const ncformat::ChunkSumMap& sums,
                     std::uint64_t lo, std::uint64_t hi) {
  auto f = fs.Open("s.nc").value();
  bool first = true, slack_flip = false;
  const ncformat::RawRead raw = [&](std::uint64_t off, pnc::ByteSpan out) {
    for (std::uint64_t done = 0; done < out.size();) {
      const pfs::IoResult r = f.TryRead(off + done, out.subspan(done), 0.0);
      if (!r.ok()) return r.status;
      done += r.transferred;
    }
    if (first) {
      std::vector<std::byte> truth(out.size());
      f.HarnessRead(off, truth, 0.0);
      for (std::uint64_t i = 0; i < out.size(); ++i)
        slack_flip |= out[i] != truth[i] && (off + i < lo || off + i >= hi);
      first = false;
    }
    return pnc::Status::Ok();
  };
  std::vector<std::byte> got(hi - lo), want(hi - lo);
  f.HarnessRead(lo, want, 0.0);
  const pnc::Status st =
      ncformat::VerifiedRead(sums, lo, pnc::ByteSpan(got), f.size(), raw,
                             /*heal_attempts=*/4, 0.0);
  if (st.ok()) {
    EXPECT_EQ(got, want) << "silent corruption";
  } else {
    EXPECT_EQ(st.code(), pnc::Err::kDataCorrupt) << st.message();
  }
  return st.ok() && slack_flip;
}

/// Rank 0 reads rows [10, 50) (serially as a buffer bypass, in parallel
/// independently) after a byte just past the range, in its last chunk's
/// slack, decayed at rest.
pnc::Status ReadPastAtRestSlackFlip(pfs::FileSystem& fs, int nprocs) {
  SweepRead r;
  r.st[0] = 10, r.ct[0] = 40, r.ct[1] = kSCols;
  r.got.resize(r.ct[0] * r.ct[1]);
  if (nprocs == 0) {
    auto ds = netcdf::Dataset::Open(fs, "s.nc", false, kSBlock).value();
    const pnc::Status rs =
        ds.GetVara<signed char>(ds.VarId("d").value(), r.st, r.ct, r.got);
    (void)ds.Close();
    return rs;
  }
  pnc::Status rank0;
  simmpi::Run(nprocs, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Open(c, fs, "s.nc", false, simmpi::NullInfo())
            .value();
    EXPECT_TRUE(ds.BeginIndepData().ok());
    if (c.rank() == 0)
      rank0 = ds.GetVara<signed char>(ds.VarId("d").value(), r.st, r.ct,
                                      r.got);
    EXPECT_TRUE(ds.EndIndepData().ok());
    (void)ds.Close();
  });
  return rank0;
}

TEST(Integrity, ReadFaultSweepHealsOrSurfaces) {
  pfs::FileSystem fs;
  {
    EnvGuard chunk("PNC_SUM_CHUNK", "4096");
    CreateOffGridFile(fs, "s.nc", kSRows, kSCols);
  }
  const std::optional<ncformat::ChunkSumMap> sums = CommittedSums(fs, "s.nc");
  ASSERT_TRUE(sums.has_value());
  const std::uint64_t db = sums->data_begin(), cs = sums->chunk_size();
  ASSERT_EQ(cs, 4096u);
  ASSERT_NE(db % cs, 0u);
#if PNC_IOSTAT_ENABLED
  iostat::Registry::Get().Reset();
  iostat::SetSink(iostat::kSinkCounters, true);
#endif

  int slack_heals = 0;
  std::uint64_t flips = 0, shorts = 0;
  for (const int nprocs : {0, 1, 3, 4, 8}) {
    for (const ReadMode mode :
         {ReadMode::kCollective, ReadMode::kIndependent, ReadMode::kSieved}) {
      SweepTally tally;
      for (int seed = 1; seed <= kSweepSeeds; ++seed) {
        pfs::FaultPolicy pol;
        pol.bitflip_read_prob = 0.25;
        pol.short_read_prob = 0.2;
        pol.seed = 0x5EEDull * static_cast<std::uint64_t>(seed) +
                   (static_cast<std::uint64_t>(nprocs) << 40) +
                   (static_cast<std::uint64_t>(mode) << 48);
        SCOPED_TRACE(std::to_string(nprocs) + " ranks, " + ModeName(mode) +
                     ", " + pnc_test::DescribePolicy(pol));
        fs.ResetStats();
        SweepOnce(fs, nprocs, mode, pol, tally);
        flips += fs.stats().bitflips;
        shorts += fs.stats().short_reads;
        if (mode == ReadMode::kCollective) {
          // The same policy, straight through VerifiedRead: where did the
          // cover's flip land?
          fs.SetFaultPolicy(pol);
          const std::uint64_t c = 1 + static_cast<std::uint64_t>(seed) % 13;
          slack_heals += SlackFlipHealed(fs, *sums, sums->ChunkStart(c) - 40,
                                         sums->ChunkStart(c) + 60);
          fs.SetFaultPolicy({});
        }
      }
      SCOPED_TRACE(std::to_string(nprocs) + " ranks, " + ModeName(mode));
      EXPECT_EQ(tally.silent, 0) << "OK with wrong bytes";
      EXPECT_EQ(tally.other, 0) << "a status other than 0 or kDataCorrupt";
      EXPECT_GT(tally.ok, 0);
    }

    // At-rest damage in a boundary chunk's slack, outside the bytes asked
    // for, still fails the read: its chunk is checked whole.
    const std::uint64_t past = db + 50 * kSCols + 100;
    ASSERT_EQ(sums->ChunkOf(past), sums->ChunkOf(past - 100));
    FlipByteAt(fs, "s.nc", past);
    EXPECT_EQ(ReadPastAtRestSlackFlip(fs, nprocs).code(),
              pnc::Err::kDataCorrupt)
        << nprocs << " ranks";
    FlipByteAt(fs, "s.nc", past);  // restore it for the next rank count
  }
  EXPECT_GT(flips, 0u);
  EXPECT_GT(shorts, 0u);
  EXPECT_GT(slack_heals, 0) << "no flip landed in a cover's slack and healed";
#if PNC_IOSTAT_ENABLED
  std::uint64_t healed = 0;
  const auto& reg = iostat::Registry::Get();
  for (int r = 0; r < reg.nranks(); ++r)
    healed += reg.Value(r, iostat::Ctr::kNcSumHealedRetries);
  EXPECT_GT(healed, 0u);
  iostat::SetSink(iostat::kSinkCounters, false);
  iostat::Registry::Get().Reset();
#endif
}

// ------------------------------------- telemetry: counters + black box

// The verification counters and the flight-recorder data_corrupt event (the
// record ncstat --blackbox resolves by name) fire on a sticky corrupt read.
TEST(Integrity, IostatCountersAndBlackboxEvent) {
#if !PNC_IOSTAT_ENABLED
  GTEST_SKIP() << "instrumentation compiled out (PNC_IOSTAT=OFF)";
#else
  iostat::Registry::Get().Reset();
  iostat::SetSink(iostat::kSinkCounters, true);

  pfs::FileSystem fs;
  MakePatternFile(fs, "c.nc", 64 * 1024);
  const std::uint64_t db = DataBegin(fs, "c.nc");
  FlipByteAt(fs, "c.nc", db + 5);

  simmpi::Run(1, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Open(c, fs, "c.nc", false, simmpi::NullInfo())
            .value();
    const int v = ds.VarId("d").value();
    std::vector<signed char> got(64 * 1024);
    const std::uint64_t st[] = {0};
    const std::uint64_t ct[] = {64 * 1024};
    EXPECT_EQ(ds.GetVaraAll<signed char>(v, st, ct, got).code(),
              pnc::Err::kDataCorrupt);
    EXPECT_EQ(ds.Close().code(), pnc::Err::kDataCorrupt);
  });

  const auto rep = iostat::BuildReport();
  EXPECT_GT(rep[iostat::Ctr::kNcSumChunksVerified].sum, 0u);
  EXPECT_GT(rep[iostat::Ctr::kNcSumMismatch].sum, 0u);
  bool saw_event = false;
  for (const auto& e : iostat::FlightRecorder::Get().CollectRank(0))
    saw_event |= e.kind == iostat::Ev::kDataCorrupt;
  EXPECT_TRUE(saw_event) << "no data_corrupt flight-recorder event";
  // The wire name resolves (the ncstat --blackbox filter contract).
  iostat::Ev kind;
  EXPECT_TRUE(iostat::EvFromName("data_corrupt", &kind));
  EXPECT_EQ(kind, iostat::Ev::kDataCorrupt);

  iostat::SetSink(iostat::kSinkCounters, false);
  iostat::Registry::Get().Reset();
#endif
}

// Healed transient flips are counted too: find a seed where the read both
// hit flips and healed, then demand the heal-retry counter moved.
TEST(Integrity, IostatCountsHealedRetries) {
#if !PNC_IOSTAT_ENABLED
  GTEST_SKIP() << "instrumentation compiled out (PNC_IOSTAT=OFF)";
#else
  bool healed = false;
  for (std::uint64_t seed = 1; seed <= 16 && !healed; ++seed) {
    iostat::Registry::Get().Reset();
    iostat::SetSink(iostat::kSinkCounters, true);
    pfs::FileSystem fs;
    MakePatternFile(fs, "hh.nc", 64 * 1024);
    simmpi::Run(1, [&](Comm& c) {
      auto ds =
          pnetcdf::Dataset::Open(c, fs, "hh.nc", false, simmpi::NullInfo())
              .value();
      pfs::FaultPolicy pol;
      pol.bitflip_read_prob = 0.5;
      pol.seed = seed;
      fs.SetFaultPolicy(pol);
      fs.ResetStats();
      const int v = ds.VarId("d").value();
      std::vector<signed char> got(64 * 1024);
      const std::uint64_t st[] = {0};
      const std::uint64_t ct[] = {64 * 1024};
      const pnc::Status rs = ds.GetVaraAll<signed char>(v, st, ct, got);
      fs.SetFaultPolicy({});
      if (rs.ok() && fs.stats().bitflips > 0) {
        const auto rep = iostat::BuildReport();
        EXPECT_GT(rep[iostat::Ctr::kNcSumHealedRetries].sum, 0u);
        healed = true;
      }
      (void)ds.Close();
    });
    iostat::SetSink(iostat::kSinkCounters, false);
    iostat::Registry::Get().Reset();
  }
  EXPECT_TRUE(healed) << "no seed produced a healed flip";
#endif
}

}  // namespace
