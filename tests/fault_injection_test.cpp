// Fault-injection matrix: scripted storage faults crossed with every access
// mode. Transient schedules over independent and collective I/O must be
// absorbed by retry-with-backoff; permanent faults must surface as the SAME
// error on every rank of a collective (error agreement) without tearing file
// contents; short transfers must converge; bit flips must be counted; and
// the pfs::Stats counters must match the injected schedule exactly.
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "hdf5lite/h5file.hpp"
#include "mpiio/file.hpp"
#include "netcdf/buffered_file.hpp"
#include "netcdf/dataset.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"
#include "test_support.hpp"

namespace {

using ncformat::NcType;
using simmpi::Comm;

constexpr int kRanks = 4;
// One signed-char element per byte; large enough that a small cb_buffer_size
// splits the collective into many aggregator window writes.
constexpr std::uint64_t kElems = 64 * 1024;

/// Collectively create "m.nc" with a byte variable of kElems elements, all
/// set to `fill` — fault-free (the policy is armed afterwards).
void CreateMatrixFile(pfs::FileSystem& fs, signed char fill) {
  simmpi::Run(kRanks, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Create(c, fs, "m.nc", simmpi::NullInfo()).value();
    const int x = ds.DefDim("x", kElems).value();
    const int v = ds.DefVar("d", NcType::kByte, {x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    const std::uint64_t share = kElems / kRanks;
    const std::uint64_t st[] = {share * static_cast<std::uint64_t>(c.rank())};
    const std::uint64_t ct[] = {share};
    std::vector<signed char> mine(share, fill);
    ASSERT_TRUE(ds.PutVaraAll<signed char>(v, st, ct, mine).ok());
    ASSERT_TRUE(ds.Close().ok());
  });
}

/// Serial, fault-free verification that every element equals `want`.
void ExpectAllElems(pfs::FileSystem& fs, signed char want) {
  fs.SetFaultPolicy(pfs::FaultPolicy{});
  auto rd = netcdf::Dataset::Open(fs, "m.nc", false).value();
  std::vector<signed char> all(kElems);
  ASSERT_TRUE(rd.GetVar<signed char>(rd.VarId("d").value(), all).ok());
  for (std::uint64_t i = 0; i < kElems; ++i)
    ASSERT_EQ(all[i], want) << "element " << i;
}

// --- transient faults: retries succeed, counters match the schedule ------

TEST(FaultMatrix, TransientCollectiveWriteSucceedsAfterRetries) {
  pfs::FileSystem fs;
  CreateMatrixFile(fs, 1);
  simmpi::Run(kRanks, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Open(c, fs, "m.nc", true, simmpi::NullInfo()).value();
    // Arm the schedule only after every rank finished opening: the first
    // four faultable ops fail transiently, everything after succeeds.
    pfs::FaultPolicy pol;
    pol.transient_ops = {0, 1, 2, 3};
    SCOPED_TRACE(pnc_test::DescribePolicy(pol));
    if (c.rank() == 0) {
      fs.SetFaultPolicy(pol);
      fs.ResetStats();
    }
    c.Barrier();

    const int v = ds.VarId("d").value();
    const std::uint64_t share = kElems / kRanks;
    const std::uint64_t st[] = {share * static_cast<std::uint64_t>(c.rank())};
    const std::uint64_t ct[] = {share};
    std::vector<signed char> mine(share, 2);
    const pnc::Status ws = ds.PutVaraAll<signed char>(v, st, ct, mine);
    // The collective returns the identical (ok) status on every rank.
    EXPECT_EQ(c.AllreduceMin(ws.raw()), 0);
    EXPECT_EQ(c.AllreduceMax(ws.raw()), 0);
    ASSERT_TRUE(ds.Close().ok());
  });

  // Every scheduled fault happened, and each triggered exactly one retry.
  const pfs::Stats st = fs.stats();
  EXPECT_EQ(st.transient_faults, 4u);
  EXPECT_EQ(st.read_retries + st.write_retries, 4u);
  EXPECT_EQ(st.permanent_faults, 0u);
  ExpectAllElems(fs, 2);
}

TEST(FaultMatrix, TransientIndependentWriteSucceedsAfterRetries) {
  pfs::FileSystem fs;
  CreateMatrixFile(fs, 1);
  simmpi::Run(kRanks, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Open(c, fs, "m.nc", true, simmpi::NullInfo()).value();
    ASSERT_TRUE(ds.BeginIndepData().ok());
    pfs::FaultPolicy pol;
    pol.transient_ops = {0, 1, 2, 3};
    SCOPED_TRACE(pnc_test::DescribePolicy(pol));
    if (c.rank() == 0) {
      fs.SetFaultPolicy(pol);
      fs.ResetStats();
    }
    c.Barrier();

    const int v = ds.VarId("d").value();
    const std::uint64_t share = kElems / kRanks;
    const std::uint64_t st[] = {share * static_cast<std::uint64_t>(c.rank())};
    const std::uint64_t ct[] = {share};
    std::vector<signed char> mine(share, 3);
    EXPECT_TRUE(ds.PutVara<signed char>(v, st, ct, mine).ok());
    ASSERT_TRUE(ds.EndIndepData().ok());
    ASSERT_TRUE(ds.Close().ok());
  });
  const pfs::Stats st = fs.stats();
  EXPECT_EQ(st.transient_faults, 4u);
  EXPECT_EQ(st.read_retries + st.write_retries, 4u);
  ExpectAllElems(fs, 3);
}

TEST(FaultMatrix, TransientCollectiveReadSucceedsAfterRetries) {
  pfs::FileSystem fs;
  CreateMatrixFile(fs, 5);
  simmpi::Run(kRanks, [&](Comm& c) {
    auto ds = pnetcdf::Dataset::Open(c, fs, "m.nc", false, simmpi::NullInfo())
                  .value();
    pfs::FaultPolicy pol;
    pol.transient_ops = {0, 1, 2, 3};
    SCOPED_TRACE(pnc_test::DescribePolicy(pol));
    if (c.rank() == 0) {
      fs.SetFaultPolicy(pol);
      fs.ResetStats();
    }
    c.Barrier();

    const int v = ds.VarId("d").value();
    const std::uint64_t share = kElems / kRanks;
    const std::uint64_t st[] = {share * static_cast<std::uint64_t>(c.rank())};
    const std::uint64_t ct[] = {share};
    std::vector<signed char> got(share, 0);
    const pnc::Status rs = ds.GetVaraAll<signed char>(v, st, ct, got);
    EXPECT_EQ(c.AllreduceMin(rs.raw()), 0);
    EXPECT_EQ(c.AllreduceMax(rs.raw()), 0);
    for (auto b : got) EXPECT_EQ(b, 5);
    ASSERT_TRUE(ds.Close().ok());
  });
  const pfs::Stats st = fs.stats();
  EXPECT_EQ(st.transient_faults, 4u);
  EXPECT_EQ(st.read_retries + st.write_retries, 4u);
}

// --- permanent faults: identical error on all ranks, no torn data --------

TEST(FaultMatrix, PermanentCollectiveWriteFailsIdenticallyNoTorn) {
  pfs::FileSystem fs;
  CreateMatrixFile(fs, 1);
  simmpi::Run(kRanks, [&](Comm& c) {
    // A tiny collective-buffering window splits the 64 KiB region into many
    // aggregator window writes, so the fault lands mid-collective.
    simmpi::Info info;
    info.Set("cb_buffer_size", "4096");
    auto ds = pnetcdf::Dataset::Open(c, fs, "m.nc", true, info).value();
    pfs::FaultPolicy pol;
    pol.permanent_from = 2;  // a couple of window writes land, then none
    SCOPED_TRACE(pnc_test::DescribePolicy(pol));
    if (c.rank() == 0) {
      fs.SetFaultPolicy(pol);
      fs.ResetStats();
    }
    c.Barrier();

    const int v = ds.VarId("d").value();
    const std::uint64_t share = kElems / kRanks;
    const std::uint64_t st[] = {share * static_cast<std::uint64_t>(c.rank())};
    const std::uint64_t ct[] = {share};
    std::vector<signed char> mine(share, 2);
    const pnc::Status ws = ds.PutVaraAll<signed char>(v, st, ct, mine);
    // Error agreement: every rank sees the failure, and the SAME failure.
    EXPECT_FALSE(ws.ok());
    EXPECT_EQ(ws.code(), pnc::Err::kIo);
    EXPECT_EQ(c.AllreduceMin(ws.raw()), c.AllreduceMax(ws.raw()));
    if (c.rank() == 0) fs.SetFaultPolicy(pfs::FaultPolicy{});
    c.Barrier();
    ASSERT_TRUE(ds.Close().ok());
  });
  EXPECT_GE(fs.stats().permanent_faults, 1u);

  // No silently torn bytes: a faulted write stores nothing, so every element
  // is either the old value (1) or the new value (2) — never garbage.
  fs.SetFaultPolicy(pfs::FaultPolicy{});
  auto rd = netcdf::Dataset::Open(fs, "m.nc", false).value();
  std::vector<signed char> all(kElems);
  ASSERT_TRUE(rd.GetVar<signed char>(rd.VarId("d").value(), all).ok());
  std::uint64_t news = 0;
  for (std::uint64_t i = 0; i < kElems; ++i) {
    ASSERT_TRUE(all[i] == 1 || all[i] == 2) << "torn element " << i;
    news += all[i] == 2;
  }
  // The two pre-fault window writes landed; the rest stayed old — the
  // partial failure really was mid-collective, not before or after it.
  EXPECT_GT(news, 0u);
  EXPECT_LT(news, kElems);
}

TEST(FaultMatrix, PermanentIndependentWriteReportsError) {
  pfs::FileSystem fs;
  CreateMatrixFile(fs, 1);
  simmpi::Run(kRanks, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Open(c, fs, "m.nc", true, simmpi::NullInfo()).value();
    ASSERT_TRUE(ds.BeginIndepData().ok());
    pfs::FaultPolicy pol;
    pol.permanent_from = 0;  // everything fails
    SCOPED_TRACE(pnc_test::DescribePolicy(pol));
    if (c.rank() == 0) {
      fs.SetFaultPolicy(pol);
    }
    c.Barrier();

    const int v = ds.VarId("d").value();
    const std::uint64_t share = kElems / kRanks;
    const std::uint64_t st[] = {share * static_cast<std::uint64_t>(c.rank())};
    const std::uint64_t ct[] = {share};
    std::vector<signed char> mine(share, 2);
    const pnc::Status ws = ds.PutVara<signed char>(v, st, ct, mine);
    EXPECT_EQ(ws.code(), pnc::Err::kIo);
    c.Barrier();  // every rank's write has returned before the policy clears
    if (c.rank() == 0) fs.SetFaultPolicy(pfs::FaultPolicy{});
    c.Barrier();
    ASSERT_TRUE(ds.EndIndepData().ok());
    ASSERT_TRUE(ds.Close().ok());
  });
  ExpectAllElems(fs, 1);  // nothing was stored
}

// --- the open's round trip: retried like every other request ------------

/// Arm a transient fault on the first faultable op, run `create` on `ranks`
/// ranks, and expect it to succeed with exactly one write retry (the open's
/// round trip, which is a sync).
template <typename CreateFn>
void ExpectOpenFaultRetried(int ranks, CreateFn create) {
  pfs::FileSystem fs;
  pfs::FaultPolicy pol;
  pol.transient_ops = {0};
  SCOPED_TRACE(pnc_test::DescribePolicy(pol));
  fs.SetFaultPolicy(pol);
  simmpi::Run(ranks, [&](Comm& c) {
    const pnc::Status st = create(c, fs);
    EXPECT_TRUE(st.ok()) << "rank " << c.rank() << ": " << st.raw() << " "
                         << st.message();
  });
  const pfs::Stats st = fs.stats();
  EXPECT_EQ(st.transient_faults, 1u);
  EXPECT_EQ(st.write_retries, 1u);
  EXPECT_EQ(st.read_retries, 0u);
}

TEST(FaultMatrix, TransientFaultOnTheOpenIsRetried) {
  for (const int ranks : {1, 3}) {
    SCOPED_TRACE("pnetcdf, ranks " + std::to_string(ranks));
    ExpectOpenFaultRetried(ranks, [](Comm& c, pfs::FileSystem& fs) {
      auto ds = pnetcdf::Dataset::Create(c, fs, "open.nc", simmpi::NullInfo());
      if (!ds.ok()) return ds.status();
      return ds.value().Close();
    });
  }
  {
    SCOPED_TRACE("hdf5lite, ranks 3");
    ExpectOpenFaultRetried(3, [](Comm& c, pfs::FileSystem& fs) {
      auto f = hdf5lite::File::Create(c, fs, "open.h5", simmpi::NullInfo());
      if (!f.ok()) return f.status();
      return f.value().Close();
    });
  }
  {
    SCOPED_TRACE("netcdf (serial)");
    ExpectOpenFaultRetried(1, [](Comm&, pfs::FileSystem& fs) {
      auto ds = netcdf::Dataset::Create(fs, "open.nc");
      if (!ds.ok()) return ds.status();
      PNC_RETURN_IF_ERROR(ds.value().EndDef());
      return ds.value().Close();
    });
  }
}

// --- outage windows: backoff walks the clock past the outage -------------

TEST(FaultMatrix, OutageWindowCrossedByBackoff) {
  pfs::FileSystem fs;
  simmpi::Run(1, [&](Comm& c) {
    auto f = mpiio::File::Open(c, fs, "o.dat", mpiio::kCreate | mpiio::kRdWr,
                               simmpi::NullInfo())
                 .value();
    pfs::FaultPolicy pol;
    // Server 0 (owner of offset 0) is down until t = 2.5 ms of virtual
    // time; exponential backoff must carry the retry past the window.
    pol.outages.push_back({0, 0.0, 2.5e6});
    SCOPED_TRACE(pnc_test::DescribePolicy(pol));
    fs.SetFaultPolicy(pol);
    fs.ResetStats();

    std::vector<std::byte> data(1024, std::byte{0x42});
    ASSERT_TRUE(f.WriteAt(0, data.data(), data.size(), simmpi::ByteType()).ok());
    EXPECT_GE(fs.stats().write_retries, 1u);
    EXPECT_GE(c.clock().now(), 2.5e6);  // the backoff was charged
    ASSERT_TRUE(f.Close().ok());
  });
  fs.SetFaultPolicy(pfs::FaultPolicy{});
  auto f = fs.Open("o.dat").value();
  std::vector<std::byte> back(1024);
  f.HarnessRead(0, back, 0.0);
  for (auto b : back) ASSERT_EQ(b, std::byte{0x42});
}

// --- short transfers: resumed from the transferred count -----------------

TEST(FaultMatrix, ShortWritesConverge) {
  pfs::FileSystem fs;
  simmpi::Run(1, [&](Comm& c) {
    auto f = mpiio::File::Open(c, fs, "s.dat", mpiio::kCreate | mpiio::kRdWr,
                               simmpi::NullInfo())
                 .value();
    pfs::FaultPolicy pol;
    pol.short_write_prob = 1.0;  // every write ≥ 2 bytes transfers only half
    SCOPED_TRACE(pnc_test::DescribePolicy(pol));
    fs.SetFaultPolicy(pol);
    fs.ResetStats();

    std::vector<std::byte> data(4096);
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = static_cast<std::byte>(i * 37);
    ASSERT_TRUE(f.WriteAt(0, data.data(), data.size(), simmpi::ByteType()).ok());
    // 4096 → 2048 → … → 2: twelve halvings, each counted, then a final
    // 1-byte write that cannot be shortened.
    EXPECT_EQ(fs.stats().short_writes, 12u);
    ASSERT_TRUE(f.Close().ok());

    fs.SetFaultPolicy(pfs::FaultPolicy{});
    auto raw = fs.Open("s.dat").value();
    std::vector<std::byte> back(4096);
    raw.HarnessRead(0, back, 0.0);
    EXPECT_EQ(back, data);
  });
}

// --- silent corruption: flipped bit is delivered and counted -------------

TEST(FaultMatrix, BitflipReadIsSilentAndCounted) {
  pfs::FileSystem fs;
  auto f = fs.Create("b.dat", false).value();
  std::vector<std::byte> data(256, std::byte{0});
  f.HarnessWrite(0, data, 0.0);

  pfs::FaultPolicy pol;
  pol.bitflip_read_prob = 1.0;
  SCOPED_TRACE(pnc_test::DescribePolicy(pol));
  fs.SetFaultPolicy(pol);
  fs.ResetStats();

  std::vector<std::byte> got(256, std::byte{0xEE});
  const pfs::IoResult r = f.TryRead(0, got, 0.0);
  ASSERT_TRUE(r.status.ok());  // silent: the status cannot reveal it
  ASSERT_EQ(r.transferred, 256u);
  int flipped_bits = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    unsigned diff = static_cast<unsigned>(got[i]);
    while (diff != 0) {
      flipped_bits += static_cast<int>(diff & 1u);
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(fs.stats().bitflips, 1u);
}

// --- BufferedFile (serial library): failed flush keeps the data ----------

TEST(FaultMatrix, BufferedFileFailedFlushStaysDirtyThenRetries) {
  pfs::FileSystem fs;
  auto file = fs.Create("bf.dat", false).value();
  simmpi::VirtualClock clock;
  netcdf::BufferedFile io(file, &clock, /*buffer_size=*/4096);

  const std::byte payload[] = {std::byte{7}, std::byte{8}, std::byte{9}};
  ASSERT_TRUE(io.WriteAt(10, pnc::ConstByteSpan(payload, 3)).ok());

  pfs::FaultPolicy pol;
  pol.permanent_from = 0;
  SCOPED_TRACE(pnc_test::DescribePolicy(pol));
  fs.SetFaultPolicy(pol);
  const pnc::Status bad = io.Flush();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), pnc::Err::kIo);

  // The block stayed dirty: once the storage heals, a second Flush lands
  // the same bytes.
  fs.SetFaultPolicy(pfs::FaultPolicy{});
  ASSERT_TRUE(io.Flush().ok());
  std::byte back[3];
  file.HarnessRead(10, pnc::ByteSpan(back, 3), 0.0);
  EXPECT_EQ(back[0], std::byte{7});
  EXPECT_EQ(back[1], std::byte{8});
  EXPECT_EQ(back[2], std::byte{9});
}

}  // namespace
