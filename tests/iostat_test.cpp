// Counter correctness for the iostat subsystem.
//
// Two workloads with hand-computed expectations:
//   1. A 4-rank contiguous two-phase write (2 I/O servers, 256 KiB stripes,
//      one 256 KiB block per rank): exact bytes at every layer, exact
//      exchange-message count, and both amplification ratios exactly 1.0.
//   2. A 1-rank strided independent read (64 x 64 B segments spaced 4 KiB):
//      sieving ON coalesces the whole range into one request with
//      amplification 258112/4096; sieving OFF issues 64 exact requests with
//      amplification 1.0.
// Plus registry basics and JSON / Chrome-trace round trips.
#include "iostat/iostat.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "iostat/observe.hpp"
#include "iostat/report.hpp"
#include "iostat/trace.hpp"
#include "mpiio/file.hpp"
#include "simmpi/runtime.hpp"

namespace {

using iostat::Ctr;
using iostat::Registry;
using simmpi::Comm;

std::uint64_t Sum(const iostat::Report& rep, Ctr c) { return rep[c].sum; }

class IostatTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if !PNC_IOSTAT_ENABLED
    GTEST_SKIP() << "instrumentation compiled out (PNC_IOSTAT=OFF)";
#endif
    Registry::Get().Reset();
    iostat::SetSink(iostat::kSinkCounters, true);
  }
  void TearDown() override { Registry::Get().Reset(); }
};

TEST_F(IostatTest, RegistryBindsRanksAndSumsCounters) {
  simmpi::Run(3, [&](Comm& c) {
    for (int i = 0; i <= c.rank(); ++i)
      Registry::Get().Add(Ctr::kNcDataCalls, 10);
  });
  const auto rep = iostat::BuildReport();
  EXPECT_EQ(rep.nranks, 3);
  EXPECT_EQ(Sum(rep, Ctr::kNcDataCalls), 60u);
  EXPECT_EQ(rep[Ctr::kNcDataCalls].min, 10u);
  EXPECT_EQ(rep[Ctr::kNcDataCalls].max, 30u);
  EXPECT_DOUBLE_EQ(rep[Ctr::kNcDataCalls].mean, 20.0);
}

TEST_F(IostatTest, DisabledCountersRecordNothing) {
  iostat::SetSink(iostat::kSinkCounters, false);
  PNC_OBSERVE(kPfsRequest, .len = 5);
  iostat::SetSink(iostat::kSinkCounters, true);
  EXPECT_EQ(Sum(iostat::BuildReport(), Ctr::kPfsReadOps), 0u);
}

// ------------------------------------------------- 4-rank two-phase write

TEST_F(IostatTest, FourRankTwoPhaseWriteExactCounters) {
  constexpr std::uint64_t kBlock = 256 << 10;
  pfs::Config cfg;
  cfg.num_servers = 2;  // -> cb_nodes defaults to 2 aggregators
  cfg.stripe_size = kBlock;
  pfs::FileSystem fs(cfg);

  std::vector<std::uint64_t> write_msgs(4);  // each rank's sends in the write
  simmpi::Run(4, [&](Comm& c) {
    auto f = mpiio::File::Open(c, fs, "tp.dat", mpiio::kCreate | mpiio::kRdWr,
                               simmpi::NullInfo())
                 .value();
    // Counters start after open: no namespace traffic in the expectations.
    c.Barrier();
    if (c.rank() == 0) Registry::Get().Reset();
    c.Barrier();
    PNC_IOSTAT_BIND_RANK(c.rank());  // Reset dropped the bound-rank count
    std::vector<std::byte> mine(kBlock, std::byte{0x5A});
    const std::uint64_t m0 = Registry::Get().Value(c.rank(), Ctr::kMpiMessages);
    ASSERT_TRUE(f.WriteAtAll(static_cast<std::uint64_t>(c.rank()) * kBlock,
                             mine.data(), kBlock, simmpi::ByteType())
                    .ok());
    write_msgs[static_cast<std::size_t>(c.rank())] =
        Registry::Get().Value(c.rank(), Ctr::kMpiMessages) - m0;
    ASSERT_TRUE(f.Close().ok());
  });

  const auto rep = iostat::BuildReport();
  EXPECT_EQ(rep.nranks, 4);

  // Every rank made one collective write of one 256 KiB block.
  EXPECT_EQ(Sum(rep, Ctr::kMpiioCollWrites), 4u);
  EXPECT_EQ(Sum(rep, Ctr::kMpiioCollPayloadBytes), 4 * kBlock);

  // Domains: [0,512K) -> aggregator rank 0, [512K,1M) -> aggregator rank 2.
  // Ranks 1 and 3 each ship one message to a remote aggregator; ranks 0 and
  // 2 deliver to themselves (not counted).
  EXPECT_EQ(Sum(rep, Ctr::kMpiioExchangeMsgs), 2u);
  // And those are the write's only exchange messages: each rank's range
  // meets one domain, so nobody messages a rank it has no bytes for (the
  // dense exchange sent all 12 pairs). The rest is the range allgather
  // (Gather + Bcast, 6) and the closing AgreeStatus (AllreduceMin +
  // SyncClocksToMax, 12). Per rank: the binomial trees rooted at rank 0
  // send 0/1/2 from ranks 1/3/2, and rank 0 sends 2 per broadcast.
  EXPECT_EQ(write_msgs, (std::vector<std::uint64_t>{6, 3 + 1, 6, 3 + 1}));

  // Each aggregator writes its full 512 KiB domain in one round with no
  // holes: exactly 1 MiB at the file, no read-modify-write amplification.
  EXPECT_EQ(Sum(rep, Ctr::kMpiioAggBytes), 4 * kBlock);
  EXPECT_EQ(Sum(rep, Ctr::kMpiioBytesWritten), 4 * kBlock);
  EXPECT_EQ(Sum(rep, Ctr::kMpiioBytesRead), 0u);
  EXPECT_EQ(Sum(rep, Ctr::kPfsBytesWritten), 4 * kBlock);
  // Two aggregator writes, each of a fully stripe-aligned span.
  EXPECT_EQ(Sum(rep, Ctr::kPfsWriteOps), 2u);

  // Contiguous access through the collective path: both ratios exact.
  EXPECT_DOUBLE_EQ(rep.twophase_amplification, 1.0);
  EXPECT_DOUBLE_EQ(rep.sieve_amplification, 1.0);

  // Both phases consumed virtual time, and the layers reconcile.
  EXPECT_GT(Sum(rep, Ctr::kMpiioExchangeNs), 0u);
  EXPECT_GT(Sum(rep, Ctr::kMpiioIoPhaseNs), 0u);
  EXPECT_LE(Sum(rep, Ctr::kMpiioBytesWritten), Sum(rep, Ctr::kPfsBytesWritten));

  // The Chrome trace draws both phases as slices from the ring's matched
  // Begin/End events, never with a negative duration.
  const std::string trace = iostat::ToChromeTrace();
  EXPECT_NE(trace.find("\"name\":\"exchange\",\"cat\":\"mpiio\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"io\",\"cat\":\"mpiio\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_EQ(trace.find("\"dur\":-"), std::string::npos);
}

// ------------------------------------------- one observation, three sinks

// A 4-rank two-phase write over 4 servers with every sink on. Each pfs
// grant is one observation, so wherever two sinks keep the same grant total
// (grants and bytes per server, queue wait) the totals agree exactly. The
// server x time cells that back `ncstat --timeline` and `--heatmap` are
// checked against the ring too: per server, their grants and bytes sum to
// the ring's and their busy time to the server total.
TEST_F(IostatTest, SinksAgreeOnPfsGrantTotals) {
  constexpr std::uint64_t kBlock = 96 << 10;  // not stripe-aligned
  pfs::Config cfg;
  cfg.num_servers = 4;
  cfg.stripe_size = 64 << 10;
  pfs::FileSystem fs(cfg);
  iostat::SetSink(iostat::kSinkPattern, true);
  simmpi::Run(4, [&](Comm& c) {
    auto f = mpiio::File::Open(c, fs, "sinks.dat",
                               mpiio::kCreate | mpiio::kRdWr,
                               simmpi::NullInfo())
                 .value();
    std::vector<std::byte> mine(kBlock, std::byte{0x3C});
    for (std::uint64_t k = 0; k < 3; ++k)
      ASSERT_TRUE(f.WriteAtAll((4 * k + c.rank()) * kBlock, mine.data(),
                               kBlock, simmpi::ByteType())
                      .ok());
    ASSERT_TRUE(f.Close().ok());
  });
  const iostat::Report rep = iostat::BuildReport();
  ASSERT_EQ(rep.pattern.servers.size(), 4u);

  // Per server: [0] grants, [1] bytes; ring, server totals, cells.
  std::map<int, std::uint64_t> ring[2], pattern[2], cells[2];
  // Queue wait in whole ns, like the counter: grants and zero-length syncs.
  std::uint64_t ring_wait_ns = 0, ring_grant_wait_ns = 0, ring_grants = 0;
  for (int r = 0; r < rep.nranks; ++r) {
    const auto tail = iostat::FlightRecorder::Get().CollectRank(r);
    ASSERT_EQ(tail.size(), iostat::FlightRecorder::Get().RecordedCount(r));
    for (const iostat::Event& e : tail) {
      if (e.kind != iostat::Ev::kPfsServer) continue;
      ring_wait_ns += e.a1;
      if (e.detail[0] == 's') continue;  // zero-length sync, not a grant
      ring_grant_wait_ns += e.a1;
      ++ring_grants;
      ++ring[0][static_cast<int>(e.a0 & 0xff)];
      ring[1][static_cast<int>(e.a0 & 0xff)] += e.a0 >> 8;
    }
  }
  double pattern_wait_ns = 0;
  for (int s = 0; s < 4; ++s) {
    const auto& sp = rep.pattern.servers[static_cast<std::size_t>(s)];
    pattern[0][s] = sp.grants;
    pattern[1][s] = sp.bytes;
    pattern_wait_ns += sp.queue_wait_ns;
  }
  std::map<int, double> cell_busy_ns;
  for (const iostat::HeatCell& cell : rep.pattern.cells) {
    cells[0][cell.server] += cell.grants;
    cells[1][cell.server] += cell.bytes;
    cell_busy_ns[cell.server] += cell.busy_ns;
  }

  EXPECT_GT(pattern[0][3], 0u);
  for (int k = 0; k < 2; ++k) {
    EXPECT_EQ(ring[k], pattern[k]);
    EXPECT_EQ(ring[k], cells[k]);
  }
  // A grant's busy time is split across the cells it overlaps; the split
  // re-adds it in pieces, so allow 1 ns of rounding per grant.
  for (int s = 0; s < 4; ++s)
    EXPECT_NEAR(cell_busy_ns[s],
                rep.pattern.servers[static_cast<std::size_t>(s)].busy_ns,
                static_cast<double>(ring[0][s]))
        << "server " << s;
  EXPECT_EQ(Sum(rep, Ctr::kPfsQueueWaitNs), ring_wait_ns);
  // The profiler sums each grant's exact wait; the ring (and the counter)
  // truncate each one to whole ns, so the two differ by under 1 ns a grant.
  EXPECT_GT(pattern_wait_ns, 0.0);
  EXPECT_GE(pattern_wait_ns, static_cast<double>(ring_grant_wait_ns));
  EXPECT_LT(pattern_wait_ns,
            static_cast<double>(ring_grant_wait_ns + ring_grants));
}

// ------------------------------------------- strided independent read

class StridedRead {
 public:
  static constexpr std::uint64_t kSegs = 64;
  static constexpr std::uint64_t kSegLen = 64;
  static constexpr std::uint64_t kStride = 4096;
  static constexpr std::uint64_t kWanted = kSegs * kSegLen;  // 4096
  static constexpr std::uint64_t kSpan =
      (kSegs - 1) * kStride + kSegLen;  // 258112

  static void Run(pfs::FileSystem& fs, bool ds_read) {
    simmpi::Run(1, [&](Comm& c) {
      simmpi::Info info;
      info.Set("romio_ds_read", ds_read ? "enable" : "disable");
      auto f = mpiio::File::Open(c, fs, "strided.dat",
                                 mpiio::kCreate | mpiio::kRdWr, info)
                   .value();
      std::vector<std::byte> file_img(kSpan, std::byte{0x7});
      ASSERT_TRUE(
          f.WriteAt(0, file_img.data(), kSpan, simmpi::ByteType()).ok());

      Registry::Get().Reset();
      std::vector<std::uint64_t> lens(kSegs, kSegLen), offs(kSegs);
      for (std::uint64_t i = 0; i < kSegs; ++i) offs[i] = i * kStride;
      auto filetype =
          simmpi::Datatype::Hindexed(lens, offs, simmpi::ByteType());
      ASSERT_TRUE(f.SetViewLocal(0, simmpi::ByteType(), filetype).ok());
      std::vector<std::byte> out(kWanted);
      ASSERT_TRUE(f.ReadAt(0, out.data(), kWanted, simmpi::ByteType()).ok());
      for (const auto& b : out) EXPECT_EQ(b, std::byte{0x7});
      f.ClearView();
      ASSERT_TRUE(f.Close().ok());
    });
  }
};

TEST_F(IostatTest, StridedReadWithSievingAmplifies) {
  pfs::FileSystem fs;
  StridedRead::Run(fs, /*ds_read=*/true);
  const auto rep = iostat::BuildReport();

  // One covering window: a single file request spanning the whole range.
  EXPECT_EQ(Sum(rep, Ctr::kMpiioIndepReads), 1u);
  EXPECT_EQ(Sum(rep, Ctr::kPfsReadOps), 1u);
  EXPECT_EQ(Sum(rep, Ctr::kMpiioSieveBytesWanted), StridedRead::kWanted);
  EXPECT_EQ(Sum(rep, Ctr::kMpiioSieveBytesFile), StridedRead::kSpan);
  EXPECT_EQ(Sum(rep, Ctr::kMpiioBytesRead), StridedRead::kSpan);
  EXPECT_DOUBLE_EQ(rep.sieve_amplification,
                   static_cast<double>(StridedRead::kSpan) /
                       static_cast<double>(StridedRead::kWanted));
  EXPECT_GT(rep.sieve_amplification, 1.0);
}

TEST_F(IostatTest, StridedReadWithoutSievingIsPureOps) {
  pfs::FileSystem fs;
  StridedRead::Run(fs, /*ds_read=*/false);
  const auto rep = iostat::BuildReport();

  // One file request per segment, no extra bytes moved.
  EXPECT_EQ(Sum(rep, Ctr::kMpiioIndepReads), 1u);
  EXPECT_EQ(Sum(rep, Ctr::kPfsReadOps), StridedRead::kSegs);
  EXPECT_EQ(Sum(rep, Ctr::kMpiioBytesRead), StridedRead::kWanted);
  EXPECT_EQ(Sum(rep, Ctr::kPfsBytesRead), StridedRead::kWanted);
  EXPECT_DOUBLE_EQ(rep.sieve_amplification, 1.0);
}

// ----------------------------------------------------- exporters

TEST_F(IostatTest, JsonRoundTripPreservesCountersAndDerived) {
  Registry::Get().Add(Ctr::kPfsBytesWritten, 12345);
  Registry::Get().Add(Ctr::kMpiioSieveBytesWanted, 100);
  Registry::Get().Add(Ctr::kMpiioSieveBytesFile, 250);
  const auto rep = iostat::BuildReport();
  const std::string json = iostat::ToJson(rep);
  EXPECT_NE(json.find("\"schema\":\"pnc-iostat-v1\""), std::string::npos);

  auto parsed = iostat::ParseReportJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const auto& back = parsed.value();
  EXPECT_EQ(back.nranks, rep.nranks);
  EXPECT_EQ(back[Ctr::kPfsBytesWritten].sum, 12345u);
  EXPECT_DOUBLE_EQ(back.sieve_amplification, 2.5);
}

TEST_F(IostatTest, ParseFindsReportEmbeddedInBenchRecord) {
  Registry::Get().Add(Ctr::kNcDataCalls, 7);
  const std::string line = "{\"schema\":\"pnc-bench-v1\",\"bench\":\"x\","
                           "\"config\":{\"nprocs\":4},\"iostat\":" +
                           iostat::ToJson(iostat::BuildReport()) + "}";
  auto parsed = iostat::ParseReportJson(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value()[Ctr::kNcDataCalls].sum, 7u);
}

TEST_F(IostatTest, ParseRejectsGarbage) {
  EXPECT_FALSE(iostat::ParseReportJson("not json at all").ok());
  EXPECT_FALSE(iostat::ParseReportJson("{}").ok());
}

TEST_F(IostatTest, ChromeTraceHasPerRankTracks) {
  simmpi::Run(2, [&](Comm& c) {
    const double t0 = c.clock().now();
    PNC_OBSERVE(kXchgBegin, .t_ns = t0);
    c.clock().Advance(1000.0);
    PNC_OBSERVE(kXchgEnd, .t_ns = t0, .end_ns = c.clock().now());
  });
  const std::string trace = iostat::ToChromeTrace();
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"M\""), std::string::npos);
  // One 1 us exchange slice per rank, drawn from its Begin/End ring events.
  for (const char* tid : {"0", "1"}) {
    EXPECT_NE(trace.find(std::string("\"name\":\"exchange\",\"cat\":\"mpiio\","
                                     "\"ph\":\"X\",\"ts\":0.000,\"dur\":1.000,"
                                     "\"pid\":0,\"tid\":") + tid + "}"),
              std::string::npos)
        << "rank " << tid << "\n" << trace;
  }
}

TEST_F(IostatTest, PrettyPrintShowsLayerSections) {
  const std::string text = iostat::PrettyPrint(iostat::BuildReport());
  EXPECT_NE(text.find("[pfs]"), std::string::npos);
  EXPECT_NE(text.find("[mpiio]"), std::string::npos);
  EXPECT_NE(text.find("[nc]"), std::string::npos);
  EXPECT_NE(text.find("[mpi]"), std::string::npos);
  EXPECT_NE(text.find("sieve_amplification"), std::string::npos);
}

}  // namespace
