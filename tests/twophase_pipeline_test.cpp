// Pipelined two-phase collective I/O (src/mpiio/twophase.cpp).
//
// An aggregator's file transfers run on its own I/O channel clock, so one
// window's write overlaps the next window's exchange, and one window's read
// overlaps the previous window's replies. These tests pin what must not
// change and what must:
//   * bytes: many small windows, every rank count and aggregator count,
//     contiguous / strided / holed (read-modify-write) writes and reads,
//     all equal to an in-memory reference;
//   * faults: retries land on the channel and the bytes still match; a rank
//     crash mid-pipeline fails every survivor together; a crash point armed
//     right after a collective returns finds all of its bytes on disk;
//   * time: with one aggregator on one server the collective costs the
//     first exchange, the window writes back to back, and the closing
//     agreement — the later exchanges are hidden;
//   * windows: a window size that is not a stripe multiple is rounded down
//     to one, so no window write cuts a stripe.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "iostat/events.hpp"
#include "iostat/iostat.hpp"
#include "iostat/observe.hpp"
#include "mpiio/file.hpp"
#include "simmpi/runtime.hpp"
#include "util/rng.hpp"

namespace mpiio {
namespace {

using iostat::Ev;
using iostat::Event;
using simmpi::Comm;
using simmpi::Datatype;

constexpr std::uint64_t kStripe = 4096;

std::vector<std::byte> Pattern(std::size_t n, std::uint64_t seed) {
  pnc::SplitMix64 rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.Next() & 0xFF);
  return v;
}

pfs::Config SmallStripes() {
  pfs::Config cfg;
  cfg.num_servers = 3;
  cfg.stripe_size = kStripe;
  return cfg;
}

std::vector<std::byte> FileBytes(pfs::FileSystem& fs, const std::string& path) {
  auto f = fs.Open(path).value();
  std::vector<std::byte> bytes(f.size());
  f.HarnessRead(0, bytes, 0.0);
  return bytes;
}

/// One rank's file access: `nblocks` blocks of `block` bytes, the k-th at
/// disp + k * stride. stride == block with nblocks == 1 is a contiguous
/// range.
struct Access {
  std::uint64_t disp = 0, block = 0, stride = 0, nblocks = 0;
  [[nodiscard]] std::uint64_t bytes() const { return block * nblocks; }
};

enum class Shape { kContiguous, kStrided, kHoled };

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kContiguous: return "contiguous";
    case Shape::kStrided: return "strided";
    case Shape::kHoled: return "holed";
  }
  return "?";
}

/// Rank r's access for `shape` over a file of about 60 KiB (15 stripes, so
/// one-stripe windows force many rounds). Block sizes are odd so pieces
/// straddle window and stripe boundaries. Holed leaves a gap of p blocks
/// after every cycle, so every window has holes an aggregator must
/// pre-read.
Access AccessFor(Shape shape, int r, int p) {
  const auto rr = static_cast<std::uint64_t>(r);
  const auto pp = static_cast<std::uint64_t>(p);
  switch (shape) {
    case Shape::kContiguous: {
      const std::uint64_t share = 61'440 / pp + 13;
      return {rr * share, share, share, 1};
    }
    case Shape::kStrided:
      return {rr * 97, 97, 97 * pp, 632 / pp};
    case Shape::kHoled:
      return {rr * 97, 97, 2 * 97 * pp, 316 / pp};
  }
  return {};
}

std::vector<std::byte> RankData(const Access& a, int r, std::uint64_t salt) {
  return Pattern(a.bytes(), salt * 1000 + static_cast<std::uint64_t>(r));
}

/// The filetype of `a`: all of its blocks, one per stride.
Datatype FileType(const Access& a) {
  return Datatype::Hvector(a.nblocks, a.block, a.stride, simmpi::ByteType());
}

void SetAccessView(File& f, const Access& a) {
  ASSERT_TRUE(f.SetView(a.disp, simmpi::ByteType(), FileType(a)).ok());
}

simmpi::Info Hints(int cb_nodes, bool sieve) {
  simmpi::Info info;
  info.Set("cb_nodes", std::to_string(cb_nodes));
  info.Set("cb_buffer_size", std::to_string(kStripe));
  info.Set("romio_ds_read", sieve ? "enable" : "disable");
  info.Set("romio_ds_write", sieve ? "enable" : "disable");
  return info;
}

constexpr std::uint64_t kBackground = 0xB6;

/// The file a collective write of `shape` over a background-filled file of
/// `size` bytes must produce.
std::vector<std::byte> ExpectedWrite(Shape shape, int p, std::uint64_t size) {
  std::vector<std::byte> ref = Pattern(size, kBackground);
  for (int r = 0; r < p; ++r) {
    const Access a = AccessFor(shape, r, p);
    const auto data = RankData(a, r, 7);
    for (std::uint64_t k = 0; k < a.nblocks; ++k) {
      const std::uint64_t off = a.disp + k * a.stride;
      if (ref.size() < off + a.block) ref.resize(off + a.block);
      std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(k * a.block),
                  a.block, ref.begin() + static_cast<std::ptrdiff_t>(off));
    }
  }
  return ref;
}

/// Collective write of `shape` over a background-filled file; returns the
/// file bytes.
std::vector<std::byte> RunWrite(Shape shape, int p, int cb_nodes, bool sieve,
                                std::uint64_t size) {
  pfs::FileSystem fs(SmallStripes());
  {
    auto f = fs.Create("w.dat", false).value();
    f.HarnessWrite(0, Pattern(size, kBackground), 0.0);
  }
  simmpi::Run(p, [&](Comm& c) {
    auto f = File::Open(c, fs, "w.dat", kRdWr, Hints(cb_nodes, sieve)).value();
    const Access a = AccessFor(shape, c.rank(), p);
    SetAccessView(f, a);
    const auto data = RankData(a, c.rank(), 7);
    ASSERT_TRUE(
        f.WriteAtAll(0, data.data(), data.size(), simmpi::ByteType()).ok());
    ASSERT_TRUE(f.Close().ok());
  });
  return FileBytes(fs, "w.dat");
}

/// Collective read of `shape` from a file of known bytes; every rank
/// compares against its slices.
void RunRead(Shape shape, int p, int cb_nodes, bool sieve) {
  constexpr std::uint64_t kSize = 131'072;
  const auto content = Pattern(kSize, 99);
  pfs::FileSystem fs(SmallStripes());
  {
    auto f = fs.Create("r.dat", false).value();
    f.HarnessWrite(0, content, 0.0);
  }
  simmpi::Run(p, [&](Comm& c) {
    auto f = File::Open(c, fs, "r.dat", kRdOnly, Hints(cb_nodes, sieve)).value();
    const Access a = AccessFor(shape, c.rank(), p);
    SetAccessView(f, a);
    std::vector<std::byte> got(a.bytes());
    ASSERT_TRUE(
        f.ReadAtAll(0, got.data(), got.size(), simmpi::ByteType()).ok());
    for (std::uint64_t k = 0; k < a.nblocks; ++k) {
      const std::uint64_t off = a.disp + k * a.stride;
      ASSERT_TRUE(std::equal(
          got.begin() + static_cast<std::ptrdiff_t>(k * a.block),
          got.begin() + static_cast<std::ptrdiff_t>((k + 1) * a.block),
          content.begin() + static_cast<std::ptrdiff_t>(off)))
          << "rank " << c.rank() << " block " << k;
    }
    ASSERT_TRUE(f.Close().ok());
  });
}

// ------------------------------------------------------------ byte identity

struct Case {
  std::int64_t nprocs;
  std::int64_t cb_nodes;
};

class PipelineBytesP : public ::testing::TestWithParam<Case> {};

TEST_P(PipelineBytesP, WritesMatchReference) {
  const int p = static_cast<int>(GetParam().nprocs);
  const int aggs = static_cast<int>(GetParam().cb_nodes);
  constexpr std::uint64_t kSize = 70'000;
  for (const Shape shape : {Shape::kContiguous, Shape::kStrided,
                            Shape::kHoled}) {
    for (const bool sieve : {true, false}) {
      SCOPED_TRACE(std::string(ShapeName(shape)) +
                   (sieve ? " sieving on" : " sieving off"));
      EXPECT_EQ(RunWrite(shape, p, aggs, sieve, kSize),
                ExpectedWrite(shape, p, kSize));
    }
  }
}

TEST_P(PipelineBytesP, ReadsMatchFile) {
  const int p = static_cast<int>(GetParam().nprocs);
  const int aggs = static_cast<int>(GetParam().cb_nodes);
  for (const Shape shape : {Shape::kContiguous, Shape::kStrided,
                            Shape::kHoled}) {
    for (const bool sieve : {true, false}) {
      SCOPED_TRACE(std::string(ShapeName(shape)) +
                   (sieve ? " sieving on" : " sieving off"));
      RunRead(shape, p, aggs, sieve);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndAggregators, PipelineBytesP,
    ::testing::Values(Case{1, 1}, Case{3, 1}, Case{3, 2}, Case{3, 3},
                      Case{4, 1}, Case{4, 2}, Case{4, 4}, Case{8, 1},
                      Case{8, 2}, Case{8, 8}),
    [](const auto& info) {
      return "p" + std::to_string(info.param.nprocs) + "_agg" +
             std::to_string(info.param.cb_nodes);
    });

// ------------------------------------------------------------------ faults

// Every third pfs op fails transiently and a third of the transfers come
// back short: retries absorb both, and the bytes still match.
TEST(PipelineFaults, TransientAndShortTransfersKeepBytes) {
  constexpr int kP = 4;
  constexpr std::uint64_t kSize = 70'000;
  for (const Shape shape : {Shape::kStrided, Shape::kHoled}) {
    SCOPED_TRACE(ShapeName(shape));
    pfs::FileSystem fs(SmallStripes());
    {
      auto f = fs.Create("f.dat", false).value();
      f.HarnessWrite(0, Pattern(kSize, kBackground), 0.0);
    }
    simmpi::Run(kP, [&](Comm& c) {
      auto f = File::Open(c, fs, "f.dat", kRdWr, Hints(2, true)).value();
      if (c.rank() == 0) {
        pfs::FaultPolicy pol;
        pol.transient_every_nth = 3;
        pol.short_write_prob = 0.3;
        pol.short_read_prob = 0.3;
        fs.SetFaultPolicy(pol);
      }
      c.Barrier();
      const Access a = AccessFor(shape, c.rank(), kP);
      SetAccessView(f, a);
      const auto data = RankData(a, c.rank(), 7);
      ASSERT_TRUE(
          f.WriteAtAll(0, data.data(), data.size(), simmpi::ByteType()).ok());
      std::vector<std::byte> back(data.size());
      ASSERT_TRUE(
          f.ReadAtAll(0, back.data(), back.size(), simmpi::ByteType()).ok());
      EXPECT_EQ(back, data);
      ASSERT_TRUE(f.Close().ok());
    });
    const pfs::Stats s = fs.stats();
    EXPECT_GT(s.transient_faults, 0u);
    EXPECT_GT(s.write_retries + s.read_retries, 0u);
    EXPECT_GT(s.short_writes + s.short_reads, 0u);
    fs.SetFaultPolicy({});
    EXPECT_EQ(FileBytes(fs, "f.dat"), ExpectedWrite(shape, kP, kSize));
  }
}

// A transient fault on the first window write retries after a long backoff.
// The backoff lands on the aggregator's I/O channel: the rank clock runs the
// second window's exchange before the failed attempt even completes.
TEST(PipelineFaults, RetryBackoffChargesTheChannel) {
#if !PNC_IOSTAT_ENABLED
  GTEST_SKIP() << "instrumentation compiled out (PNC_IOSTAT=OFF)";
#endif
  iostat::Registry::Get().Reset();
  iostat::SetSink(iostat::kSinkRing, true);
  constexpr std::uint64_t kSize = 4 * kStripe;
  pfs::FileSystem fs(SmallStripes());
  std::vector<std::vector<Event>> snap;
  simmpi::Run(2, [&](Comm& c) {
    simmpi::Info info = Hints(1, true);
    info.Set("pnc_retry_backoff_ns", "50000000");
    auto f = File::Open(c, fs, "b.dat", kCreate | kRdWr, info).value();
    if (c.rank() == 0) {
      pfs::FaultPolicy pol;
      pol.transient_ops = {0};  // the first window write
      fs.SetFaultPolicy(pol);
      iostat::Registry::Get().Reset();
    }
    c.Barrier();
    PNC_IOSTAT_BIND_RANK(c.rank());
    const Access a{static_cast<std::uint64_t>(c.rank()) * 512, 512, 1024,
                   kSize / 1024};
    SetAccessView(f, a);
    const auto data = RankData(a, c.rank(), 3);
    ASSERT_TRUE(
        f.WriteAtAll(0, data.data(), data.size(), simmpi::ByteType()).ok());
    c.Barrier();
    if (c.rank() == 0) snap = iostat::FlightRecorder::Get().Collect();
    c.Barrier();
    ASSERT_TRUE(f.Close().ok());
  });
  EXPECT_EQ(fs.stats().write_retries, 1u);
  ASSERT_FALSE(snap.empty());
  const Event* retry = nullptr;
  const Event* xchg1 = nullptr;
  for (const Event& e : snap[0]) {
    if (e.kind == Ev::kRetry && retry == nullptr) retry = &e;
    if (e.kind == Ev::kXchgBegin && e.a0 == 1 && xchg1 == nullptr) xchg1 = &e;
  }
  ASSERT_NE(retry, nullptr);
  ASSERT_NE(xchg1, nullptr);
  EXPECT_GT(retry->t_ns, xchg1->t_ns);
  fs.SetFaultPolicy({});
  std::vector<std::byte> want(kSize);
  for (int r = 0; r < 2; ++r) {
    const Access a{static_cast<std::uint64_t>(r) * 512, 512, 1024,
                   kSize / 1024};
    const auto data = RankData(a, r, 3);
    for (std::uint64_t k = 0; k < a.nblocks; ++k)
      std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(k * a.block),
                  a.block,
                  want.begin() +
                      static_cast<std::ptrdiff_t>(a.disp + k * a.stride));
  }
  EXPECT_EQ(FileBytes(fs, "b.dat"), want);
  iostat::Registry::Get().Reset();
}

// A non-aggregator dies at successive points of a many-window write and
// read: whenever the death lands inside the collective, every survivor
// returns kRankFailed from it, and nobody hangs.
TEST(PipelineFaults, RankCrashMidPipelineFailsEverySurvivor) {
  constexpr int kP = 4;
  int mid_collective = 0;
  for (const bool is_write : {true, false}) {
    // Every op rank 1 makes, up to the first that lies past its last one.
    bool swept_past_run = false;
    for (std::uint64_t op = 0; op < 200 && !swept_past_run; ++op) {
      SCOPED_TRACE(std::string(is_write ? "write" : "read") + " crash at op " +
                   std::to_string(op));
      pfs::FileSystem fs(SmallStripes());
      {
        auto f = fs.Create("c.dat", false).value();
        f.HarnessWrite(0, Pattern(70'000, kBackground), 0.0);
      }
      constexpr int kUnset = 1;  // no pnc status is positive
      std::vector<int> opened(kP, 0), status(kP, kUnset);
      simmpi::RankFaultPolicy pol;
      pol.crashes.push_back({1, op, -1.0});
      const auto run = simmpi::Run(
          kP,
          [&](Comm& c) {
            auto f = File::Open(c, fs, "c.dat", kRdWr, Hints(2, true));
            if (!f.ok()) return;
            opened[static_cast<std::size_t>(c.rank())] = 1;
            const Access a = AccessFor(Shape::kStrided, c.rank(), kP);
            if (!f.value()
                     .SetViewLocal(a.disp, simmpi::ByteType(), FileType(a))
                     .ok())
              return;
            auto data = RankData(a, c.rank(), 7);
            const pnc::Status st =
                is_write ? f.value().WriteAtAll(0, data.data(), data.size(),
                                                simmpi::ByteType())
                         : f.value().ReadAtAll(0, data.data(), data.size(),
                                               simmpi::ByteType());
            status[static_cast<std::size_t>(c.rank())] = st.raw();
            (void)f.value().Close();
          },
          simmpi::CostModel{}, pol);
      if (run.crashed_ranks.empty()) {
        swept_past_run = true;
        EXPECT_EQ(status, (std::vector<int>{0, 0, 0, 0}));
        continue;
      }
      ASSERT_EQ(run.crashed_ranks, (std::vector<int>{1}));
      // Only deaths inside the collective count: rank 1 opened the file
      // but never returned from the collective.
      if (opened[1] == 0 || status[1] != kUnset) continue;
      ++mid_collective;
      for (const int r : {0, 2, 3})
        EXPECT_EQ(status[static_cast<std::size_t>(r)],
                  static_cast<int>(pnc::Err::kRankFailed))
            << "rank " << r;
    }
    EXPECT_TRUE(swept_past_run);
  }
  // The sweep really reached into the collectives, not just Open.
  EXPECT_GT(mid_collective, 0);
}

// A crash point armed the instant a collective returns finds every byte of
// that collective on disk: no window write is still in flight.
TEST(PipelineCrash, CollectiveBytesDurableWhenItReturns) {
  constexpr int kP = 4;
  constexpr std::uint64_t kSize = 70'000;
  for (const Shape shape : {Shape::kStrided, Shape::kHoled}) {
    SCOPED_TRACE(ShapeName(shape));
    pfs::FileSystem fs(SmallStripes());
    {
      auto f = fs.Create("k.dat", false).value();
      f.HarnessWrite(0, Pattern(kSize, kBackground), 0.0);
    }
    simmpi::Run(kP, [&](Comm& c) {
      auto f = File::Open(c, fs, "k.dat", kRdWr, Hints(2, true)).value();
      const Access a = AccessFor(shape, c.rank(), kP);
      SetAccessView(f, a);
      const auto data = RankData(a, c.rank(), 7);
      ASSERT_TRUE(
          f.WriteAtAll(0, data.data(), data.size(), simmpi::ByteType()).ok());
      c.Barrier();
      if (c.rank() == 0) {
        pfs::FaultPolicy pol;
        pol.crash_after_write_bytes = 0;
        fs.SetFaultPolicy(pol);
      }
      c.Barrier();
      // The power is out: a second collective fails everywhere alike.
      const auto more = RankData(a, c.rank(), 8);
      EXPECT_FALSE(
          f.WriteAtAll(0, more.data(), more.size(), simmpi::ByteType()).ok());
      (void)f.Close();
    });
    EXPECT_TRUE(fs.crashed());
    EXPECT_EQ(FileBytes(fs, "k.dat"), ExpectedWrite(shape, kP, kSize));
  }
}

// ---------------------------------------------------- virtual-time formula

/// Events of `kind` (and window `w`, when given) on one rank's tail.
const Event* FindEvent(const std::vector<Event>& evs, Ev kind,
                       std::int64_t w = -1) {
  for (const Event& e : evs)
    if (e.kind == kind && (w < 0 || e.a0 == static_cast<std::uint64_t>(w)))
      return &e;
  return nullptr;
}

// One aggregator, one server, R one-stripe windows, data from both ranks in
// every window. Window writes take W = client request + server request +
// payload at the server rate, and run back to back because each later
// exchange is far shorter than W. So the aggregator's collective costs the
// first exchange (to the first I/O phase), one window copy, R * W, and the
// closing agreement — and strictly less than the sequential schedule, which
// also pays every later exchange.
TEST(PipelineTime, OneAggregatorOneServerMatchesCostModel) {
#if !PNC_IOSTAT_ENABLED
  GTEST_SKIP() << "instrumentation compiled out (PNC_IOSTAT=OFF)";
#endif
  constexpr std::uint64_t kWin = 64 << 10;
  constexpr std::uint64_t kRounds = 5;
  pfs::Config cfg;
  cfg.num_servers = 1;
  cfg.stripe_size = kWin;
  const simmpi::CostModel cost;

  // The closing agreement as the aggregator sees it: it arrives last, long
  // after its peer.
  double agree_ns = 0;
  simmpi::Run(2, [&](Comm& c) {
    if (c.rank() == 0) c.clock().AdvanceTo(1e9);
    (void)c.AgreeStatus(pnc::Status::Ok());
    if (c.rank() == 0) agree_ns = c.clock().now() - 1e9;
  });
  ASSERT_GT(agree_ns, 0.0);

  iostat::Registry::Get().Reset();
  iostat::SetSink(iostat::kSinkRing, true);
  pfs::FileSystem fs(cfg);
  std::vector<std::vector<Event>> snap;
  std::vector<std::uint64_t> msgs(2);  // each rank's sends in the write
  simmpi::Run(2, [&](Comm& c) {
    simmpi::Info info;
    info.Set("cb_nodes", "1");
    info.Set("cb_buffer_size", std::to_string(kWin));
    auto f = File::Open(c, fs, "t.dat", kCreate | kRdWr, info).value();
    c.Barrier();
    if (c.rank() == 0) {
      iostat::Registry::Get().Reset();
      fs.ResetStats();
    }
    c.Barrier();
    PNC_IOSTAT_BIND_RANK(c.rank());
    const Access a{static_cast<std::uint64_t>(c.rank()) * 4096, 4096, 8192,
                   kRounds * kWin / 8192};
    SetAccessView(f, a);
    const auto data = RankData(a, c.rank(), 5);
    const auto& reg = iostat::Registry::Get();
    const std::uint64_t m0 = reg.Value(c.rank(), iostat::Ctr::kMpiMessages);
    ASSERT_TRUE(
        f.WriteAtAll(0, data.data(), data.size(), simmpi::ByteType()).ok());
    msgs[static_cast<std::size_t>(c.rank())] =
        reg.Value(c.rank(), iostat::Ctr::kMpiMessages) - m0;
    c.Barrier();
    if (c.rank() == 0) snap = iostat::FlightRecorder::Get().Collect();
    c.Barrier();
    ASSERT_TRUE(f.Close().ok());
  });
  ASSERT_FALSE(snap.empty());
  const auto& ev = snap[0];
  const Event* begin = FindEvent(ev, Ev::kCollBegin);
  const Event* io0 = FindEvent(ev, Ev::kIoBegin, 0);
  const Event* end = FindEvent(ev, Ev::kCollEnd);
  ASSERT_NE(begin, nullptr);
  ASSERT_NE(io0, nullptr);
  ASSERT_NE(end, nullptr);
  EXPECT_EQ(fs.stats().write_requests, kRounds);
  // Rank 1's range meets every window: one exchange message per round,
  // as in a dense exchange of two ranks. Besides: the range allgather's
  // Gather (rank 1) and Bcast (rank 0), and the closing AgreeStatus's two
  // allreduces, each a send up (rank 1) and one down (rank 0).
  EXPECT_EQ(msgs, (std::vector<std::uint64_t>{1 + 2, 1 + kRounds + 2}));

  const double write_ns = cfg.client_request_ns + cfg.server_request_ns +
                          cfg.server_write_ns_per_byte * double{kWin};
  const double first_exchange = io0->t_ns - begin->t_ns;
  const double pipelined = first_exchange + cost.CopyCost(kWin) +
                           double{kRounds} * write_ns + agree_ns;
  const double makespan = end->t_ns - begin->t_ns;
  EXPECT_NEAR(makespan, pipelined, 1e-6 * makespan);

  double later_exchanges = 0;
  for (std::uint64_t w = 1; w < kRounds; ++w) {
    const Event* xb = FindEvent(ev, Ev::kXchgBegin, static_cast<std::int64_t>(w));
    const Event* xe = FindEvent(ev, Ev::kXchgEnd, static_cast<std::int64_t>(w));
    ASSERT_NE(xb, nullptr);
    ASSERT_NE(xe, nullptr);
    later_exchanges += xe->t_ns - xb->t_ns;
  }
  ASSERT_GT(later_exchanges, 0.0);
  const double sequential = pipelined + later_exchanges +
                            double{kRounds - 1} * cost.CopyCost(kWin);
  EXPECT_LT(makespan, sequential);
  // The hidden channel time is what the later exchanges no longer cost.
  EXPECT_GT(iostat::Registry::Get().Value(0, iostat::Ctr::kMpiioIoOverlapNs),
            0u);
  iostat::Registry::Get().Reset();
}

// ------------------------------------------------------- stripe alignment

// cb_buffer_size = 10000 on 4 KiB stripes is rounded down to 8 KiB windows,
// so no window write cuts a stripe. Counted at the pfs: with one server,
// each write request is one grant, and pfs charges every stripe a request
// touches in full (partial stripes read-modify-write). The grants then sum
// to the stripes of the region exactly once each; a window boundary that
// cut a stripe would charge that stripe twice.
TEST(PipelineWindows, RoundedToStripeMultiple) {
#if !PNC_IOSTAT_ENABLED
  GTEST_SKIP() << "instrumentation compiled out (PNC_IOSTAT=OFF)";
#endif
  constexpr std::uint64_t kSize = 50 * kStripe + 1234;
  for (const int p : {3, 4}) {
    SCOPED_TRACE("nprocs " + std::to_string(p));
    pfs::Config cfg;
    cfg.num_servers = 1;
    cfg.stripe_size = kStripe;
    pfs::FileSystem fs(cfg);
    iostat::Registry::Get().Reset();
    iostat::SetSink(iostat::kSinkRing, true);
    std::vector<std::vector<Event>> snap;
    const auto pp = static_cast<std::uint64_t>(p);
    const std::uint64_t share = kSize / pp;
    simmpi::Run(p, [&](Comm& c) {
      simmpi::Info info;
      info.Set("cb_nodes", "2");
      info.Set("cb_buffer_size", "10000");
      auto f = File::Open(c, fs, "a.dat", kCreate | kRdWr, info).value();
      c.Barrier();
      if (c.rank() == 0) iostat::Registry::Get().Reset();
      c.Barrier();
      PNC_IOSTAT_BIND_RANK(c.rank());
      const auto r = static_cast<std::uint64_t>(c.rank());
      const std::uint64_t len = r + 1 == pp ? kSize - r * share : share;
      const auto data = Pattern(len, 40 + r);
      ASSERT_TRUE(
          f.WriteAtAll(r * share, data.data(), len, simmpi::ByteType()).ok());
      c.Barrier();
      if (c.rank() == 0) snap = iostat::FlightRecorder::Get().Collect();
      c.Barrier();
      ASSERT_TRUE(f.Close().ok());
    });
    std::uint64_t charged = 0, grants = 0;
    for (const auto& evs : snap)
      for (const Event& e : evs)
        if (e.kind == Ev::kPfsServer && e.detail[0] == 'w') {
          charged += e.a0 >> 8;
          ++grants;
        }
    const std::uint64_t stripes = (kSize + kStripe - 1) / kStripe;
    EXPECT_EQ(charged, stripes * kStripe);
    // 8 KiB windows: two stripes per write, the domains' last ones shorter.
    EXPECT_GE(grants, stripes / 2);
    EXPECT_LE(grants, stripes / 2 + 2);

    std::vector<std::byte> want;
    for (std::uint64_t r = 0; r < pp; ++r) {
      const std::uint64_t len = r + 1 == pp ? kSize - r * share : share;
      const auto data = Pattern(len, 40 + r);
      want.insert(want.end(), data.begin(), data.end());
    }
    EXPECT_EQ(FileBytes(fs, "a.dat"), want);
  }
  iostat::Registry::Get().Reset();
}

}  // namespace
}  // namespace mpiio
