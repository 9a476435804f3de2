// Sparse two-phase exchange (src/mpiio/twophase.cpp): each rank messages
// only the aggregators whose windows its file range meets, and each
// aggregator hears only from the ranks whose ranges meet its window.
//
//   * Ranks/SparseExchangeP: seeded strided accesses, with an empty rank
//     and a rank whose range spans windows where it holds no bytes,
//     written collectively give the bytes independent I/O gives, and read
//     back collectively give each rank its bytes; the same with a rank-fault
//     schedule armed that never fires, which runs the fault-tolerant
//     exchange.
//   * SparseExchange.MessagesFollowTheRanges: on a hand-laid case each
//     collective sends exactly the messages its ranges imply.
//   * SparseExchange.DeathAtEveryOpFailsEverySurvivor: a rank dying at any
//     op inside a collective fails every survivor together, with no hang.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "iostat/iostat.hpp"
#include "mpiio/file.hpp"
#include "simmpi/runtime.hpp"
#include "util/rng.hpp"

namespace mpiio {
namespace {

using simmpi::Comm;
using simmpi::Datatype;

constexpr std::uint64_t kStripe = 1024;
constexpr std::uint64_t kWindow = 4096;  // cb_buffer_size: several rounds
constexpr std::uint64_t kFileSize = 40'000;
constexpr std::uint64_t kBackground = 0xB6;

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

simmpi::Info Hints(int cb_nodes, std::uint64_t window) {
  simmpi::Info info;
  info.Set("cb_nodes", std::to_string(cb_nodes));
  info.Set("cb_buffer_size", std::to_string(window));
  return info;
}

/// One rank's blocks, file-sorted.
struct Blocks {
  std::vector<std::uint64_t> lens, offs;
  [[nodiscard]] std::uint64_t bytes() const {
    std::uint64_t n = 0;
    for (const std::uint64_t l : lens) n += l;
    return n;
  }
};

/// The file cut into cells of 1..400 bytes, each owned by one rank or by
/// none (a hole the aggregator must pre-read). With three or more ranks,
/// one rank owns nothing and another owns only the first and the last
/// cell: its range spans every window, and it holds bytes in two.
std::vector<Blocks> MakeLayout(int p, std::uint64_t seed) {
  pnc::SplitMix64 rng(seed);
  std::vector<Blocks> ranks(static_cast<std::size_t>(p));
  const int empty = p >= 3 ? static_cast<int>(rng.Below(p)) : -1;
  const int sparse = p >= 3 ? (empty + 1) % p : -1;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cells;  // off, len
  for (std::uint64_t off = 0; off < kFileSize;) {
    const std::uint64_t len = std::min(kFileSize - off, 1 + rng.Below(400));
    cells.emplace_back(off, len);
    off += len;
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const bool end_cell = c == 0 || c + 1 == cells.size();
    int owner = static_cast<int>(rng.Below(static_cast<std::uint64_t>(p + 1)));
    if (sparse >= 0 && end_cell) {
      owner = sparse;
    } else if (sparse >= 0 && (owner == sparse || owner == empty)) {
      owner = p;
    }
    if (owner == p) continue;  // a hole
    auto& b = ranks[static_cast<std::size_t>(owner)];
    b.offs.push_back(cells[c].first);
    b.lens.push_back(cells[c].second);
  }
  return ranks;
}

std::vector<std::byte> RankData(const Blocks& b, int r, std::uint64_t seed) {
  return Pattern(b.bytes(), seed * 100 + static_cast<std::uint64_t>(r));
}

void SetBlocksView(File& f, const Blocks& b) {
  if (b.lens.empty()) {
    ASSERT_TRUE(f.SetView(0, simmpi::ByteType(), simmpi::ByteType()).ok());
  } else {
    ASSERT_TRUE(f.SetView(0, simmpi::ByteType(),
                          Datatype::Hindexed(b.lens, b.offs,
                                             simmpi::ByteType()))
                    .ok());
  }
}

std::vector<std::byte> FileBytes(pfs::FileSystem& fs, const std::string& path) {
  auto f = fs.Open(path).value();
  std::vector<std::byte> bytes(f.size());
  f.HarnessRead(0, bytes, 0.0);
  return bytes;
}

void CreateBackground(pfs::FileSystem& fs, const std::string& path) {
  auto f = fs.Create(path, false).value();
  f.HarnessWrite(0, Pattern(kFileSize, kBackground), 0.0);
}

/// Write `layout` to "coll.dat" collectively and to "indep.dat" with
/// independent I/O, then read "coll.dat" back collectively; every rank
/// checks its bytes. Returns the two files' bytes.
std::pair<std::vector<std::byte>, std::vector<std::byte>> WriteBothAndReadBack(
    const std::vector<Blocks>& layout, int cb_nodes, std::uint64_t seed,
    const simmpi::RankFaultPolicy& faults) {
  const int p = static_cast<int>(layout.size());
  pfs::FileSystem fs(SmallStripes());
  CreateBackground(fs, "coll.dat");
  CreateBackground(fs, "indep.dat");
  const auto run = simmpi::Run(
      p,
      [&](Comm& c) {
        const Blocks& b = layout[static_cast<std::size_t>(c.rank())];
        const auto data = RankData(b, c.rank(), seed);
        {
          auto f = File::Open(c, fs, "coll.dat", kRdWr,
                              Hints(cb_nodes, kWindow))
                       .value();
          SetBlocksView(f, b);
          ASSERT_TRUE(
              f.WriteAtAll(0, data.data(), data.size(), simmpi::ByteType())
                  .ok());
          ASSERT_TRUE(f.Close().ok());
        }
        {
          auto f = File::Open(c, fs, "indep.dat", kRdWr,
                              Hints(cb_nodes, kWindow))
                       .value();
          SetBlocksView(f, b);
          if (!data.empty()) {
            ASSERT_TRUE(
                f.WriteAt(0, data.data(), data.size(), simmpi::ByteType())
                    .ok());
          }
          ASSERT_TRUE(f.Close().ok());
        }
        auto f = File::Open(c, fs, "coll.dat", kRdOnly,
                            Hints(cb_nodes, kWindow))
                     .value();
        SetBlocksView(f, b);
        std::vector<std::byte> got(data.size());
        ASSERT_TRUE(
            f.ReadAtAll(0, got.data(), got.size(), simmpi::ByteType()).ok());
        EXPECT_EQ(got, data) << "rank " << c.rank();
        ASSERT_TRUE(f.Close().ok());
      },
      simmpi::CostModel{}, faults);
  EXPECT_TRUE(run.crashed_ranks.empty());
  return {FileBytes(fs, "coll.dat"), FileBytes(fs, "indep.dat")};
}

class SparseExchangeP
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  int procs() const { return std::get<0>(GetParam()); }
  int cb_nodes() const { return std::get<1>(GetParam()); }
};

TEST_P(SparseExchangeP, CollectiveMatchesIndependentOracle) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto layout = MakeLayout(procs(), seed);
    const auto [coll, indep] =
        WriteBothAndReadBack(layout, cb_nodes(), seed, {});
    EXPECT_EQ(coll, indep);
    EXPECT_EQ(coll.size(), kFileSize);
  }
}

// Armed with a crash that never fires, every exchange runs its
// fault-tolerant receives, and the bytes are the same.
TEST_P(SparseExchangeP, ArmedExchangeMatchesIndependentOracle) {
  simmpi::RankFaultPolicy never;
  never.crashes.push_back({0, simmpi::RankFaultPolicy::kNever, -1.0});
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto layout = MakeLayout(procs(), seed);
    const auto [coll, indep] =
        WriteBothAndReadBack(layout, cb_nodes(), seed, never);
    EXPECT_EQ(coll, indep);
  }
}

std::vector<std::tuple<int, int>> SweepCases() {
  std::vector<std::tuple<int, int>> cases;
  for (const int p : {1, 3, 4, 5, 8})
    for (const int aggs : {1, 2, p})
      if (aggs <= p &&
          (cases.empty() || cases.back() != std::tuple<int, int>{p, aggs}))
        cases.emplace_back(p, aggs);
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Ranks, SparseExchangeP, ::testing::ValuesIn(SweepCases()),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "p" + std::to_string(std::get<0>(info.param)) + "_agg" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------------- message counts

// Four ranks, two aggregators, 4 KiB stripes and windows:
//   rank 0: [0, 4000)                      rank 1: nothing
//   rank 2: [6000, 6400) + [20000, 20400)  rank 3: [12000, 19600) +
//                                                  [20800, 24576)
// gmax = 24576, so domain 0 = [0, 12288) on rank 0 and domain 1 =
// [12288, 24576) on rank 2, three 4 KiB windows each. The ranges meet:
//   rank 0: d0 w0;  rank 2: d0 w1-w2, d1 w0-w1;  rank 3: d0 w2, d1 w0-w2.
// Write, messages to another rank per round (self-deliveries are free):
//   w0: 3->2;  w1: 2->0, 3->2;  w2: 2->0 (empty), 3->0, 3->2  = 6.
// Read: requests 2->0, 3->0, 3->2 = 3; replies w0: 2->3; w1: 0->2, 2->3;
// w2: 0->2 (empty), 0->3, 2->3 = 6.
// Every collective also gathers the ranges (Gather + Bcast, 2 x 3) and
// settles (AllreduceMin + SyncClocksToMax, 4 x 3): 18 more. The dense
// exchange sent 12 per round: 36 for the write, 48 for the read.
TEST(SparseExchange, MessagesFollowTheRanges) {
#if !PNC_IOSTAT_ENABLED
  GTEST_SKIP() << "instrumentation compiled out (PNC_IOSTAT=OFF)";
#endif
  const std::vector<Blocks> layout = {
      {{4000}, {0}},
      {},
      {{400, 400}, {6000, 20000}},
      {{7600, 3776}, {12000, 20800}}};
  pfs::Config cfg;
  cfg.num_servers = 2;
  cfg.stripe_size = 4096;
  pfs::FileSystem fs(cfg);
  std::vector<std::uint64_t> msgs[2], xchg[2];  // [write, read] per rank
  for (auto* v : {&msgs[0], &msgs[1], &xchg[0], &xchg[1]}) v->resize(4);
  iostat::Registry::Get().Reset();
  simmpi::Run(4, [&](Comm& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    const Blocks& b = layout[r];
    auto data = RankData(b, c.rank(), 3);
    auto f = File::Open(c, fs, "m.dat", kCreate | kRdWr, Hints(2, 4096))
                 .value();
    SetBlocksView(f, b);
    const auto& reg = iostat::Registry::Get();
    for (const bool is_write : {true, false}) {
      const std::size_t k = is_write ? 0 : 1;
      const std::uint64_t m0 = reg.Value(c.rank(), iostat::Ctr::kMpiMessages);
      const std::uint64_t x0 =
          reg.Value(c.rank(), iostat::Ctr::kMpiioExchangeMsgs);
      const pnc::Status st =
          is_write
              ? f.WriteAtAll(0, data.data(), data.size(), simmpi::ByteType())
              : f.ReadAtAll(0, data.data(), data.size(), simmpi::ByteType());
      ASSERT_TRUE(st.ok());
      msgs[k][r] = reg.Value(c.rank(), iostat::Ctr::kMpiMessages) - m0;
      xchg[k][r] = reg.Value(c.rank(), iostat::Ctr::kMpiioExchangeMsgs) - x0;
    }
    EXPECT_EQ(data, RankData(b, c.rank(), 3));
    ASSERT_TRUE(f.Close().ok());
  });
  const auto sum = [](const std::vector<std::uint64_t>& v) {
    std::uint64_t n = 0;
    for (const std::uint64_t x : v) n += x;
    return n;
  };
  EXPECT_EQ(sum(msgs[0]), 18u + 6u);
  EXPECT_EQ(sum(msgs[1]), 18u + 9u);
  // The data-carrying sends: the exchange messages minus the empty one.
  EXPECT_EQ(sum(xchg[0]), 5u);
  EXPECT_EQ(sum(xchg[1]), 3u);
  iostat::Registry::Get().Reset();
}

// ----------------------------------------------------------------- deaths

// Five ranks, two aggregators (ranks 0 and 2), one seeded layout. A
// non-aggregator and an aggregator each die at every op of theirs in
// turn: whenever the death lands inside the write or the read, every
// survivor returns kRankFailed from it, and nobody hangs.
TEST(SparseExchange, DeathAtEveryOpFailsEverySurvivor) {
  constexpr int kP = 5;
  const auto layout = MakeLayout(kP, 7);
  int mid_collective = 0;
  for (const int dying : {1, 2}) {
    bool swept_past_run = false;
    for (std::uint64_t op = 0; op < 400 && !swept_past_run; ++op) {
      SCOPED_TRACE("rank " + std::to_string(dying) + " dies at op " +
                   std::to_string(op));
      pfs::FileSystem fs(SmallStripes());
      CreateBackground(fs, "d.dat");
      constexpr int kUnset = 1;  // no pnc status is positive
      std::vector<int> opened(kP, 0), wst(kP, kUnset), rst(kP, kUnset);
      simmpi::RankFaultPolicy pol;
      pol.crashes.push_back({dying, op, -1.0});
      const auto run = simmpi::Run(
          kP,
          [&](Comm& c) {
            const auto r = static_cast<std::size_t>(c.rank());
            const Blocks& b = layout[r];
            auto data = RankData(b, c.rank(), 7);
            auto f = File::Open(c, fs, "d.dat", kRdWr, Hints(2, kWindow));
            if (!f.ok()) return;
            opened[r] = 1;
            if (!f.value().SetViewLocal(0, simmpi::ByteType(),
                                        b.lens.empty()
                                            ? simmpi::ByteType()
                                            : Datatype::Hindexed(
                                                  b.lens, b.offs,
                                                  simmpi::ByteType()))
                     .ok())
              return;
            wst[r] = f.value()
                         .WriteAtAll(0, data.data(), data.size(),
                                     simmpi::ByteType())
                         .raw();
            rst[r] = f.value()
                         .ReadAtAll(0, data.data(), data.size(),
                                    simmpi::ByteType())
                         .raw();
            (void)f.value().Close();
          },
          simmpi::CostModel{}, pol);
      if (run.crashed_ranks.empty()) {
        swept_past_run = true;
        continue;
      }
      ASSERT_EQ(run.crashed_ranks, (std::vector<int>{dying}));
      const auto d = static_cast<std::size_t>(dying);
      // The death fell inside the collective whose status the dying rank
      // never recorded, after its Open succeeded.
      const bool in_write = opened[d] == 1 && wst[d] == kUnset;
      const bool in_read = wst[d] != kUnset && rst[d] == kUnset;
      if (!in_write && !in_read) continue;
      ++mid_collective;
      for (int r = 0; r < kP; ++r) {
        if (r == dying) continue;
        const auto i = static_cast<std::size_t>(r);
        EXPECT_EQ(in_write ? wst[i] : rst[i],
                  static_cast<int>(pnc::Err::kRankFailed))
            << "rank " << r;
      }
    }
    EXPECT_TRUE(swept_past_run);
  }
  EXPECT_GT(mid_collective, 0);
}

}  // namespace
}  // namespace mpiio
