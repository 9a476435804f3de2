// Rank-fault chaos suite: deterministic rank crashes, stragglers, and
// message drops injected into the thread-backed MPI, and the collective
// failure-agreement machinery that must keep every survivor consistent.
//
// The contract under test (DESIGN.md §6):
//   * a scripted crash kills exactly the scripted rank, observably — peers
//     never hang on it (fault-tolerant calls see the death; non-FT waits
//     abort deterministically instead of stalling the watchdog interval);
//   * every fault-tolerant agreement round delivers a bitwise-identical
//     outcome on every survivor, including the survivor list itself;
//   * collective I/O with a dead participant completes on the survivors
//     with aggregator duties deterministically reassigned, lands the
//     survivors' data, and returns kRankFailed on every survivor;
//   * an interrupted dataset stays ncverify-legal, and survivors can close
//     it and reopen on a shrunken communicator.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "iostat/events.hpp"
#include "iostat/iostat.hpp"
#include "mpiio/file.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"
#include "test_support.hpp"
#include "tools/verify.hpp"

namespace {

using iostat::Ev;
using iostat::Event;
using iostat::FlightRecorder;
using iostat::Registry;
using ncformat::NcType;
using simmpi::AgreeOutcome;
using simmpi::Comm;
using simmpi::RankFaultPolicy;
using simmpi::RunResult;

RankFaultPolicy CrashAtOp(int rank, std::uint64_t op) {
  RankFaultPolicy p;
  p.crashes.push_back({rank, op, -1.0});
  return p;
}

RankFaultPolicy CrashAtTime(int rank, double t_ns) {
  RankFaultPolicy p;
  p.crashes.push_back({rank, RankFaultPolicy::kNever, t_ns});
  return p;
}

// ------------------------------------------------------------ injection

TEST(Chaos, CrashByOpIndexKillsExactlyThatRank) {
  std::vector<AgreeOutcome> outcome(3);
  const RunResult run = simmpi::Run(
      3,
      [&](Comm& c) { outcome[static_cast<std::size_t>(c.rank())] =
                         c.AgreeFT(10 * c.rank() + 5); },
      simmpi::CostModel{}, CrashAtOp(1, 0));

  ASSERT_EQ(run.crashed_ranks, (std::vector<int>{1}));
  EXPECT_EQ(run.fault_counters.crashes, 1u);
  EXPECT_GE(run.fault_counters.agreements, 1u);
  EXPECT_GE(run.fault_counters.agreements_failed, 1u);
  for (int r : {0, 2}) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const AgreeOutcome& o = outcome[static_cast<std::size_t>(r)];
    EXPECT_TRUE(o.any_dead);
    EXPECT_EQ(o.alive, (std::vector<int>{0, 2}));
    EXPECT_EQ(o.min_value, 5);  // min over the live contributions
  }
}

TEST(Chaos, CrashByVirtualTimeFiresAtFirstOpPastDeadline) {
  std::vector<std::byte> got;
  bool recv_ok = true;
  const RunResult run = simmpi::Run(
      2,
      [&](Comm& c) {
        if (c.rank() == 1) {
          c.clock().Advance(50'000.0);  // cross the deadline...
          const std::byte b{0x11};
          c.Send(0, 1, pnc::ConstByteSpan(&b, 1));  // ...die at this op
          ADD_FAILURE() << "rank 1 survived its scripted crash";
        } else {
          recv_ok = c.RecvFT(1, 1, got);
        }
      },
      simmpi::CostModel{}, CrashAtTime(1, 10'000.0));

  ASSERT_EQ(run.crashed_ranks, (std::vector<int>{1}));
  EXPECT_FALSE(recv_ok);  // death observed, not hung
  EXPECT_TRUE(got.empty());
}

TEST(Chaos, StragglerMultipliesMessageCost) {
  auto exchange = [](Comm& c) {
    std::vector<std::byte> blk(1 << 12, std::byte{0x5A});
    if (c.rank() == 1) {
      for (int i = 0; i < 4; ++i) c.Send(0, i, blk);
    } else {
      for (int i = 0; i < 4; ++i) (void)c.Recv(1, i);
    }
  };
  const RunResult base = simmpi::Run(2, exchange);

  RankFaultPolicy p;
  p.stragglers.push_back({1, 16.0});
  const RunResult slow = simmpi::Run(2, exchange, simmpi::CostModel{}, p);

  EXPECT_EQ(slow.fault_counters.straggled_sends, 4u);
  EXPECT_TRUE(slow.crashed_ranks.empty());
  // Purely virtual: the straggler's messages arrive later, so the
  // receiver's completion time grows with the delay factor.
  EXPECT_GT(slow.max_time_ns, base.max_time_ns);
}

TEST(Chaos, ScriptedDropVanishesInTransit) {
  std::vector<std::byte> got;
  RankFaultPolicy p;
  p.drops.push_back({0, 0});  // rank 0's first send vanishes
  const RunResult run = simmpi::Run(
      2,
      [&](Comm& c) {
        if (c.rank() == 0) {
          const std::byte a{0x01}, b{0x02};
          c.Send(1, 1, pnc::ConstByteSpan(&a, 1));  // dropped
          c.Send(1, 2, pnc::ConstByteSpan(&b, 1));  // delivered
        } else {
          got = c.Recv(0, 2);
        }
      },
      simmpi::CostModel{}, p);

  EXPECT_EQ(run.fault_counters.dropped_messages, 1u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], std::byte{0x02});
}

TEST(Chaos, SeededDropsAreExactRunToRun) {
  auto spray = [](Comm& c) {
    if (c.rank() != 0) return;  // receiver never waits: drops cannot hang it
    const std::byte b{0x7E};
    for (int i = 0; i < 64; ++i) c.Send(1, i, pnc::ConstByteSpan(&b, 1));
  };
  RankFaultPolicy p;
  p.drop_prob = 0.25;
  const RunResult a = simmpi::Run(2, spray, simmpi::CostModel{}, p);
  const RunResult b = simmpi::Run(2, spray, simmpi::CostModel{}, p);

  EXPECT_GT(a.fault_counters.dropped_messages, 0u);
  EXPECT_LT(a.fault_counters.dropped_messages, 64u);
  // Drops derive from (seed, rank, send index), never from interleaving.
  EXPECT_EQ(a.fault_counters.dropped_messages,
            b.fault_counters.dropped_messages);

  RankFaultPolicy q = p;
  q.seed ^= 0xBEEF;
  const RunResult c = simmpi::Run(2, spray, simmpi::CostModel{}, q);
  EXPECT_NE(a.fault_counters.dropped_messages,
            c.fault_counters.dropped_messages);
}

// ------------------------------------------------------------ agreement

TEST(Chaos, SurvivorsShrinkToLiveSubcommunicator) {
  std::vector<int> live_rank(4, -1), live_size(4, -1), bcast_val(4, -1);
  const RunResult run = simmpi::Run(
      4,
      [&](Comm& c) {
        const AgreeOutcome o = c.AgreeFT(c.rank());
        if (c.RankDead(2) && !o.any_dead)
          ADD_FAILURE() << "death not reflected in the outcome";
        if (!o.any_dead) return;
        Comm live = c.LiveSubsetFT(o);
        live_rank[static_cast<std::size_t>(c.rank())] = live.rank();
        live_size[static_cast<std::size_t>(c.rank())] = live.size();
        // The shrunken communicator is fully functional: a root broadcast
        // and a fresh agreement (now with no dead members) both work.
        int v = live.rank() == 0 ? 42 : 0;
        live.BcastValue(v, 0);
        bcast_val[static_cast<std::size_t>(c.rank())] = v;
        const AgreeOutcome o2 = live.AgreeFT(live.rank() + 7);
        EXPECT_FALSE(o2.any_dead);
        EXPECT_EQ(o2.min_value, 7);
        EXPECT_EQ(o2.alive, (std::vector<int>{0, 1, 2}));
      },
      simmpi::CostModel{}, CrashAtOp(2, 0));

  ASSERT_EQ(run.crashed_ranks, (std::vector<int>{2}));
  EXPECT_EQ(live_rank[0], 0);
  EXPECT_EQ(live_rank[1], 1);
  EXPECT_EQ(live_rank[3], 2);  // renumbered past the dead rank
  for (int r : {0, 1, 3}) {
    EXPECT_EQ(live_size[static_cast<std::size_t>(r)], 3);
    EXPECT_EQ(bcast_val[static_cast<std::size_t>(r)], 42);
  }
}

// ------------------------------------------------- collective I/O (mpiio)

// Rank 0 is the only aggregator (cb_nodes=1) and dies at the entry of the
// collective: its duties must fall to a survivor deterministically, the
// survivors' data must land, and every survivor must return kRankFailed.
TEST(Chaos, DeadAggregatorDutiesReassignedSurvivorDataLands) {
  constexpr std::uint64_t kBlock = 1 << 10;
  pfs::FileSystem fs;
  std::vector<int> wr_status(4, 1);
  const RunResult run = simmpi::Run(
      4,
      [&](Comm& c) {
        simmpi::Info info;
        info.Set("cb_nodes", "1");
        auto f = mpiio::File::Open(c, fs, "agg.dat",
                                   mpiio::kCreate | mpiio::kRdWr, info);
        ASSERT_TRUE(f.ok()) << f.status().message();
        // Everyone crosses the crash deadline now, so rank 0's next op —
        // the entry agreement of the collective — is its point of death.
        c.clock().AdvanceTo(2e12);
        std::vector<std::byte> mine(
            kBlock, std::byte{static_cast<unsigned char>(0x40 + c.rank())});
        const pnc::Status st = f.value().WriteAtAll(
            static_cast<std::uint64_t>(c.rank()) * kBlock, mine.data(),
            kBlock, simmpi::ByteType());
        wr_status[static_cast<std::size_t>(c.rank())] = st.raw();
        (void)f.value().Close();
      },
      simmpi::CostModel{}, CrashAtTime(0, 1e12));

  ASSERT_EQ(run.crashed_ranks, (std::vector<int>{0}));
  for (int r = 1; r < 4; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_EQ(wr_status[static_cast<std::size_t>(r)],
              static_cast<int>(pnc::Err::kRankFailed));
  }
  // The surviving ranks' blocks made it to storage via the fallback
  // aggregator even though the scripted aggregator never showed up.
  for (int r = 1; r < 4; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const std::uint64_t off = static_cast<std::uint64_t>(r) * kBlock;
    EXPECT_EQ(pnc_test::ByteAt(fs, "agg.dat", off),
              std::byte{static_cast<unsigned char>(0x40 + r)});
    EXPECT_EQ(pnc_test::ByteAt(fs, "agg.dat", off + kBlock - 1),
              std::byte{static_cast<unsigned char>(0x40 + r)});
  }
}

// With collective buffering off, a collective is independent I/O plus a
// closing status agreement. Rank 2 dies at that agreement (its ops 0 and 1
// are the two agreements inside File::Open): the survivors must get
// kRankFailed, not abort in a plain clock sync that waits on the dead rank.
TEST(Chaos, CbDisabledCollectiveReturnsRankFailedOnSurvivors) {
  constexpr std::uint64_t kBlock = 256;
  for (const bool is_write : {true, false}) {
    SCOPED_TRACE(is_write ? "WriteAtAll" : "ReadAtAll");
    pfs::FileSystem fs;
    simmpi::Run(4, [&](Comm& c) {  // the file to read, fault-free
      auto f = mpiio::File::Open(c, fs, "cboff.dat",
                                 mpiio::kCreate | mpiio::kRdWr,
                                 simmpi::NullInfo());
      ASSERT_TRUE(f.ok()) << f.status().message();
      std::vector<std::byte> mine(kBlock, std::byte{0x5C});
      ASSERT_TRUE(f.value()
                      .WriteAtAll(static_cast<std::uint64_t>(c.rank()) * kBlock,
                                  mine.data(), kBlock, simmpi::ByteType())
                      .ok());
      ASSERT_TRUE(f.value().Close().ok());
    });

    std::vector<int> status(4, 1);
    const RunResult run = simmpi::Run(
        4,
        [&](Comm& c) {
          simmpi::Info info;
          info.Set(is_write ? "romio_cb_write" : "romio_cb_read", "disable");
          auto f = mpiio::File::Open(c, fs, "cboff.dat", mpiio::kRdWr, info);
          ASSERT_TRUE(f.ok()) << f.status().message();
          std::vector<std::byte> buf(kBlock, std::byte{0x3A});
          const std::uint64_t off =
              static_cast<std::uint64_t>(c.rank()) * kBlock;
          const pnc::Status st =
              is_write ? f.value().WriteAtAll(off, buf.data(), kBlock,
                                              simmpi::ByteType())
                       : f.value().ReadAtAll(off, buf.data(), kBlock,
                                             simmpi::ByteType());
          status[static_cast<std::size_t>(c.rank())] = st.raw();
        },
        simmpi::CostModel{}, CrashAtOp(2, 2));

    ASSERT_EQ(run.crashed_ranks, (std::vector<int>{2}));
    for (int r : {0, 1, 3}) {
      SCOPED_TRACE("rank " + std::to_string(r));
      EXPECT_EQ(status[static_cast<std::size_t>(r)],
                static_cast<int>(pnc::Err::kRankFailed));
    }
  }
}

// ------------------------------------------------------ pnetcdf datasets

/// One full dataset lifecycle; each rank appends the raw status of every
/// stage to its own log so the sweep can check survivor consistency.
void DatasetLifecycle(Comm& c, pfs::FileSystem& fs,
                      std::vector<std::vector<int>>& logs) {
  auto& log = logs[static_cast<std::size_t>(c.rank())];
  auto r = pnetcdf::Dataset::Create(c, fs, "chaos.nc", simmpi::NullInfo());
  log.push_back(r.status().raw());
  if (!r.ok()) return;
  auto ds = std::move(r).value();
  const auto time = ds.DefDim("time", pnetcdf::kUnlimited);
  const auto x = ds.DefDim("x", 8);
  if (!time.ok() || !x.ok()) return;
  const auto v = ds.DefVar("r", NcType::kInt, {time.value(), x.value()});
  if (!v.ok()) return;
  log.push_back(ds.EndDef().raw());
  const std::int32_t base = static_cast<std::int32_t>(10 * c.rank());
  const std::vector<std::int32_t> mine = {base, base + 1};
  const std::uint64_t st[] = {0, static_cast<std::uint64_t>(2 * c.rank())};
  const std::uint64_t ct[] = {1, 2};
  log.push_back(ds.PutVaraAll<std::int32_t>(v.value(), st, ct, mine).raw());
  log.push_back(ds.Close().raw());
}

// Crash-point sweep over the whole lifecycle: for every op index at which
// rank 1 can die, the run must terminate (no hang), the survivors must
// log identical statuses stage for stage, and whatever image is left on
// disk must be legal to ncverify. The sweep ends when the op index
// outlives the program (no crash fired).
TEST(Chaos, LifecycleCrashOpSweepSurvivorsConsistentFileLegal) {
  bool swept_past_program = false;
  for (std::uint64_t op = 0; op < 4096; ++op) {
    SCOPED_TRACE("crash at op " + std::to_string(op));
    pfs::FileSystem fs;
    std::vector<std::vector<int>> logs(4);
    const RunResult run = simmpi::Run(
        4, [&](Comm& c) { DatasetLifecycle(c, fs, logs); },
        simmpi::CostModel{}, CrashAtOp(1, op));

    if (run.crashed_ranks.empty()) {
      // The whole lifecycle ran in fewer than `op` ops: sweep complete.
      for (int r = 1; r < 4; ++r) EXPECT_EQ(logs[0], logs[static_cast<std::size_t>(r)]);
      for (int v : logs[0]) EXPECT_EQ(v, 0);
      swept_past_program = true;
      break;
    }
    ASSERT_EQ(run.crashed_ranks, (std::vector<int>{1}));
    // Survivors agree on every stage's outcome.
    EXPECT_EQ(logs[0], logs[2]);
    EXPECT_EQ(logs[0], logs[3]);
    // Whatever the interruption left behind is legal: either no file yet,
    // or an image ncverify accepts (possibly never-committed, never torn
    // into an unrecoverable hybrid of two commits).
    if (fs.Exists("chaos.nc")) {
      auto vr = nctools::VerifyFile(fs, "chaos.nc", {.repair = true});
      ASSERT_TRUE(vr.ok()) << vr.status().message();
      if (vr.value().state == ncformat::FileState::kCorrupt) {
        // Never committed (the crash predates the first journal commit):
        // the open path must reject it cleanly, not misread it.
        EXPECT_FALSE(netcdf::Dataset::Open(fs, "chaos.nc", false).ok());
      }
    }
  }
  EXPECT_TRUE(swept_past_program) << "sweep never outlived the program";
}

// Survivors of a mid-write death close the degraded dataset, shrink the
// communicator through the public agreement API, and reopen the file on
// the live subset — reading back everything the fault-free run committed.
TEST(Chaos, SurvivorsCloseShrinkReopenAndReadBack) {
  pfs::FileSystem fs;
  simmpi::Run(4, [&](Comm& c) {  // committed state, fault-free
    auto ds =
        pnetcdf::Dataset::Create(c, fs, "s.nc", simmpi::NullInfo()).value();
    const int time = ds.DefDim("time", pnetcdf::kUnlimited).value();
    const int x = ds.DefDim("x", 8).value();
    const int v = ds.DefVar("r", NcType::kInt, {time, x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    const std::int32_t base = static_cast<std::int32_t>(10 * c.rank());
    const std::vector<std::int32_t> mine = {base, base + 1};
    const std::uint64_t st[] = {0, static_cast<std::uint64_t>(2 * c.rank())};
    const std::uint64_t ct[] = {1, 2};
    ASSERT_TRUE(ds.PutVaraAll<std::int32_t>(v, st, ct, mine).ok());
    ASSERT_TRUE(ds.Close().ok());
  });

  std::vector<int> reopen_ok(4, -1), read_ok(4, -1);
  const RunResult run = simmpi::Run(
      4,
      [&](Comm& c) {
        auto r = pnetcdf::Dataset::Open(c, fs, "s.nc", true,
                                        simmpi::NullInfo());
        ASSERT_TRUE(r.ok()) << r.status().message();
        auto ds = std::move(r).value();
        // Rank 3 dies at its next collective entry; the survivors see a
        // kRankFailed write and a degraded dataset.
        c.clock().AdvanceTo(2e12);
        const std::int32_t base = static_cast<std::int32_t>(100 + c.rank());
        const std::vector<std::int32_t> mine = {base, base + 1};
        const std::uint64_t st[] = {1,
                                    static_cast<std::uint64_t>(2 * c.rank())};
        const std::uint64_t ct[] = {1, 2};
        const pnc::Status ws =
            ds.PutVaraAll<std::int32_t>(ds.VarId("r").value(), st, ct, mine);
        EXPECT_EQ(ws.code(), pnc::Err::kRankFailed);
        EXPECT_EQ(ds.Close().code(), pnc::Err::kRankFailed);

        // Shrink and reopen on the live subset.
        const AgreeOutcome o = c.AgreeFT(0);
        ASSERT_TRUE(o.any_dead);
        Comm live = c.LiveSubsetFT(o);
        auto r2 = pnetcdf::Dataset::Open(live, fs, "s.nc", false,
                                         simmpi::NullInfo());
        reopen_ok[static_cast<std::size_t>(c.rank())] = r2.ok() ? 1 : 0;
        if (!r2.ok()) return;
        auto ds2 = std::move(r2).value();
        // Everything the fault-free run committed is intact.
        EXPECT_EQ(ds2.numrecs(), 1u);
        std::vector<std::int32_t> got(8);
        const std::uint64_t rst[] = {0, 0};
        const std::uint64_t rct[] = {1, 8};
        const pnc::Status gs = ds2.GetVaraAll<std::int32_t>(
            ds2.VarId("r").value(), rst, rct, got);
        read_ok[static_cast<std::size_t>(c.rank())] = gs.ok() ? 1 : 0;
        for (int rr = 0; rr < 4; ++rr) {
          EXPECT_EQ(got[2 * rr], 10 * rr);
          EXPECT_EQ(got[2 * rr + 1], 10 * rr + 1);
        }
        EXPECT_TRUE(ds2.Close().ok());
      },
      simmpi::CostModel{}, CrashAtTime(3, 1e12));

  ASSERT_EQ(run.crashed_ranks, (std::vector<int>{3}));
  for (int r = 0; r < 3; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_EQ(reopen_ok[static_cast<std::size_t>(r)], 1);
    EXPECT_EQ(read_ok[static_cast<std::size_t>(r)], 1);
  }
  // The interrupted image is still legal after the failed second append.
  auto vr = nctools::VerifyFile(fs, "s.nc");
  ASSERT_TRUE(vr.ok());
  EXPECT_NE(vr.value().state, ncformat::FileState::kCorrupt);
}

// The fault-tolerant collectives' control traffic uses internal tags, never
// the user's tag space: a user message pending on the communicator with any
// tag must neither be consumed by an armed Dataset::Open nor receive the
// header broadcast in its place.
TEST(Chaos, ArmedOpenLeavesUserTagsAlone) {
  pfs::FileSystem fs;
  simmpi::Run(4, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Create(c, fs, "tags.nc", simmpi::NullInfo()).value();
    ASSERT_TRUE(ds.DefDim("x", 4).ok());
    ASSERT_TRUE(ds.EndDef().ok());
    ASSERT_TRUE(ds.Close().ok());
  });

  constexpr int kUserTag = 1 << 25;
  std::vector<int> open_status(4, 1);
  std::vector<std::byte> user_got;
  RankFaultPolicy never;
  never.crashes.push_back({3, RankFaultPolicy::kNever, -1.0});
  const RunResult run = simmpi::Run(
      4,
      [&](Comm& c) {
        const std::vector<std::byte> user = {std::byte{0xAB}, std::byte{0xCD}};
        if (c.rank() == 0) c.Send(1, kUserTag, user);
        auto r = pnetcdf::Dataset::Open(c, fs, "tags.nc", false,
                                        simmpi::NullInfo());
        open_status[static_cast<std::size_t>(c.rank())] = r.status().raw();
        if (c.rank() == 1) user_got = c.Recv(0, kUserTag);
      },
      simmpi::CostModel{}, never);

  EXPECT_TRUE(run.crashed_ranks.empty());
  for (int r = 0; r < 4; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_EQ(open_status[static_cast<std::size_t>(r)], 0);
  }
  EXPECT_EQ(user_got, (std::vector<std::byte>{std::byte{0xAB},
                                              std::byte{0xCD}}));
}

// --------------------------------------------------------- observability

class ChaosTraceTest : public ::testing::Test {
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

const Event* Find(const std::vector<Event>& evs, Ev kind) {
  for (const auto& e : evs)
    if (e.kind == kind) return &e;
  return nullptr;
}

// A rank_crash event's request ID resolves to the api_begin of the call
// the rank died inside — the blackbox post-mortem ncstat prints. The crash
// op index is swept forward (deterministically: op counts never vary run
// to run) until the death lands inside the collective put's request scope;
// crashes during unscoped stretches (validation agreements between API
// calls) legitimately carry req=0 and are skipped.
TEST_F(ChaosTraceTest, CrashInsidePutResolvesToOriginatingApiCall) {
  bool resolved = false;
  for (std::uint64_t op = 0; op < 4096 && !resolved; ++op) {
    SCOPED_TRACE("crash at op " + std::to_string(op));
    Registry::Get().Reset();
    iostat::SetSink(iostat::kSinkCounters, true);
    pfs::FileSystem fs;
    const RunResult run = simmpi::Run(
        4,
        [&](Comm& c) {
          auto r =
              pnetcdf::Dataset::Create(c, fs, "t.nc", simmpi::NullInfo());
          if (!r.ok()) return;
          auto ds = std::move(r).value();
          const auto x = ds.DefDim("x", 8);
          const auto v = ds.DefVar("a", NcType::kInt, {x.value()});
          if (!ds.EndDef().ok()) return;
          const std::int32_t base = static_cast<std::int32_t>(c.rank());
          const std::vector<std::int32_t> mine = {base, base + 1};
          const std::uint64_t st[] = {
              static_cast<std::uint64_t>(2 * c.rank())};
          const std::uint64_t ct[] = {2};
          (void)ds.PutVaraAll<std::int32_t>(v.value(), st, ct, mine);
          (void)ds.Close();
        },
        simmpi::CostModel{}, CrashAtOp(2, op));
    if (run.crashed_ranks.empty()) break;  // swept past the whole program
    ASSERT_EQ(run.crashed_ranks, (std::vector<int>{2}));

    const auto snap = FlightRecorder::Get().Collect();
    ASSERT_GE(snap.size(), 4u);
    const Event* crash = Find(snap[2], Ev::kRankCrash);
    ASSERT_NE(crash, nullptr) << "dying rank did not record its crash";
    if (crash->req == 0) continue;  // died between request scopes
    const Event* origin = nullptr;
    for (const Event& e : snap[2])
      if (e.kind == Ev::kApiBegin && e.req == crash->req) origin = &e;
    ASSERT_NE(origin, nullptr) << "in-flight request has no api_begin";
    if (std::string(origin->detail) != "put_vara_all:a") continue;
    // Found it: the dead rank's last in-flight request names the exact
    // API call and variable, and the survivors' failure agreements made
    // the record too.
    EXPECT_NE(Find(snap[0], Ev::kAgreement), nullptr);
    EXPECT_NE(Find(snap[3], Ev::kAgreement), nullptr);
    resolved = true;
  }
  EXPECT_TRUE(resolved)
      << "no crash op landed inside the collective put's request scope";
}

TEST_F(ChaosTraceTest, StragglerEventRecorded) {
  RankFaultPolicy p;
  p.stragglers.push_back({0, 8.0});
  const RunResult run = simmpi::Run(
      2,
      [&](Comm& c) {
        if (c.rank() == 0) {
          const std::byte b{0x22};
          c.Send(1, 4, pnc::ConstByteSpan(&b, 1));
        } else {
          (void)c.Recv(0, 4);
        }
      },
      simmpi::CostModel{}, p);
  EXPECT_EQ(run.fault_counters.straggled_sends, 1u);
  const std::vector<Event> rank0 = FlightRecorder::Get().CollectRank(0);
  const Event* ev = Find(rank0, Ev::kRankStraggle);
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->a0, 1u);  // payload bytes
  EXPECT_EQ(ev->a1, 1u);  // destination world rank
}

TEST_F(ChaosTraceTest, MessageDropRecorded) {
  RankFaultPolicy p;
  p.drops.push_back({0, 0});
  const RunResult run = simmpi::Run(
      2,
      [&](Comm& c) {
        if (c.rank() == 0) {
          const std::byte b{0x33};
          c.Send(1, 5, pnc::ConstByteSpan(&b, 1));  // dropped
          c.Send(1, 6, pnc::ConstByteSpan(&b, 1));
        } else {
          (void)c.Recv(0, 6);
        }
      },
      simmpi::CostModel{}, p);
  EXPECT_EQ(run.fault_counters.dropped_messages, 1u);
  const std::vector<Event> rank0 = FlightRecorder::Get().CollectRank(0);
  const Event* drop = Find(rank0, Ev::kMsgDrop);
  ASSERT_NE(drop, nullptr);
  EXPECT_EQ(drop->a0, 1u);  // payload bytes
  EXPECT_EQ(drop->a1, 1u);  // destination world rank
}

// --------------------------------------------------------- failure modes

// A drop with no crash behind it is a genuine lost message: the blocked
// receiver must be killed by the hang watchdog, not stall forever.
TEST(ChaosDeath, PureDropTripsHangWatchdog) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  simmpi::CostModel cm;
  cm.hang_timeout_ms = 200.0;
  RankFaultPolicy p;
  p.drops.push_back({0, 0});
  EXPECT_DEATH(
      {
        simmpi::Run(
            2,
            [](Comm& c) {
              if (c.rank() == 0) {
                const std::byte b{0x44};
                c.Send(1, 9, pnc::ConstByteSpan(&b, 1));  // dropped
              } else {
                (void)c.Recv(0, 9);  // non-FT wait on a vanished message
              }
            },
            cm, p);
      },
      "hang watchdog");
}

// A non-fault-tolerant Recv aimed at a rank that is already dead is a
// protocol bug under an armed policy: it aborts with a diagnostic right
// away instead of burning the whole watchdog interval.
TEST(ChaosDeath, NonFtRecvFromDeadRankAbortsImmediately) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        simmpi::Run(
            2,
            [](Comm& c) {
              if (c.rank() == 1) {
                const std::byte b{0x55};
                c.Send(0, 3, pnc::ConstByteSpan(&b, 1));  // dies here
              } else {
                (void)c.Recv(1, 3);
              }
            },
            simmpi::CostModel{}, CrashAtOp(1, 0));
      },
      "recv-from-failed-rank");
}

}  // namespace
