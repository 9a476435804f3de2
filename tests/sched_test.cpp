// The turn scheduler (simmpi/sched.hpp): pfs requests are granted in
// virtual-time order, (start_ns, rank), whatever order the ranks
// reach the file system in on the host.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "pfs/pfs.hpp"
#include "simmpi/runtime.hpp"
#include "util/rng.hpp"

namespace {

using simmpi::Comm;

void SpinHostMs(int ms) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < until) {
  }
}

pfs::Config OneServer() {
  pfs::Config cfg;
  cfg.num_servers = 1;
  return cfg;
}

// Completion of a request that waited for nothing at the server.
double Unqueued(const pfs::Config& cfg, double start, std::uint64_t len,
                bool is_write = true) {
  const double arrival = start + cfg.client_request_ns;
  const double client_done =
      arrival + (is_write ? cfg.client_write_ns_per_byte
                          : cfg.client_read_ns_per_byte) *
                    static_cast<double>(len);
  const double server_done =
      arrival + cfg.server_request_ns +
      (is_write ? cfg.server_write_ns_per_byte : cfg.server_read_ns_per_byte) *
          static_cast<double>(len);
  return std::max(client_done, server_done);
}

// Rank 1 reaches pfs last on the host (it burns host time first) but issues
// its write at virtual time 0, before rank 0's at 1 ms: it is served first
// and waits for nothing, and rank 0 queues behind it. Served in host order,
// rank 1 would wait for rank 0's write instead.
TEST(Sched, EarlierVirtualRequestIsServedFirstDespiteArrivingLaterOnHost) {
  const pfs::Config cfg = OneServer();
  pfs::FileSystem fs(cfg);
  auto f = fs.Create("order", /*exclusive=*/true).value();
  const std::uint64_t kLen = cfg.stripe_size;  // whole stripes: no RMW
  std::vector<double> done(2);
  simmpi::Run(2, [&](Comm& c) {
    std::vector<std::byte> buf(kLen, std::byte{1});
    if (c.rank() == 0) {
      c.clock().Advance(1e6);
    } else {
      SpinHostMs(50);
    }
    done[c.rank()] = f.HarnessWrite(kLen * c.rank(), buf, c.clock().now());
  });
  EXPECT_DOUBLE_EQ(done[1], Unqueued(cfg, 0.0, kLen));  // wait_ns == 0
  EXPECT_GT(done[0], Unqueued(cfg, 1e6, kLen));          // queued behind it
  EXPECT_DOUBLE_EQ(done[0], done[1] + cfg.server_request_ns +
                                cfg.server_write_ns_per_byte *
                                    static_cast<double>(kLen));
}

// Ranks with host jitter and scattered clocks: every grant is in
// (start_ns, rank) order, and three runs give the same completion times.
TEST(Sched, GrantsFollowVirtualTimeAndRepeatExactly) {
  constexpr int kRanks = 6;
  constexpr int kWrites = 8;
  std::vector<double> first;
  for (int run = 0; run < 3; ++run) {
    pfs::FileSystem fs(OneServer());
    auto f = fs.Create("grants", /*exclusive=*/true).value();
    std::vector<std::pair<double, int>> granted;
    std::vector<double> done;
    simmpi::Run(kRanks, [&](Comm& c) {
      pnc::SplitMix64 rng(static_cast<std::uint64_t>(c.rank()) * 7919 + 1);
      // Host jitter differs run to run; virtual times do not.
      pnc::SplitMix64 host(static_cast<std::uint64_t>(run * 31 + c.rank()));
      std::vector<std::byte> buf(4096, std::byte{2});
      for (int i = 0; i < kWrites; ++i) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(host.Below(300)));
        c.clock().Advance(static_cast<double>(rng.Below(3'000'000)));
        const double start = c.clock().now();
        const double t = f.HarnessWrite(4096 * c.rank(), buf, start);
        granted.emplace_back(start, c.rank());  // still this rank's turn
        done.push_back(t);
        c.clock().AdvanceTo(t);
      }
    });
    ASSERT_EQ(granted.size(), static_cast<std::size_t>(kRanks * kWrites));
    EXPECT_TRUE(std::is_sorted(granted.begin(), granted.end()));
    if (run == 0) {
      first = done;
    } else {
      EXPECT_EQ(done, first) << "run " << run;
    }
  }
}

// One rank runs at a time: no two ranks are ever between scheduling
// points together, even with host work in between.
TEST(Sched, OneRankRunsAtATime) {
  std::atomic<int> inside{0};
  std::atomic<int> most{0};
  pfs::FileSystem fs(OneServer());
  auto f = fs.Create("alone", /*exclusive=*/true).value();
  simmpi::Run(4, [&](Comm& c) {
    std::vector<std::byte> buf(512);
    for (int i = 0; i < 5; ++i) {
      const int now = ++inside;
      most = std::max(most.load(), now);
      SpinHostMs(3);
      --inside;
      f.HarnessRead(0, buf, c.clock().now());
      c.Barrier();
    }
  });
  EXPECT_EQ(most.load(), 1);
}

// The read-modify-write lock spans pfs requests: a rank waiting for it
// parks at a scheduling point, so the holder runs on and releases it.
TEST(Sched, RmwLockWaitYieldsTheTurn) {
  pfs::FileSystem fs(OneServer());
  auto f = fs.Create("rmw", /*exclusive=*/true).value();
  std::atomic<int> holders{0};
  int most = 0;
  simmpi::Run(3, [&](Comm& c) {
    std::vector<std::byte> buf(1024);
    for (int i = 0; i < 3; ++i) {
      const pfs::RmwLock lock(f, c.clock());
      most = std::max(most, ++holders);
      const double t = f.HarnessRead(0, buf, c.clock().now());
      c.clock().AdvanceTo(f.HarnessWrite(0, buf, t));
      --holders;
    }
  });
  EXPECT_EQ(most, 1);
}

// Rank 0 takes the lock at 0 and its read-modify-write ends at T; rank 1
// asks at 1 ms < T. Rank 1 resumes at T, when the lock was released, so its
// read starts at exactly T and waits for nothing at the server. Resumed at
// its own clock, it would read at 1 ms and queue behind rank 0's write.
TEST(Sched, RmwLockWaiterResumesAtTheRelease) {
  const pfs::Config cfg = OneServer();
  pfs::FileSystem fs(cfg);
  auto f = fs.Create("rmw", /*exclusive=*/true).value();
  const std::uint64_t kLen = 4 * cfg.stripe_size;
  double released = 0, read_start = 0, read_done = 0;
  simmpi::Run(2, [&](Comm& c) {
    std::vector<std::byte> buf(kLen);
    if (c.rank() == 1) c.clock().Advance(1e6);
    const pfs::RmwLock lock(f, c.clock());
    const double start = c.clock().now();
    const double read = f.HarnessRead(0, buf, start);
    c.clock().AdvanceTo(f.HarnessWrite(0, buf, read));
    if (c.rank() == 0) {
      released = c.clock().now();
    } else {
      read_start = start;
      read_done = read;
    }
  });
  ASSERT_GT(released, 1e6);
  EXPECT_DOUBLE_EQ(read_start, released);
  EXPECT_DOUBLE_EQ(read_done, Unqueued(cfg, released, kLen, /*is_write=*/false));
}

// Both ranks want the lock while it is free: the one with the earlier clock
// gets it first, although the other reaches it first on the host, and the
// second holder starts at the first one's release.
TEST(Sched, RmwLockGoesToTheEarlierClockFirst) {
  pfs::FileSystem fs(OneServer());
  auto f = fs.Create("rmw", /*exclusive=*/true).value();
  std::vector<std::pair<int, double>> taken;  // (rank, clock when granted)
  double released = 0;
  simmpi::Run(2, [&](Comm& c) {
    std::vector<std::byte> buf(4096);
    if (c.rank() == 0) {
      c.clock().Advance(1e6);
    } else {
      SpinHostMs(50);
    }
    const pfs::RmwLock lock(f, c.clock());
    taken.emplace_back(c.rank(), c.clock().now());
    c.clock().AdvanceTo(f.HarnessWrite(0, buf, c.clock().now()));
    if (c.rank() == 1) released = c.clock().now();
  });
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0], std::make_pair(1, 0.0));
  EXPECT_EQ(taken[1], std::make_pair(0, released));
}

// A death ends a wait when it happens: rank 1 dies at its first op at or
// after 5 ms. Rank 0's RecvFT from it, asked at 1 ms, returns false at
// exactly 5 ms (the dead-source path charges nothing more); rank 2's, asked
// at 9 ms, returns at 9 ms.
TEST(Sched, DeathEndsARecvAtItsVirtualTime) {
  constexpr double kDeath = 5e6;
  simmpi::RankFaultPolicy faults;
  faults.crashes.push_back({.rank = 1, .at_time_ns = kDeath});
  std::vector<int> got(3, -1);
  std::vector<double> done(3);
  simmpi::Run(
      3,
      [&](Comm& c) {
        const int r = c.rank();
        c.clock().Advance(r == 0 ? 1e6 : r == 1 ? kDeath : 9e6);
        if (r == 1) c.Send(0, /*tag=*/5, {});  // dies here, at 5 ms
        std::vector<std::byte> out;
        got[r] = c.RecvFT(1, /*tag=*/5, out) ? 1 : 0;
        done[r] = c.clock().now();
      },
      simmpi::CostModel{}, faults);
  EXPECT_EQ(got[0], 0);
  EXPECT_EQ(got[2], 0);
  EXPECT_DOUBLE_EQ(done[0], kDeath);
  EXPECT_DOUBLE_EQ(done[2], 9e6);
}

// Ranks 0 and 2 enter an agreement at 1 ms; rank 1 reaches a pfs request at
// 5 ms (so the others arrive first) and dies at its next op. Its death
// completes the round, which ends at the death plus the modeled allreduce
// over the two survivors: one message round and the software overhead.
TEST(Sched, AgreementCompletedByADeathEndsAfterIt) {
  constexpr double kDeath = 5e6;
  simmpi::RankFaultPolicy faults;
  faults.crashes.push_back({.rank = 1, .at_time_ns = kDeath});
  const simmpi::CostModel cost;
  pfs::FileSystem fs(OneServer());
  auto f = fs.Create("agree", /*exclusive=*/true).value();
  std::vector<double> done(3);
  std::vector<int> alive(3);
  simmpi::Run(
      3,
      [&](Comm& c) {
        const int r = c.rank();
        if (r == 1) {
          c.clock().Advance(kDeath);
          std::vector<std::byte> buf(8);
          (void)f.HarnessWrite(0, buf, c.clock().now());
          c.Send(0, /*tag=*/5, {});  // dies here, at 5 ms
        }
        c.clock().Advance(1e6);
        const simmpi::AgreeOutcome o = c.AgreeFT(0);
        alive[r] = static_cast<int>(o.alive.size());
        done[r] = c.clock().now();
      },
      cost, faults);
  const double end = kDeath + cost.MessageCost(8) + cost.sw_overhead_ns;
  EXPECT_EQ(alive[0], 2);
  EXPECT_DOUBLE_EQ(done[0], end);
  EXPECT_DOUBLE_EQ(done[2], end);
}

// A rank that keeps the turn for the watchdog's timeout without reaching a
// scheduling point is reported, as a deadlock is.
TEST(SchedDeath, StalledTurnTripsTheWatchdog) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  simmpi::CostModel cm;
  cm.hang_timeout_ms = 100.0;
  EXPECT_DEATH(
      {
        simmpi::Run(
            2, [](Comm& c) { if (c.rank() == 0) SpinHostMs(2'000); }, cm);
      },
      "hang watchdog: stall");
}

}  // namespace
