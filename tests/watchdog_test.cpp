// The simmpi hang watchdog: once no rank can run (every live rank blocked,
// say in a Recv no one will match), a run with CostModel::hang_timeout_ms
// set must dump the per-rank blocked state and abort the process instead of
// deadlocking the test run forever.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "pfs/pfs.hpp"
#include "simmpi/runtime.hpp"

namespace {

TEST(Watchdog, AbortsInsteadOfDeadlocking) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  simmpi::CostModel cm;
  cm.hang_timeout_ms = 200.0;  // real milliseconds, keep the death test quick
  EXPECT_DEATH(
      {
        simmpi::Run(
            2,
            [](simmpi::Comm& c) {
              // Rank 0 waits for a message rank 1 never sends: a classic
              // mismatched-communication deadlock, reduced to its essence.
              if (c.rank() == 0) (void)c.Recv(/*src=*/1, /*tag=*/7);
            },
            cm);
      },
      "hang watchdog");
}

// Rank 0 holds a file's read-modify-write lock and waits in a Recv no one
// matches; rank 1 waits for the lock. The dump names both waits, the lock
// by its file.
TEST(Watchdog, DumpNamesLockWaiters) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  simmpi::CostModel cm;
  cm.hang_timeout_ms = 200.0;
  EXPECT_DEATH(
      {
        pfs::FileSystem fs;
        auto f = fs.Create("held.nc", /*exclusive=*/true).value();
        simmpi::Run(
            2,
            [&](simmpi::Comm& c) {
              if (c.rank() == 1) c.clock().Advance(1e6);
              const pfs::RmwLock lock(f, c.clock());
              if (c.rank() == 0) (void)c.Recv(/*src=*/1, /*tag=*/7);
            },
            cm);
      },
      "rank 0: BLOCKED in Recv\\(src=1, tag=7.*\n"
      ".*rank 1: PARKED waiting for the read-modify-write lock of held.nc");
}

TEST(Watchdog, EnvOverrideWins) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        // The env var overrides the model's setting — here it re-enables a
        // watchdog the config disabled.
        setenv("PNC_HANG_TIMEOUT_MS", "150", 1);
        simmpi::CostModel cm;
        cm.hang_timeout_ms = 0.0;  // config says "disabled"...
        simmpi::Run(
            2,
            [](simmpi::Comm& c) {
              if (c.rank() == 0) (void)c.Recv(/*src=*/1, /*tag=*/3);
            },
            cm);
      },
      "hang watchdog");
}

TEST(Watchdog, QuietWhenMessagesFlow) {
  // A normal exchange under a short timeout must not trip the watchdog.
  simmpi::CostModel cm;
  cm.hang_timeout_ms = 2'000.0;
  simmpi::Run(
      2,
      [](simmpi::Comm& c) {
        const std::byte ping{0x7E};
        if (c.rank() == 1) {
          c.Send(/*dst=*/0, /*tag=*/1, pnc::ConstByteSpan(&ping, 1));
        } else {
          const std::vector<std::byte> got = c.Recv(/*src=*/1, /*tag=*/1);
          ASSERT_EQ(got.size(), 1u);
          EXPECT_EQ(got[0], ping);
        }
      },
      cm);
}

}  // namespace
