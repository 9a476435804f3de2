// One host thread runs iostat::kMaxRanks (1024) ranks: every rank is a
// fiber, so the process keeps its own thread plus the stall watchdog's, and
// the run's virtual times repeat exactly.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "iostat/iostat.hpp"
#include "pfs/pfs.hpp"
#include "simmpi/runtime.hpp"

namespace {

using simmpi::Comm;

/// The process's OS thread count, from /proc/self/status.
int ThreadsNow() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

// Each rank passes a barrier, an allreduce and one small pfs write. Two runs
// give identical per-rank times, the process never holds more than two
// threads, and both runs together finish well inside the bound (about 0.5 s
// on a 4-vCPU VM; a thread per rank took minutes at this count).
TEST(ManyRanks, OneThreadRunsEveryRank) {
  constexpr int kRanks = iostat::kMaxRanks;
  constexpr double kBoundS = 30.0;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::vector<double>> times;
  for (int run = 0; run < 2; ++run) {
    pfs::FileSystem fs;
    auto f = fs.Create("many", /*exclusive=*/true).value();
    int wrong_sums = 0;
    int most_threads = 0;
    const simmpi::RunResult res = simmpi::Run(kRanks, [&](Comm& c) {
      c.Barrier();
      const auto sum = c.AllreduceSum<std::int64_t>(c.rank());
      if (sum != std::int64_t{kRanks} * (kRanks - 1) / 2) ++wrong_sums;
      std::vector<std::byte> buf(64, static_cast<std::byte>(c.rank()));
      c.clock().AdvanceTo(f.HarnessWrite(
          64 * static_cast<std::uint64_t>(c.rank()), buf, c.clock().now()));
      most_threads = std::max(most_threads, ThreadsNow());
    });
    EXPECT_EQ(wrong_sums, 0);
    EXPECT_GE(most_threads, 1);
    EXPECT_LE(most_threads, 2);  // this thread and the stall watchdog
    times.push_back(res.rank_times_ns);
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  ASSERT_EQ(times[0].size(), static_cast<std::size_t>(kRanks));
  EXPECT_EQ(times[0], times[1]);
  EXPECT_LT(wall_s, kBoundS);
  std::printf("%d ranks, two runs: %.3f s wall\n", kRanks, wall_s);
}

}  // namespace
