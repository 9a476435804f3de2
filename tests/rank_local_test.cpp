// Rank-local state (util/turn.hpp): every rank of a simmpi::Run runs on the
// one host thread, yet each keeps its own ncmpi handle tables, request
// context, scheduling hook and I/O-statistics rank across the turns of the
// others.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "iostat/events.hpp"
#include "iostat/iostat.hpp"
#include "pfs/pfs.hpp"
#include "pnetcdf/ncmpi.hpp"
#include "simmpi/runtime.hpp"
#include "util/turn.hpp"

namespace {

using simmpi::Comm;
using namespace pnetcdf::capi;

// Two ranks each create their own file on a communicator of one: both get
// ncid 0, each sees only its own dimension, and closing one rank's ncid 0
// leaves the other's open.
TEST(RankLocal, NcmpiHandleTablesArePerRank) {
  pfs::FileSystem fs;
  std::vector<int> ncid(2, -1), own(2, -1), other(2, -1), after_close(2, -1);
  simmpi::Run(2, [&](Comm& c) {
    const int r = c.rank();
    const char* dim = r == 0 ? "x" : "y";
    const char* peer_dim = r == 0 ? "y" : "x";
    int id = -1;
    ASSERT_EQ(ncmpi_create(c.Split(r, 0), fs, r == 0 ? "a.nc" : "b.nc",
                           NC_CLOBBER, simmpi::NullInfo(), &id),
              NC_NOERR);
    ncid[r] = id;
    int dimid = -1;
    ASSERT_EQ(ncmpi_def_dim(id, dim, 4 + r, &dimid), NC_NOERR);
    c.Barrier();  // both tables are filled before either looks
    own[r] = ncmpi_inq_dimid(id, dim, &dimid);
    other[r] = ncmpi_inq_dimid(id, peer_dim, &dimid);
    if (r == 0) {
      ASSERT_EQ(ncmpi_close(id), NC_NOERR);
    }
    c.Barrier();
    int ndims = -1;
    after_close[r] = ncmpi_inq_ndims(id, &ndims);
    if (r == 1) {
      ASSERT_EQ(ncmpi_close(id), NC_NOERR);
    }
  });
  EXPECT_EQ(ncid, (std::vector<int>{0, 0}));
  EXPECT_EQ(own, (std::vector<int>{NC_NOERR, NC_NOERR}));
  EXPECT_NE(other[0], NC_NOERR);
  EXPECT_NE(other[1], NC_NOERR);
  EXPECT_NE(after_close[0], NC_NOERR);  // its own ncid 0 is closed
  EXPECT_EQ(after_close[1], NC_NOERR);  // rank 0's close left it alone
}

// Rank 0 binds a request ID and parks; rank 1 binds its own (a different
// one) and parks with it held. Each sees its own ID when it resumes.
TEST(RankLocal, RequestIdSurvivesAnotherRanksScope) {
  if (!iostat::SinkOn(iostat::kSinkRing)) GTEST_SKIP() << "flight recorder off";
  std::uint64_t id0 = 0, id0_after = 0, id1 = 0, id1_after = 0;
  simmpi::Run(2, [&](Comm& c) {
    if (c.rank() == 0) {
      const iostat::ReqScope scope("put_vara", "a", c.clock().now(), 8, 1);
      id0 = iostat::CurrentRequestId();
      c.Send(1, /*tag=*/1, {});
      (void)c.Recv(1, /*tag=*/2);  // parks: rank 1 runs
      id0_after = iostat::CurrentRequestId();
      c.Send(1, /*tag=*/3, {});
    } else {
      (void)c.Recv(0, /*tag=*/1);
      std::optional<iostat::ReqScope> scope;
      do {
        scope.emplace("get_vara", "b", c.clock().now(), 8, 0);
      } while (iostat::CurrentRequestId() == id0);
      id1 = iostat::CurrentRequestId();
      c.Send(0, /*tag=*/2, {});
      (void)c.Recv(0, /*tag=*/3);  // parks with its scope held
      id1_after = iostat::CurrentRequestId();
    }
  });
  ASSERT_NE(id0, 0u);
  ASSERT_NE(id1, id0);
  EXPECT_EQ(id0_after, id0);
  EXPECT_EQ(id1_after, id1);
}

// Every rank parks at least once (ranks 0 and 1 wait for rank 2, which then
// waits for rank 0); after the wake each still has its own hook and its own
// I/O-statistics rank.
TEST(RankLocal, HookAndStatsRankAreTheRanksOwnAfterAParkAndWake) {
  constexpr int kRanks = 3;
  std::vector<const pnc::turn::Hook*> before(kRanks), after(kRanks);
  std::vector<int> stats_rank(kRanks, -1);
  simmpi::Run(kRanks, [&](Comm& c) {
    const int r = c.rank();
    before[r] = pnc::turn::CurrentHook();
    if (r == kRanks - 1) {
      for (int to = 0; to < r; ++to) c.Send(to, /*tag=*/1, {});
      (void)c.Recv(0, /*tag=*/2);
    } else {
      (void)c.Recv(kRanks - 1, /*tag=*/1);
      if (r == 0) c.Send(kRanks - 1, /*tag=*/2, {});
    }
    after[r] = pnc::turn::CurrentHook();
    stats_rank[r] = iostat::Registry::rank();
  });
  for (int r = 0; r < kRanks; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    ASSERT_NE(before[r], nullptr);
    EXPECT_EQ(after[r], before[r]);
    EXPECT_EQ(stats_rank[r], r);
    for (int q = 0; q < r; ++q) EXPECT_NE(before[r], before[q]);
  }
  EXPECT_EQ(pnc::turn::CurrentHook(), nullptr);  // the test's own thread
}

int destroyed = 0;
struct Counted {
  int rank = -1;
  ~Counted() {
    if (rank >= 0) ++destroyed;
  }
};
const pnc::turn::RankLocal<Counted> counted;

// Each rank writes its own copy, which is destroyed when its fiber ends;
// the test's own thread keeps a separate one.
TEST(RankLocal, EachRanksCopyIsItsOwnAndEndsWithIt) {
  destroyed = 0;
  std::vector<int> seen(3, -1);
  simmpi::Run(3, [&](Comm& c) {
    counted->rank = c.rank();
    c.Barrier();
    seen[c.rank()] = counted->rank;
  });
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(destroyed, 3);
  EXPECT_EQ(counted->rank, -1);
}

}  // namespace
