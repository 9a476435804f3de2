// Where the parallel library commits the record count. A collective write
// that grows the records converges numrecs in memory with one allreduce and
// writes nothing about it, as PnetCDF does outside NC_SHARE; only Sync,
// Close, EndDef and a data-mode PutAtt commit the count (journal, then the
// primary's numrecs field). These tests pin each commit point, including
// the independent-mode paths where the ranks' counts differ until they
// converge, with sums on and off (PNC_SUMS=0: a commit then happens only
// when the count grew, so a divergent view would strand the ranks).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "format/session.hpp"
#include "netcdf/dataset.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"
#include "test_support.hpp"
#include "tools/verify.hpp"

namespace {

using ncformat::NcType;
using pnc_test::CommittedState;
using pnc_test::DiskNumrecs;
using simmpi::Comm;

constexpr int kRanks = 3;
constexpr std::uint64_t kWidth = 2 * kRanks;  ///< two columns per rank

std::int32_t Cell(std::uint64_t rec, std::uint64_t col) {
  return static_cast<std::int32_t>(100 * rec + col);
}

/// Records [first, first + n) of this rank's two columns.
std::vector<std::int32_t> Slab(std::uint64_t first, std::uint64_t n,
                               int rank) {
  std::vector<std::int32_t> v;
  for (std::uint64_t rec = first; rec < first + n; ++rec)
    for (std::uint64_t k = 0; k < 2; ++k)
      v.push_back(Cell(rec, 2 * static_cast<std::uint64_t>(rank) + k));
  return v;
}

/// Rank 0 checks the on-disk count between barriers, so every rank's
/// preceding call has returned.
void ExpectOnDisk(Comm& c, pfs::FileSystem& fs, std::uint32_t numrecs,
                  const char* when) {
  c.Barrier();
  if (c.rank() == 0) {
    SCOPED_TRACE(when);
    EXPECT_EQ(DiskNumrecs(fs, "r.nc"), numrecs);
    EXPECT_EQ(CommittedState(fs, "r.nc").numrecs, numrecs);
  }
  c.Barrier();
}

/// Reopen with the serial library and check `numrecs` records whose
/// columns [2 * lo_rank, 2 * hi_rank) hold Cell values (the rest zero).
void ExpectRecords(pfs::FileSystem& fs, std::uint64_t numrecs, int lo_rank,
                   int hi_rank) {
  auto ds = netcdf::Dataset::Open(fs, "r.nc", false);
  ASSERT_TRUE(ds.ok()) << ds.status().message();
  auto& d = ds.value();
  ASSERT_EQ(d.numrecs(), numrecs);
  std::vector<std::int32_t> got(numrecs * kWidth);
  const std::uint64_t st[] = {0, 0};
  const std::uint64_t ct[] = {numrecs, kWidth};
  ASSERT_TRUE(d.GetVara<std::int32_t>(d.VarId("r").value(), st, ct, got).ok());
  for (std::uint64_t rec = 0; rec < numrecs; ++rec)
    for (std::uint64_t col = 0; col < kWidth; ++col) {
      const bool written = col >= 2 * static_cast<std::uint64_t>(lo_rank) &&
                           col < 2 * static_cast<std::uint64_t>(hi_rank);
      EXPECT_EQ(got[rec * kWidth + col], written ? Cell(rec, col) : 0)
          << "record " << rec << " column " << col;
    }
}

class RecordCommit : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (!GetParam()) no_sums_.emplace("PNC_SUMS", "0");
  }

  /// Create r.nc with r(time, x) and a global 8-character "stage" text.
  pnetcdf::Dataset Create(Comm& c) {
    auto ds =
        pnetcdf::Dataset::Create(c, fs_, "r.nc", simmpi::NullInfo()).value();
    const int t = ds.DefDim("time", pnetcdf::kUnlimited).value();
    const int x = ds.DefDim("x", kWidth).value();
    EXPECT_TRUE(ds.DefVar("r", NcType::kInt, {t, x}).ok());
    EXPECT_TRUE(ds.PutAttText(pnetcdf::kGlobal, "stage", "defining").ok());
    EXPECT_TRUE(ds.EndDef().ok());
    return ds;
  }

  pfs::FileSystem fs_;
  std::optional<pnc_test::EnvGuard> no_sums_;
};

// Collective growth with no Sync, then Redef/EndDef: the header commit
// carries the converged count, and moves both records when the grown
// header relocates the data. A power loss right after keeps them.
TEST_P(RecordCommit, GrowthThenRedefEndDefCommitsGrownCount) {
  simmpi::Run(kRanks, [&](Comm& c) {
    auto ds = Create(c);
    const int r = ds.VarId("r").value();
    const std::uint64_t st[] = {0, 2 * static_cast<std::uint64_t>(c.rank())};
    const std::uint64_t ct[] = {2, 2};
    ASSERT_TRUE(ds.PutVaraAll<std::int32_t>(r, st, ct, Slab(0, 2, c.rank()))
                    .ok());
    EXPECT_EQ(ds.numrecs(), 2u);
    ExpectOnDisk(c, fs_, 0, "after the growing write");

    ASSERT_TRUE(ds.Redef().ok());
    const int x = ds.DimId("x").value();
    ASSERT_TRUE(ds.DefVar("a_new_fixed_variable", NcType::kInt, {x}).ok());
    ASSERT_TRUE(ds.EndDef().ok());
    ExpectOnDisk(c, fs_, 2, "after EndDef");

    if (c.rank() == 0) {
      pfs::FaultPolicy crash;
      crash.crash_after_write_bytes = 0;
      fs_.SetFaultPolicy(crash);
    }
    c.Barrier();
    (void)ds.Close();
  });
  fs_.SetFaultPolicy({});
  auto vr = nctools::VerifyFile(fs_, "r.nc", {.repair = true});
  ASSERT_TRUE(vr.ok()) << vr.status().message();
  ASSERT_NE(vr.value().state, ncformat::FileState::kCorrupt)
      << vr.value().detail;
  ExpectRecords(fs_, 2, 0, kRanks);
}

// Independent growth on one rank: EndIndepData converges every rank on the
// count in memory, and Close commits it.
TEST_P(RecordCommit, IndependentGrowthOnOneRankThenEndIndepDataAndClose) {
  simmpi::Run(kRanks, [&](Comm& c) {
    auto ds = Create(c);
    ASSERT_TRUE(ds.BeginIndepData().ok());
    if (c.rank() == 1) {
      const std::uint64_t st[] = {0, 2};
      const std::uint64_t ct[] = {3, 2};
      ASSERT_TRUE(ds.PutVara<std::int32_t>(ds.VarId("r").value(), st, ct,
                                           Slab(0, 3, 1))
                      .ok());
      EXPECT_EQ(ds.numrecs(), 3u);
    } else {
      EXPECT_EQ(ds.numrecs(), 0u);
    }
    ASSERT_TRUE(ds.EndIndepData().ok());
    EXPECT_EQ(ds.numrecs(), 3u);
    ExpectOnDisk(c, fs_, 0, "after EndIndepData");
    ASSERT_TRUE(ds.Close().ok());
  });
  EXPECT_EQ(DiskNumrecs(fs_, "r.nc"), 3u);
  EXPECT_EQ(CommittedState(fs_, "r.nc").numrecs, 3u);
  ExpectRecords(fs_, 3, 1, 2);
}

// A data-mode PutAtt while independent: the ranks' counts differ (only
// rank 2 grew them), and the root's header write commits one count, so the
// ranks converge first. The later Sync and Close then find nothing grown.
TEST_P(RecordCommit, IndependentGrowthThenDataModePutAttCommitsMaxCount) {
  simmpi::Run(kRanks, [&](Comm& c) {
    auto ds = Create(c);
    ASSERT_TRUE(ds.BeginIndepData().ok());
    if (c.rank() == 2) {
      const std::uint64_t st[] = {0, 4};
      const std::uint64_t ct[] = {2, 2};
      ASSERT_TRUE(ds.PutVara<std::int32_t>(ds.VarId("r").value(), st, ct,
                                           Slab(0, 2, 2))
                      .ok());
    }
    ASSERT_TRUE(ds.PutAttText(pnetcdf::kGlobal, "stage", "indepput").ok());
    EXPECT_EQ(ds.numrecs(), 2u);
    ExpectOnDisk(c, fs_, 2, "after the data-mode PutAtt");
    ASSERT_TRUE(ds.EndIndepData().ok());
    ASSERT_TRUE(ds.Sync().ok());
    ASSERT_TRUE(ds.Close().ok());
  });
  EXPECT_EQ(DiskNumrecs(fs_, "r.nc"), 2u);
  ExpectRecords(fs_, 2, 2, 3);
  auto ds = netcdf::Dataset::Open(fs_, "r.nc", false).value();
  EXPECT_EQ(ds.GetAtt(netcdf::kGlobal, "stage").value().AsText(), "indepput");
}

INSTANTIATE_TEST_SUITE_P(Sums, RecordCommit, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& i) {
                           return i.param ? std::string("on")
                                          : std::string("off");
                         });

// What each commit writes, decided once by ncformat::PlanCommit from the
// session's facts. Each row names a state and the writes of its plan: d =
// data sync, r = dirty resolve, j = journal commit, o = that commit is
// session-OPEN, h = primary header rewrite, p = numrecs patch.
TEST(CommitPlan, EveryPointAndFactHasOnePlan) {
  using ncformat::CommitFacts;
  using ncformat::CommitPoint;
  struct Row {
    const char* what;
    CommitPoint at;
    CommitFacts f;
    const char* plan;
  };
  const CommitFacts summed{.writable = true, .journaled = true, .sums = true};
  const CommitFacts unsummed{.writable = true, .journaled = true};
  const CommitFacts legacy{.writable = true};
  const auto with = [](CommitFacts f, auto&& edit) {
    edit(f);
    return f;
  };
  const Row rows[] = {
      {"writable open, sums", CommitPoint::kOpen, summed, "jo"},
      {"writable open, no sums", CommitPoint::kOpen, unsummed, ""},
      {"read-only open", CommitPoint::kOpen,
       with(summed, [](CommitFacts& f) { f.writable = false; }), ""},
      {"fresh EndDef, sums", CommitPoint::kHeader,
       with(summed, [](CommitFacts& f) { f.fresh = true; }), "h"},
      {"fresh EndDef, no sums, write-back", CommitPoint::kHeader,
       with(unsummed,
            [](CommitFacts& f) { f.fresh = f.write_back = true; }),
       "h"},
      {"EndDef after Redef", CommitPoint::kHeader, summed, "djoh"},
      {"EndDef without a journal", CommitPoint::kHeader, legacy, "h"},
      {"idle Sync, sums", CommitPoint::kSync, summed, "drjo"},
      {"idle Sync, no sums", CommitPoint::kSync, unsummed, "d"},
      {"growing Sync, no sums", CommitPoint::kSync,
       with(unsummed, [](CommitFacts& f) { f.grew = true; }), "djo"},
      {"growing Sync without a journal", CommitPoint::kSync,
       with(legacy, [](CommitFacts& f) { f.grew = true; }), "dp"},
      {"Close, sums, primary lags", CommitPoint::kClose,
       with(summed, [](CommitFacts& f) { f.primary_lags = true; }), "drjp"},
      {"Close, no sums, primary lags", CommitPoint::kClose,
       with(unsummed, [](CommitFacts& f) { f.primary_lags = true; }), "djp"},
      {"Close, no sums, caught up", CommitPoint::kClose, unsummed, ""},
      {"growing Close without a journal", CommitPoint::kClose,
       with(legacy, [](CommitFacts& f) { f.grew = true; }), "dp"},
      {"idle Close without a journal", CommitPoint::kClose, legacy, ""},
      {"idle Close without a journal, write-back", CommitPoint::kClose,
       with(legacy, [](CommitFacts& f) { f.write_back = true; }), "d"},
      {"read-only Close", CommitPoint::kClose,
       with(summed, [](CommitFacts& f) { f.writable = false; }), ""},
  };
  for (const Row& r : rows) {
    const ncformat::CommitPlan p = ncformat::PlanCommit(r.at, r.f);
    std::string got;
    for (const auto& [on, c] :
         {std::pair{p.data_sync, 'd'}, std::pair{p.resolve, 'r'},
          std::pair{p.journal, 'j'}, std::pair{p.journal && p.open, 'o'},
          std::pair{p.header, 'h'}, std::pair{p.patch, 'p'}})
      if (on) got += c;
    EXPECT_EQ(got, r.plan) << r.what;
  }
}

}  // namespace
