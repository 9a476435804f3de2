// Crash-consistency sweeps: a simulated power loss at EVERY byte boundary of
// a commit sequence must leave the dataset all-old or all-new, never a
// hybrid. Each iteration arms pfs::FaultPolicy::crash_after_write_bytes = t,
// runs one mutation (header commit / record append / fresh create), reboots
// (SetFaultPolicy({})), fscks the frozen image with nctools::VerifyFile
// (--repair semantics), and checks the reopened dataset against reference
// copies of the two legal states with CompareDatasets. The sweep ends at the
// first t the sequence survives uncrashed, so every byte boundary is hit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "netcdf/dataset.hpp"
#include "pnetcdf/dataset.hpp"
#include "pnetcdf/nonblocking.hpp"
#include "simmpi/runtime.hpp"
#include "test_support.hpp"
#include "tools/compare.hpp"
#include "tools/verify.hpp"

namespace {

using ncformat::NcType;

// Safety net: no commit sequence here writes anywhere near this many bytes.
constexpr std::uint64_t kSweepCeiling = 100'000;

pfs::FaultPolicy ArmCrash(pfs::FileSystem& fs, std::uint64_t t) {
  pfs::FaultPolicy p;
  p.crash_after_write_bytes = t;
  fs.SetFaultPolicy(p);
  return p;
}

/// Crash point × transient faults: every `nth` op fails transiently first,
/// so the commit sequence is being retried around while the power-loss
/// threshold creeps over it. The retry path must not change what is durable
/// when the crash finally bites.
pfs::FaultPolicy ArmCrashWithTransients(pfs::FileSystem& fs, std::uint64_t t,
                                        std::uint64_t nth) {
  pfs::FaultPolicy p;
  p.crash_after_write_bytes = t;
  p.transient_every_nth = nth;
  fs.SetFaultPolicy(p);
  return p;
}

/// fsck + repair the frozen image; a crashed commit sequence over a
/// previously committed dataset must never be unrecoverable.
void VerifyAndRepair(pfs::FileSystem& fs, const std::string& path) {
  auto before = nctools::VerifyFile(fs, path);
  ASSERT_TRUE(before.ok()) << before.status().message();
  ASSERT_NE(before.value().state, ncformat::FileState::kCorrupt)
      << before.value().detail;
  auto after = nctools::VerifyFile(fs, path, {.repair = true});
  ASSERT_TRUE(after.ok()) << after.status().message();
  ASSERT_EQ(after.value().state, ncformat::FileState::kClean)
      << after.value().detail;
  // Repair is idempotent: a second pass finds nothing to do.
  auto again = nctools::VerifyFile(fs, path, {.repair = true});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().state, ncformat::FileState::kClean);
  EXPECT_FALSE(again.value().repaired) << again.value().detail;
}

/// Build the reference dataset for the header-commit sweep: eight doubles in
/// a variable named `var_name` ("aa" = pre-crash, "bb" = post-rename).
void MakeRenameRef(pfs::FileSystem& fs, const std::string& path,
                   const std::string& var_name) {
  auto ds = netcdf::Dataset::Create(fs, path).value();
  const int x = ds.DefDim("x", 8).value();
  const int v = ds.DefVar(var_name, NcType::kDouble, {x}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  std::vector<double> vals(8);
  std::iota(vals.begin(), vals.end(), 1.0);
  ASSERT_TRUE(ds.PutVar<double>(v, vals).ok());
  ASSERT_TRUE(ds.Close().ok());
}

void ExpectMatchesRef(pfs::FileSystem& fs, const std::string& path,
                      pfs::FileSystem& ref_fs, const std::string& ref_path) {
  auto a = netcdf::Dataset::Open(fs, path, false);
  ASSERT_TRUE(a.ok()) << a.status().message();
  auto b = netcdf::Dataset::Open(ref_fs, ref_path, false);
  ASSERT_TRUE(b.ok()) << b.status().message();
  auto diff = nctools::CompareDatasets(a.value(), b.value());
  ASSERT_TRUE(diff.ok()) << diff.status().message();
  EXPECT_TRUE(diff.value().equal)
      << (diff.value().differences.empty() ? std::string("(no detail)")
                                           : diff.value().differences[0]);
}

// ---------------------------------------------------------------------------
// Header commit (enddef/close of a schema change). The mutation renames the
// only variable "aa" -> "bb" — same name length, so the layout is preserved
// and the whole change is one atomic header commit. Every crash point must
// yield exactly the old schema or exactly the new one, with data intact.
TEST(CrashSweep, HeaderCommitEveryByteAllOldOrAllNew) {
  pfs::FileSystem ref_fs;
  MakeRenameRef(ref_fs, "old.nc", "aa");
  MakeRenameRef(ref_fs, "new.nc", "bb");

  int old_outcomes = 0, new_outcomes = 0;
  for (std::uint64_t t = 0; t < kSweepCeiling; ++t) {
    pfs::FileSystem fs;
    MakeRenameRef(fs, "f.nc", "aa");  // committed pre-crash state

    const pfs::FaultPolicy pol = ArmCrash(fs, t);
    SCOPED_TRACE("crash point t=" + std::to_string(t) + " " +
                 pnc_test::DescribePolicy(pol));
    {
      auto ds = netcdf::Dataset::Open(fs, "f.nc", true);
      if (ds.ok()) {
        auto d = std::move(ds).value();
        (void)d.Redef();
        (void)d.RenameVar(0, "bb");
        (void)d.EndDef();
        (void)d.Close();
      }
    }
    const bool crashed = fs.crashed();
    fs.SetFaultPolicy({});  // reboot: thaw the image for recovery

    VerifyAndRepair(fs, "f.nc");
    auto rd = netcdf::Dataset::Open(fs, "f.nc", false);
    ASSERT_TRUE(rd.ok()) << rd.status().message();
    const bool has_old = rd.value().VarId("aa").ok();
    const bool has_new = rd.value().VarId("bb").ok();
    ASSERT_NE(has_old, has_new) << "hybrid header after repair";
    ExpectMatchesRef(fs, "f.nc", ref_fs, has_old ? "old.nc" : "new.nc");

    if (!crashed) {
      // Threshold beyond the sequence: the rename ran to completion, which
      // also means the sweep has covered every byte of the commit path.
      EXPECT_TRUE(has_new);
      ++new_outcomes;
      break;
    }
    (has_old ? old_outcomes : new_outcomes)++;
  }
  // The sweep must have produced both verdicts: early crashes keep the old
  // schema, post-commit crashes carry the new one.
  EXPECT_GT(old_outcomes, 0);
  EXPECT_GT(new_outcomes, 0);
}

// ---------------------------------------------------------------------------
// Record append (torn numrecs, serial). Committed state: two records. The
// mutation appends a third and closes; numrecs may only grow after the
// record's data writes land, so every crash point yields numrecs == 2 with
// records 0-1 intact, or numrecs == 3 with record 2 intact as well.
void MakeRecordRef(pfs::FileSystem& fs, const std::string& path,
                   std::uint64_t nrecs) {
  auto ds = netcdf::Dataset::Create(fs, path).value();
  const int time = ds.DefDim("time", 0).value();  // unlimited
  const int x = ds.DefDim("x", 4).value();
  const int v = ds.DefVar("r", NcType::kInt, {time, x}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  for (std::uint64_t rec = 0; rec < nrecs; ++rec) {
    std::vector<std::int32_t> vals(4);
    std::iota(vals.begin(), vals.end(), static_cast<std::int32_t>(10 * rec));
    const std::uint64_t st[] = {rec, 0};
    const std::uint64_t ct[] = {1, 4};
    ASSERT_TRUE(ds.PutVara<std::int32_t>(v, st, ct, vals).ok());
  }
  ASSERT_TRUE(ds.Close().ok());
}

TEST(CrashSweep, SerialRecordAppendTornNumrecs) {
  pfs::FileSystem ref_fs;
  MakeRecordRef(ref_fs, "two.nc", 2);
  MakeRecordRef(ref_fs, "three.nc", 3);

  int old_outcomes = 0, new_outcomes = 0;
  for (std::uint64_t t = 0; t < kSweepCeiling; ++t) {
    pfs::FileSystem fs;
    MakeRecordRef(fs, "f.nc", 2);  // committed pre-crash state

    const pfs::FaultPolicy pol = ArmCrash(fs, t);
    SCOPED_TRACE("crash point t=" + std::to_string(t) + " " +
                 pnc_test::DescribePolicy(pol));
    {
      auto ds = netcdf::Dataset::Open(fs, "f.nc", true);
      if (ds.ok()) {
        auto d = std::move(ds).value();
        const std::vector<std::int32_t> vals = {20, 21, 22, 23};
        const std::uint64_t st[] = {2, 0};
        const std::uint64_t ct[] = {1, 4};
        (void)d.PutVara<std::int32_t>(d.VarId("r").value(), st, ct, vals);
        (void)d.Close();
      }
    }
    const bool crashed = fs.crashed();
    fs.SetFaultPolicy({});

    VerifyAndRepair(fs, "f.nc");
    auto rd = netcdf::Dataset::Open(fs, "f.nc", false);
    ASSERT_TRUE(rd.ok()) << rd.status().message();
    const std::uint64_t n = rd.value().numrecs();
    ASSERT_TRUE(n == 2 || n == 3) << "hybrid record count " << n;
    ExpectMatchesRef(fs, "f.nc", ref_fs, n == 2 ? "two.nc" : "three.nc");

    if (!crashed) {
      EXPECT_EQ(n, 3u);
      ++new_outcomes;
      break;
    }
    (n == 2 ? old_outcomes : new_outcomes)++;
  }
  EXPECT_GT(old_outcomes, 0);
  EXPECT_GT(new_outcomes, 0);
}

// ---------------------------------------------------------------------------
// Fresh create (first enddef/close, journal bootstrap). There is no old
// state: every crash point must leave either a file the open path cleanly
// rejects (never committed) or a dataset with exactly the committed schema.
// Fixed-variable DATA is outside the commit protocol — under NoFill an
// unwritten or torn tail legally reads back as zeros — so only the schema
// and record count are asserted here.
TEST(CrashSweep, FreshCreateEveryByteSchemaAtomic) {
  for (std::uint64_t t = 0; t < kSweepCeiling; ++t) {
    pfs::FileSystem fs;
    const pfs::FaultPolicy pol = ArmCrash(fs, t);
    SCOPED_TRACE("crash point t=" + std::to_string(t) + " " +
                 pnc_test::DescribePolicy(pol));
    {
      auto ds = netcdf::Dataset::Create(fs, "f.nc");
      if (ds.ok()) {
        auto d = std::move(ds).value();
        const auto x = d.DefDim("x", 8);
        if (x.ok()) {
          const auto v = d.DefVar("a", NcType::kDouble, {x.value()});
          if (v.ok()) {
            (void)d.EndDef();
            std::vector<double> vals(8, 1.0);
            (void)d.PutVar<double>(v.value(), vals);
            (void)d.Close();
          }
        }
      }
    }
    const bool crashed = fs.crashed();
    fs.SetFaultPolicy({});

    if (!fs.Exists("f.nc")) {
      ASSERT_TRUE(crashed);  // crash before the primary file existed
      continue;
    }
    auto vr = nctools::VerifyFile(fs, "f.nc", {.repair = true});
    ASSERT_TRUE(vr.ok()) << vr.status().message();
    if (vr.value().state == ncformat::FileState::kCorrupt) {
      // Never committed: the open path must reject it, not misread it.
      EXPECT_FALSE(netcdf::Dataset::Open(fs, "f.nc", false).ok());
    } else {
      auto rd = netcdf::Dataset::Open(fs, "f.nc", false);
      ASSERT_TRUE(rd.ok()) << rd.status().message();
      EXPECT_EQ(rd.value().ndims(), 1);
      EXPECT_EQ(rd.value().nvars(), 1);
      EXPECT_TRUE(rd.value().VarId("a").ok());
      EXPECT_EQ(rd.value().numrecs(), 0u);
    }
    if (!crashed) break;  // whole create sequence covered
  }
}

// ---------------------------------------------------------------------------
// Crash point × transient faults, serial. Same append as above, but every
// third pfs op fails transiently first: the commit path is exercising its
// retry-with-backoff loops while the power-loss threshold sweeps over it.
// The all-old-or-all-new verdict must be untouched by the interaction.
TEST(CrashSweep, SerialRecordAppendTornNumrecsUnderTransients) {
  pfs::FileSystem ref_fs;
  MakeRecordRef(ref_fs, "two.nc", 2);
  MakeRecordRef(ref_fs, "three.nc", 3);

  int old_outcomes = 0, new_outcomes = 0;
  std::uint64_t total_transients = 0;
  for (std::uint64_t t = 0; t < kSweepCeiling; ++t) {
    pfs::FileSystem fs;
    MakeRecordRef(fs, "f.nc", 2);  // committed pre-crash state

    const pfs::FaultPolicy pol = ArmCrashWithTransients(fs, t, 3);
    SCOPED_TRACE("crash point t=" + std::to_string(t) + " " +
                 pnc_test::DescribePolicy(pol));
    {
      auto ds = netcdf::Dataset::Open(fs, "f.nc", true);
      if (ds.ok()) {
        auto d = std::move(ds).value();
        const std::vector<std::int32_t> vals = {20, 21, 22, 23};
        const std::uint64_t st[] = {2, 0};
        const std::uint64_t ct[] = {1, 4};
        (void)d.PutVara<std::int32_t>(d.VarId("r").value(), st, ct, vals);
        (void)d.Close();
      }
    }
    const bool crashed = fs.crashed();
    // An early crash point (t=0 tears the very first write) can freeze the
    // image before the third op, so transients are asserted over the sweep.
    total_transients += fs.stats().transient_faults;
    fs.SetFaultPolicy({});

    VerifyAndRepair(fs, "f.nc");
    auto rd = netcdf::Dataset::Open(fs, "f.nc", false);
    ASSERT_TRUE(rd.ok()) << rd.status().message();
    const std::uint64_t n = rd.value().numrecs();
    ASSERT_TRUE(n == 2 || n == 3) << "hybrid record count " << n;
    ExpectMatchesRef(fs, "f.nc", ref_fs, n == 2 ? "two.nc" : "three.nc");

    if (!crashed) {
      EXPECT_EQ(n, 3u);
      ++new_outcomes;
      break;
    }
    (n == 2 ? old_outcomes : new_outcomes)++;
  }
  EXPECT_GT(old_outcomes, 0);
  EXPECT_GT(new_outcomes, 0);
  EXPECT_GT(total_transients, 0u);
}

// ---------------------------------------------------------------------------
// Record append through the parallel path, four ranks (torn numrecs,
// collective). The root performs the journal commit after a collective data
// sync, so a committed count always implies durable record data — on every
// rank's writes, not just the root's.
TEST(CrashSweep, ParallelRecordAppendFourRanksTornNumrecs) {
  auto write_record = [](pnetcdf::Dataset& ds, int v, std::uint64_t rec,
                         int rank) {
    // Rank r owns elements [2r, 2r+2) of the 8-wide record row.
    const std::int32_t base = static_cast<std::int32_t>(100 * rec + 10 * rank);
    const std::vector<std::int32_t> mine = {base, base + 1};
    const std::uint64_t st[] = {rec, static_cast<std::uint64_t>(2 * rank)};
    const std::uint64_t ct[] = {1, 2};
    return ds.PutVaraAll<std::int32_t>(v, st, ct, mine);
  };

  int old_outcomes = 0, new_outcomes = 0;
  for (std::uint64_t t = 0; t < kSweepCeiling; ++t) {
    pfs::FileSystem fs;
    simmpi::Run(4, [&](simmpi::Comm& c) {  // committed state: one record
      auto ds =
          pnetcdf::Dataset::Create(c, fs, "p.nc", simmpi::NullInfo()).value();
      const int time = ds.DefDim("time", pnetcdf::kUnlimited).value();
      const int x = ds.DefDim("x", 8).value();
      const int v = ds.DefVar("r", NcType::kInt, {time, x}).value();
      ASSERT_TRUE(ds.EndDef().ok());
      ASSERT_TRUE(write_record(ds, v, 0, c.rank()).ok());
      ASSERT_TRUE(ds.Close().ok());
    });

    const pfs::FaultPolicy pol = ArmCrash(fs, t);
    SCOPED_TRACE("crash point t=" + std::to_string(t) + " " +
                 pnc_test::DescribePolicy(pol));
    simmpi::Run(4, [&](simmpi::Comm& c) {
      auto r = pnetcdf::Dataset::Open(c, fs, "p.nc", true, simmpi::NullInfo());
      if (!r.ok()) return;  // every rank sees the same broadcast verdict
      auto ds = std::move(r).value();
      const int v = ds.VarId("r").value();
      (void)write_record(ds, v, 1, c.rank());
      (void)ds.Close();
    });
    const bool crashed = fs.crashed();
    fs.SetFaultPolicy({});

    VerifyAndRepair(fs, "p.nc");
    auto rd = netcdf::Dataset::Open(fs, "p.nc", false);
    ASSERT_TRUE(rd.ok()) << rd.status().message();
    auto d = std::move(rd).value();
    const std::uint64_t n = d.numrecs();
    ASSERT_TRUE(n == 1 || n == 2) << "hybrid record count " << n;
    const int v = d.VarId("r").value();
    for (std::uint64_t rec = 0; rec < n; ++rec) {
      std::vector<std::int32_t> got(8);
      const std::uint64_t st[] = {rec, 0};
      const std::uint64_t ct[] = {1, 8};
      ASSERT_TRUE(d.GetVara<std::int32_t>(v, st, ct, got).ok());
      for (int rank = 0; rank < 4; ++rank) {
        const std::int32_t base =
            static_cast<std::int32_t>(100 * rec + 10 * rank);
        EXPECT_EQ(got[2 * rank], base) << "rec " << rec << " rank " << rank;
        EXPECT_EQ(got[2 * rank + 1], base + 1);
      }
    }

    if (!crashed) {
      EXPECT_EQ(n, 2u);
      ++new_outcomes;
      break;
    }
    (n == 1 ? old_outcomes : new_outcomes)++;
  }
  EXPECT_GT(old_outcomes, 0);
  EXPECT_GT(new_outcomes, 0);
}

// ---------------------------------------------------------------------------
// Crash point × transient faults, four ranks. The collective data path and
// the root's journal commit both retry transients while the crash threshold
// sweeps the append; every rank's slice must still come back all-old or
// all-new.
TEST(CrashSweep, ParallelRecordAppendFourRanksUnderTransients) {
  auto write_record = [](pnetcdf::Dataset& ds, int v, std::uint64_t rec,
                         int rank) {
    const std::int32_t base = static_cast<std::int32_t>(100 * rec + 10 * rank);
    const std::vector<std::int32_t> mine = {base, base + 1};
    const std::uint64_t st[] = {rec, static_cast<std::uint64_t>(2 * rank)};
    const std::uint64_t ct[] = {1, 2};
    return ds.PutVaraAll<std::int32_t>(v, st, ct, mine);
  };

  int old_outcomes = 0, new_outcomes = 0;
  for (std::uint64_t t = 0; t < kSweepCeiling; ++t) {
    pfs::FileSystem fs;
    simmpi::Run(4, [&](simmpi::Comm& c) {  // committed state: one record
      auto ds =
          pnetcdf::Dataset::Create(c, fs, "p.nc", simmpi::NullInfo()).value();
      const int time = ds.DefDim("time", pnetcdf::kUnlimited).value();
      const int x = ds.DefDim("x", 8).value();
      const int v = ds.DefVar("r", NcType::kInt, {time, x}).value();
      ASSERT_TRUE(ds.EndDef().ok());
      ASSERT_TRUE(write_record(ds, v, 0, c.rank()).ok());
      ASSERT_TRUE(ds.Close().ok());
    });

    const pfs::FaultPolicy pol = ArmCrashWithTransients(fs, t, 4);
    SCOPED_TRACE("crash point t=" + std::to_string(t) + " " +
                 pnc_test::DescribePolicy(pol));
    simmpi::Run(4, [&](simmpi::Comm& c) {
      auto r = pnetcdf::Dataset::Open(c, fs, "p.nc", true, simmpi::NullInfo());
      if (!r.ok()) return;
      auto ds = std::move(r).value();
      const int v = ds.VarId("r").value();
      (void)write_record(ds, v, 1, c.rank());
      (void)ds.Close();
    });
    const bool crashed = fs.crashed();
    fs.SetFaultPolicy({});

    VerifyAndRepair(fs, "p.nc");
    auto rd = netcdf::Dataset::Open(fs, "p.nc", false);
    ASSERT_TRUE(rd.ok()) << rd.status().message();
    auto d = std::move(rd).value();
    const std::uint64_t n = d.numrecs();
    ASSERT_TRUE(n == 1 || n == 2) << "hybrid record count " << n;
    const int v = d.VarId("r").value();
    for (std::uint64_t rec = 0; rec < n; ++rec) {
      std::vector<std::int32_t> got(8);
      const std::uint64_t st[] = {rec, 0};
      const std::uint64_t ct[] = {1, 8};
      ASSERT_TRUE(d.GetVara<std::int32_t>(v, st, ct, got).ok());
      for (int rank = 0; rank < 4; ++rank) {
        const std::int32_t base =
            static_cast<std::int32_t>(100 * rec + 10 * rank);
        EXPECT_EQ(got[2 * rank], base) << "rec " << rec << " rank " << rank;
        EXPECT_EQ(got[2 * rank + 1], base + 1);
      }
    }

    if (!crashed) {
      EXPECT_EQ(n, 2u);
      ++new_outcomes;
      break;
    }
    (n == 1 ? old_outcomes : new_outcomes)++;
  }
  EXPECT_GT(old_outcomes, 0);
  EXPECT_GT(new_outcomes, 0);
}

// ---------------------------------------------------------------------------
// Torn chunk-sum table sweep: power loss at every byte boundary of a data
// overwrite + close, which commits the session-OPEN flag, rewrites the data
// bytes, re-sums the dirty chunk, and commits the table closed through the
// journal. Invariant: the offline scrub NEVER reports corruption
// afterwards. Every crash point must leave either a trusted table whose
// sums match the bytes (crash before the session-open commit, when data and
// sums are both still old, or after the closing commit, when both are new)
// or a distrusted one — torn, or left session-open — that honestly
// degrades every chunk to "unsummed".
TEST(CrashSweep, TornSumSidecarSweepNeverReportsCorrupt) {
  int trusted_outcomes = 0, untrusted_outcomes = 0;
  for (std::uint64_t t = 0; t < kSweepCeiling; ++t) {
    pfs::FileSystem fs;
    pnc_test::MakeValidFile(fs, "f.nc");  // sums committed by the clean close

    const pfs::FaultPolicy pol = ArmCrash(fs, t);
    SCOPED_TRACE("crash point t=" + std::to_string(t) + " " +
                 pnc_test::DescribePolicy(pol));
    {
      auto ds = netcdf::Dataset::Open(fs, "f.nc", true);
      if (ds.ok()) {
        auto d = std::move(ds).value();
        const auto v = d.VarId("a");
        if (v.ok()) {
          std::vector<double> vals(8, 2.0);
          (void)d.PutVar<double>(v.value(), vals);
        }
        (void)d.Close();
      }
    }
    const bool crashed = fs.crashed();
    fs.SetFaultPolicy({});  // reboot

    // The journal's header guarantee still holds around the table it now
    // carries; repair the primary, then scrub the data region.
    auto fixed = nctools::VerifyFile(fs, "f.nc", {.repair = true});
    ASSERT_TRUE(fixed.ok()) << fixed.status().message();
    ASSERT_NE(fixed.value().state, ncformat::FileState::kCorrupt)
        << fixed.value().detail;

    auto v = nctools::VerifyFile(fs, "f.nc", {.repair = false, .data = true});
    ASSERT_TRUE(v.ok()) << v.status().message();
    ASSERT_TRUE(v.value().scrub.has_value());
    const ncformat::ScrubReport& s = *v.value().scrub;
    ASSERT_EQ(s.corrupt, 0u) << "false corruption verdict after a crash";
    if (s.trusted) {
      // A trusted table from this tiny file covers its whole data region.
      EXPECT_EQ(s.unsummed, 0u);
      EXPECT_GE(s.clean, 1u);
      ++trusted_outcomes;
    } else {
      ++untrusted_outcomes;
    }
    if (!crashed) break;  // whole overwrite+flush sequence covered
  }
  // Both verdicts must appear across the sweep: early/late crashes keep a
  // trusted closed table, mid-session crashes degrade to unsummed.
  EXPECT_GT(trusted_outcomes, 0);
  EXPECT_GT(untrusted_outcomes, 0);
}

// ---------------------------------------------------------------------------
// The same table sweep through the parallel library at 3 ranks: the root
// commits the gathered table in the journal's one [slots | shadow | table]
// write, and every crash point must still leave a trusted table that
// matches the bytes or an untrusted one — never a corruption verdict.
TEST(CrashSweep, ParallelTornSumSidecarSweepNeverReportsCorrupt) {
  auto put = [](pnetcdf::Dataset& ds, int v, int rank, double value) {
    const std::vector<double> mine(8, value + rank);
    const std::uint64_t st[] = {8 * static_cast<std::uint64_t>(rank)};
    const std::uint64_t ct[] = {8};
    return ds.PutVaraAll<double>(v, st, ct, mine);
  };
  int trusted_outcomes = 0, untrusted_outcomes = 0;
  for (std::uint64_t t = 0; t < kSweepCeiling; ++t) {
    pfs::FileSystem fs;
    simmpi::Run(3, [&](simmpi::Comm& c) {  // sums committed by the close
      auto ds =
          pnetcdf::Dataset::Create(c, fs, "p.nc", simmpi::NullInfo()).value();
      const int x = ds.DefDim("x", 24).value();
      const int v = ds.DefVar("a", NcType::kDouble, {x}).value();
      ASSERT_TRUE(ds.EndDef().ok());
      ASSERT_TRUE(put(ds, v, c.rank(), 1.0).ok());
      ASSERT_TRUE(ds.Close().ok());
    });

    const pfs::FaultPolicy pol = ArmCrash(fs, t);
    SCOPED_TRACE("crash point t=" + std::to_string(t) + " " +
                 pnc_test::DescribePolicy(pol));
    simmpi::Run(3, [&](simmpi::Comm& c) {
      auto r = pnetcdf::Dataset::Open(c, fs, "p.nc", true, simmpi::NullInfo());
      if (!r.ok()) return;  // every rank sees the same broadcast verdict
      auto ds = std::move(r).value();
      const auto v = ds.VarId("a");
      if (v.ok()) (void)put(ds, v.value(), c.rank(), 10.0);
      (void)ds.Close();
    });
    const bool crashed = fs.crashed();
    fs.SetFaultPolicy({});  // reboot

    auto fixed = nctools::VerifyFile(fs, "p.nc", {.repair = true});
    ASSERT_TRUE(fixed.ok()) << fixed.status().message();
    ASSERT_NE(fixed.value().state, ncformat::FileState::kCorrupt)
        << fixed.value().detail;
    auto v = nctools::VerifyFile(fs, "p.nc", {.repair = false, .data = true});
    ASSERT_TRUE(v.ok()) << v.status().message();
    ASSERT_TRUE(v.value().scrub.has_value());
    const ncformat::ScrubReport& s = *v.value().scrub;
    ASSERT_EQ(s.corrupt, 0u) << "false corruption verdict after a crash";
    if (s.trusted) {
      EXPECT_EQ(s.unsummed, 0u);
      EXPECT_GE(s.clean, 1u);
      ++trusted_outcomes;
    } else {
      ++untrusted_outcomes;
    }
    if (!crashed) break;  // whole overwrite+flush sequence covered
  }
  EXPECT_GT(trusted_outcomes, 0);
  EXPECT_GT(untrusted_outcomes, 0);
}

// ---------------------------------------------------------------------------
// The one commit of a record-growing Sync and of Close, swept at every byte,
// serial (nprocs 0) and in parallel. Committed state: two records, closed,
// with a trusted table. The mutation reopens, appends record 2, Syncs,
// appends record 3 and Closes; the parallel ranks write independently at 3
// ranks, and collectively (PutVaraAll, then IputVara + WaitAll) at 3 and 4.
// Either way the Sync and the Close are the commits that grow the record
// count: a collective write converges it in memory only. Every
// crash point must reopen as one of the three commits (2, 3 or 4 records,
// each matching its reference exactly), read back without kDataCorrupt,
// and scrub clean under a trusted table or all-unsummed under an untrusted
// one — never corrupt, never trusted while stale.
constexpr std::uint64_t kRecWidth = 6;

std::int32_t RecValue(std::uint64_t rec, std::uint64_t i) {
  return static_cast<std::int32_t>(100 * rec + i);
}

/// How a record is written: independently, with PutVaraAll, or with
/// IputVara + WaitAll.
enum class RecWrite { kIndep, kPutAll, kWaitAll };

/// Write record `rec` (this rank's slice of it in parallel; the last rank
/// takes the remainder).
template <typename Ds>
pnc::Status PutRecord(Ds& ds, std::uint64_t rec, int rank, int nprocs,
                      RecWrite how = RecWrite::kIndep) {
  const std::uint64_t share =
      nprocs == 0 ? kRecWidth : kRecWidth / static_cast<std::uint64_t>(nprocs);
  const std::uint64_t lo = share * static_cast<std::uint64_t>(rank);
  const std::uint64_t n = rank + 1 == std::max(nprocs, 1) ? kRecWidth - lo
                                                          : share;
  std::vector<std::int32_t> vals(n);
  for (std::uint64_t i = 0; i < n; ++i) vals[i] = RecValue(rec, lo + i);
  const std::uint64_t st[] = {rec, lo};
  const std::uint64_t ct[] = {1, n};
  const int v = ds.VarId("r").value();
  if constexpr (std::is_same_v<Ds, pnetcdf::Dataset>) {
    if (how == RecWrite::kPutAll)
      return ds.template PutVaraAll<std::int32_t>(v, st, ct, vals);
    if (how == RecWrite::kWaitAll) {
      pnetcdf::NonblockingQueue q(ds);
      PNC_RETURN_IF_ERROR(
          q.IputVara<std::int32_t>(v, st, ct, std::span(vals)).status());
      return q.WaitAll();
    }
  }
  return ds.template PutVara<std::int32_t>(v, st, ct, vals);
}

/// A dataset of `nrecs` records, created and closed by `nprocs` ranks
/// (0 = the serial library).
void MakeRecords(pfs::FileSystem& fs, const std::string& path,
                 std::uint64_t nrecs, int nprocs) {
  if (nprocs == 0) {
    auto ds = netcdf::Dataset::Create(fs, path).value();
    const int time = ds.DefDim("time", 0).value();
    const int x = ds.DefDim("x", kRecWidth).value();
    (void)ds.DefVar("r", NcType::kInt, {time, x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    for (std::uint64_t rec = 0; rec < nrecs; ++rec)
      ASSERT_TRUE(PutRecord(ds, rec, 0, 0).ok());
    ASSERT_TRUE(ds.Close().ok());
    return;
  }
  simmpi::Run(nprocs, [&](simmpi::Comm& c) {
    auto ds =
        pnetcdf::Dataset::Create(c, fs, path, simmpi::NullInfo()).value();
    const int time = ds.DefDim("time", pnetcdf::kUnlimited).value();
    const int x = ds.DefDim("x", kRecWidth).value();
    (void)ds.DefVar("r", NcType::kInt, {time, x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    ASSERT_TRUE(ds.BeginIndepData().ok());
    for (std::uint64_t rec = 0; rec < nrecs; ++rec)
      ASSERT_TRUE(PutRecord(ds, rec, c.rank(), nprocs).ok());
    ASSERT_TRUE(ds.EndIndepData().ok());
    ASSERT_TRUE(ds.Close().ok());
  });
}

/// `collective`: the parallel ranks append record 2 with PutVaraAll and
/// record 3 with IputVara + WaitAll, neither of which commits; the Sync and
/// the Close are still the only commits.
void RecordAppendCommitSweep(int nprocs, bool collective = false) {
  pfs::FileSystem ref_fs;
  for (std::uint64_t n = 2; n <= 4; ++n)
    MakeRecords(ref_fs, "ref" + std::to_string(n) + ".nc", n, nprocs);

  int outcomes[5] = {};
  int trusted = 0, untrusted = 0;
  for (std::uint64_t t = 0; t < kSweepCeiling; ++t) {
    pfs::FileSystem fs;
    MakeRecords(fs, "f.nc", 2, nprocs);  // committed pre-crash state

    const pfs::FaultPolicy pol = ArmCrash(fs, t);
    SCOPED_TRACE("crash point t=" + std::to_string(t) + " " +
                 pnc_test::DescribePolicy(pol));
    if (nprocs == 0) {
      auto ds = netcdf::Dataset::Open(fs, "f.nc", true);
      if (ds.ok()) {
        auto d = std::move(ds).value();
        if (PutRecord(d, 2, 0, 0).ok() && d.Sync().ok())
          (void)PutRecord(d, 3, 0, 0);
        (void)d.Close();
      }
    } else {
      simmpi::Run(nprocs, [&](simmpi::Comm& c) {
        auto r =
            pnetcdf::Dataset::Open(c, fs, "f.nc", true, simmpi::NullInfo());
        if (!r.ok()) return;  // every rank sees the same broadcast verdict
        auto ds = std::move(r).value();
        if (collective) {
          if (PutRecord(ds, 2, c.rank(), nprocs, RecWrite::kPutAll).ok() &&
              ds.Sync().ok())
            (void)PutRecord(ds, 3, c.rank(), nprocs, RecWrite::kWaitAll);
        } else if (ds.BeginIndepData().ok()) {
          (void)PutRecord(ds, 2, c.rank(), nprocs);
          if (ds.Sync().ok()) (void)PutRecord(ds, 3, c.rank(), nprocs);
        }
        (void)ds.Close();
      });
    }
    const bool crashed = fs.crashed();
    fs.SetFaultPolicy({});  // reboot

    VerifyAndRepair(fs, "f.nc");
    std::uint64_t n = 0;
    {
      auto rd = netcdf::Dataset::Open(fs, "f.nc", false);
      ASSERT_TRUE(rd.ok()) << rd.status().message();
      auto d = std::move(rd).value();
      n = d.numrecs();
      ASSERT_TRUE(n >= 2 && n <= 4) << "numrecs " << n << " is no commit";
      std::vector<std::int32_t> got(n * kRecWidth);
      const std::uint64_t st[] = {0, 0};
      const std::uint64_t ct[] = {n, kRecWidth};
      const pnc::Status rs = d.GetVara<std::int32_t>(d.VarId("r").value(), st,
                                                    ct, got);
      ASSERT_TRUE(rs.ok()) << rs.message();  // never kDataCorrupt
      for (std::uint64_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], RecValue(i / kRecWidth, i % kRecWidth)) << i;
    }
    ExpectMatchesRef(fs, "f.nc", ref_fs, "ref" + std::to_string(n) + ".nc");

    auto v = nctools::VerifyFile(fs, "f.nc", {.repair = false, .data = true});
    ASSERT_TRUE(v.ok()) << v.status().message();
    ASSERT_TRUE(v.value().scrub.has_value());
    const ncformat::ScrubReport& s = *v.value().scrub;
    ASSERT_EQ(s.corrupt, 0u) << "false corruption verdict after a crash";
    if (s.trusted) {
      EXPECT_EQ(s.unsummed, 0u);
      EXPECT_GE(s.clean, 1u);
      ++trusted;
    } else {
      EXPECT_EQ(s.clean, 0u);
      ++untrusted;
    }
    ++outcomes[n];

    if (!crashed) {
      EXPECT_EQ(n, 4u);
      EXPECT_TRUE(s.trusted);
      break;  // the whole reopen + Sync + Close sequence is covered
    }
  }
  EXPECT_GT(outcomes[2], 0);
  EXPECT_GT(outcomes[3], 0);
  EXPECT_GT(outcomes[4], 0);
  EXPECT_GT(trusted, 0);
  EXPECT_GT(untrusted, 0);
}

TEST(CrashSweep, RecordAppendCommitEveryByteSerial) {
  RecordAppendCommitSweep(0);
}

TEST(CrashSweep, RecordAppendCommitEveryByteThreeRanks) {
  RecordAppendCommitSweep(3);
}

TEST(CrashSweep, RecordAppendCommitEveryByteCollectiveThreeRanks) {
  RecordAppendCommitSweep(3, /*collective=*/true);
}

TEST(CrashSweep, RecordAppendCommitEveryByteCollectiveFourRanks) {
  RecordAppendCommitSweep(4, /*collective=*/true);
}

// ---------------------------------------------------------------------------
// An idle Sync (no record grew) restates the commit in force, so it writes
// no journal commit. Its promise rests on that commit alone: EndDef's,
// session-OPEN, with no table. Serial (nprocs 0) and at 1, 3 and 4 ranks,
// with an int variable "v" of kIdleLen elements inside one sum chunk.
constexpr std::uint64_t kIdleLen = 96;

std::int32_t IdleValue(std::int32_t base, std::uint64_t i) {
  return base + static_cast<std::int32_t>(i);
}

/// Write elements [0, n) of "v" as IdleValue(base, i): the serial library
/// in one put, parallel ranks each a contiguous slice (the last takes the
/// remainder) in one collective put.
template <typename Ds>
pnc::Status PutPrefix(Ds& ds, std::uint64_t n, std::int32_t base, int rank,
                      int nprocs) {
  const int parts = std::max(nprocs, 1);
  const std::uint64_t share = n / static_cast<std::uint64_t>(parts);
  const std::uint64_t lo = share * static_cast<std::uint64_t>(rank);
  const std::uint64_t len = rank + 1 == parts ? n - lo : share;
  std::vector<std::int32_t> vals(len);
  for (std::uint64_t i = 0; i < len; ++i) vals[i] = IdleValue(base, lo + i);
  const std::uint64_t st[] = {lo};
  const std::uint64_t ct[] = {len};
  const int v = ds.VarId("v").value();
  if constexpr (std::is_same_v<Ds, pnetcdf::Dataset>)
    return ds.template PutVaraAll<std::int32_t>(v, st, ct, vals);
  return ds.template PutVara<std::int32_t>(v, st, ct, vals);
}

/// Create "f.nc" with "v" defined, then run `body(ds, rank, barrier)` on
/// the serial library (rank 0, a no-op barrier) or on every rank.
template <typename Body>
void IdleSyncSession(pfs::FileSystem& fs, int nprocs, Body&& body) {
  if (nprocs == 0) {
    auto ds = netcdf::Dataset::Create(fs, "f.nc").value();
    const int x = ds.DefDim("x", kIdleLen).value();
    (void)ds.DefVar("v", NcType::kInt, {x}).value();
    body(ds, 0, [] {});
    return;
  }
  simmpi::Run(nprocs, [&](simmpi::Comm& c) {
    auto ds =
        pnetcdf::Dataset::Create(c, fs, "f.nc", simmpi::NullInfo()).value();
    const int x = ds.DefDim("x", kIdleLen).value();
    (void)ds.DefVar("v", NcType::kInt, {x}).value();
    body(ds, c.rank(), [&c] { c.Barrier(); });
  });
}

/// The reopened "f.nc" holds IdleValue(base, i) in every element.
void ExpectIdleValues(pfs::FileSystem& fs, std::int32_t base) {
  auto rd = netcdf::Dataset::Open(fs, "f.nc", false);
  ASSERT_TRUE(rd.ok()) << rd.status().message();
  std::vector<std::int32_t> got(kIdleLen);
  const pnc::Status st =
      rd.value().GetVar<std::int32_t>(rd.value().VarId("v").value(), got);
  ASSERT_TRUE(st.ok()) << st.message();
  for (std::uint64_t i = 0; i < kIdleLen; ++i)
    ASSERT_EQ(got[i], IdleValue(base, i)) << i;
}

class IdleSyncP : public ::testing::TestWithParam<int> {};

// Power fails at the first write after an idle Sync returned 0. The reopen
// returns the synced bytes with status 0, and the commit in force is still
// EndDef's: session-OPEN, unsummed.
TEST_P(IdleSyncP, CrashAfterIdleSyncReopensWithTheSyncedBytes) {
  const int nprocs = GetParam();
  pfs::FileSystem fs;
  std::uint64_t enddef_seq = 0;
  IdleSyncSession(fs, nprocs, [&](auto& ds, int rank, auto&& barrier) {
    EXPECT_TRUE(ds.EndDef().ok());
    if (rank == 0) enddef_seq = pnc_test::CommittedState(fs, "f.nc").seq;
    EXPECT_TRUE(PutPrefix(ds, kIdleLen, 0, rank, nprocs).ok());
    EXPECT_TRUE(ds.Sync().ok());
    barrier();
    if (rank == 0) {
      EXPECT_EQ(pnc_test::CommittedState(fs, "f.nc").seq, enddef_seq);
      ArmCrash(fs, 0);
    }
    barrier();
    (void)PutPrefix(ds, kIdleLen, 1000, rank, nprocs);
    (void)ds.Close();
  });
  ASSERT_TRUE(fs.crashed());
  fs.SetFaultPolicy({});  // reboot

  auto vr = nctools::VerifyFile(fs, "f.nc");
  ASSERT_TRUE(vr.ok()) << vr.status().message();
  EXPECT_EQ(vr.value().state, ncformat::FileState::kClean)
      << vr.value().detail;
  const ncformat::CommitState s = pnc_test::CommittedState(fs, "f.nc");
  EXPECT_EQ(s.seq, enddef_seq);
  EXPECT_EQ(s.flags, ncformat::kCommitFlagOpen);
  EXPECT_EQ(s.table_len, 0u);
  ExpectIdleValues(fs, 0);

  auto v = nctools::VerifyFile(fs, "f.nc", {.repair = false, .data = true});
  ASSERT_TRUE(v.ok()) << v.status().message();
  ASSERT_TRUE(v.value().scrub.has_value());
  EXPECT_FALSE(v.value().scrub->trusted);
  EXPECT_EQ(v.value().scrub->corrupt, 0u);
}

// Part of the chunk, an idle Sync, then a rewrite from the start through the
// end that overlaps it, and Close. The idle Sync still resolves the chunk's
// fragments (the first write tiles the chunk's extent then), so Close's
// rewrite tiles it again and nothing is read back. Left unresolved, the two
// overlapping fragments would force Close to read the chunk back. The
// closed file verifies clean under a trusted table.
TEST_P(IdleSyncP, RewriteAcrossAnIdleSyncKeepsTheTableTrusted) {
  const int nprocs = GetParam();
  const auto run = [nprocs](pfs::FileSystem& fs) {
    IdleSyncSession(fs, nprocs, [&](auto& ds, int rank, auto&&) {
      EXPECT_TRUE(ds.EndDef().ok());
      EXPECT_TRUE(PutPrefix(ds, 2 * kIdleLen / 3, 0, rank, nprocs).ok());
      EXPECT_TRUE(ds.Sync().ok());
      EXPECT_TRUE(PutPrefix(ds, kIdleLen, 1000, rank, nprocs).ok());
      EXPECT_TRUE(ds.Close().ok());
    });
    return fs.stats().bytes_read;
  };
  pfs::FileSystem fs;
  const std::uint64_t read_on = run(fs);
  std::uint64_t read_off = 0;
  {
    pnc_test::EnvGuard no_sums("PNC_SUMS", "0");
    pfs::FileSystem unsummed;
    read_off = run(unsummed);
  }
  EXPECT_EQ(read_on - read_off, 0u) << "sum read-back bytes";

  auto vr = nctools::VerifyFile(fs, "f.nc");
  ASSERT_TRUE(vr.ok()) << vr.status().message();
  EXPECT_EQ(vr.value().state, ncformat::FileState::kClean)
      << vr.value().detail;
  ExpectIdleValues(fs, 1000);
  auto v = nctools::VerifyFile(fs, "f.nc", {.repair = false, .data = true});
  ASSERT_TRUE(v.ok()) << v.status().message();
  ASSERT_TRUE(v.value().scrub.has_value());
  const ncformat::ScrubReport& s = *v.value().scrub;
  EXPECT_TRUE(s.trusted);
  EXPECT_GE(s.clean, 1u);
  EXPECT_EQ(s.unsummed, 0u);
  EXPECT_EQ(s.corrupt, 0u);
}

INSTANTIATE_TEST_SUITE_P(Ranks, IdleSyncP, ::testing::Values(0, 1, 3, 4),
                         [](const ::testing::TestParamInfo<int>& i) {
                           return i.param == 0 ? std::string("serial")
                                               : "p" + std::to_string(i.param);
                         });

// ---------------------------------------------------------------------------
// Acknowledgment oracle for Sync-per-step appends. A Sync that returned 0
// is a promise: a power loss at any later point keeps at least its
// records, and no crash can keep a record whose append had not started.
// Serial (nprocs 0) and at 1, 3 and 4 ranks, sums on and off: f.nc is
// created and defined, then the crash is armed at every pfs op of the
// session in turn (crash_op, counted from the arming), the in-flight write
// vanishing or landing whole without its acknowledgment. The session
// appends kAckSyncs records with a Sync after each (parallel ranks
// alternate PutVaraAll and IputVara + WaitAll), then one more that only
// the Close commits. After the reboot a reader opens read-only first,
// before any repair; then a writable reopen and Close must leave the
// primary's own numrecs field caught up with the journal's.
constexpr std::uint64_t kAckSyncs = 3;

/// What the session was told: `acked` records are promised (the last Sync
/// or Close that returned 0), `in_flight` records had been started.
struct AckOutcome {
  std::uint64_t acked = 0;
  std::uint64_t in_flight = 0;
};

/// Create f.nc, arm `crash` once it is defined, and run the appends. The
/// parallel outcome is rank 0's (every call's status is agreed).
AckOutcome AckSession(pfs::FileSystem& fs, int nprocs,
                      const pfs::FaultPolicy& crash) {
  AckOutcome out;
  const auto appends = [&](auto& ds, int rank, auto&& arm) {
    arm();
    AckOutcome o;
    for (std::uint64_t rec = 0; rec <= kAckSyncs; ++rec) {
      o.in_flight = rec + 1;
      const RecWrite how = rec % 2 == 0 ? RecWrite::kPutAll : RecWrite::kWaitAll;
      if (!PutRecord(ds, rec, rank, nprocs, how).ok()) break;
      if (rec == kAckSyncs) {
        if (ds.Close().ok()) o.acked = rec + 1;
        return o;
      }
      if (!ds.Sync().ok()) break;
      o.acked = rec + 1;
    }
    (void)ds.Close();
    return o;
  };
  if (nprocs == 0) {
    auto ds = netcdf::Dataset::Create(fs, "f.nc").value();
    const int time = ds.DefDim("time", 0).value();
    const int x = ds.DefDim("x", kRecWidth).value();
    (void)ds.DefVar("r", NcType::kInt, {time, x}).value();
    EXPECT_TRUE(ds.EndDef().ok());
    return appends(ds, 0, [&] { fs.SetFaultPolicy(crash); });
  }
  simmpi::Run(nprocs, [&](simmpi::Comm& c) {
    auto ds =
        pnetcdf::Dataset::Create(c, fs, "f.nc", simmpi::NullInfo()).value();
    const int time = ds.DefDim("time", pnetcdf::kUnlimited).value();
    const int x = ds.DefDim("x", kRecWidth).value();
    (void)ds.DefVar("r", NcType::kInt, {time, x}).value();
    EXPECT_TRUE(ds.EndDef().ok());
    const AckOutcome o = appends(ds, c.rank(), [&] {
      c.Barrier();
      if (c.rank() == 0) fs.SetFaultPolicy(crash);
      c.Barrier();
    });
    if (c.rank() == 0) out = o;
  });
  return out;
}

/// Records [0, n) of f.nc read back by `nprocs` ranks with a collective
/// read (0: the serial library), each rank checking every value.
void ExpectRecordsRead(pfs::FileSystem& fs, int nprocs, std::uint64_t n) {
  const auto check = [n](const pnc::Status& st,
                         const std::vector<std::int32_t>& got) {
    ASSERT_TRUE(st.ok()) << st.message();  // never kDataCorrupt
    for (std::uint64_t i = 0; i < n * kRecWidth; ++i)
      ASSERT_EQ(got[i], RecValue(i / kRecWidth, i % kRecWidth)) << i;
  };
  const std::uint64_t st[] = {0, 0};
  const std::uint64_t ct[] = {n, kRecWidth};
  std::vector<std::int32_t> got(n * kRecWidth);
  if (nprocs == 0) {
    auto rd = netcdf::Dataset::Open(fs, "f.nc", false);
    ASSERT_TRUE(rd.ok()) << rd.status().message();
    ASSERT_EQ(rd.value().numrecs(), n);
    if (n == 0) return;
    check(rd.value().GetVara<std::int32_t>(rd.value().VarId("r").value(), st,
                                          ct, got),
          got);
    return;
  }
  simmpi::Run(nprocs, [&](simmpi::Comm& c) {
    auto rd = pnetcdf::Dataset::Open(c, fs, "f.nc", false, simmpi::NullInfo());
    ASSERT_TRUE(rd.ok()) << rd.status().message();
    auto ds = std::move(rd).value();
    ASSERT_EQ(ds.numrecs(), n);
    std::vector<std::int32_t> mine(n * kRecWidth);
    if (n > 0)
      check(ds.GetVaraAll<std::int32_t>(ds.VarId("r").value(), st, ct, mine),
          mine);
    EXPECT_TRUE(ds.Close().ok());
  });
}

/// A writable reopen of f.nc that writes nothing, then Close.
void ReopenWritableAndClose(pfs::FileSystem& fs, int nprocs) {
  if (nprocs == 0) {
    auto ds = netcdf::Dataset::Open(fs, "f.nc", true);
    ASSERT_TRUE(ds.ok()) << ds.status().message();
    EXPECT_TRUE(ds.value().Close().ok());
    return;
  }
  simmpi::Run(nprocs, [&](simmpi::Comm& c) {
    auto ds = pnetcdf::Dataset::Open(c, fs, "f.nc", true, simmpi::NullInfo());
    ASSERT_TRUE(ds.ok()) << ds.status().message();
    EXPECT_TRUE(ds.value().Close().ok());
  });
}

class AckOracleP : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(AckOracleP, SyncPerStepCrashAtEveryOpKeepsEveryAcknowledgedRecord) {
  const auto [nprocs, sums] = GetParam();
  std::optional<pnc_test::EnvGuard> no_sums;
  if (!sums) no_sums.emplace("PNC_SUMS", "0");
  // Clamped to the write's size: it lands whole, unacknowledged.
  constexpr std::uint64_t kWhole = pfs::FaultPolicy::kNever;
  int lagging = 0, sessions = 0;
  for (const std::uint64_t torn : {std::uint64_t{0}, kWhole}) {
    std::uint64_t op = 0;
    for (; op < kSweepCeiling; ++op) {
      pfs::FileSystem fs;
      pfs::FaultPolicy crash;
      crash.crash_op = op;
      crash.crash_write_bytes = torn;
      SCOPED_TRACE("crash at op " + std::to_string(op) + " " +
                   pnc_test::DescribePolicy(crash));
      const AckOutcome o = AckSession(fs, nprocs, crash);
      const bool crashed = fs.crashed();
      fs.SetFaultPolicy({});  // reboot
      ++sessions;

      // A reader, before any repair: the count lies between the last
      // acknowledgment and the append in flight, and every record it
      // admits reads back as written.
      std::uint64_t n = 0;
      {
        auto rd = netcdf::Dataset::Open(fs, "f.nc", false);
        ASSERT_TRUE(rd.ok()) << rd.status().message();
        n = rd.value().numrecs();
      }
      ASSERT_GE(n, o.acked) << "an acknowledged record was lost";
      ASSERT_LE(n, o.in_flight) << "a record that was never appended";
      ExpectRecordsRead(fs, 0, n);
      if (nprocs != 0) ExpectRecordsRead(fs, nprocs, n);
      auto v = nctools::VerifyFile(fs, "f.nc", {.repair = false, .data = true});
      ASSERT_TRUE(v.ok()) << v.status().message();
      ASSERT_NE(v.value().state, ncformat::FileState::kCorrupt)
          << v.value().detail;
      ASSERT_TRUE(v.value().scrub.has_value());
      ASSERT_EQ(v.value().scrub->corrupt, 0u);
      if (pnc_test::DiskNumrecs(fs, "f.nc") < n) ++lagging;

      // A writable reopen and Close catch the primary's own count up.
      ReopenWritableAndClose(fs, nprocs);
      EXPECT_EQ(pnc_test::DiskNumrecs(fs, "f.nc"), n);
      EXPECT_EQ(pnc_test::CommittedState(fs, "f.nc").numrecs, n);
      auto after = nctools::VerifyFile(fs, "f.nc", {.repair = true});
      ASSERT_TRUE(after.ok()) << after.status().message();
      EXPECT_EQ(after.value().state, ncformat::FileState::kClean)
          << after.value().detail;
      EXPECT_FALSE(after.value().repaired) << after.value().detail;

      if (!crashed) {
        EXPECT_EQ(o.acked, kAckSyncs + 1);
        EXPECT_EQ(n, kAckSyncs + 1);
        break;  // the whole session ran: every op was a crash point
      }
    }
    EXPECT_LT(op, kSweepCeiling);
  }
  // Some crash fell between a Sync and the Close: the reader took the
  // journal's count over the primary's trailing one.
  EXPECT_GT(lagging, 0);
  EXPECT_GT(sessions, 2 * static_cast<int>(kAckSyncs));
}

INSTANTIATE_TEST_SUITE_P(
    Ranks, AckOracleP,
    ::testing::Combine(::testing::Values(0, 1, 3, 4), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& i) {
      const int n = std::get<0>(i.param);
      return (n == 0 ? std::string("serial") : "p" + std::to_string(n)) +
             (std::get<1>(i.param) ? "_sums" : "_nosums");
    });

// ---------------------------------------------------------------------------
// Fresh create through the first EndDef, serial (nprocs 0) and at 3 ranks.
// Create writes nothing; the first journal commit lays down the magic, both
// zeroed slots and the shadow in one write, then the slot. Every crash
// point classifies as before: with no committed slot the file is corrupt
// ("no committed state", since the journal — even an empty or torn one —
// exists), and opens reject it; with a committed slot it is clean or
// recoverable and opens with the defined schema. An EndDef that returned OK
// never leaves a corrupt file.
void FreshCreateThroughEndDefSweep(int nprocs) {
  int committed = 0, uncommitted = 0;
  for (std::uint64_t t = 0; t < kSweepCeiling; ++t) {
    pfs::FileSystem fs;
    const pfs::FaultPolicy pol = ArmCrash(fs, t);
    SCOPED_TRACE("crash point t=" + std::to_string(t) + " " +
                 pnc_test::DescribePolicy(pol));
    bool enddef_ok = false;
    if (nprocs == 0) {
      auto ds = netcdf::Dataset::Create(fs, "f.nc");
      if (ds.ok()) {
        auto d = std::move(ds).value();
        const int x = d.DefDim("x", 8).value();
        (void)d.DefVar("a", NcType::kDouble, {x}).value();
        enddef_ok = d.EndDef().ok();
      }
    } else {
      std::vector<int> ok(static_cast<std::size_t>(nprocs), 0);
      simmpi::Run(nprocs, [&](simmpi::Comm& c) {
        auto r = pnetcdf::Dataset::Create(c, fs, "f.nc", simmpi::NullInfo());
        if (!r.ok()) return;
        auto ds = std::move(r).value();
        const int x = ds.DefDim("x", 8).value();
        (void)ds.DefVar("a", NcType::kDouble, {x}).value();
        ok[static_cast<std::size_t>(c.rank())] = ds.EndDef().ok() ? 1 : 0;
      });
      enddef_ok = std::all_of(ok.begin(), ok.end(), [](int o) { return o; });
      EXPECT_TRUE(enddef_ok || std::none_of(ok.begin(), ok.end(),
                                            [](int o) { return o; }))
          << "ranks disagree on EndDef";
    }
    const bool crashed = fs.crashed();
    fs.SetFaultPolicy({});  // reboot

    if (!fs.Exists("f.nc")) {
      ASSERT_TRUE(crashed);
      continue;
    }
    const bool journal = fs.Exists(ncformat::JournalPath("f.nc"));
    auto vr = nctools::VerifyFile(fs, "f.nc");
    ASSERT_TRUE(vr.ok()) << vr.status().message();
    EXPECT_EQ(vr.value().has_journal, journal) << vr.value().detail;
    if (vr.value().state == ncformat::FileState::kCorrupt) {
      EXPECT_FALSE(enddef_ok) << "EndDef returned OK on an uncommitted file";
      if (journal) {
        EXPECT_EQ(vr.value().detail,
                  "no committed state (crashed before first commit)");
      }
      EXPECT_FALSE(netcdf::Dataset::Open(fs, "f.nc", false).ok());
      ++uncommitted;
    } else {
      ASSERT_TRUE(nctools::VerifyFile(fs, "f.nc", {.repair = true}).ok());
      auto rd = netcdf::Dataset::Open(fs, "f.nc", false);
      ASSERT_TRUE(rd.ok()) << rd.status().message();
      EXPECT_EQ(rd.value().ndims(), 1);
      EXPECT_TRUE(rd.value().VarId("a").ok());
      ++committed;
    }
    if (!crashed) {
      EXPECT_TRUE(enddef_ok);
      break;  // whole create + first EndDef covered
    }
  }
  EXPECT_GT(committed, 0);
  EXPECT_GT(uncommitted, 0);
}

TEST(CrashSweep, FreshCreateThroughFirstEndDefSerial) {
  FreshCreateThroughEndDefSweep(0);
}

TEST(CrashSweep, FreshCreateThroughFirstEndDefThreeRanks) {
  FreshCreateThroughEndDefSweep(3);
}

// ---------------------------------------------------------------------------
// The primary as the first commit in force. A created dataset's first EndDef
// writes its header alone; the first journal commit comes with the first
// Sync that grows the records. The crash is armed before Create and bites at
// every pfs op of Create, EndDef, one record put, Sync, Redef + EndDef (the
// global attribute "stage" goes from "one" to "two", the header's size
// unchanged) and Close, the crashing write vanishing, torn at 60 bytes
// (inside slot A of a journal write from offset 0), torn at 120 bytes
// (past both slots, inside the shadow) or landing whole. Serial (nprocs 0)
// and at 1, 3 and 4 ranks, sums on and off, with a header below and one
// above 64 KiB (a 100 KiB global attribute "note").
//
// After the reboot: a call that returned OK survives, with its header,
// record count and bytes; a crash before EndDef's header landed classifies
// "crashed before first commit"; and while the commit in force is the
// primary or the first journal commit (torn or not), the file is clean —
// no valid slot and the primary as EndDef committed it, or the slot, whose
// header CRC matches the primary, with its count and an untrusted table.
constexpr std::uint64_t kBigNote = 100 * 1024;
constexpr int kGlobal = ncformat::kGlobalVarId;

struct FirstCommitOutcome {
  bool enddef = false;  ///< the first EndDef returned OK
  bool put = false;     ///< the record put was started
  bool synced = false;
  bool redef = false;  ///< Redef + EndDef returned OK
  bool closed = false;
};

template <typename Ds>
FirstCommitOutcome FirstCommitSteps(Ds& ds, int rank, int nprocs, bool big,
                                    std::uint64_t unlimited) {
  FirstCommitOutcome o;
  const int time = ds.DefDim("time", unlimited).value();
  const int x = ds.DefDim("x", kRecWidth).value();
  (void)ds.DefVar("r", NcType::kInt, {time, x}).value();
  EXPECT_TRUE(ds.PutAttText(kGlobal, "stage", "one").ok());
  if (big) {
    EXPECT_TRUE(
        ds.PutAttText(kGlobal, "note", std::string(kBigNote, 'n')).ok());
  }
  if ((o.enddef = ds.EndDef().ok())) {
    o.put = true;
    if (PutRecord(ds, 0, rank, nprocs, RecWrite::kPutAll).ok() &&
        (o.synced = ds.Sync().ok()) && ds.Redef().ok() &&
        ds.PutAttText(kGlobal, "stage", "two").ok())
      o.redef = ds.EndDef().ok();
  }
  const bool closed = ds.Close().ok();
  o.closed = o.redef && closed;
  return o;
}

FirstCommitOutcome FirstCommitSession(pfs::FileSystem& fs, int nprocs,
                                      bool big) {
  if (nprocs == 0) {
    auto ds = netcdf::Dataset::Create(fs, "f.nc");
    if (!ds.ok()) return {};
    return FirstCommitSteps(ds.value(), 0, 0, big, netcdf::kUnlimited);
  }
  FirstCommitOutcome out;
  simmpi::Run(nprocs, [&](simmpi::Comm& c) {
    auto r = pnetcdf::Dataset::Create(c, fs, "f.nc", simmpi::NullInfo());
    if (!r.ok()) return;  // every rank sees the same verdict
    const FirstCommitOutcome o = FirstCommitSteps(
        r.value(), c.rank(), nprocs, big, pnetcdf::kUnlimited);
    if (c.rank() == 0) out = o;
  });
  return out;
}

class FirstCommitP
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {};

TEST_P(FirstCommitP, CrashAtEveryOpKeepsEveryAcknowledgedCall) {
  const auto [nprocs, sums, big] = GetParam();
  std::optional<pnc_test::EnvGuard> no_sums;
  if (!sums) no_sums.emplace("PNC_SUMS", "0");
  constexpr std::uint64_t kWhole = pfs::FaultPolicy::kNever;
  int before_first = 0, primary = 0, first_slot = 0, closed = 0;
  for (const std::uint64_t torn : {std::uint64_t{0}, std::uint64_t{60},
                                   std::uint64_t{120}, kWhole}) {
    std::uint64_t op = 0;
    for (; op < kSweepCeiling; ++op) {
      pfs::FileSystem fs;
      pfs::FaultPolicy crash;
      crash.crash_op = op;
      crash.crash_write_bytes = torn;
      SCOPED_TRACE("crash at op " + std::to_string(op) + " " +
                   pnc_test::DescribePolicy(crash));
      fs.SetFaultPolicy(crash);
      const FirstCommitOutcome o = FirstCommitSession(fs, nprocs, big);
      const bool crashed = fs.crashed();
      fs.SetFaultPolicy({});  // reboot
      if (!crashed) {
        EXPECT_TRUE(o.closed);
      } else {
        EXPECT_FALSE(o.closed);
      }

      if (!fs.Exists("f.nc")) {
        ASSERT_FALSE(o.enddef);
        continue;
      }
      auto vr = nctools::VerifyFile(fs, "f.nc");
      ASSERT_TRUE(vr.ok()) << vr.status().message();
      if (vr.value().state == ncformat::FileState::kCorrupt) {
        // EndDef's header never landed whole: nothing was committed. (A
        // crash inside the parallel Create can precede the journal.)
        ASSERT_FALSE(o.enddef) << vr.value().detail;
        if (vr.value().has_journal) {
          EXPECT_EQ(vr.value().detail,
                    "no committed state (crashed before first commit)");
        }
        EXPECT_FALSE(netcdf::Dataset::Open(fs, "f.nc", false).ok());
        ++before_first;
        continue;
      }
      // The primary is in force until the first journal commit lands, and
      // that commit (seq 1) restates its header: either way, clean.
      const ncformat::CommitState in_force =
          pnc_test::CommittedState(fs, "f.nc");
      if (in_force.seq <= 1) {
        EXPECT_EQ(vr.value().state, ncformat::FileState::kClean)
            << vr.value().detail;
        EXPECT_EQ(in_force.numrecs, in_force.seq);
        EXPECT_EQ(in_force.table_len, 0u);
        (in_force.seq == 0 ? primary : first_slot)++;
      }

      // A reader, before any repair.
      std::uint64_t n = 0;
      {
        auto rd = netcdf::Dataset::Open(fs, "f.nc", false);
        ASSERT_TRUE(rd.ok()) << rd.status().message();
        auto& d = rd.value();
        n = d.numrecs();
        const std::string stage = d.GetAtt(kGlobal, "stage").value().AsText();
        ASSERT_TRUE(stage == "one" || stage == "two") << stage;
        if (o.redef) {
          EXPECT_EQ(stage, "two");
        }
        if (!o.synced) {
          EXPECT_EQ(stage, "one");
        }
        if (big) {
          EXPECT_EQ(d.GetAtt(kGlobal, "note").value().AsText(),
                    std::string(kBigNote, 'n'));
        }
      }
      ASSERT_LE(n, o.put ? 1u : 0u) << "a record that was never appended";
      if (o.synced) {
        ASSERT_EQ(n, 1u) << "an acknowledged record was lost";
      }
      ExpectRecordsRead(fs, 0, n);
      if (nprocs != 0) ExpectRecordsRead(fs, nprocs, n);
      auto v = nctools::VerifyFile(fs, "f.nc", {.repair = false, .data = true});
      ASSERT_TRUE(v.ok()) << v.status().message();
      ASSERT_TRUE(v.value().scrub.has_value());
      ASSERT_EQ(v.value().scrub->corrupt, 0u);
      if (o.closed) {
        EXPECT_EQ(v.value().scrub->trusted, sums);
        ++closed;
      }

      // A writable reopen and Close leave a caught-up, clean file.
      ReopenWritableAndClose(fs, nprocs);
      EXPECT_EQ(pnc_test::DiskNumrecs(fs, "f.nc"), n);
      auto after = nctools::VerifyFile(fs, "f.nc", {.repair = true});
      ASSERT_TRUE(after.ok()) << after.status().message();
      EXPECT_EQ(after.value().state, ncformat::FileState::kClean)
          << after.value().detail;
      EXPECT_FALSE(after.value().repaired) << after.value().detail;
      if (!crashed) break;  // the whole session ran: every op was a crash point
    }
    EXPECT_LT(op, kSweepCeiling);
  }
  EXPECT_GT(before_first, 0);
  EXPECT_GT(primary, 0);
  EXPECT_GT(first_slot, 0);
  EXPECT_GT(closed, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Ranks, FirstCommitP,
    ::testing::Combine(::testing::Values(0, 1, 3, 4), ::testing::Bool(),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool, bool>>& i) {
      const int n = std::get<0>(i.param);
      return (n == 0 ? std::string("serial") : "p" + std::to_string(n)) +
             (std::get<1>(i.param) ? "_sums" : "_nosums") +
             (std::get<2>(i.param) ? "_big" : "_small");
    });

// A header over 64 KiB beside a blank journal: a dataset that crashed after
// its first EndDef, before any journal commit. The primary is the commit in
// force, so the file is clean, and the reopen reads its header whole.
TEST(JournalPresence, LargeHeaderBesideABlankJournalIsClean) {
  pfs::FileSystem fs;
  {
    auto ds = netcdf::Dataset::Create(fs, "f.nc").value();
    const int x = ds.DefDim("x", 4).value();
    const int v = ds.DefVar("v", NcType::kInt, {x}).value();
    ASSERT_TRUE(
        ds.PutAttText(kGlobal, "note", std::string(kBigNote, 'n')).ok());
    ASSERT_TRUE(ds.EndDef().ok());
    ArmCrash(fs, 0);
    const std::vector<std::int32_t> vals = {1, 2, 3, 4};
    (void)ds.PutVar<std::int32_t>(v, vals);
    (void)ds.Close();
  }
  ASSERT_TRUE(fs.crashed());
  fs.SetFaultPolicy({});  // reboot
  EXPECT_EQ(fs.Open(ncformat::JournalPath("f.nc")).value().size(), 0u);
  EXPECT_GT(fs.Open("f.nc").value().size(), 64u * 1024);

  auto vr = nctools::VerifyFile(fs, "f.nc");
  ASSERT_TRUE(vr.ok()) << vr.status().message();
  EXPECT_TRUE(vr.value().has_journal);
  EXPECT_EQ(vr.value().state, ncformat::FileState::kClean)
      << vr.value().detail;
  EXPECT_EQ(vr.value().detail, "journal empty; header decodes");
  auto rd = netcdf::Dataset::Open(fs, "f.nc", false);
  ASSERT_TRUE(rd.ok()) << rd.status().message();
  EXPECT_EQ(rd.value().GetAtt(kGlobal, "note").value().AsText(),
            std::string(kBigNote, 'n'));
}

// ---------------------------------------------------------------------------
// A journal whose magic is damaged lost what it committed; it is not a
// missing journal. The file is torn, never clean, and its table is not
// trusted. A writable session opens it from the primary, and its first
// commit lays the journal down again from offset 0, magic included. A read
// failure on the journal is the open's failure.
TEST(JournalPresence, DamagedMagicIsTornNotMissing) {
  pfs::FileSystem fs;
  MakeRecordRef(fs, "f.nc", 1);
  const std::string jpath = ncformat::JournalPath("f.nc");
  const std::byte magic0 = pnc_test::ByteAt(fs, jpath, 0);
  pnc_test::CorruptByte(fs, jpath, 0, ~magic0);

  auto vr = nctools::VerifyFile(fs, "f.nc", {.data = true});
  ASSERT_TRUE(vr.ok()) << vr.status().message();
  EXPECT_TRUE(vr.value().has_journal);
  EXPECT_EQ(vr.value().state, ncformat::FileState::kTornRecoverable);
  EXPECT_EQ(vr.value().detail, "journal magic damaged");
  ASSERT_TRUE(vr.value().scrub.has_value());
  EXPECT_FALSE(vr.value().scrub->trusted);

  // A permanent fault on the open's first op, the journal read, fails the
  // open with kIo instead of reading as "no journal".
  pfs::FaultPolicy pol;
  pol.permanent_ops = {0};
  fs.SetFaultPolicy(pol);
  auto faulted = netcdf::Dataset::Open(fs, "f.nc", /*writable=*/false);
  EXPECT_EQ(fs.stats().permanent_faults, 1u);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), pnc::Err::kIo)
      << faulted.status().message();
  fs.SetFaultPolicy({});

  {
    auto ds = netcdf::Dataset::Open(fs, "f.nc", /*writable=*/true);
    ASSERT_TRUE(ds.ok()) << ds.status().message();
    ASSERT_TRUE(ds.value().Close().ok());
  }
  EXPECT_EQ(pnc_test::ByteAt(fs, jpath, 0), magic0);
  auto after = nctools::VerifyFile(fs, "f.nc", {.data = true});
  ASSERT_TRUE(after.ok()) << after.status().message();
  EXPECT_EQ(after.value().state, ncformat::FileState::kClean)
      << after.value().detail;
  EXPECT_TRUE(after.value().has_journal);
  // The table is committed again; the chunks written before the damage
  // stay unsummed, since nothing vouches for them.
  EXPECT_TRUE(after.value().scrub->trusted);
  EXPECT_EQ(after.value().scrub->corrupt, 0u);
}

// ---------------------------------------------------------------------------
// A missing journal and an empty one are different things: the first is a
// file written without the protocol (ncverify prints "(no commit journal)"),
// the second a dataset whose first commit never happened.
TEST(JournalPresence, MissingAndEmptyJournalsClassifyApart) {
  pfs::FileSystem fs;
  pnc_test::MakeValidFile(fs, "f.nc");
  pnc_test::DropJournal(fs, "f.nc");
  auto missing = nctools::VerifyFile(fs, "f.nc");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing.value().has_journal);
  EXPECT_EQ(missing.value().state, ncformat::FileState::kClean);
  EXPECT_EQ(missing.value().detail, "no journal; header decodes");

  ASSERT_TRUE(fs.Create(ncformat::JournalPath("f.nc"), false).ok());
  auto empty = nctools::VerifyFile(fs, "f.nc");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().has_journal);
  EXPECT_EQ(empty.value().state, ncformat::FileState::kClean);
  EXPECT_EQ(empty.value().detail, "journal empty; header decodes");

  // Created, never committed, no header: corrupt, "crashed before first
  // commit" — not "no journal".
  pfs::FileSystem fresh;
  {
    auto ds = netcdf::Dataset::Create(fresh, "g.nc").value();
    EXPECT_EQ(fresh.Open(ncformat::JournalPath("g.nc")).value().size(), 0u);
  }
  auto never = nctools::VerifyFile(fresh, "g.nc");
  ASSERT_TRUE(never.ok());
  EXPECT_TRUE(never.value().has_journal);
  EXPECT_EQ(never.value().state, ncformat::FileState::kCorrupt);
  EXPECT_EQ(never.value().detail,
            "no committed state (crashed before first commit)");
}

// ---------------------------------------------------------------------------
// Scripted crash point: crash_op pins the dying op by index and
// crash_write_bytes tears its payload at a chosen boundary; afterwards the
// image is frozen (every Try* op fails) until SetFaultPolicy models reboot.
TEST(CrashScripted, TornWriteFreezesImageUntilReboot) {
  pfs::FileSystem fs;
  auto f = fs.Create("t.bin", false).value();
  std::vector<std::byte> payload(64, std::byte{0xAB});
  ASSERT_TRUE(f.TryWrite(0, payload, 0.0).status.ok());

  pfs::FaultPolicy pol;
  pol.crash_op = 0;           // SetPolicy resets op indices: the next op
  pol.crash_write_bytes = 17; // tear mid-payload
  fs.SetFaultPolicy(pol);
  SCOPED_TRACE(pnc_test::DescribePolicy(pol));

  std::vector<std::byte> next(64, std::byte{0xCD});
  const pfs::IoResult w = f.TryWrite(0, next, 0.0);
  EXPECT_FALSE(w.status.ok());
  EXPECT_TRUE(fs.crashed());
  EXPECT_EQ(fs.stats().crashes, 1u);

  // Frozen: reads and writes both refuse until reboot; the harness path
  // still works so the torn image can be inspected.
  std::byte b{};
  EXPECT_FALSE(f.TryRead(0, pnc::ByteSpan(&b, 1), 0.0).status.ok());
  EXPECT_EQ(pnc_test::ByteAt(fs, "t.bin", 16), std::byte{0xCD});  // torn prefix
  EXPECT_EQ(pnc_test::ByteAt(fs, "t.bin", 17), std::byte{0xAB});  // old bytes

  fs.SetFaultPolicy({});  // reboot
  EXPECT_FALSE(fs.crashed());
  EXPECT_TRUE(f.TryRead(0, pnc::ByteSpan(&b, 1), 0.0).status.ok());
}

}  // namespace
