// Access-pattern profiler (iostat/pattern.hpp) and rule-based tuning
// advisor (iostat/advise.hpp).
//
// Five areas:
//   1. PatternHist log2 bucketing arithmetic.
//   2. Access classification — within-call (one extent list) and cross-call
//      (per-rank gap tracking): contig / strided / random.
//   3. The pnc-pattern-v1 JSON contract: exact round trip through the
//      embedded report member, and the gate-off guarantee that a disabled
//      profiler leaves the report JSON without any "pattern" member.
//   4. Heatmap cells: coarsening under pressure keeps the cell count
//      bounded while conserving busy time; the two ASCII renderers over
//      them, the utilization grid and the rate timeline.
//   5. The advisor: a synthetic mistuned report fires the documented rules
//      in score order with evidence and hints; a healthy report is quiet;
//      and a real independent strided workload drives the whole pipeline
//      end to end.
#include "iostat/pattern.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "iostat/advise.hpp"
#include "iostat/iostat.hpp"
#include "iostat/observe.hpp"
#include "iostat/report.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"

namespace {

using iostat::Ctr;
using iostat::PatternHist;
using iostat::PatternRegistry;
using iostat::PatternSummary;
using iostat::Recommendation;

/// A flattened extent list, as the pnetcdf layer hands it to the profiler.
std::vector<pnc::Extent> X(std::initializer_list<pnc::Extent> e) { return e; }

class PatternTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if !PNC_IOSTAT_ENABLED
    GTEST_SKIP() << "instrumentation compiled out (PNC_IOSTAT=OFF)";
#endif
    iostat::Registry::Get().Reset();  // also resets the PatternRegistry
    iostat::SetSink(iostat::kSinkPattern, true);
  }
  void TearDown() override {
    iostat::SetSink(iostat::kSinkPattern, true);
    iostat::Registry::Get().Reset();
  }
};

// ------------------------------------------------------------ 1. histogram

TEST_F(PatternTest, HistBucketsByBitWidth) {
  PatternHist h;
  h.Add(0);                    // bucket 0: zeros
  h.Add(1);                    // bucket 1: [1,1]
  h.Add(2);                    // bucket 2: [2,3]
  h.Add(3);                    // bucket 2
  h.Add(1024);                 // bucket 11: [1024,2047]
  h.Add((1ull << 20));         // bucket 21
  EXPECT_EQ(h.bucket[0], 1u);
  EXPECT_EQ(h.bucket[1], 1u);
  EXPECT_EQ(h.bucket[2], 2u);
  EXPECT_EQ(h.bucket[11], 1u);
  EXPECT_EQ(h.bucket[21], 1u);
  EXPECT_EQ(h.count, 6u);
  EXPECT_EQ(h.sum, 0u + 1 + 2 + 3 + 1024 + (1ull << 20));
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 1ull << 20);
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(h.sum) / 6.0);
  EXPECT_DOUBLE_EQ(PatternHist{}.mean(), 0.0);
}

// ------------------------------------------------------- 2. classification

TEST_F(PatternTest, WithinCallClassification) {
  auto& pr = PatternRegistry::Get();
  // Regular: constant length, constant start-to-start stride -> strided.
  pr.RecordAccess("v", /*is_write=*/true, /*collective=*/true,
                  X({{0, 8}, {32, 8}, {64, 8}, {96, 8}}));
  // Irregular lengths -> random.
  pr.RecordAccess("v", true, true, X({{0, 8}, {32, 16}, {64, 8}}));
  // Irregular strides -> random.
  pr.RecordAccess("v", true, true, X({{0, 8}, {32, 8}, {100, 8}}));
  const PatternSummary s = pr.Snapshot();
  ASSERT_EQ(s.vars.size(), 1u);
  EXPECT_EQ(s.vars[0].var, "v");
  EXPECT_EQ(s.vars[0].calls, 3u);
  EXPECT_EQ(s.vars[0].strided, 1u);
  EXPECT_EQ(s.vars[0].random, 2u);
  EXPECT_EQ(s.vars[0].contig, 0u);
  EXPECT_EQ(s.vars[0].coll, 3u);
  EXPECT_EQ(s.vars[0].bytes_written, 32u + 32 + 24);
  EXPECT_EQ(s.vars[0].extent_bytes.count, 10u);
}

TEST_F(PatternTest, CrossCallGapClassification) {
  auto& pr = PatternRegistry::Get();
  // Sequential single-extent calls: first call and gap-0 continuations are
  // contig; a repeated nonzero gap is strided; a changing gap is random.
  pr.RecordAccess("seq", false, false, X({{0, 64}}));     // first: contig
  pr.RecordAccess("seq", false, false, X({{64, 64}}));    // gap 0: contig
  pr.RecordAccess("seq", false, false, X({{256, 64}}));   // 1st gap: strided
  pr.RecordAccess("seq", false, false, X({{448, 64}}));   // same gap: strided
  pr.RecordAccess("seq", false, false, X({{4096, 64}}));  // new gap: random
  const PatternSummary s = pr.Snapshot();
  ASSERT_EQ(s.vars.size(), 1u);
  EXPECT_EQ(s.vars[0].contig, 2u);
  EXPECT_EQ(s.vars[0].strided, 2u);
  EXPECT_EQ(s.vars[0].random, 1u);
  EXPECT_EQ(s.vars[0].indep, 5u);
  EXPECT_EQ(s.vars[0].reads, 5u);
}

// ----------------------------------------------------------- 3. JSON round

TEST_F(PatternTest, ReportJsonRoundTripsPatternExactly) {
  auto& pr = PatternRegistry::Get();
  pr.RecordAccess("m", true, false, X({{0, 8}, {32, 8}, {64, 8}, {96, 8}}));
  pr.RecordTwophasePre(X({{0, 4096}, {8192, 4096}}));
  pr.RecordAggWindow(65536);
  pr.RecordSieveWindow(true, 1024, 8192, 0, true);
  pr.RecordSieveWindow(false, 512, 512, 0, false);
  pr.RecordPfsGrant(0, 0, 4096, 0.0, 800000.0, 2, 100.0);
  pr.RecordPfsGrant(1, 262144, 4096, 800000.0, 1600000.0, 1, 0.0);

  const iostat::Report rep = iostat::BuildReport();
  ASSERT_TRUE(rep.pattern.present);
  const std::string json = iostat::ToJson(rep);
  EXPECT_NE(json.find("\"pattern\""), std::string::npos);
  EXPECT_NE(json.find("pnc-pattern-v1"), std::string::npos);

  auto back = iostat::ParseReportJson(json);
  ASSERT_TRUE(back.ok());
  const PatternSummary& a = rep.pattern;
  const PatternSummary& b = back.value().pattern;
  EXPECT_TRUE(b.present);
  ASSERT_EQ(b.vars.size(), a.vars.size());
  EXPECT_EQ(b.vars[0].var, a.vars[0].var);
  EXPECT_EQ(b.vars[0].strided, a.vars[0].strided);
  EXPECT_TRUE(b.vars[0].extent_bytes == a.vars[0].extent_bytes);
  EXPECT_TRUE(b.vars[0].stride_bytes == a.vars[0].stride_bytes);
  ASSERT_EQ(b.servers.size(), a.servers.size());
  EXPECT_EQ(b.servers[1].bytes, a.servers[1].bytes);
  EXPECT_DOUBLE_EQ(b.servers[1].busy_ns, a.servers[1].busy_ns);
  EXPECT_TRUE(b.servers[0].offsets == a.servers[0].offsets);
  EXPECT_DOUBLE_EQ(b.cell_ns, a.cell_ns);
  ASSERT_EQ(b.cells.size(), a.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(b.cells[i].server, a.cells[i].server);
    EXPECT_EQ(b.cells[i].t_bucket, a.cells[i].t_bucket);
    EXPECT_DOUBLE_EQ(b.cells[i].busy_ns, a.cells[i].busy_ns);
    EXPECT_EQ(b.cells[i].depth_max, a.cells[i].depth_max);
  }
  EXPECT_TRUE(b.twophase_pre == a.twophase_pre);
  EXPECT_TRUE(b.twophase_post == a.twophase_post);
  EXPECT_EQ(b.sieve_wr_file, a.sieve_wr_file);
  EXPECT_EQ(b.sieve_rd_rereads, a.sieve_rd_rereads);
  EXPECT_EQ(b.agg_bytes, a.agg_bytes);
}

TEST_F(PatternTest, GateOffRecordsNothingAndOmitsJsonMember) {
  iostat::SetSink(iostat::kSinkPattern, false);
  // The macro surface is a no-op when the gate is off...
  const std::vector<pnc::Extent> ext = X({{0, 8}, {64, 8}});
  PNC_OBSERVE(kNcData, .len = 16, .is_write = true, .flag = true,
              .detail = "gated", .extents = ext);
  PNC_OBSERVE(kAggWindow, .len = 1234);
  PNC_OBSERVE(kSieve, .len = 10, .n = 20, .is_write = true, .flag = true);
  PNC_OBSERVE(kPfsGrant, .end_ns = 1.0, .len = 64, .depth = 1);
  const iostat::Report rep = iostat::BuildReport();
  EXPECT_FALSE(rep.pattern.present);
  // ...and an absent pattern keeps the report JSON free of the member, the
  // byte-identical-output contract for PNC_IOSTAT_PATTERN=0.
  EXPECT_EQ(iostat::ToJson(rep).find("\"pattern\""), std::string::npos);
}

// -------------------------------------------------------------- 4. heatmap

TEST_F(PatternTest, HeatmapCoarsensUnderPressureConservingBusyTime) {
  auto& pr = PatternRegistry::Get();
  constexpr double kBase = 1 << 20;  // PatternRegistry::kBaseCellNs
  constexpr int kGrants = 5000;      // > kMaxCells distinct base cells
  for (int i = 0; i < kGrants; ++i)
    pr.RecordPfsGrant(0, 0, 64, i * kBase, i * kBase + kBase / 2, 1, 0.0);
  const PatternSummary s = pr.Snapshot();
  EXPECT_LE(s.cells.size(), 2048u);  // PatternRegistry::kMaxCells
  EXPECT_GT(s.cell_ns, kBase);       // width doubled at least once
  double busy = 0.0;
  std::uint64_t grants = 0;
  for (const auto& c : s.cells) {
    busy += c.busy_ns;
    grants += c.grants;
  }
  EXPECT_NEAR(busy, kGrants * kBase / 2, 1.0);  // conserved under re-binning
  EXPECT_EQ(grants, static_cast<std::uint64_t>(kGrants));

  const std::string grid = iostat::RenderHeatmap(s);
  EXPECT_NE(grid.find("heatmap"), std::string::npos);
  EXPECT_NE(grid.find("s00"), std::string::npos);
  EXPECT_NE(grid.find("hottest: server 0"), std::string::npos);
}

TEST_F(PatternTest, HeatmapEmptySaysSo) {
  const std::string grid = iostat::RenderHeatmap(PatternSummary{});
  EXPECT_NE(grid.find("no pattern data recorded"), std::string::npos);
}

// The rate timeline reads the same cells back out of a report: two servers,
// several cells apart, one grant spanning three cells, rendered after a JSON
// round trip as one MB/s row and one queue-depth row per server.
TEST_F(PatternTest, TimelineRendersEachServersRateAndDepthFromTheCells) {
  auto& pr = PatternRegistry::Get();
  const double ms = 1e6;
  pr.RecordPfsGrant(0, 0, 4096, 0.5 * ms, 0.9 * ms, 1, 0.0);
  pr.RecordPfsGrant(1, 0, 65536, 0.2 * ms, 2.5 * ms, 3, 0.0);
  pr.RecordPfsGrant(0, 8192, 1024, 5.1 * ms, 5.4 * ms, 2, 0.0);
  auto back = iostat::ParseReportJson(iostat::ToJson(iostat::BuildReport()));
  ASSERT_TRUE(back.ok()) << back.status().message();

  const std::string tl = iostat::RenderTimeline(back.value().pattern);
  EXPECT_NE(tl.find("virtual-time timeline"), std::string::npos);
  EXPECT_NE(tl.find("s00 MB/s"), std::string::npos);
  EXPECT_NE(tl.find("s00 queue depth"), std::string::npos);
  EXPECT_NE(tl.find("s01 MB/s"), std::string::npos);
  EXPECT_NE(tl.find("s01 queue depth"), std::string::npos);
  EXPECT_NE(tl.find("| peak=3\n"), std::string::npos);  // s01's depth

  EXPECT_NE(iostat::RenderTimeline(PatternSummary{}).find("no pfs grants"),
            std::string::npos);
}

// Columns group the bucket span rather than give each bucket one: two cells
// 2^40 buckets apart still render in at most max_cols columns.
TEST_F(PatternTest, TimelineOverASparseSpanKeepsToMaxCols) {
  PatternSummary s;
  s.present = true;
  s.cell_ns = 1 << 20;
  s.servers.resize(1);
  s.cells.push_back({.server = 0, .t_bucket = 0, .bytes = 10, .grants = 1});
  s.cells.push_back(
      {.server = 0, .t_bucket = std::uint64_t{1} << 40, .bytes = 20,
       .grants = 1});
  for (const int max_cols : {8, 64}) {
    const std::string tl = iostat::RenderTimeline(s, max_cols);
    const std::size_t row = tl.find("s00 MB/s");
    ASSERT_NE(row, std::string::npos) << tl;
    const std::size_t open = tl.find('|', row);
    const std::size_t close = tl.find('|', open + 1);
    ASSERT_NE(close, std::string::npos);
    EXPECT_LE(close - open - 1, static_cast<std::size_t>(max_cols));
    EXPECT_EQ(tl[open + 1], '+');  // 10 of a 20-byte peak
    EXPECT_EQ(tl[close - 1], '@');
  }
}

// -------------------------------------------------------------- 5. advisor

iostat::Report MistunedReport() {
  iostat::Report rep;
  rep.nranks = 4;
  auto set = [&rep](Ctr c, std::uint64_t sum, std::uint64_t mx) {
    auto& a = rep.counters[static_cast<std::size_t>(c)];
    a.sum = sum;
    a.max = mx;
  };
  set(Ctr::kPfsServers, 12, 12);
  set(Ctr::kPfsReadOps, 300, 80);
  set(Ctr::kPfsWriteOps, 300, 80);
  set(Ctr::kPfsBytesRead, 300 * 4096, 0);
  set(Ctr::kPfsBytesWritten, 300 * 4096, 0);
  set(Ctr::kPfsQueueWaitNs, 7000000, 0);
  set(Ctr::kPfsBusyNs, 3000000, 0);
  rep.pfs_queue_wait_frac = 0.7;

  rep.pattern.present = true;
  iostat::VarPattern v;
  v.var = "m";
  v.calls = v.writes = v.indep = v.strided = 8;
  for (int i = 0; i < 8; ++i) v.extent_bytes.Add(8);
  rep.pattern.vars.push_back(v);
  rep.pattern.sieve_wr_windows = 10;
  rep.pattern.sieve_wr_wanted = 1000;
  rep.pattern.sieve_wr_file = 8000;
  iostat::ServerPattern hot, cold;
  hot.bytes = 90;
  cold.bytes = 10;
  rep.pattern.servers = {hot, cold};
  return rep;
}

TEST_F(PatternTest, AdvisorFiresRankedRulesWithEvidenceAndHints) {
  const std::vector<Recommendation> recs = iostat::Advise(MistunedReport());
  ASSERT_EQ(recs.size(), 5u);
  EXPECT_EQ(recs[0].rule, "use-collective");
  EXPECT_EQ(recs[1].rule, "raise-wr-sieve-buffer");
  EXPECT_EQ(recs[2].rule, "restripe-hot-server");
  EXPECT_EQ(recs[3].rule, "queue-contention");
  EXPECT_EQ(recs[4].rule, "small-pfs-requests");
  for (std::size_t i = 1; i < recs.size(); ++i)
    EXPECT_GE(recs[i - 1].score, recs[i].score);
  for (const Recommendation& r : recs) {
    EXPECT_FALSE(r.action.empty());
    EXPECT_FALSE(r.evidence.empty());
  }
  EXPECT_EQ(recs[0].hint_key, "romio_cb_write");
  EXPECT_EQ(recs[1].hint_key, "ind_wr_buffer_size");
  EXPECT_TRUE(recs[2].hint_key.empty());  // restriping has no info hint

  const std::string pretty = iostat::PrettyPrintAdvice(recs);
  EXPECT_NE(pretty.find("advice (5 recommendations):"), std::string::npos);
  EXPECT_NE(pretty.find("#1 [use-collective"), std::string::npos);
  EXPECT_NE(pretty.find("evidence:"), std::string::npos);
  EXPECT_NE(pretty.find("hint: ind_wr_buffer_size=4194304"),
            std::string::npos);
}

TEST_F(PatternTest, AdvisorQuietOnHealthyReport) {
  const std::vector<Recommendation> recs = iostat::Advise(iostat::Report{});
  EXPECT_TRUE(recs.empty());
  EXPECT_NE(iostat::PrettyPrintAdvice(recs).find("well tuned"),
            std::string::npos);
}

TEST_F(PatternTest, EndToEndIndepStridedWorkloadGetsUseCollectiveAdvice) {
  pfs::FileSystem fs;
  simmpi::Run(2, [&](simmpi::Comm& c) {
    auto ds =
        pnetcdf::Dataset::Create(c, fs, "adv.nc", simmpi::NullInfo()).value();
    const int rd = ds.DefDim("row", 1024).value();
    const int cd = ds.DefDim("col", 2).value();
    const int v =
        ds.DefVar("m", ncformat::NcType::kDouble, {rd, cd}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    std::vector<double> mine(1024, 1.0);
    const std::uint64_t start[] = {0, static_cast<std::uint64_t>(c.rank())};
    const std::uint64_t count[] = {1024, 1};
    ASSERT_TRUE(ds.BeginIndepData().ok());
    ASSERT_TRUE(ds.PutVara<double>(v, start, count, mine).ok());
    ASSERT_TRUE(ds.EndIndepData().ok());
    ASSERT_TRUE(ds.Close().ok());
  });
  const iostat::Report rep = iostat::BuildReport();
  ASSERT_TRUE(rep.pattern.present);
  const std::vector<Recommendation> recs = iostat::Advise(rep);
  bool use_coll = false;
  for (const Recommendation& r : recs)
    if (r.rule == "use-collective") use_coll = true;
  EXPECT_TRUE(use_coll) << iostat::PrettyPrintAdvice(recs);
}

}  // namespace
