// Time-resolved telemetry (iostat/timeline.hpp).
//
// Three areas, mirroring DESIGN.md and the observability contract:
//   1. Serialization: a populated timeline embedded in the iostat report
//      round-trips through ToJson -> ParseReportJson bit-exactly enough to
//      compare every cell and header field.
//   2. The gate: with PNC_IOSTAT_TIMELINE off (the default) a run's iostat
//      report is byte-identical to the same run with the timeline on minus
//      the "timeline" section, and virtual completion times match exactly —
//      recording never advances clocks or perturbs counters.
//   3. Coarsening: samples spread over a horizon far beyond the bucket cap
//      widen cells instead of growing cell count, preserving byte totals.
#include "iostat/timeline.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "iostat/iostat.hpp"
#include "iostat/report.hpp"
#include "pfs/pfs.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"

namespace {

using iostat::TimelineRegistry;
using iostat::TimelineSummary;
using iostat::TlTrack;

class TimelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if !PNC_IOSTAT_ENABLED
    GTEST_SKIP() << "instrumentation compiled out (PNC_IOSTAT=OFF)";
#endif
    iostat::Registry::Get().Reset();  // also resets the timeline registry
    iostat::SetSink(iostat::kSinkCounters, true);
    iostat::SetSink(iostat::kSinkTimeline, true);
  }
  void TearDown() override {
    iostat::SetSink(iostat::kSinkTimeline, false);
    iostat::Registry::Get().Reset();
  }
};

// ------------------------------------------------ serialization

TEST_F(TimelineTest, ReportJsonRoundTripPreservesEveryCell) {
  TimelineRegistry& reg = TimelineRegistry::Get();

  // Two servers, several cells apart; one grant spans three cells.
  const double ms = 1e6;
  reg.RecordPfsGrant(0, 4096, 0.5 * ms, 0.9 * ms, 1);
  reg.RecordPfsGrant(1, 65536, 0.2 * ms, 2.5 * ms, 3);
  reg.RecordPfsGrant(0, 1024, 5.1 * ms, 5.4 * ms, 2);
  reg.RecordMark(TlTrack::kRetries, 1.1 * ms, 1.0);
  reg.RecordMark(TlTrack::kStragglerWaitNs, 3.3 * ms, 4.5e5);

  iostat::Report rep = iostat::BuildReport();
  ASSERT_TRUE(rep.timeline.present);
  const std::string json = iostat::ToJson(rep);
  ASSERT_NE(json.find("\"timeline\""), std::string::npos);
  ASSERT_NE(json.find("pnc-timeline-v1"), std::string::npos);

  auto back = iostat::ParseReportJson(json);
  ASSERT_TRUE(back.ok()) << back.status().message();
  const TimelineSummary& a = rep.timeline;
  const TimelineSummary& b = back.value().timeline;

  EXPECT_TRUE(b.present);
  EXPECT_DOUBLE_EQ(a.cell_ns, b.cell_ns);
  EXPECT_DOUBLE_EQ(a.horizon_ns, b.horizon_ns);

  ASSERT_EQ(a.servers.size(), b.servers.size());
  for (std::size_t i = 0; i < a.servers.size(); ++i) {
    EXPECT_EQ(a.servers[i].bucket, b.servers[i].bucket);
    EXPECT_EQ(a.servers[i].server, b.servers[i].server);
    EXPECT_DOUBLE_EQ(a.servers[i].bytes, b.servers[i].bytes);
    EXPECT_DOUBLE_EQ(a.servers[i].busy_ns, b.servers[i].busy_ns);
    EXPECT_EQ(a.servers[i].grants, b.servers[i].grants);
    EXPECT_EQ(a.servers[i].depth_max, b.servers[i].depth_max);
  }
  ASSERT_EQ(a.tracks.size(), b.tracks.size());
  for (std::size_t i = 0; i < a.tracks.size(); ++i) {
    EXPECT_EQ(a.tracks[i].track, b.tracks[i].track);
    EXPECT_EQ(a.tracks[i].bucket, b.tracks[i].bucket);
    EXPECT_DOUBLE_EQ(a.tracks[i].value, b.tracks[i].value);
  }

  // The section carries servers and tracks only.
  EXPECT_EQ(json.find("\"tenants\""), std::string::npos);
  EXPECT_EQ(json.find("\"health\""), std::string::npos);

  // Rendering is smoke-checked here (exact text is a tool concern): the
  // sparklines must mention both servers and the non-empty tracks.
  const std::string tl = iostat::RenderTimeline(a);
  EXPECT_NE(tl.find("s00 MB/s"), std::string::npos);
  EXPECT_NE(tl.find("s01 queue depth"), std::string::npos);
  EXPECT_NE(tl.find("retries"), std::string::npos);
  EXPECT_NE(tl.find("straggler_wait_ns"), std::string::npos);
}

// ------------------------------------------------ the gate

/// A deterministic single-rank pnetcdf workload: one rank, one server, a
/// record variable written twice plus an attribute rewrite forcing a
/// header move. Single-rank runs have no cross-thread scheduling at the
/// pfs mutex, so every virtual time — and therefore every iostat counter —
/// is exactly reproducible.
double RunDeterministicWorkload(std::string* report_json) {
  pfs::FileSystem fs;
  double end_ns = 0.0;
  simmpi::Run(1, [&](simmpi::Comm& c) {
    auto r = pnetcdf::Dataset::Create(c, fs, "gate.nc", simmpi::Info());
    ASSERT_TRUE(r.ok());
    auto ds = std::move(r).value();
    const auto t = ds.DefDim("time", pnetcdf::kUnlimited);
    const auto x = ds.DefDim("x", 16);
    const auto v =
        ds.DefVar("v", ncformat::NcType::kInt, {t.value(), x.value()});
    ASSERT_TRUE(ds.EndDef().ok());
    std::vector<std::int32_t> data(16);
    for (int i = 0; i < 16; ++i) data[static_cast<std::size_t>(i)] = i;
    const std::uint64_t start[] = {0, 0};
    const std::uint64_t count[] = {1, 16};
    ASSERT_TRUE(ds.PutVaraAll<std::int32_t>(v.value(), start, count, data).ok());
    const std::uint64_t start2[] = {1, 0};
    ASSERT_TRUE(
        ds.PutVaraAll<std::int32_t>(v.value(), start2, count, data).ok());
    ASSERT_TRUE(ds.Close().ok());
    end_ns = c.clock().now();
  });
  *report_json = iostat::ToJson(iostat::BuildReport());
  return end_ns;
}

TEST_F(TimelineTest, GateOffReportIsByteIdenticalModuloTimelineSection) {
  // Off first: the report must not even contain the key.
  iostat::SetSink(iostat::kSinkTimeline, false);
  std::string off_json;
  const double off_end = RunDeterministicWorkload(&off_json);
  ASSERT_FALSE(off_json.empty());
  EXPECT_EQ(off_json.find("\"timeline\""), std::string::npos);

  // Same workload with the timeline on.
  iostat::Registry::Get().Reset();
  iostat::SetSink(iostat::kSinkCounters, true);
  iostat::SetSink(iostat::kSinkTimeline, true);
  std::string on_json;
  const double on_end = RunDeterministicWorkload(&on_json);

  // Recording must not advance virtual time: completion matches exactly.
  EXPECT_EQ(off_end, on_end);

  // Excising the ,"timeline":{...} object from the on-report must yield the
  // off-report byte for byte — the timeline adds a section, it never
  // perturbs what was already there.
  const std::size_t key = on_json.find(",\"timeline\":{");
  ASSERT_NE(key, std::string::npos);
  std::size_t i = on_json.find('{', key);
  int depth = 0;
  for (; i < on_json.size(); ++i) {
    if (on_json[i] == '{') ++depth;
    if (on_json[i] == '}' && --depth == 0) break;
  }
  ASSERT_LT(i, on_json.size());
  const std::string excised =
      on_json.substr(0, key) + on_json.substr(i + 1);
  EXPECT_EQ(excised, off_json);
}

// ------------------------------------------------ coarsening

TEST_F(TimelineTest, CoarseningWidensCellsAndPreservesTotalsOverLongHorizon) {
  TimelineRegistry& reg = TimelineRegistry::Get();

  // 8192 grants of 1 KiB spread one per base cell: twice the kMaxCells cap,
  // so the registry must coarsen (it can never hold 8192 server cells).
  const double cell = static_cast<double>(TimelineRegistry::kBaseCellNs);
  const int n = 2 * static_cast<int>(TimelineRegistry::kMaxCells);
  for (int i = 0; i < n; ++i) {
    const double t = (static_cast<double>(i) + 0.25) * cell;
    reg.RecordPfsGrant(0, 1024, t, t + 1000.0, 1);
  }
  TimelineSummary s = reg.Snapshot();
  ASSERT_TRUE(s.present);
  EXPECT_GT(s.cell_ns, cell);  // cells widened...
  EXPECT_LE(s.servers.size(), TimelineRegistry::kMaxCells);  // ...not more

  double total_bytes = 0.0;
  std::uint64_t total_grants = 0;
  for (const auto& c : s.servers) {
    total_bytes += c.bytes;
    total_grants += c.grants;
  }
  EXPECT_DOUBLE_EQ(total_bytes, static_cast<double>(n) * 1024.0);
  EXPECT_EQ(total_grants, static_cast<std::uint64_t>(n));

  // A very sparse, very long horizon coarsens by bucket range too: one
  // early and one extremely late sample must not leave cell_ns at base
  // (the bucket index cap bounds the renderers' column sweep).
  reg.Reset();
  reg.RecordPfsGrant(0, 1, 0.0, 10.0, 1);
  const double far =
      cell * static_cast<double>(TimelineRegistry::kMaxBuckets) * 4.0;
  reg.RecordPfsGrant(0, 1, far, far + 10.0, 1);
  s = reg.Snapshot();
  EXPECT_GE(s.cell_ns * static_cast<double>(TimelineRegistry::kMaxBuckets),
            s.horizon_ns);
}

}  // namespace
