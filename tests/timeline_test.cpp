// Time-resolved telemetry (iostat/timeline.hpp + iostat/health.hpp).
//
// Five areas, mirroring DESIGN.md and the observability contract:
//   1. Histogram p99 upper bounds: the power-of-two bucket bound the
//      timeline reports for a tenant's wait distribution, hand-computed.
//   2. Serialization: a populated timeline embedded in the iostat report
//      round-trips through ToJson -> ParseReportJson bit-exactly enough to
//      compare every cell, rule verdict, and header field.
//   3. The gate: with PNC_IOSTAT_TIMELINE off (the default) a run's iostat
//      report is byte-identical to the same run with the timeline on minus
//      the "timeline" section, and virtual completion times match exactly —
//      recording never advances clocks or perturbs counters.
//   4. Online SLO health: the qos_test tenant storm replayed with a p99
//      wait rule on the light tenant emits an slo_violation flight event
//      mid-run under FCFS and none under WFQ, and the sealed verdict in the
//      snapshot agrees with the online emission.
//   5. Coarsening: samples spread over a horizon far beyond the bucket cap
//      widen cells instead of growing cell count, preserving byte totals.
#include "iostat/timeline.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "iostat/events.hpp"
#include "iostat/health.hpp"
#include "iostat/iostat.hpp"
#include "iostat/report.hpp"
#include "pfs/pfs.hpp"
#include "pfs/sched.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"

namespace {

using iostat::FlightRecorder;
using iostat::SloRule;
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
    TimelineRegistry::Get().SetSloRules({});
  }
  void TearDown() override {
    iostat::SetSink(iostat::kSinkTimeline, false);
    TimelineRegistry::Get().SetSloRules(iostat::SloRulesFromEnv());
    iostat::SetSink(iostat::kSinkRing, false);
    iostat::Registry::Get().Reset();
  }
};

// ------------------------------------------------ p99 upper bound

TEST_F(TimelineTest, HistP99UpperBoundIsPowerOfTwoBucketEdgeClampedToMax) {
  iostat::PatternHist h{};
  // Empty histogram: no samples, bound is 0.
  EXPECT_EQ(iostat::HistP99UpperBound(h), 0u);

  // 100 samples of 5 ns land in bucket [4,7]; p99 bound is the bucket's
  // upper edge clamped to the observed max.
  for (int i = 0; i < 100; ++i) h.Add(5);
  EXPECT_EQ(iostat::HistP99UpperBound(h), 5u);

  // A single outlier among 101 samples is within the top 1% (100/101 =
  // 99.01% of the mass is already below it), so the bound stays at the
  // cheap bucket's edge.
  h.Add(1000);
  EXPECT_EQ(iostat::HistP99UpperBound(h), 7u);

  // A second outlier pushes the cheap mass below 99% (100/102): the bound
  // must now cover the outlier bucket [512,1023], clamped to the observed
  // max of 1000.
  h.Add(1000);
  EXPECT_EQ(iostat::HistP99UpperBound(h), 1000u);

  // Many outliers land the p99 in their bucket even before clamping.
  for (int i = 0; i < 50; ++i) h.Add(900);
  const std::uint64_t ub = iostat::HistP99UpperBound(h);
  EXPECT_GE(ub, 900u);
  EXPECT_LE(ub, 1023u);
}

// ------------------------------------------------ serialization

TEST_F(TimelineTest, ReportJsonRoundTripPreservesEveryCellAndVerdict) {
  TimelineRegistry& reg = TimelineRegistry::Get();
  reg.SetSloRules({SloRule{SloRule::Kind::kMissRate, "miss", "light",
                           0.0, 1}});

  // Two servers, two tenants, several cells apart; one deadline miss.
  const double ms = 1e6;
  reg.RecordPfsGrant(0, "light", 4096, 0.5 * ms, 0.9 * ms, 1, 1000.0, false);
  reg.RecordPfsGrant(1, "heavy", 65536, 0.2 * ms, 2.5 * ms, 3, 2e6, true);
  reg.RecordPfsGrant(0, "heavy", 1024, 5.1 * ms, 5.4 * ms, 2, 0.0, false);
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
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].bucket, b.tenants[i].bucket);
    EXPECT_EQ(a.tenants[i].tenant, b.tenants[i].tenant);
    EXPECT_DOUBLE_EQ(a.tenants[i].bytes, b.tenants[i].bytes);
    EXPECT_DOUBLE_EQ(a.tenants[i].wait_ns, b.tenants[i].wait_ns);
    EXPECT_EQ(a.tenants[i].grants, b.tenants[i].grants);
    EXPECT_EQ(a.tenants[i].misses, b.tenants[i].misses);
    EXPECT_EQ(a.tenants[i].p99_wait_ns, b.tenants[i].p99_wait_ns);
  }
  ASSERT_EQ(a.tracks.size(), b.tracks.size());
  for (std::size_t i = 0; i < a.tracks.size(); ++i) {
    EXPECT_EQ(a.tracks[i].track, b.tracks[i].track);
    EXPECT_EQ(a.tracks[i].bucket, b.tracks[i].bucket);
    EXPECT_DOUBLE_EQ(a.tracks[i].value, b.tracks[i].value);
  }

  // Health verdicts ride inside the timeline section: the "heavy" miss does
  // not trip a rule scoped to "light", and the scoped rule's identity and
  // counts survive the round trip.
  ASSERT_EQ(a.health.rules.size(), 1u);
  ASSERT_EQ(b.health.rules.size(), 1u);
  EXPECT_EQ(b.health.rules[0].rule.id, "miss");
  EXPECT_EQ(b.health.rules[0].rule.tenant, "light");
  EXPECT_EQ(a.health.total_violations, b.health.total_violations);
  EXPECT_EQ(a.health.rules[0].violations, b.health.rules[0].violations);
  EXPECT_EQ(b.health.total_violations, 0u);

  // Rendering is smoke-checked here (exact text is a tool concern): both
  // the timeline sparklines and the health table must mention our data.
  const std::string tl = iostat::RenderTimeline(a);
  EXPECT_NE(tl.find("s0"), std::string::npos);
  EXPECT_NE(tl.find("heavy"), std::string::npos);
  const std::string hp = iostat::RenderHealth(a.health);
  EXPECT_NE(hp.find("miss"), std::string::npos);
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

// ------------------------------------------------ online SLO health

struct StormTelemetry {
  std::vector<iostat::Event> violations;
  iostat::HealthStatus health;
  double light_p99_wait_ns = 0.0;
};

/// The qos_test tenant storm, watched: 20 x 64 KiB writes from a heavy
/// tenant at weight 1/16 swamp one 4 KiB read from a light tenant holding a
/// 20 ms deadline, all submitted at t=0 under `policy`. A p99-wait SLO rule
/// (50 ms) guards the light tenant while the storm runs: FCFS starves the
/// read for ~226 ms, WFQ paces it down to ~11 ms, so the rule cleanly
/// separates the disciplines.
StormTelemetry RunWatchedStorm(const pfs::QosPolicy& policy) {
  iostat::Registry::Get().Reset();
  iostat::SetSink(iostat::kSinkCounters | iostat::kSinkTimeline, true);
  TimelineRegistry& reg = TimelineRegistry::Get();
  reg.SetSloRules(
      {SloRule{SloRule::Kind::kP99WaitNs, "light-wait", "light", 5e7, 1}});
  iostat::SetSink(iostat::kSinkRing, true);

  pfs::FileSystem fs;
  const int heavy = fs.RegisterTenant({"heavy", 1.0 / 16.0, 0.0, 0});
  const int light = fs.RegisterTenant({"light", 1.0, 20e6, 0});
  fs.SetQosPolicy(policy);

  auto fh = fs.Create("storm.dat", false).value();
  fh.SetTenant(heavy);
  auto fl = fs.Create("steady.dat", false).value();
  fl.SetTenant(light);

  std::vector<std::byte> buf(64 << 10, std::byte{2});
  for (int i = 0; i < 20; ++i)
    fh.HarnessWrite(0, pnc::ConstByteSpan(buf.data(), buf.size()), 0.0);
  fl.HarnessRead(0, pnc::ByteSpan(buf.data(), 4096), 0.0);

  StormTelemetry out;
  const auto snap = fs.TenantUsageSnapshot();
  out.light_p99_wait_ns = pfs::WaitPercentile(
      snap[static_cast<std::size_t>(light)].ctr.wait_samples, 99.0);
  // Snapshot seals the tail buckets (emitting any still-pending online
  // violations) and re-evaluates the whole horizon for the verdict.
  out.health = reg.Snapshot().health;
  for (const auto& rank_events : FlightRecorder::Get().Collect())
    for (const iostat::Event& e : rank_events)
      if (e.kind == iostat::Ev::kSloViolation) out.violations.push_back(e);
  return out;
}

TEST_F(TimelineTest, StormTripsP99WaitSloUnderFcfsAndNotUnderWfq) {
  const StormTelemetry fcfs = RunWatchedStorm(pfs::QosPolicy{});

  // Starved behind the storm: wait blows through the 50 ms rule, the run
  // emits slo_violation flight events while still in flight, and the
  // sealed verdict agrees.
  EXPECT_GT(fcfs.light_p99_wait_ns, 1e8);
  ASSERT_FALSE(fcfs.violations.empty());
  for (const iostat::Event& e : fcfs.violations) {
    EXPECT_STREQ(e.detail, "light-wait");  // rule id rides in the detail
    EXPECT_GE(e.t_ns, 0.0);
    EXPECT_GT(e.d_ns, 0.0);  // episode spans at least one bucket
  }
  EXPECT_TRUE(fcfs.health.evaluated);
  EXPECT_GT(fcfs.health.total_violations, 0u);
  ASSERT_EQ(fcfs.health.rules.size(), 1u);
  EXPECT_GE(fcfs.health.rules[0].first_violation_ns, 0.0);
  EXPECT_GT(fcfs.health.rules[0].worst, 5e7);

  // WFQ pacing collapses the light tenant's wait below the rule: no events,
  // clean verdict.
  pfs::QosPolicy wfq;
  wfq.discipline = pfs::QosDiscipline::kWfq;
  const StormTelemetry paced = RunWatchedStorm(wfq);
  EXPECT_LT(paced.light_p99_wait_ns * 5, fcfs.light_p99_wait_ns);
  EXPECT_TRUE(paced.violations.empty());
  EXPECT_TRUE(paced.health.evaluated);
  EXPECT_EQ(paced.health.total_violations, 0u);
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
    reg.RecordPfsGrant(0, "t", 1024, t, t + 1000.0, 1, 0.0, false);
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
  // (the bucket index cap bounds the health sweep).
  reg.Reset();
  reg.RecordPfsGrant(0, "t", 1, 0.0, 10.0, 1, 0.0, false);
  const double far =
      cell * static_cast<double>(TimelineRegistry::kMaxBuckets) * 4.0;
  reg.RecordPfsGrant(0, "t", 1, far, far + 10.0, 1, 0.0, false);
  s = reg.Snapshot();
  EXPECT_GE(s.cell_ns * static_cast<double>(TimelineRegistry::kMaxBuckets),
            s.horizon_ns);
}

}  // namespace
