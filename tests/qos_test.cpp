// Multi-tenant QoS scheduling (pfs/sched.hpp + FileSystem integration).
//
// Four areas, mirroring DESIGN.md §9:
//   1. Discipline equivalence, scripted at the ServerSched level: WFQ with
//      equal weights and EDF with a single tenant produce grant times
//      bit-identical to FCFS (EXPECT_EQ on doubles — no tolerance), and the
//      same seeded multi-tenant contention script always yields the same
//      grants (deterministic ordering).
//   2. Pacing and backfill arithmetic, hand-computed: Virtual Clock release
//      times, the pacing gap a delayed grant opens, and first-fit placement
//      of other tenants' work into that gap.
//   3. FileSystem integration: tenant interning, environment identity,
//      admission-control backpressure surfacing as queue wait (never an
//      error), per-tenant counters, and isolation — a light tenant's queue
//      wait under a co-located write storm drops by >= 5x when WFQ or EDF
//      is armed, while plain FCFS starves it and misses its deadline.
//   4. Observability: flight-recorder pfs events carry "w:<tenant>" details
//      for named tenants (and the exact legacy "w" for the default tenant),
//      and critical-path analysis reports per-(server, tenant) rows.
#include "pfs/sched.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "iostat/critpath.hpp"
#include "iostat/events.hpp"
#include "iostat/iostat.hpp"
#include "mpiio/file.hpp"
#include "pfs/pfs.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"

namespace {

using pfs::QosDiscipline;
using pfs::QosPolicy;
using pfs::ServerSched;
using pfs::TenantClass;
using pfs::TenantUsage;
using simmpi::Comm;

// ------------------------------------------------ scripted ServerSched

struct ScriptEvent {
  int tenant = 0;
  double arrival_ns = 0;
  double payload_ns = 0;
};

constexpr double kReqNs = 100.0;

/// Run `script` through a fresh ServerSched under `ctx`; `classes[tenant]`
/// supplies each event's QoS class. Pacing is applied the way the FileSystem
/// does it: one TenantPacer per tenant releases each request before Admit
/// places it (each scripted event is a single-server request, so the total
/// service charged to the pacer is just request + payload).
std::vector<ServerSched::Grant> RunScript(
    const std::vector<ScriptEvent>& script,
    const std::vector<TenantClass>& classes,
    const ServerSched::PolicyContext& ctx) {
  ServerSched sched;
  std::vector<pfs::TenantPacer> pacers(classes.size());
  std::vector<ServerSched::Grant> grants;
  grants.reserve(script.size());
  for (const ScriptEvent& e : script) {
    const TenantClass& cls = classes[static_cast<std::size_t>(e.tenant)];
    double eligible = e.arrival_ns;
    if (ctx.discipline != QosDiscipline::kFcfs)
      eligible = pacers[static_cast<std::size_t>(e.tenant)].Release(
          e.arrival_ns, kReqNs + e.payload_ns, pfs::QosShare(cls, ctx));
    ServerSched::Grant g =
        sched.Admit(ctx, e.arrival_ns, eligible, kReqNs, e.payload_ns);
    g.paced = eligible > e.arrival_ns;
    grants.push_back(g);
  }
  return grants;
}

/// Seeded contention script: `ntenants` tenants issuing bursts with varied
/// sizes at varied (sometimes identical) arrival times. Pure LCG — the same
/// seed always produces the same script.
std::vector<ScriptEvent> SeededScript(std::uint64_t seed, int ntenants,
                                      std::size_t n) {
  std::uint64_t x = seed;
  const auto next = [&x]() {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 33;
  };
  std::vector<ScriptEvent> script;
  script.reserve(n);
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ScriptEvent e;
    e.tenant = static_cast<int>(next() % static_cast<std::uint64_t>(ntenants));
    if (next() % 3 == 0) t += static_cast<double>(next() % 5000);
    e.arrival_ns = t;
    e.payload_ns = static_cast<double>(200 + next() % 2000);
    script.push_back(e);
  }
  return script;
}

void ExpectGrantsBitIdentical(const std::vector<ServerSched::Grant>& a,
                              const std::vector<ServerSched::Grant>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("grant " + std::to_string(i));
    EXPECT_EQ(a[i].begin_ns, b[i].begin_ns);  // exact, no tolerance
    EXPECT_EQ(a[i].done_ns, b[i].done_ns);
  }
}

TEST(SchedEquivalence, WfqEqualWeightsBitIdenticalToFcfs) {
  const std::vector<TenantClass> classes = {
      {"", 1.0, 0.0, 0}, {"a", 1.0, 0.0, 0}, {"b", 1.0, 0.0, 0}};
  const auto script = SeededScript(/*seed=*/42, /*ntenants=*/3, 300);

  ServerSched::PolicyContext fcfs;
  ServerSched::PolicyContext wfq;
  wfq.discipline = QosDiscipline::kWfq;
  wfq.max_weight = 1.0;

  const auto ga = RunScript(script, classes, fcfs);
  const auto gb = RunScript(script, classes, wfq);
  ExpectGrantsBitIdentical(ga, gb);
  for (const auto& g : gb) {
    EXPECT_FALSE(g.paced);
    EXPECT_FALSE(g.backfilled);
  }
}

TEST(SchedEquivalence, SingleTenantEdfBitIdenticalToFcfs) {
  // A lone deadline holder is never paced; with no deadlines registered at
  // all, EDF has nothing to protect and paces nobody either.
  const auto script = SeededScript(/*seed=*/7, /*ntenants=*/1, 200);
  ServerSched::PolicyContext fcfs;

  {
    const std::vector<TenantClass> classes = {{"dl", 1.0, 1e9, 0}};
    ServerSched::PolicyContext edf;
    edf.discipline = QosDiscipline::kEdf;
    edf.any_deadline = true;
    ExpectGrantsBitIdentical(RunScript(script, classes, fcfs),
                             RunScript(script, classes, edf));
  }
  {
    const std::vector<TenantClass> classes = {{"bg", 1.0, 0.0, 0}};
    ServerSched::PolicyContext edf;
    edf.discipline = QosDiscipline::kEdf;
    edf.any_deadline = false;
    ExpectGrantsBitIdentical(RunScript(script, classes, fcfs),
                             RunScript(script, classes, edf));
  }
}

TEST(SchedEquivalence, SeededContentionIsDeterministic) {
  // Unequal weights under WFQ: the script must exercise pacing and backfill,
  // and two independent runs must agree grant for grant.
  const std::vector<TenantClass> classes = {
      {"", 1.0, 0.0, 0}, {"slow", 0.25, 0.0, 0}, {"fast", 1.0, 0.0, 0}};
  const auto script = SeededScript(/*seed=*/1234, /*ntenants=*/3, 400);
  ServerSched::PolicyContext wfq;
  wfq.discipline = QosDiscipline::kWfq;
  wfq.max_weight = 1.0;

  const auto ga = RunScript(script, classes, wfq);
  const auto gb = RunScript(script, classes, wfq);
  ASSERT_EQ(ga.size(), gb.size());
  std::size_t paced = 0, backfilled = 0;
  for (std::size_t i = 0; i < ga.size(); ++i) {
    SCOPED_TRACE("grant " + std::to_string(i));
    EXPECT_EQ(ga[i].begin_ns, gb[i].begin_ns);
    EXPECT_EQ(ga[i].done_ns, gb[i].done_ns);
    EXPECT_EQ(ga[i].paced, gb[i].paced);
    EXPECT_EQ(ga[i].backfilled, gb[i].backfilled);
    paced += ga[i].paced ? 1u : 0u;
    backfilled += ga[i].backfilled ? 1u : 0u;
  }
  EXPECT_GT(paced, 0u) << "script never exercised pacing";
  EXPECT_GT(backfilled, 0u) << "script never exercised backfill";
}

// ------------------------------------------------ hand-computed pacing

// Tenant "slow" (weight 1/4) issues two service-400 events at t=0; tenant 0
// (weight 1) then backfills the pacing gap. Virtual Clock: slow's first
// event is released immediately (clock starts at 0) and advances the clock
// by 400 / 0.25 = 1600; the second is held to t=1600, opening gap
// [400, 1600) behind it, which tenant 0 fills first-fit in 400 ns slices.
TEST(SchedPacing, WfqVirtualClockAndGapBackfill) {
  const std::vector<TenantClass> classes = {{"", 1.0, 0.0, 0},
                                            {"slow", 0.25, 0.0, 0}};
  ServerSched::PolicyContext ctx;
  ctx.discipline = QosDiscipline::kWfq;
  ctx.max_weight = 1.0;
  ServerSched sched;
  std::vector<pfs::TenantPacer> pacers(classes.size());
  const auto admit = [&](int tenant) {
    const auto t = static_cast<std::size_t>(tenant);
    const double eligible = pacers[t].Release(
        /*eligible=*/0.0, kReqNs + 300.0, pfs::QosShare(classes[t], ctx));
    ServerSched::Grant g = sched.Admit(ctx, /*arrival=*/0.0, eligible, kReqNs,
                                       /*payload=*/300.0);
    g.paced = eligible > 0.0;
    return g;
  };

  const auto g1 = admit(1);  // released at clock 0
  EXPECT_EQ(g1.begin_ns, 0.0);
  EXPECT_EQ(g1.done_ns, 400.0);
  EXPECT_FALSE(g1.paced);

  const auto g2 = admit(1);  // held to vclock = 1600
  EXPECT_TRUE(g2.paced);
  EXPECT_EQ(g2.begin_ns, 1600.0);
  EXPECT_EQ(g2.done_ns, 2000.0);

  const auto g3 = admit(0);  // backfills [400, 1600)
  EXPECT_TRUE(g3.backfilled);
  EXPECT_EQ(g3.begin_ns, 400.0);
  EXPECT_EQ(g3.done_ns, 800.0);

  const auto g4 = admit(0);
  EXPECT_TRUE(g4.backfilled);
  EXPECT_EQ(g4.begin_ns, 800.0);
  EXPECT_EQ(g4.done_ns, 1200.0);

  const auto g5 = admit(0);  // exactly fills the remainder of the gap
  EXPECT_TRUE(g5.backfilled);
  EXPECT_EQ(g5.begin_ns, 1200.0);
  EXPECT_EQ(g5.done_ns, 1600.0);

  const auto g6 = admit(0);  // gap exhausted: appends behind the tail
  EXPECT_FALSE(g6.backfilled);
  EXPECT_EQ(g6.begin_ns, 2000.0);
  EXPECT_EQ(g6.done_ns, 2400.0);

  EXPECT_EQ(sched.next_free(), 2400.0);
  EXPECT_EQ(sched.busy_ns(), 6 * 400.0);  // fully packed timeline
  EXPECT_EQ(sched.horizon_ns(), 2400.0);
}

TEST(SchedPacing, EdfPacesBackgroundAndAdmitsDeadlineHolders) {
  const std::vector<TenantClass> classes = {
      {"", 1.0, 0.0, 0}, {"bg", 1.0, 0.0, 0}, {"dl", 1.0, 1e6, 0}};
  ServerSched::PolicyContext ctx;
  ctx.discipline = QosDiscipline::kEdf;
  ctx.any_deadline = true;
  ctx.edf_background_share = 0.25;
  ServerSched sched;
  std::vector<pfs::TenantPacer> pacers(classes.size());
  const auto admit = [&](int tenant) {
    const auto t = static_cast<std::size_t>(tenant);
    const double eligible = pacers[t].Release(
        0.0, kReqNs + 300.0, pfs::QosShare(classes[t], ctx));
    ServerSched::Grant g = sched.Admit(ctx, 0.0, eligible, kReqNs, 300.0);
    g.paced = eligible > 0.0;
    return g;
  };

  const auto g1 = admit(1);  // background, clock 0: released
  EXPECT_EQ(g1.begin_ns, 0.0);
  EXPECT_EQ(g1.done_ns, 400.0);
  EXPECT_FALSE(g1.paced);

  const auto g2 = admit(1);  // background, held to 400 / 0.25 = 1600
  EXPECT_TRUE(g2.paced);
  EXPECT_EQ(g2.begin_ns, 1600.0);
  EXPECT_EQ(g2.done_ns, 2000.0);

  const auto g3 = admit(2);  // deadline holder: unpaced, backfills the gap
  EXPECT_FALSE(g3.paced);
  EXPECT_TRUE(g3.backfilled);
  EXPECT_EQ(g3.begin_ns, 400.0);
  EXPECT_EQ(g3.done_ns, 800.0);
}

TEST(SchedPacing, WaitPercentileNearestRank) {
  EXPECT_EQ(pfs::WaitPercentile({}, 99.0), 0.0);
  const std::vector<double> s = {40.0, 10.0, 30.0, 20.0};
  EXPECT_EQ(pfs::WaitPercentile(s, 50.0), 20.0);
  EXPECT_EQ(pfs::WaitPercentile(s, 99.0), 40.0);
  EXPECT_EQ(pfs::WaitPercentile(s, 0.0), 10.0);
  EXPECT_EQ(pfs::WaitPercentile({7.0}, 99.0), 7.0);
}

TEST(SchedPacing, WaitPercentileEdgeCases) {
  // Empty at either extreme: 0, never a crash.
  EXPECT_EQ(pfs::WaitPercentile({}, 0.0), 0.0);
  EXPECT_EQ(pfs::WaitPercentile({}, 100.0), 0.0);
  // A single sample answers every percentile.
  EXPECT_EQ(pfs::WaitPercentile({4.0}, 0.0), 4.0);
  EXPECT_EQ(pfs::WaitPercentile({4.0}, 50.0), 4.0);
  EXPECT_EQ(pfs::WaitPercentile({4.0}, 100.0), 4.0);
  // p0 / p100 pick the sorted extremes (nearest-rank clamps in range).
  const std::vector<double> s = {5.0, 1.0, 9.0, 3.0, 7.0};
  EXPECT_EQ(pfs::WaitPercentile(s, 0.0), 1.0);
  EXPECT_EQ(pfs::WaitPercentile(s, 100.0), 9.0);
  // A vector exactly at the reservoir cap stays addressable at both ends,
  // and nearest-rank p50 on an even count is the lower-middle sample.
  std::vector<double> big(pfs::TenantCounters::kMaxWaitSamples);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<double>(i);
  EXPECT_EQ(pfs::WaitPercentile(big, 0.0), 0.0);
  EXPECT_EQ(pfs::WaitPercentile(big, 100.0),
            static_cast<double>(big.size() - 1));
  EXPECT_EQ(pfs::WaitPercentile(big, 50.0),
            static_cast<double>(big.size() / 2 - 1));
}

TEST(FileSystemTenants, WaitSampleReservoirCapsAtKMaxWaitSamples) {
  // The per-tenant wait reservoir stops growing at kMaxWaitSamples while
  // the event counters keep counting: unbounded churn cannot balloon the
  // snapshot.
  pfs::FileSystem fs;
  auto f = fs.Create("reservoir.dat", /*exclusive=*/false).value();
  std::vector<std::byte> buf(4096, std::byte{1});
  f.HarnessWrite(0, pnc::ConstByteSpan(buf.data(), buf.size()), 0.0);
  const std::size_t cap = pfs::TenantCounters::kMaxWaitSamples;
  for (std::size_t i = 0; i < cap + 128; ++i)
    f.HarnessRead(0, pnc::ByteSpan(buf.data(), buf.size()), 0.0);
  const auto snap = fs.TenantUsageSnapshot();
  ASSERT_FALSE(snap.empty());
  const auto& ctr = snap[0].ctr;  // default tenant
  EXPECT_EQ(ctr.wait_samples.size(), cap);
  EXPECT_GE(ctr.server_events, cap + 128);
  // The capped reservoir still yields finite percentiles.
  EXPECT_GE(pfs::WaitPercentile(ctr.wait_samples, 99.0), 0.0);
}

// ------------------------------------------------ FileSystem integration

TEST(FileSystemTenants, RegisterInternsByNameAndUpdatesInPlace) {
  pfs::FileSystem fs;
  EXPECT_EQ(fs.RegisterTenant({"", 8.0, 0, 0}), 0);  // default is fixed
  const int a = fs.RegisterTenant({"alpha", 2.0, 0, 0});
  const int b = fs.RegisterTenant({"beta", 1.0, 0, 0});
  EXPECT_GT(a, 0);
  EXPECT_NE(a, b);
  EXPECT_EQ(fs.FindTenant("alpha"), a);
  EXPECT_EQ(fs.FindTenant("nobody"), 0);

  // Re-registering updates the class, keeps the index.
  EXPECT_EQ(fs.RegisterTenant({"alpha", 4.0, 5e8, 1024}), a);
  const auto snap = fs.TenantUsageSnapshot();
  ASSERT_GT(snap.size(), static_cast<std::size_t>(a));
  EXPECT_DOUBLE_EQ(snap[static_cast<std::size_t>(a)].cls.weight, 4.0);
  EXPECT_DOUBLE_EQ(snap[static_cast<std::size_t>(a)].cls.deadline_ns, 5e8);

  // Out-of-range weights clamp; over-long names truncate to the flight-
  // recorder detail budget (20 chars).
  const int c = fs.RegisterTenant(
      {"a-very-long-tenant-name-indeed", 1e9, 0, 0});
  const auto snap2 = fs.TenantUsageSnapshot();
  EXPECT_EQ(snap2[static_cast<std::size_t>(c)].cls.name.size(), 20u);
  EXPECT_DOUBLE_EQ(snap2[static_cast<std::size_t>(c)].cls.weight,
                   TenantClass::kMaxWeight);
}

TEST(FileSystemTenants, TenantClassFromEnvParsesAndClamps) {
  ::setenv("PNC_TENANT", "envuser", 1);
  ::setenv("PNC_QOS_WEIGHT", "128", 1);        // clamps to kMaxWeight
  ::setenv("PNC_QOS_DEADLINE_NS", "-5", 1);    // clamps to 0
  ::setenv("PNC_QOS_CAP_BYTES", "4096", 1);
  const TenantClass cls = pfs::TenantClassFromEnv();
  ::unsetenv("PNC_TENANT");
  ::unsetenv("PNC_QOS_WEIGHT");
  ::unsetenv("PNC_QOS_DEADLINE_NS");
  ::unsetenv("PNC_QOS_CAP_BYTES");
  EXPECT_EQ(cls.name, "envuser");
  EXPECT_DOUBLE_EQ(cls.weight, TenantClass::kMaxWeight);
  EXPECT_EQ(cls.deadline_ns, 0.0);
  EXPECT_EQ(cls.max_outstanding_bytes, 4096u);

  const TenantClass none = pfs::TenantClassFromEnv();
  EXPECT_TRUE(none.name.empty());
  EXPECT_DOUBLE_EQ(none.weight, 1.0);
}

TEST(FileSystemTenants, ParseQosDiscipline) {
  EXPECT_EQ(pfs::ParseQosDiscipline("fcfs"), QosDiscipline::kFcfs);
  EXPECT_EQ(pfs::ParseQosDiscipline("wfq"), QosDiscipline::kWfq);
  EXPECT_EQ(pfs::ParseQosDiscipline("edf"), QosDiscipline::kEdf);
  EXPECT_FALSE(pfs::ParseQosDiscipline("lifo").has_value());
  EXPECT_STREQ(pfs::QosDisciplineName(QosDiscipline::kWfq), "wfq");
}

/// The same I/O sequence on a second FileSystem with named tenants
/// registered and a policy armed; returns the completion times.
std::vector<double> TimelineFor(bool with_tenants, const QosPolicy& policy) {
  pfs::FileSystem fs;
  auto f = fs.Create("t.dat", /*exclusive=*/false).value();
  if (with_tenants) {
    const int a = fs.RegisterTenant({"a", 1.0, 0.0, 0});
    fs.RegisterTenant({"b", 1.0, 0.0, 0});
    fs.SetQosPolicy(policy);
    f.SetTenant(a);
  }
  std::vector<std::byte> buf(300 << 10, std::byte{0x5A});
  std::vector<double> done;
  done.push_back(f.HarnessWrite(0, pnc::ConstByteSpan(buf.data(), 64 << 10),
                                0.0));
  done.push_back(f.HarnessWrite(256 << 10,
                                pnc::ConstByteSpan(buf.data(), 300 << 10),
                                done.back()));
  done.push_back(f.HarnessRead(0, pnc::ByteSpan(buf.data(), 128 << 10),
                               done.back() + 1e5));
  done.push_back(f.HarnessSync(done.back()));
  return done;
}

TEST(FileSystemTenants, EqualWeightPoliciesKeepLegacyTimelineBitIdentical) {
  // The no-policy-armed contract, end to end: registering tenants and arming
  // WFQ with equal weights (or EDF with no deadlines) must not move a single
  // completion time relative to the untouched legacy FileSystem.
  const std::vector<double> legacy = TimelineFor(false, QosPolicy{});

  QosPolicy wfq;
  wfq.discipline = QosDiscipline::kWfq;
  const std::vector<double> under_wfq = TimelineFor(true, wfq);

  QosPolicy edf;
  edf.discipline = QosDiscipline::kEdf;
  const std::vector<double> under_edf = TimelineFor(true, edf);

  ASSERT_EQ(legacy.size(), under_wfq.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(legacy[i], under_wfq[i]) << "op " << i;
    EXPECT_EQ(legacy[i], under_edf[i]) << "op " << i;
  }
}

TEST(FileSystemTenants, AdmissionCapSurfacesAsQueueWaitNotError) {
  pfs::FileSystem fs;
  const int capped =
      fs.RegisterTenant({"capped", 1.0, 0.0, /*cap=*/256 << 10});
  const int open_ = fs.RegisterTenant({"open", 1.0, 0.0, 0});

  auto fc = fs.Create("capped.dat", false).value();
  fc.SetTenant(capped);
  auto fo = fs.Create("open.dat", false).value();
  fo.SetTenant(open_);

  // Four concurrent 256 KiB writes (all issued at t=0): the capped tenant
  // may keep only one in flight, so writes 2..4 are held at the client until
  // a predecessor drains. The uncapped tenant sees no admission wait. The
  // offsets put the two tenants on disjoint servers (one stripe per write,
  // stripes 0-3 vs 4-7) so their queue waits are independently attributable.
  std::vector<std::byte> buf(256 << 10, std::byte{1});
  for (int i = 0; i < 4; ++i) {
    fc.HarnessWrite(static_cast<std::uint64_t>(i) * (256 << 10),
                    pnc::ConstByteSpan(buf.data(), buf.size()), 0.0);
    fo.HarnessWrite(static_cast<std::uint64_t>(i + 4) * (256 << 10),
                    pnc::ConstByteSpan(buf.data(), buf.size()), 0.0);
  }
  const auto snap = fs.TenantUsageSnapshot();
  const auto& c = snap[static_cast<std::size_t>(capped)].ctr;
  const auto& o = snap[static_cast<std::size_t>(open_)].ctr;
  EXPECT_GT(c.admission_wait_ns, 0.0);
  EXPECT_EQ(o.admission_wait_ns, 0.0);
  EXPECT_EQ(c.served_bytes, o.served_bytes);  // backpressure, not loss
  EXPECT_EQ(c.server_events, o.server_events);
  // Held requests wait longer than freely admitted ones.
  EXPECT_GT(c.queue_wait_ns, o.queue_wait_ns);
}

// ------------------------------------------------ isolation under a storm

struct StormResult {
  double light_wait_ns = 0;       ///< the light tenant's max queue wait
  std::uint64_t light_misses = 0;
  std::uint64_t heavy_paced = 0;
};

/// A heavy tenant floods one server with 20 RMW writes at t=0, then a light
/// tenant issues one 4 KiB read, also at t=0. Returns what the light tenant
/// experienced under `policy`.
StormResult RunStorm(const QosPolicy& policy, double light_deadline_ns) {
  pfs::FileSystem fs;
  const int heavy = fs.RegisterTenant({"heavy", 1.0 / 16.0, 0.0, 0});
  const int light =
      fs.RegisterTenant({"light", 1.0, light_deadline_ns, 0});
  fs.SetQosPolicy(policy);

  auto fh = fs.Create("storm.dat", false).value();
  fh.SetTenant(heavy);
  auto fl = fs.Create("steady.dat", false).value();
  fl.SetTenant(light);

  std::vector<std::byte> buf(64 << 10, std::byte{2});
  for (int i = 0; i < 20; ++i)
    fh.HarnessWrite(0, pnc::ConstByteSpan(buf.data(), buf.size()), 0.0);
  fl.HarnessRead(0, pnc::ByteSpan(buf.data(), 4096), 0.0);

  const auto snap = fs.TenantUsageSnapshot();
  StormResult r;
  const auto& lc = snap[static_cast<std::size_t>(light)].ctr;
  r.light_wait_ns = pfs::WaitPercentile(lc.wait_samples, 99.0);
  r.light_misses = lc.deadline_misses;
  r.heavy_paced = snap[static_cast<std::size_t>(heavy)].ctr.paced_events;
  return r;
}

TEST(FileSystemTenants, WfqAndEdfIsolateLightTenantFromStorm) {
  constexpr double kDeadline = 20e6;  // 20 ms: generous solo, hopeless FCFS
  const StormResult fcfs = RunStorm(QosPolicy{}, kDeadline);

  QosPolicy wfq;
  wfq.discipline = QosDiscipline::kWfq;
  const StormResult under_wfq = RunStorm(wfq, kDeadline);

  QosPolicy edf;
  edf.discipline = QosDiscipline::kEdf;
  const StormResult under_edf = RunStorm(edf, kDeadline);

  // FCFS starves the light tenant behind the storm and blows its deadline.
  EXPECT_GT(fcfs.light_wait_ns, 1e8);
  EXPECT_GE(fcfs.light_misses, 1u);
  EXPECT_EQ(fcfs.heavy_paced, 0u);

  // WFQ (heavy at weight 1/16) and EDF (light holds the only deadline) pace
  // the storm; the light tenant's wait collapses by >= 5x and the deadline
  // holds.
  EXPECT_GT(under_wfq.heavy_paced, 0u);
  EXPECT_LT(under_wfq.light_wait_ns * 5, fcfs.light_wait_ns);
  EXPECT_EQ(under_wfq.light_misses, 0u);

  EXPECT_GT(under_edf.heavy_paced, 0u);
  EXPECT_LT(under_edf.light_wait_ns * 5, fcfs.light_wait_ns);
  EXPECT_EQ(under_edf.light_misses, 0u);
}

// ------------------------------------------------ end-to-end identity

TEST(TenantIdentity, PnetcdfDatasetBillsAllIoToTheHintedTenant) {
  pfs::FileSystem fs;
  simmpi::Info info;
  info.Set("cb_nodes", "1");
  info.Set("pnc_tenant", "storm");
  info.Set("pnc_qos_weight", "0.5");
  simmpi::Run(2, [&](Comm& c) {
    auto r = pnetcdf::Dataset::Create(c, fs, "e2e.nc", info);
    ASSERT_TRUE(r.ok());
    auto ds = std::move(r).value();
    const auto t = ds.DefDim("time", pnetcdf::kUnlimited);
    const auto x = ds.DefDim("x", 8);
    const auto v =
        ds.DefVar("r", ncformat::NcType::kInt, {t.value(), x.value()});
    ASSERT_TRUE(ds.EndDef().ok());
    const std::vector<std::int32_t> mine = {c.rank(), c.rank() + 1, 0, 0};
    const std::uint64_t start[] = {0, static_cast<std::uint64_t>(4 * c.rank())};
    const std::uint64_t count[] = {1, 4};
    ASSERT_TRUE(ds.PutVaraAll<std::int32_t>(v.value(), start, count, mine).ok());
    ASSERT_TRUE(ds.Close().ok());
  });

  const int storm = fs.FindTenant("storm");
  ASSERT_GT(storm, 0);
  const auto snap = fs.TenantUsageSnapshot();
  const auto& sc = snap[static_cast<std::size_t>(storm)];
  EXPECT_DOUBLE_EQ(sc.cls.weight, 0.5);  // hint carried into the class
  EXPECT_GT(sc.ctr.server_events, 0u);
  EXPECT_GT(sc.ctr.served_bytes, 0u);
  // Every byte — header commit, data, journal, sums sidecar — lands on the
  // tenant; nothing leaks to the default tenant.
  EXPECT_EQ(snap[0].ctr.served_bytes, 0u);
}

// ------------------------------------------------ observability

class QosTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if !PNC_IOSTAT_ENABLED
    GTEST_SKIP() << "instrumentation compiled out (PNC_IOSTAT=OFF)";
#endif
    iostat::Registry::Get().Reset();
    iostat::SetSink(iostat::kSinkCounters, true);
  }
  void TearDown() override { iostat::Registry::Get().Reset(); }
};

TEST_F(QosTraceTest, EventsAndCritpathCarryTenantTags) {
  constexpr std::uint64_t kBlock = 256 << 10;
  pfs::Config cfg;
  cfg.num_servers = 2;
  cfg.stripe_size = kBlock;
  pfs::FileSystem fs(cfg);

  simmpi::Info info;
  info.Set("pnc_tenant", "storm");
  std::vector<std::vector<iostat::Event>> snap;
  simmpi::Run(4, [&](Comm& c) {
    auto f = mpiio::File::Open(c, fs, "tp.dat", mpiio::kCreate | mpiio::kRdWr,
                               info)
                 .value();
    c.Barrier();
    if (c.rank() == 0) iostat::Registry::Get().Reset();
    c.Barrier();
    PNC_IOSTAT_BIND_RANK(c.rank());
    std::vector<std::byte> mine(kBlock, std::byte{0x5A});
    ASSERT_TRUE(f.WriteAtAll(static_cast<std::uint64_t>(c.rank()) * kBlock,
                             mine.data(), kBlock, simmpi::ByteType())
                    .ok());
    c.Barrier();
    if (c.rank() == 0) snap = iostat::FlightRecorder::Get().Collect();
    c.Barrier();
    ASSERT_TRUE(f.Close().ok());
  });
  ASSERT_EQ(snap.size(), 4u);

  // pfs service events carry the tenant in the detail field.
  std::size_t tagged = 0;
  for (const auto& ev : snap)
    for (const auto& e : ev)
      if (e.kind == iostat::Ev::kPfsServer) {
        EXPECT_STREQ(e.detail, "w:storm");
        ++tagged;
      }
  EXPECT_GT(tagged, 0u);

  // Critical-path analysis keys server rows by (server, tenant) and the
  // pretty printer (ncstat --critpath) names the tenant.
  const iostat::CritPath cp = iostat::AnalyzeCritPath(snap);
  ASSERT_EQ(cp.ops.size(), 1u);
  ASSERT_FALSE(cp.ops[0].servers.empty());
  for (const auto& seg : cp.ops[0].servers) EXPECT_EQ(seg.tenant, "storm");
  const std::string pretty = iostat::PrettyPrintCritPath(cp);
  EXPECT_NE(pretty.find("tenant storm"), std::string::npos);
}

TEST_F(QosTraceTest, DefaultTenantKeepsLegacyEventDetails) {
  pfs::FileSystem fs;
  simmpi::Run(1, [&](Comm& c) {
    auto f = mpiio::File::Open(c, fs, "d.dat", mpiio::kCreate | mpiio::kRdWr,
                               simmpi::NullInfo())
                 .value();
    PNC_IOSTAT_BIND_RANK(c.rank());
    std::vector<std::byte> b(4096, std::byte{1});
    ASSERT_TRUE(f.WriteAt(0, b.data(), b.size(), simmpi::ByteType()).ok());
    ASSERT_TRUE(f.Close().ok());
  });
  const auto snap = iostat::FlightRecorder::Get().Collect();
  std::size_t seen = 0;
  for (const auto& ev : snap)
    for (const auto& e : ev)
      if (e.kind == iostat::Ev::kPfsServer && e.detail[0] == 'w') {
        EXPECT_STREQ(e.detail, "w");  // exact legacy string, no suffix
        ++seen;
      }
  EXPECT_GT(seen, 0u);
}

}  // namespace
