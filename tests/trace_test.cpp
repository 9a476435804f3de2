// Causal tracing, the flight recorder, and critical-path analysis.
//
// Four areas, mirroring the layering of src/iostat/events.hpp:
//   1. The 4-rank two-phase collective write of iostat_test, re-checked at
//      the event level: exact per-rank event counts for every kind the path
//      emits, and the critical-path decomposition attributing >= 95% of the
//      op's virtual wall time to named (rank, phase) segments; then the
//      same layout with four pipelined windows, written and read, still
//      tiling every rank's interval exactly.
//   2. pnc-events-v1 round trip: EventsToJson -> ParseEventsJson preserves
//      every field; garbage and unknown kinds are rejected.
//   3. The hang-watchdog abort dumps each rank's flight-recorder tail as
//      parseable pnc-events-v1 (death test), and a forced pfs hard fault
//      writes the PNC_FLIGHT_DUMP file with request IDs resolvable to the
//      originating API call.
//   4. Fault injection: transient-fault and retry events carry the
//      originating request ID and the "api:variable" detail minted at the
//      PnetCDF boundary.
#include "iostat/critpath.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "iostat/events.hpp"
#include "iostat/iostat.hpp"
#include "iostat/observe.hpp"
#include "iostat/trace.hpp"
#include "mpiio/file.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"

namespace {

using iostat::Ev;
using iostat::Event;
using iostat::FlightRecorder;
using iostat::Registry;
using ncformat::NcType;
using simmpi::Comm;

std::size_t Count(const std::vector<Event>& evs, Ev kind) {
  std::size_t n = 0;
  for (const auto& e : evs)
    if (e.kind == kind) ++n;
  return n;
}

const Event* Find(const std::vector<Event>& evs, Ev kind) {
  for (const auto& e : evs)
    if (e.kind == kind) return &e;
  return nullptr;
}

/// The api_begin event that minted request `req` on one rank's tail.
const Event* FindApiBegin(const std::vector<Event>& evs, std::uint64_t req) {
  for (const auto& e : evs)
    if (e.kind == Ev::kApiBegin && e.req == req) return &e;
  return nullptr;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if !PNC_IOSTAT_ENABLED
    GTEST_SKIP() << "instrumentation compiled out (PNC_IOSTAT=OFF)";
#endif
    Registry::Get().Reset();
    iostat::SetSink(iostat::kSinkCounters, true);
  }
  void TearDown() override { Registry::Get().Reset(); }
};

// ------------------------------------------------ 4-rank two-phase write

// The workload of iostat_test.FourRankTwoPhaseWriteExactCounters (4 ranks,
// one 256 KiB block each, 2 servers / 2 aggregators, 256 KiB stripes, one
// window round), pinned at the event level. Domains: [0,512K) -> aggregator
// rank 0, [512K,1M) -> aggregator rank 2; ranks 1 and 3 each ship one
// exchange message; each aggregator writes one 512 KiB span striped over
// both servers.
TEST_F(TraceTest, FourRankTwoPhaseWriteExactEvents) {
  constexpr std::uint64_t kBlock = 256 << 10;
  pfs::Config cfg;
  cfg.num_servers = 2;
  cfg.stripe_size = kBlock;
  pfs::FileSystem fs(cfg);

  std::vector<std::vector<Event>> snap;
  simmpi::Run(4, [&](Comm& c) {
    auto f = mpiio::File::Open(c, fs, "tp.dat", mpiio::kCreate | mpiio::kRdWr,
                               simmpi::NullInfo())
                 .value();
    // Events start after open: no namespace traffic in the expectations.
    c.Barrier();
    if (c.rank() == 0) Registry::Get().Reset();
    c.Barrier();
    PNC_IOSTAT_BIND_RANK(c.rank());
    std::vector<std::byte> mine(kBlock, std::byte{0x5A});
    ASSERT_TRUE(f.WriteAtAll(static_cast<std::uint64_t>(c.rank()) * kBlock,
                             mine.data(), kBlock, simmpi::ByteType())
                    .ok());
    // Snapshot before Close so the expectations cover exactly one op.
    c.Barrier();
    if (c.rank() == 0) snap = FlightRecorder::Get().Collect();
    c.Barrier();
    ASSERT_TRUE(f.Close().ok());
  });
  ASSERT_EQ(snap.size(), 4u);

  for (int r = 0; r < 4; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const auto& ev = snap[static_cast<std::size_t>(r)];
    const bool agg = r == 0 || r == 2;

    // One collective op, one window round, on every rank.
    EXPECT_EQ(Count(ev, Ev::kCollBegin), 1u);
    EXPECT_EQ(Count(ev, Ev::kCollEnd), 1u);
    EXPECT_EQ(Count(ev, Ev::kXchgBegin), 1u);
    EXPECT_EQ(Count(ev, Ev::kXchgEnd), 1u);
    EXPECT_EQ(Count(ev, Ev::kIoBegin), 1u);
    EXPECT_EQ(Count(ev, Ev::kIoEnd), 1u);
    // Only the non-aggregators ship a message, each to its domain's owner.
    EXPECT_EQ(Count(ev, Ev::kXchgSend), agg ? 0u : 1u);
    if (const Event* s = Find(ev, Ev::kXchgSend)) {
      EXPECT_EQ(s->a0, 0u);                              // window 0
      EXPECT_EQ(s->a1, r == 1 ? 0u : 2u);                // dest aggregator
    }
    // Each aggregator adopts two pieces (itself + one remote) and issues
    // one write striped over both servers.
    EXPECT_EQ(Count(ev, Ev::kAggPiece), agg ? 2u : 0u);
    EXPECT_EQ(Count(ev, Ev::kPfsServer), agg ? 2u : 0u);
    std::uint64_t pfs_bytes = 0;
    for (const auto& e : ev) {
      if (e.kind != Ev::kPfsServer) continue;
      EXPECT_STREQ(e.detail, "w");
      EXPECT_LT(e.a0 & 0xff, 2u);       // server id
      EXPECT_GT(e.d_ns, 0.0);           // service time
      pfs_bytes += e.a0 >> 8;
    }
    EXPECT_EQ(pfs_bytes, agg ? 2 * kBlock : 0u);
    // Clean run, raw mpiio (no API boundary above): no faults, no retries,
    // no request scopes.
    EXPECT_EQ(Count(ev, Ev::kPfsFault), 0u);
    EXPECT_EQ(Count(ev, Ev::kRetry), 0u);
    EXPECT_EQ(Count(ev, Ev::kApiBegin), 0u);
    // Sequence numbers are per-rank and strictly increasing, and the op
    // brackets everything else.
    for (std::size_t i = 1; i < ev.size(); ++i)
      EXPECT_GT(ev[i].seq, ev[i - 1].seq);
    ASSERT_FALSE(ev.empty());
    EXPECT_EQ(ev.front().kind, Ev::kCollBegin);
    EXPECT_EQ(ev.back().kind, Ev::kCollEnd);
    EXPECT_EQ(ev.back().a0, 1u);  // ok
  }

  // ---- critical path: the decomposition tiles the op's wall time ----
  const iostat::CritPath cp = iostat::AnalyzeCritPath(snap);
  ASSERT_EQ(cp.ops.size(), 1u);
  const auto& op = cp.ops[0];
  EXPECT_TRUE(op.is_write);
  EXPECT_TRUE(op.ok);
  ASSERT_EQ(op.ranks.size(), 4u);
  EXPECT_GT(op.wall_ns(), 0.0);
  // The acceptance bar: >= 95% of (nranks x wall) lands in named segments.
  // By construction (synced departures) it is in fact ~100%.
  EXPECT_GE(op.attributed_frac(), 0.95);
  EXPECT_LE(op.attributed_frac(), 1.0 + 1e-9);
  for (const auto& seg : op.ranks) {
    SCOPED_TRACE("rank " + std::to_string(seg.rank));
    const bool agg = seg.rank == 0 || seg.rank == 2;
    EXPECT_GT(seg.exchange_ns, 0.0);
    if (agg)
      EXPECT_GT(seg.io_ns, 0.0);  // aggregators spend the io phase writing
    else
      EXPECT_EQ(seg.io_ns, 0.0);  // non-aggregators idle through it
    EXPECT_GE(seg.wait_ns, 0.0);
    // The three segments tile this rank's [op begin, depart] interval
    // exactly. Departures trail op end only by the clock skew of the final
    // sync allreduce (tree roles differ per rank), so each rank still has
    // >= 95% of the op's wall time in named segments.
    const double sum = seg.wait_ns + seg.exchange_ns + seg.io_ns;
    EXPECT_NEAR(sum, seg.depart_ns - op.begin_ns, 1e-6);
    EXPECT_GE(sum, 0.95 * op.wall_ns());
    EXPECT_LE(sum, op.wall_ns() + 1e-6);
  }
  // Both servers serviced one span from each aggregator.
  ASSERT_EQ(op.servers.size(), 2u);
  for (const auto& sv : op.servers) {
    EXPECT_EQ(sv.ops, 2u);
    EXPECT_EQ(sv.bytes, 2 * kBlock);
    EXPECT_GT(sv.service_ns, 0.0);
  }

  // The pretty renderer names every segment it attributes.
  const std::string text = iostat::PrettyPrintCritPath(cp);
  EXPECT_NE(text.find("critical path: 1 collective op(s)"), std::string::npos);
  EXPECT_NE(text.find("% attributed"), std::string::npos);
  EXPECT_NE(text.find("wait"), std::string::npos);
  EXPECT_NE(text.find("exchange"), std::string::npos);
  EXPECT_NE(text.find("file-io"), std::string::npos);
  EXPECT_NE(text.find("server 0:"), std::string::npos);
}

// The same 4-rank layout with 128 KiB windows: four window rounds per
// domain, so each aggregator's file I/O runs on its I/O channel while the
// next window's exchange (writes) or the last window's replies (reads) run
// on the rank clock. The I/O phase is the rank's issue cost plus its waits
// on the channel, so the three critical-path segments still tile every
// rank's interval exactly, and the channel time no rank waited for shows
// up as mpiio.io_overlap_ns on the aggregators.
void CheckPipelinedOpTiles(bool is_write) {
  constexpr std::uint64_t kBlock = 256 << 10;
  constexpr std::uint64_t kRounds = 4;  // 512 KiB domains / 64 KiB windows
  pfs::Config cfg;
  cfg.num_servers = 2;
  cfg.stripe_size = kBlock;
  pfs::FileSystem fs(cfg);

  std::vector<std::vector<Event>> snap;
  std::vector<std::uint64_t> overlap(4, 0);
  simmpi::Run(4, [&](Comm& c) {
    simmpi::Info info;
    info.Set("cb_buffer_size", std::to_string(2 * kBlock / kRounds));
    auto f = mpiio::File::Open(c, fs, "tp.dat", mpiio::kCreate | mpiio::kRdWr,
                               info)
                 .value();
    std::vector<std::byte> mine(kBlock, std::byte{0x5A});
    const std::uint64_t off = static_cast<std::uint64_t>(c.rank()) * kBlock;
    if (!is_write) {
      ASSERT_TRUE(f.WriteAtAll(off, mine.data(), kBlock, simmpi::ByteType())
                      .ok());
    }
    c.Barrier();
    if (c.rank() == 0) Registry::Get().Reset();
    c.Barrier();
    PNC_IOSTAT_BIND_RANK(c.rank());
    const pnc::Status st =
        is_write ? f.WriteAtAll(off, mine.data(), kBlock, simmpi::ByteType())
                 : f.ReadAtAll(off, mine.data(), kBlock, simmpi::ByteType());
    ASSERT_TRUE(st.ok());
    c.Barrier();
    if (c.rank() == 0) snap = FlightRecorder::Get().Collect();
    overlap[static_cast<std::size_t>(c.rank())] =
        Registry::Get().Value(c.rank(), iostat::Ctr::kMpiioIoOverlapNs);
    c.Barrier();
    ASSERT_TRUE(f.Close().ok());
  });
  ASSERT_EQ(snap.size(), 4u);

  for (int r = 0; r < 4; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const auto& ev = snap[static_cast<std::size_t>(r)];
    const bool agg = r == 0 || r == 2;
    // Writes exchange once per window; reads exchange every window's
    // requests once, then one reply round per window.
    EXPECT_EQ(Count(ev, Ev::kXchgBegin), is_write ? kRounds : kRounds + 1);
    EXPECT_EQ(Count(ev, Ev::kIoBegin), kRounds);
    EXPECT_EQ(Count(ev, Ev::kIoEnd), kRounds);
    EXPECT_EQ(Count(ev, Ev::kPfsServer), agg ? kRounds : 0u);
    if (agg)
      EXPECT_GT(overlap[static_cast<std::size_t>(r)], 0u);
    else
      EXPECT_EQ(overlap[static_cast<std::size_t>(r)], 0u);
  }

  const iostat::CritPath cp = iostat::AnalyzeCritPath(snap);
  ASSERT_EQ(cp.ops.size(), 1u);
  const auto& op = cp.ops[0];
  EXPECT_EQ(op.is_write, is_write);
  EXPECT_TRUE(op.ok);
  ASSERT_EQ(op.ranks.size(), 4u);
  EXPECT_LE(op.attributed_frac(), 1.0 + 1e-9);
  for (const auto& seg : op.ranks) {
    SCOPED_TRACE("rank " + std::to_string(seg.rank));
    const bool agg = seg.rank == 0 || seg.rank == 2;
    EXPECT_GT(seg.exchange_ns, 0.0);
    if (agg) {
      EXPECT_GT(seg.io_ns, 0.0);
    }
    EXPECT_GE(seg.wait_ns, 0.0);
    EXPECT_NEAR(seg.wait_ns + seg.exchange_ns + seg.io_ns,
                seg.depart_ns - op.begin_ns, 1e-6);
  }
}

TEST_F(TraceTest, FourRankPipelinedWriteTilesEveryRank) {
  CheckPipelinedOpTiles(/*is_write=*/true);
}

TEST_F(TraceTest, FourRankPipelinedReadTilesEveryRank) {
  CheckPipelinedOpTiles(/*is_write=*/false);
}

// A write, a read and the sync round trips of open and close: every
// pfs_server event's detail is exactly the one-letter op, "w", "r" or "s",
// and the exported trace draws each grant as a pid-1 serve slice carrying
// its bytes, with only per-server queue-depth counters beside them (no
// per-client in-flight tracks, no bucketed rate tracks).
TEST_F(TraceTest, PfsServerEventsCarryExactlyTheOpLetter) {
  pfs::FileSystem fs;
  simmpi::Run(1, [&](Comm& c) {
    auto f = mpiio::File::Open(c, fs, "d.dat", mpiio::kCreate | mpiio::kRdWr,
                               simmpi::NullInfo())
                 .value();
    PNC_IOSTAT_BIND_RANK(c.rank());
    std::vector<std::byte> b(4096, std::byte{1});
    ASSERT_TRUE(f.WriteAt(0, b.data(), b.size(), simmpi::ByteType()).ok());
    ASSERT_TRUE(f.ReadAt(0, b.data(), b.size(), simmpi::ByteType()).ok());
    ASSERT_TRUE(f.Close().ok());
  });
  std::map<std::string, std::size_t> by_detail;
  for (const auto& ev : FlightRecorder::Get().Collect())
    for (const auto& e : ev)
      if (e.kind == Ev::kPfsServer) ++by_detail[e.detail];
  EXPECT_GT(by_detail["w"], 0u);
  EXPECT_GT(by_detail["r"], 0u);
  EXPECT_GT(by_detail["s"], 0u);
  EXPECT_EQ(by_detail.size(), 3u);  // nothing but the three letters

  const std::string trace = iostat::ToChromeTrace();
  EXPECT_NE(trace.find("\"queue depth s0\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"serve\",\"cat\":\"pfs\""),
            std::string::npos);
  EXPECT_NE(trace.find(",\"bytes\":4096,"), std::string::npos);
  EXPECT_EQ(trace.find("inflight bytes"), std::string::npos);
  EXPECT_EQ(trace.find("\"tl "), std::string::npos);
}

// ---------------------------------------------- pnc-events-v1 round trip

TEST_F(TraceTest, EventsJsonRoundTripPreservesFields) {
  PNC_IOSTAT_BIND_RANK(0);
  FlightRecorder& fr = FlightRecorder::Get();
  fr.Record(Ev::kPfsServer, 123.5, 800.25, (4096u << 8) | 3u, 77, "w");
  fr.Record(Ev::kPfsFault, 1000, 0, 1, 0, "transient");
  fr.Record(Ev::kXchgSend, 2000, 0, 5, 2, "needs \"escaping\"\n");

  const std::string json = iostat::EventsToJson("round-trip");
  auto parsed = iostat::ParseEventsJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const iostat::EventDump& d = parsed.value();
  EXPECT_EQ(d.reason, "round-trip");
  EXPECT_EQ(d.capacity, FlightRecorder::Get().capacity());
  ASSERT_EQ(d.ranks.size(), 1u);
  const auto& tail = d.ranks[0];
  EXPECT_EQ(tail.rank, 0);
  EXPECT_EQ(tail.recorded, 3u);
  EXPECT_EQ(tail.dropped, 0u);
  ASSERT_EQ(tail.events.size(), 3u);

  const Event& e0 = tail.events[0];
  EXPECT_EQ(e0.kind, Ev::kPfsServer);
  EXPECT_EQ(e0.seq, 1u);
  EXPECT_DOUBLE_EQ(e0.t_ns, 123.5);
  EXPECT_DOUBLE_EQ(e0.d_ns, 800.25);
  EXPECT_EQ(e0.a0, (4096u << 8) | 3u);
  EXPECT_EQ(e0.a1, 77u);
  EXPECT_STREQ(e0.detail, "w");
  EXPECT_EQ(tail.events[1].kind, Ev::kPfsFault);
  EXPECT_STREQ(tail.events[1].detail, "transient");
  EXPECT_STREQ(tail.events[2].detail, "needs \"escaping\"\n");

  // A dump embedded in surrounding log noise still parses.
  auto embedded = iostat::ParseEventsJson("watchdog fired\n" + json + "\n");
  ASSERT_TRUE(embedded.ok());
  EXPECT_EQ(embedded.value().ranks.size(), 1u);
}

TEST_F(TraceTest, EventsJsonParserRejectsGarbage) {
  EXPECT_FALSE(iostat::ParseEventsJson("not json").ok());
  EXPECT_FALSE(iostat::ParseEventsJson("{}").ok());
  // An unknown kind is a schema violation, not a silent skip.
  EXPECT_FALSE(
      iostat::ParseEventsJson(
          "{\"schema\":\"pnc-events-v1\",\"reason\":\"x\",\"capacity\":4,"
          "\"nranks\":1,\"ranks\":[{\"rank\":0,\"recorded\":1,\"dropped\":0,"
          "\"events\":[{\"seq\":1,\"kind\":\"no_such_kind\",\"t_ns\":0,"
          "\"d_ns\":0,\"req\":0,\"a0\":0,\"a1\":0,\"detail\":\"\"}]}]}")
          .ok());
}

TEST_F(TraceTest, RingKeepsTailAndCountsDrops) {
  PNC_IOSTAT_BIND_RANK(0);
  const std::size_t cap = FlightRecorder::Get().capacity();
  const std::size_t total = cap + 16;
  for (std::size_t i = 0; i < total; ++i)
    PNC_OBSERVE(kIndep, .t_ns = static_cast<double>(i), .len = i);
  const std::vector<Event> tail = FlightRecorder::Get().CollectRank(0);
  ASSERT_EQ(tail.size(), cap);
  // Oldest retained is the (total - cap + 1)-th recorded; newest is the last.
  EXPECT_EQ(tail.front().seq, total - cap + 1);
  EXPECT_EQ(tail.back().seq, total);
  EXPECT_EQ(FlightRecorder::Get().RecordedCount(0), total);
}

// ------------------------------------------------- dumps on failure paths

TEST_F(TraceTest, HangWatchdogDumpsEveryRanksTail) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dump = "trace_watchdog_dump.json";
  std::remove(dump.c_str());
  // Re-executed in the death-test child, so the dying process inherits it.
  setenv("PNC_FLIGHT_DUMP", dump.c_str(), 1);
  simmpi::CostModel cm;
  cm.hang_timeout_ms = 200.0;  // real milliseconds, keep the death test quick
  EXPECT_DEATH(
      {
        simmpi::Run(
            2,
            [](Comm& c) {
              // Every rank leaves a fingerprint in its ring before rank 0
              // deadlocks waiting for a message rank 1 never sends.
              PNC_OBSERVE(kIndep, .t_ns = c.clock().now(), .len = 64,
                          .is_write = true, .detail = "pre-hang");
              if (c.rank() == 0) (void)c.Recv(/*src=*/1, /*tag=*/7);
            },
            cm);
      },
      "pnc-events-v1");
  unsetenv("PNC_FLIGHT_DUMP");

  std::ifstream in(dump, std::ios::binary);
  ASSERT_TRUE(in.good()) << "watchdog did not write " << dump;
  std::ostringstream ss;
  ss << in.rdbuf();
  auto parsed = iostat::ParseEventsJson(ss.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const iostat::EventDump& d = parsed.value();
  EXPECT_EQ(d.reason, "hang-watchdog");
  ASSERT_EQ(d.ranks.size(), 2u);
  for (const auto& tail : d.ranks) {
    SCOPED_TRACE("rank " + std::to_string(tail.rank));
    ASSERT_FALSE(tail.events.empty());
    EXPECT_GE(tail.recorded, static_cast<std::uint64_t>(tail.events.size()));
    bool saw_fingerprint = false;
    for (const auto& e : tail.events) {
      EXPECT_GT(e.seq, 0u);  // every retained record is valid, none torn
      if (e.kind == Ev::kIndep && std::string(e.detail) == "pre-hang")
        saw_fingerprint = true;
    }
    EXPECT_TRUE(saw_fingerprint);
  }
  std::remove(dump.c_str());
}

TEST_F(TraceTest, PfsHardFaultDumpResolvesRequestIds) {
  const std::string dump = "trace_hard_fault_dump.json";
  std::remove(dump.c_str());
  setenv("PNC_FLIGHT_DUMP", dump.c_str(), 1);

  constexpr int kRanks = 4;
  constexpr std::uint64_t kElems = 64 * 1024;
  pfs::FileSystem fs;
  simmpi::Run(kRanks, [&](Comm& c) {
    simmpi::Info info;
    info.Set("cb_buffer_size", "4096");  // many window writes per collective
    auto ds = pnetcdf::Dataset::Create(c, fs, "m.nc", info).value();
    const int x = ds.DefDim("x", kElems).value();
    const int v = ds.DefVar("d", NcType::kByte, {x}).value();
    ASSERT_TRUE(ds.EndDef().ok());

    pfs::FaultPolicy pol;
    pol.permanent_from = 2;  // a couple of window writes land, then none
    if (c.rank() == 0) fs.SetFaultPolicy(pol);
    c.Barrier();

    const std::uint64_t share = kElems / kRanks;
    const std::uint64_t st[] = {share * static_cast<std::uint64_t>(c.rank())};
    const std::uint64_t ct[] = {share};
    std::vector<signed char> mine(share, 2);
    EXPECT_FALSE(ds.PutVaraAll<signed char>(v, st, ct, mine).ok());
    if (c.rank() == 0) fs.SetFaultPolicy(pfs::FaultPolicy{});
    c.Barrier();
    ASSERT_TRUE(ds.Close().ok());
  });
  unsetenv("PNC_FLIGHT_DUMP");

  std::ifstream in(dump, std::ios::binary);
  ASSERT_TRUE(in.good()) << "hard fault did not write " << dump;
  std::ostringstream ss;
  ss << in.rdbuf();
  auto parsed = iostat::ParseEventsJson(ss.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const iostat::EventDump& d = parsed.value();
  EXPECT_EQ(d.reason, "pfs-hard-fault");

  // The dump holds the permanent fault, and its request ID resolves to the
  // api_begin event of the collective write that was on the stack.
  bool resolved = false;
  for (const auto& tail : d.ranks) {
    for (const auto& e : tail.events) {
      if (e.kind != Ev::kPfsFault ||
          std::string(e.detail) != "permanent")
        continue;
      EXPECT_NE(e.req, 0u);
      const Event* api = FindApiBegin(tail.events, e.req);
      ASSERT_NE(api, nullptr);
      EXPECT_STREQ(api->detail, "put_vara_all:d");
      resolved = true;
    }
  }
  EXPECT_TRUE(resolved);
  std::remove(dump.c_str());
}

// --------------------------------------------- fault/retry request linkage

TEST_F(TraceTest, TransientFaultAndRetryEventsCarryRequestAndVariable) {
  constexpr int kRanks = 4;
  constexpr std::uint64_t kElems = 64 * 1024;
  pfs::FileSystem fs;

  std::vector<std::vector<Event>> snap;
  simmpi::Run(kRanks, [&](Comm& c) {
    auto ds = pnetcdf::Dataset::Create(c, fs, "m.nc", simmpi::NullInfo())
                  .value();
    const int x = ds.DefDim("x", kElems).value();
    const int v = ds.DefVar("d", NcType::kByte, {x}).value();
    ASSERT_TRUE(ds.EndDef().ok());

    // Arm after the metadata phase: the next faultable op — an aggregator
    // window write inside the collective — fails once, transiently.
    pfs::FaultPolicy pol;
    pol.transient_ops = {0};
    if (c.rank() == 0) {
      fs.SetFaultPolicy(pol);
      fs.ResetStats();
      Registry::Get().Reset();
    }
    c.Barrier();
    PNC_IOSTAT_BIND_RANK(c.rank());

    const std::uint64_t share = kElems / kRanks;
    const std::uint64_t st[] = {share * static_cast<std::uint64_t>(c.rank())};
    const std::uint64_t ct[] = {share};
    std::vector<signed char> mine(share, 2);
    ASSERT_TRUE(ds.PutVaraAll<signed char>(v, st, ct, mine).ok());

    // Snapshot before Close so every captured event belongs to the write.
    c.Barrier();
    if (c.rank() == 0) snap = FlightRecorder::Get().Collect();
    c.Barrier();
    ASSERT_TRUE(ds.Close().ok());
  });
  EXPECT_EQ(fs.stats().transient_faults, 1u);

  std::size_t faults = 0, retries = 0;
  for (const auto& ev : snap) {
    for (const auto& e : ev) {
      if (e.kind != Ev::kPfsFault && e.kind != Ev::kRetry) continue;
      (e.kind == Ev::kPfsFault ? faults : retries) += 1;
      if (e.kind == Ev::kPfsFault) {
        EXPECT_STREQ(e.detail, "transient");
      }
      // The event carries the originating request, and that request's
      // api_begin on the same rank names the API and the variable.
      EXPECT_NE(e.req, 0u);
      const Event* api = FindApiBegin(ev, e.req);
      ASSERT_NE(api, nullptr);
      EXPECT_STREQ(api->detail, "put_vara_all:d");
    }
  }
  EXPECT_EQ(faults, 1u);
  EXPECT_EQ(retries, 1u);
}

// ----------------------------------------------------- runtime gating

TEST_F(TraceTest, DisabledRecorderRecordsNothing) {
  PNC_IOSTAT_BIND_RANK(0);
  iostat::SetSink(iostat::kSinkRing, false);
  PNC_OBSERVE(kIndep, .t_ns = 1.0, .len = 1, .is_write = true);
  iostat::SetSink(iostat::kSinkRing, true);
  EXPECT_EQ(FlightRecorder::Get().RecordedCount(0), 0u);
  EXPECT_TRUE(FlightRecorder::Get().CollectRank(0).empty());
}

TEST_F(TraceTest, ReqScopeNestsAndRestores) {
  PNC_IOSTAT_BIND_RANK(0);
  EXPECT_EQ(PNC_IOSTAT_CURRENT_REQ(), 0u);
  {
    PNC_IOSTAT_REQ_SCOPE("put_vara", "outer", 0.0, 8, 1);
    const std::uint64_t outer = PNC_IOSTAT_CURRENT_REQ();
    EXPECT_NE(outer, 0u);
    {
      PNC_IOSTAT_REQ_SCOPE("write_header", "", 1.0, 0, 1);
      EXPECT_EQ(PNC_IOSTAT_CURRENT_REQ(), outer + 1);
    }
    EXPECT_EQ(PNC_IOSTAT_CURRENT_REQ(), outer);
  }
  EXPECT_EQ(PNC_IOSTAT_CURRENT_REQ(), 0u);
  // Each scope recorded its api_begin with the "api:variable" detail.
  const std::vector<Event> tail = FlightRecorder::Get().CollectRank(0);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].kind, Ev::kApiBegin);
  EXPECT_STREQ(tail[0].detail, "put_vara:outer");
  EXPECT_STREQ(tail[1].detail, "write_header");
}

// ------------------------------------------------------ environment knobs

/// Set `name` to `value` (unset when nullptr), call `read`, then unset it.
template <typename Read>
auto WithEnv(const char* name, const char* value, Read read) {
  if (value == nullptr)
    unsetenv(name);
  else
    setenv(name, value, 1);
  const auto got = read();
  unsetenv(name);
  return got;
}

// PNC_FLIGHT_EVENTS goes through the checked integer parser: malformed
// values fall back to 4096 (with a warning), the rest clamp into [64, 2^20].
TEST(FlightRecorderEnv, CapacityIsParsedCheckedAndClamped) {
  const auto cap = [](const char* v) {
    return WithEnv("PNC_FLIGHT_EVENTS", v, iostat::FlightCapacityFromEnv);
  };
  EXPECT_EQ(cap(nullptr), 4096u);
  EXPECT_EQ(cap("10000"), 10000u);
  EXPECT_EQ(cap("10"), 64u);
  EXPECT_EQ(cap("99999999"), std::size_t{1} << 20);
  EXPECT_EQ(cap("4k"), 4096u);    // malformed: trailing junk
  EXPECT_EQ(cap("lots"), 4096u);  // malformed: no number
  EXPECT_EQ(cap("-1"), 64u);      // clamps to the floor, does not wrap
}

// One environment reader sets every sink gate: "0"/"off"/"false" turn a
// sink off, and PNC_IOSTAT=0 turns all off.
TEST(SinkGates, ComeFromTheEnvironment) {
  using namespace iostat;
  const unsigned kDefault = kSinkCounters | kSinkRing | kSinkPattern;
  EXPECT_EQ(SinksFromEnv(), kDefault);
  EXPECT_EQ(WithEnv("PNC_IOSTAT", "0", SinksFromEnv), 0u);
  EXPECT_EQ(WithEnv("PNC_FLIGHT", "off", SinksFromEnv), kDefault & ~kSinkRing);
  EXPECT_EQ(WithEnv("PNC_IOSTAT_PATTERN", "false", SinksFromEnv),
            kDefault & ~kSinkPattern);
}

}  // namespace
