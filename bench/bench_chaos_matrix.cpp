// Chaos matrix: scripted multi-fault schedules (rank crashes, stragglers,
// message-level drops, bit corruption) crossed with pfs transient faults,
// run against the record-append PnetCDF lifecycle. Unlike the bandwidth
// benches, the numbers recorded here are *invariants of the failure
// semantics*: the agreed status every survivor returns, the survivor count,
// the ncverify classification of the interrupted file, the data-scrub
// verdict against the chunk-sum table the journal committed, and the
// deterministic virtual completion time. The committed baseline
// (bench/baselines/chaos.json) freezes all of them at zero tolerance, so
// any change to failure agreement, aggregator reassignment, retry/backoff,
// or checksum behavior that shifts an outcome trips
// `ncbench --suite=chaos --check`.
//
// Determinism: simmpi grants pfs requests in virtual-time order, so the
// pfs operation order is fixed with any number of aggregators; crashes are
// scripted by op index or virtual time, drops by send index, stragglers
// are pure virtual-cost multipliers, and every probabilistic corruption
// draws from a fixed-seed pfs PRNG keyed by that operation order — nothing
// depends on thread scheduling.
//
// The bitflip/decay schedules exercise the integrity subsystem end to end:
//   bitflip_writes_p20   flips bits in write payloads during the write run;
//                        the post-run scrub records what the committed
//                        table can still vouch for.
//   bitflip_readback_p25 writes cleanly, then re-reads through the
//                        verify-on-read path under heavy transient read
//                        flips; `rdst` is the worst per-rank status (0 =
//                        every flip healed, -1006 = surfaced kDataCorrupt —
//                        never a silent wrong answer).
//   decay_at_rest_scrub  writes cleanly, persists one at-rest flip into the
//                        first data byte, and asserts-by-baseline that the
//                        scrub reports it (scrub_corrupt >= 1).
//
// Usage: chaos_matrix [--procs=4] [--hints=k=v,...]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/registry.hpp"
#include "format/header.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"
#include "tools/verify.hpp"

namespace {

constexpr std::uint64_t kFlipSeed = 0xC0FFEE5ull;

struct Schedule {
  const char* name;
  simmpi::RankFaultPolicy faults;    ///< rank-level faults (write phase)
  std::uint64_t transient_nth = 0;   ///< pfs: every nth I/O fails once
  double write_bitflip_prob = 0;     ///< pfs: corrupt write payloads
  double readback_bitflip_prob = 0;  ///< pfs: flips during a read-back phase
  bool decay = false;                ///< persist one at-rest flip, then scrub
};

std::vector<Schedule> BuildSchedules() {
  std::vector<Schedule> s;
  s.push_back({"baseline", {}, 0});

  Schedule crash1{"crash_rank1_op20", {}, 0};
  crash1.faults.crashes.push_back({1, 20, -1.0});
  s.push_back(crash1);

  Schedule crash0{"crash_aggregator_late", {}, 0};
  crash0.faults.crashes.push_back({0, simmpi::RankFaultPolicy::kNever, 1e12});
  s.push_back(crash0);

  Schedule strag{"straggler_rank2_x16", {}, 0};
  strag.faults.stragglers.push_back({2, 16.0});
  s.push_back(strag);

  Schedule mixed{"crash_rank1_plus_transients", {}, 3};
  mixed.faults.crashes.push_back({1, 25, -1.0});
  s.push_back(mixed);

  Schedule twofer{"double_crash_ranks1_3", {}, 0};
  twofer.faults.crashes.push_back({1, 15, -1.0});
  twofer.faults.crashes.push_back({3, 17, -1.0});
  s.push_back(twofer);

  Schedule wflip{"bitflip_writes_p20", {}, 0};
  wflip.write_bitflip_prob = 0.20;
  s.push_back(wflip);

  Schedule rflip{"bitflip_readback_p25", {}, 0};
  rflip.readback_bitflip_prob = 0.25;
  s.push_back(rflip);

  Schedule decay{"decay_at_rest_scrub", {}, 0};
  decay.decay = true;
  s.push_back(decay);
  return s;
}

struct Outcome {
  int survivors = 0;
  int close_status = 0;  ///< agreed raw status of Close on the survivors
  int status_agree = 1;  ///< 1 iff every survivor returned the same status
  int verify_state = -1;  ///< FileState as int; -1 = no file on disk
  double vtime_us = 0;
  std::uint64_t crashes = 0;
  std::uint64_t straggled = 0;
  std::uint64_t transients = 0;
  // ---- integrity columns ----
  int read_status = 0;  ///< worst per-rank raw status of the read-back phase
  std::uint64_t write_flips = 0;  ///< pfs write-payload bitflips injected
  std::uint64_t read_flips = 0;   ///< pfs transient read bitflips injected
  std::uint64_t decay_hits = 0;   ///< persisted at-rest corruptions injected
  int scrub_trusted = -1;         ///< table trusted by the scrub; -1 = n/a
  std::uint64_t scrub_clean = 0;
  std::uint64_t scrub_corrupt = 0;
  std::uint64_t scrub_unsummed = 0;
};

/// First data byte declared by the on-disk header (fault-free harness read).
std::uint64_t DataStart(pfs::FileSystem& fs, const std::string& path) {
  auto f = fs.Open(path);
  if (!f.ok()) return 0;
  std::vector<std::byte> head(64 * 1024);
  f.value().HarnessRead(0, pnc::ByteSpan(head.data(), head.size()), 0.0);
  auto h =
      ncformat::Header::Decode(pnc::ConstByteSpan(head.data(), head.size()));
  if (!h.ok() || h.value().vars.empty()) return 0;
  std::uint64_t begin = h.value().vars[0].begin;
  for (const auto& v : h.value().vars) begin = std::min(begin, v.begin);
  return begin;
}

Outcome RunOne(const Schedule& sched, int nprocs, const simmpi::Info& info) {
  pfs::FileSystem fs;
  if (sched.transient_nth != 0 || sched.write_bitflip_prob > 0) {
    pfs::FaultPolicy p;
    p.seed = kFlipSeed;
    p.transient_every_nth = sched.transient_nth;
    p.bitflip_write_prob = sched.write_bitflip_prob;
    fs.SetFaultPolicy(p);
  }
  std::vector<int> close_status(static_cast<std::size_t>(nprocs), 0);
  const simmpi::RunResult run = simmpi::Run(
      nprocs,
      [&](simmpi::Comm& c) {
        auto r = pnetcdf::Dataset::Create(c, fs, "chaos.nc", info);
        if (!r.ok()) {
          close_status[static_cast<std::size_t>(c.rank())] = r.status().raw();
          return;
        }
        auto ds = std::move(r).value();
        const auto time = ds.DefDim("time", pnetcdf::kUnlimited);
        const auto x = ds.DefDim("x", 8);
        const auto v =
            ds.DefVar("r", ncformat::NcType::kInt, {time.value(), x.value()});
        pnc::Status st = ds.EndDef();
        // Everyone crosses any virtual-time crash deadline here so a timed
        // death lands at the next collective entry, not mid-definition.
        c.clock().AdvanceTo(2e12);
        for (std::uint64_t rec = 0; rec < 2 && st.ok(); ++rec) {
          const std::int32_t base =
              static_cast<std::int32_t>(100 * rec + 10 * c.rank());
          const std::vector<std::int32_t> mine = {base, base + 1};
          const std::uint64_t start[] = {
              rec, static_cast<std::uint64_t>(2 * c.rank())};
          const std::uint64_t count[] = {1, 2};
          st = ds.PutVaraAll<std::int32_t>(v.value(), start, count, mine);
        }
        close_status[static_cast<std::size_t>(c.rank())] = ds.Close().raw();
      },
      simmpi::CostModel{}, sched.faults);

  Outcome out;
  out.survivors = nprocs - static_cast<int>(run.crashed_ranks.size());
  out.vtime_us = run.max_time_ns / 1000.0;
  out.crashes = run.fault_counters.crashes;
  out.straggled = run.fault_counters.straggled_sends;
  out.transients = fs.stats().transient_faults;
  out.write_flips = fs.stats().write_bitflips;
  bool first = true;
  for (int r = 0; r < nprocs; ++r) {
    bool dead = false;
    for (int cr : run.crashed_ranks) dead = dead || cr == r;
    if (dead) continue;
    const int st = close_status[static_cast<std::size_t>(r)];
    if (first) {
      out.close_status = st;
      first = false;
    } else if (st != out.close_status) {
      out.status_agree = 0;
    }
  }

  // Each phase below starts its clocks at zero, so it starts on idle
  // servers too (pfs::FileSystem::ResetTime), not queued behind the
  // previous phase's requests.
  //
  // Read-back phase: re-open read-only under transient read flips; the
  // verify-on-read path either heals every flip (status 0) or surfaces
  // kDataCorrupt — the baseline freezes which one this seed produces.
  if (sched.readback_bitflip_prob > 0 && fs.Exists("chaos.nc")) {
    fs.ResetTime();
    pfs::FaultPolicy p;
    p.seed = kFlipSeed + 1;
    p.bitflip_read_prob = sched.readback_bitflip_prob;
    fs.SetFaultPolicy(p);
    std::vector<int> rb(static_cast<std::size_t>(nprocs), 0);
    simmpi::Run(
        nprocs,
        [&](simmpi::Comm& c) {
          auto r = pnetcdf::Dataset::Open(c, fs, "chaos.nc",
                                          /*writable=*/false, info);
          if (!r.ok()) {
            rb[static_cast<std::size_t>(c.rank())] = r.status().raw();
            return;
          }
          auto ds = std::move(r).value();
          pnc::Status st = pnc::Status::Ok();
          const auto vid = ds.VarId("r");
          if (vid.ok()) {
            std::vector<std::int32_t> mine(4);
            const std::uint64_t start[] = {
                0, static_cast<std::uint64_t>(2 * c.rank())};
            const std::uint64_t count[] = {2, 2};
            st = ds.GetVaraAll<std::int32_t>(vid.value(), start, count, mine);
          } else {
            st = vid.status();
          }
          const pnc::Status cl = ds.Close();
          rb[static_cast<std::size_t>(c.rank())] =
              !st.ok() ? st.raw() : cl.raw();
        },
        simmpi::CostModel{}, {});
    for (int r = 0; r < nprocs; ++r)
      out.read_status =
          std::min(out.read_status, rb[static_cast<std::size_t>(r)]);
    out.read_flips = fs.stats().bitflips;
  }

  // Decay phase: persist exactly one at-rest flip into the first data byte
  // (a 1-byte faulted read under corrupt_at_rest=1.0 damages the store),
  // then let the scrub below prove it is found.
  if (sched.decay && fs.Exists("chaos.nc")) {
    fs.SetFaultPolicy({});
    fs.ResetTime();
    const std::uint64_t target = DataStart(fs, "chaos.nc");
    // DataStart's harness read and the flip below both start at clock 0;
    // the flip must not queue behind that read, which is no part of the
    // phase.
    fs.ResetTime();
    pfs::FaultPolicy p;
    p.seed = kFlipSeed + 2;
    p.corrupt_at_rest = 1.0;
    fs.SetFaultPolicy(p);
    if (auto f = fs.Open("chaos.nc"); f.ok()) {
      std::byte b{};
      f.value().TryRead(target, pnc::ByteSpan(&b, 1), 0.0);
    }
    out.decay_hits = fs.stats().at_rest_corruptions;
  }

  // Verify + scrub run on a rebooted (fault-free) filesystem so they report
  // what is durably on disk, not fresh transient noise.
  fs.SetFaultPolicy({});
  fs.ResetTime();
  if (fs.Exists("chaos.nc")) {
    auto vr = nctools::VerifyFile(fs, "chaos.nc", {.data = true});
    out.verify_state = vr.ok() ? static_cast<int>(vr.value().state) : -2;
    if (vr.ok() && vr.value().scrub.has_value()) {
      const ncformat::ScrubReport& sc = *vr.value().scrub;
      out.scrub_trusted = sc.trusted ? 1 : 0;
      out.scrub_clean = sc.clean;
      out.scrub_corrupt = sc.corrupt;
      out.scrub_unsummed = sc.unsummed;
    }
  }
  return out;
}

int Run(const bench::Args& args, bench::Recorder& rec) {
  simmpi::Info info;
  bench::ApplyHintOverrides(args, info);
  const int nprocs = bench::ProcsList(args, {4})[0];

  std::printf("Chaos matrix: rank-fault + corruption schedules x pfs "
              "transients, %d ranks\n", nprocs);
  std::printf("%-27s | %4s %6s %5s %6s | %5s %5s %5s | %5s %5s %5s %6s | "
              "%2s %4s %4s %4s | %10s\n",
              "schedule", "surv", "close", "agree", "verify", "crash",
              "strag", "trans", "wflip", "rflip", "decay", "rdst", "tr",
              "cln", "bad", "uns", "vtime(us)");
  for (const Schedule& sched : BuildSchedules()) {
    rec.BeginConfig();
    const Outcome o = RunOne(sched, nprocs, info);
    rec.EndConfig(bench::JsonObj()
                      .Str("schedule", sched.name)
                      .Int("nprocs", static_cast<std::uint64_t>(nprocs)),
                  bench::JsonObj()
                      .Int("survivors", static_cast<std::uint64_t>(o.survivors))
                      .Num("close_status", o.close_status)
                      .Int("status_agree",
                           static_cast<std::uint64_t>(o.status_agree))
                      .Num("verify_state", o.verify_state)
                      .Num("vtime_us", o.vtime_us)
                      .Int("crashes", o.crashes)
                      .Int("straggled_sends", o.straggled)
                      .Int("pfs_transients", o.transients)
                      .Num("read_status", o.read_status)
                      .Int("write_bitflips", o.write_flips)
                      .Int("read_bitflips", o.read_flips)
                      .Int("decay_hits", o.decay_hits)
                      .Num("scrub_trusted", o.scrub_trusted)
                      .Int("scrub_clean", o.scrub_clean)
                      .Int("scrub_corrupt", o.scrub_corrupt)
                      .Int("scrub_unsummed", o.scrub_unsummed));
    std::printf("%-27s | %4d %6d %5d %6d | %5llu %5llu %5llu | %5llu %5llu "
                "%5llu %6d | %2d %4llu %4llu %4llu | %10.1f\n",
                sched.name, o.survivors, o.close_status, o.status_agree,
                o.verify_state, (unsigned long long)o.crashes,
                (unsigned long long)o.straggled,
                (unsigned long long)o.transients,
                (unsigned long long)o.write_flips,
                (unsigned long long)o.read_flips,
                (unsigned long long)o.decay_hits, o.read_status,
                o.scrub_trusted, (unsigned long long)o.scrub_clean,
                (unsigned long long)o.scrub_corrupt,
                (unsigned long long)o.scrub_unsummed, o.vtime_us);
    std::fflush(stdout);
  }
  std::printf("\nclose: agreed survivor status (0 ok, -1005 rank failed); "
              "verify: 0 clean,\n1 torn-recoverable, 2 corrupt, -1 no file. "
              "rdst: worst read-back status\n(0 healed/clean, -1006 "
              "kDataCorrupt surfaced). tr/cln/bad/uns: scrub verdict\n"
              "(table trusted, chunks clean/corrupt/unsummed). All columns "
              "are deterministic\ninvariants backed by "
              "bench/baselines/chaos.json at zero tolerance.\n");
  return 0;
}

const bench::BenchDef kBench{
    "chaos_matrix",
    "rank/corruption fault schedules x pfs faults: failure-semantics "
    "invariants",
    {"procs", "hints"},
    Run};

}  // namespace

BENCH_REGISTER(kBench)
