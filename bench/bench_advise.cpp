// Advisor closed loop: run a deliberately mistuned workload (independent
// strided column writes with a starved 4 KiB write-sieve buffer), feed the
// iostat report to the rule-based tuning advisor (iostat/advise.hpp), apply
// the recommendations it emits, and rerun. The committed numbers are the
// advisor's contract: the mistuned and advised virtual makespans, the
// speedup, the recommendation count, which rules fired, and the two
// verdicts (0 = healthy) — `too_few_recommendations` (the ISSUE gate wants
// >= 3 ranked, evidence-backed recommendations on this workload) and
// `advised_not_faster` (applying the advice must improve virtual time).
// bench/baselines/advise.json freezes all of them at zero tolerance.
//
// Determinism: simmpi grants pfs requests in virtual-time order, so the
// mistuned phase's concurrent independent writes (each one several
// sequential pfs requests: sieve read-modify-write windows, checksum
// chunks) queue at the servers in the same order on every run, and the
// advised phase applies every hint the advisor gives, cb_nodes included.
//
// Usage: advise [--procs=4] [--hints=k=v,...]
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/registry.hpp"
#include "iostat/advise.hpp"
#include "pfs/pfs.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"

namespace {

constexpr std::uint64_t kRows = 8192;  // x 8 B x procs columns = 256 KiB @ 4

void Accumulate(int* errors, const pnc::Status& st) {
  if (!st.ok()) ++*errors;
}

struct PhaseResult {
  double ms = 0;  ///< virtual makespan of the measured write, rank-0 clock
  int errors = 0;
};

/// One pass of the workload: m(kRows, procs) doubles, each rank writing its
/// column (fully interleaved at the file, 8 B extents on a 32 B stride).
PhaseResult RunWorkload(int nprocs, bool collective,
                        const simmpi::Info& info) {
  pfs::FileSystem fs;
  PhaseResult out;
  simmpi::Run(nprocs, [&](simmpi::Comm& c) {
    auto r = pnetcdf::Dataset::Create(c, fs, "advise.nc", info);
    if (!r.ok()) {
      if (c.rank() == 0) ++out.errors;
      return;
    }
    auto ds = std::move(r).value();
    const auto rd = ds.DefDim("row", kRows);
    const auto cd = ds.DefDim("col", static_cast<std::uint64_t>(c.size()));
    const auto v =
        ds.DefVar("m", ncformat::NcType::kDouble, {rd.value(), cd.value()});
    Accumulate(&out.errors, ds.EndDef());
    std::vector<double> mine(kRows, 1.0 + c.rank());
    const std::uint64_t start[] = {0, static_cast<std::uint64_t>(c.rank())};
    const std::uint64_t count[] = {kRows, 1};
    c.SyncClocksToMax();
    const double t0 = c.clock().now();
    if (collective) {
      Accumulate(&out.errors, ds.PutVaraAll<double>(v.value(), start, count,
                                                    mine));
    } else {
      Accumulate(&out.errors, ds.BeginIndepData());
      c.Barrier();  // co-locate the batch in virtual time
      Accumulate(&out.errors,
                 ds.PutVara<double>(v.value(), start, count, mine));
      Accumulate(&out.errors, ds.EndIndepData());
    }
    c.SyncClocksToMax();
    if (c.rank() == 0) out.ms = (c.clock().now() - t0) / 1e6;
    Accumulate(&out.errors, ds.Close());
  });
  return out;
}

int Run(const bench::Args& args, bench::Recorder& rec) {
  const int nprocs = bench::ProcsList(args, {4})[0];
  std::printf("Advise: mistuned -> advisor -> advised closed loop, %d ranks, "
              "%d servers\n\n",
              nprocs, pfs::Config{}.num_servers);

  // ---- mistuned: independent strided writes, 4 KiB write-sieve buffer ----
  simmpi::Info bad;
  bad.Set("ind_wr_buffer_size", "4096");
  bench::ApplyHintOverrides(args, bad);
  iostat::Registry::Get().Reset();
  rec.BeginConfig();
  const PhaseResult mis = RunWorkload(nprocs, /*collective=*/false, bad);
  const iostat::Report mis_rep = iostat::BuildReport();
  const std::vector<iostat::Recommendation> recs = iostat::Advise(mis_rep);
  std::printf("mistuned: indep strided write, ind_wr_buffer_size=4096, "
              "%.3f virtual ms\n\n", mis.ms);
  std::fputs(iostat::PrettyPrintAdvice(recs).c_str(), stdout);
  rec.EndConfig(bench::JsonObj()
                    .Str("phase", "mistuned")
                    .Int("nprocs", static_cast<std::uint64_t>(nprocs)),
                bench::JsonObj()
                    .Num("virtual_ms", mis.ms)
                    .Int("recommendations", recs.size())
                    .Num("errors", mis.errors));

  // ---- advised: apply what the advisor said ----
  simmpi::Info good;
  bool use_collective = false;
  for (const iostat::Recommendation& r : recs) {
    if (r.rule == "use-collective") use_collective = true;
    if (!r.hint_key.empty()) good.Set(r.hint_key, r.hint_value);
  }
  bench::ApplyHintOverrides(args, good);
  iostat::Registry::Get().Reset();
  rec.BeginConfig();
  const PhaseResult adv = RunWorkload(nprocs, use_collective, good);
  std::printf("\nadvised:  %s write, advisor hints applied, %.3f virtual "
              "ms\n", use_collective ? "collective" : "independent", adv.ms);
  rec.EndConfig(bench::JsonObj()
                    .Str("phase", "advised")
                    .Int("nprocs", static_cast<std::uint64_t>(nprocs)),
                bench::JsonObj()
                    .Num("virtual_ms", adv.ms)
                    .Num("errors", adv.errors));

  // ---- the advisor verdicts the baseline freezes (0 = healthy) ----
  const auto fired = [&recs](const char* rule) -> int {
    for (const auto& r : recs)
      if (r.rule == rule) return 1;
    return 0;
  };
  const double speedup = adv.ms > 0 ? mis.ms / adv.ms : 0;
  const int too_few = recs.size() >= 3 ? 0 : 1;
  const int not_faster = adv.ms < mis.ms ? 0 : 1;
  rec.BeginConfig();
  rec.EndConfig(bench::JsonObj()
                    .Str("phase", "verdict")
                    .Int("nprocs", static_cast<std::uint64_t>(nprocs)),
                bench::JsonObj()
                    .Num("too_few_recommendations", too_few)
                    .Num("advised_not_faster", not_faster)
                    .Int("recommendations", recs.size())
                    .Num("advise_speedup", speedup)
                    .Num("rule_use_collective", fired("use-collective"))
                    .Num("rule_raise_wr_sieve", fired("raise-wr-sieve-buffer"))
                    .Num("rule_restripe", fired("restripe-hot-server"))
                    .Num("rule_small_requests", fired("small-pfs-requests"))
                    .Num("advise_errors", mis.errors + adv.errors));

  std::printf("\nspeedup %.2fx, %zu recommendation(s); verdicts (0 = "
              "healthy): too_few_recommendations=%d advised_not_faster=%d\n",
              speedup, recs.size(), too_few, not_faster);
  std::printf("\nall columns are deterministic invariants backed by "
              "bench/baselines/advise.json at zero tolerance.\n");
  return 0;
}

const bench::BenchDef kBench{
    "advise",
    "mistuned workload -> ncstat advisor rules -> advised rerun; freezes the "
    "recommendation set and the speedup",
    {"procs", "hints"},
    Run};

}  // namespace

BENCH_REGISTER(kBench)
