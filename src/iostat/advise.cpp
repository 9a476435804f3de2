#include "iostat/advise.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "util/json.hpp"

namespace iostat {

using pnc::json::AppendF;

namespace {

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : std::string();
}

// Rule thresholds. Fixed constants so Advise() is a pure, reproducible
// function of the report (bench verdicts freeze rule outcomes at zero
// tolerance).
constexpr double kSmallExtent = 64.0 * 1024;    ///< "small" mean extent (B)
constexpr double kSieveAmpBad = 2.0;            ///< amplification worth acting on
constexpr double kAggImbalanceBad = 1.5;        ///< max/even aggregator ratio
constexpr double kServerShareBad = 0.30;        ///< hottest-server byte share
constexpr double kQueueWaitBad = 0.5;           ///< queued / (queued + busy)
constexpr double kExchangeBad = 0.6;            ///< exchange / two-phase time
constexpr double kSmallPfsRequest = 16.0 * 1024; ///< mean pfs request (B)

double Clamp(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

}  // namespace

std::vector<Recommendation> Advise(const Report& rep) {
  std::vector<Recommendation> recs;
  const PatternSummary& pat = rep.pattern;

  // Rule 1 — use-collective: noncontiguous independent access with small
  // extents is exactly the workload two-phase collective I/O exists for.
  // Evaluate per variable, report the worst offender.
  {
    const VarPattern* worst = nullptr;
    double worst_score = 0.0;
    for (const VarPattern& v : pat.vars) {
      if (v.indep == 0 || v.extent_bytes.count == 0) continue;
      const std::uint64_t noncontig = v.strided + v.random;
      if (noncontig <= v.contig) continue;
      const double mean = v.extent_bytes.mean();
      if (mean >= kSmallExtent) continue;
      const double score = Clamp(
          40.0 + 8.0 * std::log2(kSmallExtent / std::max(mean, 1.0)), 40.0,
          95.0);
      if (worst == nullptr || score > worst_score) {
        worst = &v;
        worst_score = score;
      }
    }
    if (worst != nullptr) {
      const bool writing = worst->writes >= worst->reads;
      Recommendation r;
      r.rule = "use-collective";
      r.score = worst_score;
      r.action = Format(
          "switch var '%s' to collective %s (put/get_vara_all) so two-phase "
          "aggregation batches the noncontiguous extents",
          worst->var.c_str(), writing ? "writes" : "reads");
      r.hint_key = writing ? "romio_cb_write" : "romio_cb_read";
      r.hint_value = "enable";
      r.evidence = Format(
          "%" PRIu64 " indep %s calls on '%s' (%" PRIu64 " strided, %" PRIu64
          " random vs %" PRIu64 " contig), mean extent %.0f B, sieve %s "
          "amplification %.1fx",
          worst->indep, writing ? "write" : "read", worst->var.c_str(),
          worst->strided, worst->random, worst->contig,
          worst->extent_bytes.mean(), writing ? "write" : "read",
          writing ? pat.SieveWriteAmp() : pat.SieveReadAmp());
      recs.push_back(std::move(r));
    }
  }

  // Rule 2 — raise-wr-sieve-buffer: write sieving is moving far more bytes
  // (RMW pre-reads + padding) than the callers asked for.
  if (pat.sieve_wr_windows > 0) {
    const double amp = pat.SieveWriteAmp();
    if (amp > kSieveAmpBad) {
      Recommendation r;
      r.rule = "raise-wr-sieve-buffer";
      r.score = Clamp(15.0 + 10.0 * amp, 0.0, 90.0);
      r.action =
          "raise ind_wr_buffer_size so each sieve window covers more useful "
          "payload per read-modify-write";
      r.hint_key = "ind_wr_buffer_size";
      r.hint_value = "4194304";
      r.evidence = Format(
          "write sieving moved %.1fx the useful bytes (%" PRIu64
          " windows: wanted %" PRIu64 " B, file %" PRIu64 " B)",
          amp, pat.sieve_wr_windows, pat.sieve_wr_wanted, pat.sieve_wr_file);
      recs.push_back(std::move(r));
    }
  }

  // Rule 3 — raise-rd-sieve-buffer: read sieving re-fetches data (small
  // buffer forces re-reading blocks it already touched).
  if (pat.sieve_rd_windows > 0) {
    const double amp = pat.SieveReadAmp();
    const double reread_frac =
        static_cast<double>(pat.sieve_rd_rereads) /
        static_cast<double>(pat.sieve_rd_windows);
    if (amp > kSieveAmpBad || pat.sieve_rd_rereads > pat.sieve_rd_windows / 4) {
      Recommendation r;
      r.rule = "raise-rd-sieve-buffer";
      r.score = Clamp(15.0 + 8.0 * amp + 40.0 * reread_frac, 0.0, 88.0);
      r.action =
          "raise ind_rd_buffer_size so sieved reads keep whole access spans "
          "resident instead of re-fetching them";
      r.hint_key = "ind_rd_buffer_size";
      r.hint_value = "8388608";
      r.evidence = Format(
          "read sieving moved %.1fx the useful bytes; %" PRIu64 " of %" PRIu64
          " windows re-fetched an already-seen 64 KiB block",
          amp, pat.sieve_rd_rereads, pat.sieve_rd_windows);
      recs.push_back(std::move(r));
    }
  }

  // Rule 4 — raise-cb-nodes: two-phase file traffic concentrated on too few
  // aggregator ranks relative to an even split.
  {
    const double imb = pat.AggImbalance(rep.nranks);
    if (imb > kAggImbalanceBad && rep.nranks > 1) {
      int top_rank = -1;
      std::uint64_t top = 0, total = 0;
      for (const auto& [rank, b] : pat.agg_bytes) {
        total += b;
        if (b > top) {
          top = b;
          top_rank = rank;
        }
      }
      const int servers = static_cast<int>(rep[Ctr::kPfsServers].max);
      const int want = std::min(rep.nranks, std::max(servers, 1));
      Recommendation r;
      r.rule = "raise-cb-nodes";
      r.score = Clamp(25.0 + 10.0 * imb, 0.0, 85.0);
      r.action = Format(
          "raise cb_nodes (e.g. to %d) so more ranks aggregate two-phase "
          "file windows in parallel",
          want);
      r.hint_key = "cb_nodes";
      r.hint_value = Format("%d", want);
      r.evidence = Format(
          "aggregator byte imbalance %.1fx: rank %d moved %.0f%% of %" PRIu64
          " two-phase file bytes across %d ranks",
          imb, top_rank,
          total > 0 ? 100.0 * static_cast<double>(top) /
                          static_cast<double>(total)
                    : 0.0,
          total, rep.nranks);
      recs.push_back(std::move(r));
    }
  }

  // Rule 5 — restripe-hot-server: one pfs server carries a disproportionate
  // byte share of a multi-server pool.
  {
    const auto [share, hottest] = pat.HottestServer();
    const int pool = static_cast<int>(rep[Ctr::kPfsServers].max);
    if (hottest >= 0 && pool > 1 &&
        share > std::max(kServerShareBad, 2.0 / pool)) {
      Recommendation r;
      r.rule = "restripe-hot-server";
      r.score = Clamp(100.0 * share, 0.0, 80.0);
      r.action = Format(
          "restripe the file (or spread offsets) so bytes fan out across the "
          "%d-server pool instead of server %d",
          pool, hottest);
      r.evidence = Format(
          "server %d carries %.0f%% of pfs bytes (even share would be %.0f%% "
          "across %d servers)",
          hottest, 100.0 * share, 100.0 / pool, pool);
      recs.push_back(std::move(r));
    }
  }

  // Rule 6 — queue-contention: requests spend more time queued at servers
  // than being served.
  if (rep.pfs_queue_wait_frac > kQueueWaitBad) {
    Recommendation r;
    r.rule = "queue-contention";
    r.score = Clamp(80.0 * rep.pfs_queue_wait_frac, 0.0, 75.0);
    r.action =
        "reduce in-flight concurrency: stagger writers, or spread the file "
        "over more I/O servers so fewer requests queue at each one";
    r.evidence = Format(
        "%.0f%% of pfs server time is queue wait (%.1f ms queued vs %.1f ms "
        "busy)",
        100.0 * rep.pfs_queue_wait_frac,
        static_cast<double>(rep[Ctr::kPfsQueueWaitNs].sum) / 1e6,
        static_cast<double>(rep[Ctr::kPfsBusyNs].sum) / 1e6);
    recs.push_back(std::move(r));
  }

  // Rule 7 — exchange-bound: two-phase spends most of its time shuffling
  // data between ranks rather than at the file; bigger collective buffers
  // amortize the exchange.
  if (rep.exchange_frac > kExchangeBad &&
      rep[Ctr::kMpiioCollPayloadBytes].sum > 0) {
    Recommendation r;
    r.rule = "exchange-bound";
    r.score = Clamp(70.0 * rep.exchange_frac, 0.0, 70.0);
    r.action =
        "raise cb_buffer_size so each two-phase window moves more bytes per "
        "exchange round";
    r.hint_key = "cb_buffer_size";
    r.hint_value = "8388608";
    r.evidence =
        Format("two-phase spends %.0f%% of its time in the exchange phase",
               100.0 * rep.exchange_frac);
    recs.push_back(std::move(r));
  }

  // Rule 8 — small-pfs-requests: the file system sees many tiny requests;
  // per-request latency dominates payload time.
  {
    const std::uint64_t ops =
        rep[Ctr::kPfsReadOps].sum + rep[Ctr::kPfsWriteOps].sum;
    const std::uint64_t bytes =
        rep[Ctr::kPfsBytesRead].sum + rep[Ctr::kPfsBytesWritten].sum;
    if (ops > 16 && rep.nranks > 0 &&
        ops > static_cast<std::uint64_t>(4 * rep.nranks)) {
      const double mean_req =
          static_cast<double>(bytes) / static_cast<double>(ops);
      if (mean_req < kSmallPfsRequest && bytes > 0) {
        Recommendation r;
        r.rule = "small-pfs-requests";
        r.score = Clamp(
            10.0 + 5.0 * std::log2(kSmallPfsRequest / std::max(mean_req, 1.0)),
            10.0, 65.0);
        r.action =
            "batch small requests: route them through collective buffering "
            "or coalesce with nonblocking iput/iget + wait_all";
        r.evidence = Format(
            "%" PRIu64 " pfs requests averaged %.0f B each — per-request "
            "overhead dominates the payload",
            ops, mean_req);
        recs.push_back(std::move(r));
      }
    }
  }

  // Most severe first; stable sort keeps rule-declaration order on ties.
  std::stable_sort(recs.begin(), recs.end(),
                   [](const Recommendation& a, const Recommendation& b) {
                     return a.score > b.score;
                   });
  return recs;
}

std::string PrettyPrintAdvice(const std::vector<Recommendation>& recs) {
  std::string out;
  if (recs.empty()) {
    out = "advice: no recommendations — the access pattern looks well "
          "tuned\n";
    return out;
  }
  AppendF(out, "advice (%zu recommendation%s):\n", recs.size(),
          recs.size() == 1 ? "" : "s");
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Recommendation& r = recs[i];
    AppendF(out, "  #%zu [%s, score %.1f] %s\n", i + 1, r.rule.c_str(),
            r.score, r.action.c_str());
    AppendF(out, "      evidence: %s\n", r.evidence.c_str());
    if (!r.hint_key.empty())
      AppendF(out, "      hint: %s=%s\n", r.hint_key.c_str(),
              r.hint_value.c_str());
  }
  return out;
}

}  // namespace iostat
