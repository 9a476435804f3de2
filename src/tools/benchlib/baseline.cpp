#include "tools/benchlib/baseline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "tools/cli.hpp"

namespace benchlib {
namespace {

constexpr double kInfDelta = 1e99;

bool EndsWith(const std::string& s, const char* suffix) {
  const std::size_t n = std::string(suffix).size();
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

MetricDelta CompareMetric(const std::string& name, double base, double cur,
                          double tolerance_pct) {
  MetricDelta d;
  d.name = name;
  d.base = base;
  d.cur = cur;
  if (base == cur) {
    d.delta_pct = 0.0;
    return d;
  }
  if (base != 0.0) {
    d.delta_pct = (cur - base) / std::fabs(base) * 100.0;
  } else {
    d.delta_pct = cur > 0 ? kInfDelta : -kInfDelta;
  }
  const bool harmful = MetricDirection(name) == Direction::kHigherIsBetter
                           ? d.delta_pct < 0
                           : d.delta_pct > 0;
  if (std::fabs(d.delta_pct) > tolerance_pct) {
    d.regressed = harmful;
    d.improved = !harmful;
  }
  return d;
}

const char* StatusWord(RecordDelta::Status s) {
  switch (s) {
    case RecordDelta::Status::kOk: return "ok";
    case RecordDelta::Status::kImproved: return "improved";
    case RecordDelta::Status::kRegressed: return "REGRESSED";
    case RecordDelta::Status::kMissing: return "MISSING";
    case RecordDelta::Status::kNew: return "NEW";
  }
  return "?";
}

std::string FmtPct(double pct) {
  char buf[48];
  if (pct >= kInfDelta) return "+inf%";
  if (pct <= -kInfDelta) return "-inf%";
  std::snprintf(buf, sizeof buf, "%+.4g%%", pct);
  return buf;
}

std::string FmtNum(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

Direction MetricDirection(const std::string& name) {
  return EndsWith(name, "mbps") || EndsWith(name, "speedup")
             ? Direction::kHigherIsBetter
             : Direction::kLowerIsBetter;
}

std::vector<std::pair<std::string, double>> ComparableMetrics(
    const Record& rec) {
  std::vector<std::pair<std::string, double>> out = rec.metrics;
  if (rec.has_iostat) {
    const iostat::Report& r = rec.iostat;
    const auto sum = [&r](iostat::Ctr c) {
      return static_cast<double>(r[c].sum);
    };
    out.emplace_back("iostat.pfs_bytes",
                     sum(iostat::Ctr::kPfsBytesRead) +
                         sum(iostat::Ctr::kPfsBytesWritten));
    out.emplace_back("iostat.pfs_bytes_read",
                     sum(iostat::Ctr::kPfsBytesRead));
    out.emplace_back("iostat.pfs_ops", sum(iostat::Ctr::kPfsReadOps) +
                                           sum(iostat::Ctr::kPfsWriteOps));
    out.emplace_back("iostat.mpi_messages", sum(iostat::Ctr::kMpiMessages));
    out.emplace_back("iostat.exchange_msgs",
                     sum(iostat::Ctr::kMpiioExchangeMsgs));
    out.emplace_back("iostat.sieve_amplification", r.sieve_amplification);
    out.emplace_back("iostat.twophase_amplification",
                     r.twophase_amplification);
    out.emplace_back("iostat.exchange_frac", r.exchange_frac);
  }
  return out;
}

int CompareResult::ExitCode() const {
  return Passed() ? nctools::kExitOk : nctools::kExitCondition;
}

CompareResult Compare(const ResultsFile& baseline, const ResultsFile& current,
                      double tolerance_pct) {
  CompareResult res;
  // Identity: (bench, config). Duplicate identities within one file keep
  // first occurrence (the suites never emit duplicates; a hand-edited file
  // that does is compared on its first record).
  std::map<std::string, const Record*> cur_by_key;
  for (const Record& r : current.records)
    cur_by_key.emplace(r.Key(), &r);

  std::map<std::string, bool> baseline_seen;
  for (const Record& b : baseline.records) {
    if (!baseline_seen.emplace(b.Key(), true).second) continue;
    RecordDelta rd;
    rd.bench = b.bench;
    rd.config_text = b.config_text;
    const auto it = cur_by_key.find(b.Key());
    if (it == cur_by_key.end()) {
      rd.status = RecordDelta::Status::kMissing;
      ++res.num_missing;
      res.records.push_back(std::move(rd));
      continue;
    }
    const Record* c = it->second;
    cur_by_key.erase(it);

    std::map<std::string, double> cur_metrics;
    for (const auto& [k, v] : ComparableMetrics(*c)) cur_metrics[k] = v;
    bool regressed = false, improved = false;
    for (const auto& [k, v] : ComparableMetrics(b)) {
      const auto cit = cur_metrics.find(k);
      // A metric present in the baseline but gone from the current record
      // compares against 0 (shows up as a full-size delta).
      MetricDelta d = CompareMetric(
          k, v, cit == cur_metrics.end() ? 0.0 : cit->second, tolerance_pct);
      regressed |= d.regressed;
      improved |= d.improved;
      rd.deltas.push_back(std::move(d));
    }
    rd.status = regressed ? RecordDelta::Status::kRegressed
                : improved ? RecordDelta::Status::kImproved
                           : RecordDelta::Status::kOk;
    if (regressed) ++res.num_regressed;
    else if (improved) ++res.num_improved;
    else ++res.num_ok;
    res.records.push_back(std::move(rd));
  }

  // Whatever remains in the current run has no baseline counterpart: the
  // suite composition changed, which needs an explicit --update-baseline.
  for (const Record& r : current.records) {
    const auto it = cur_by_key.find(r.Key());
    if (it == cur_by_key.end() || it->second != &r) continue;
    RecordDelta rd;
    rd.bench = r.bench;
    rd.config_text = r.config_text;
    rd.status = RecordDelta::Status::kNew;
    ++res.num_new;
    res.records.push_back(std::move(rd));
  }
  return res;
}

std::string RenderDeltaTable(const CompareResult& res, int max_regressions) {
  std::string out;
  char line[512];
  std::snprintf(line, sizeof line,
                "baseline check: %d ok, %d improved, %d regressed, %d "
                "missing, %d new -> %s\n",
                res.num_ok, res.num_improved, res.num_regressed,
                res.num_missing, res.num_new,
                res.Passed() ? "PASS" : "FAIL");
  out += line;

  // Per-record detail for everything that is not plain ok.
  for (const RecordDelta& rd : res.records) {
    if (rd.status == RecordDelta::Status::kOk) continue;
    std::snprintf(line, sizeof line, "\n[%s] %s %s\n", StatusWord(rd.status),
                  rd.bench.c_str(), rd.config_text.c_str());
    out += line;
    if (rd.status == RecordDelta::Status::kMissing) {
      out += "  record in baseline but not produced by this run\n";
      continue;
    }
    if (rd.status == RecordDelta::Status::kNew) {
      out += "  record not in baseline (run with --update-baseline to "
             "adopt)\n";
      continue;
    }
    std::snprintf(line, sizeof line, "  %-32s %14s %14s %12s\n", "metric",
                  "baseline", "current", "delta");
    out += line;
    for (const MetricDelta& d : rd.deltas) {
      if (!d.regressed && !d.improved && d.delta_pct == 0.0) continue;
      std::snprintf(line, sizeof line, "  %-32s %14s %14s %12s%s\n",
                    d.name.c_str(), FmtNum(d.base).c_str(),
                    FmtNum(d.cur).c_str(), FmtPct(d.delta_pct).c_str(),
                    d.regressed ? "  <-- regression"
                    : d.improved ? "  (improvement)"
                                 : "");
      out += line;
    }
  }

  // Worst offenders across all records, ranked by |delta|.
  struct Offender {
    const RecordDelta* rec;
    const MetricDelta* metric;
  };
  std::vector<Offender> worst;
  for (const RecordDelta& rd : res.records)
    for (const MetricDelta& d : rd.deltas)
      if (d.regressed) worst.push_back({&rd, &d});
  if (!worst.empty()) {
    std::stable_sort(worst.begin(), worst.end(),
                     [](const Offender& a, const Offender& b) {
                       return std::fabs(a.metric->delta_pct) >
                              std::fabs(b.metric->delta_pct);
                     });
    out += "\ntop regressions:\n";
    const int n = std::min<int>(max_regressions,
                                static_cast<int>(worst.size()));
    for (int i = 0; i < n; ++i) {
      std::snprintf(line, sizeof line, "  %2d. %-24s %-32s %12s\n", i + 1,
                    worst[static_cast<std::size_t>(i)].rec->bench.c_str(),
                    worst[static_cast<std::size_t>(i)].metric->name.c_str(),
                    FmtPct(worst[static_cast<std::size_t>(i)]
                               .metric->delta_pct)
                        .c_str());
      out += line;
    }
  }
  return out;
}

}  // namespace benchlib
