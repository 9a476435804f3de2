// Baseline comparison engine behind `ncbench --check` and `ncstat --diff`:
// matches pnc-bench-v1 records by (bench, config), compares every numeric
// metric — bandwidth plus the iostat-derived health metrics (two-phase
// exchange fraction, sieve/two-phase amplification, total and read pfs
// bytes, message counts) — against a committed baseline, and renders a
// per-metric delta table with the top regressions.
//
// Exit-code contract (shared by ncbench and ncstat --diff, see
// src/tools/cli.hpp): 0 = all records match within tolerance; 1 = at least
// one regression, missing record, or unmatched new record; 2 = usage or I/O
// or parse error.
#pragma once

#include <string>
#include <vector>

#include "tools/benchlib/records.hpp"

namespace benchlib {

/// Whether a bigger value of a metric is better or worse. Derived from the
/// metric name: throughput-like names (ending in "mbps" or "speedup") are
/// higher-is-better; everything else the benches emit (ms, bytes, requests,
/// amplification factors, exchange fractions, message counts) is
/// lower-is-better.
enum class Direction { kHigherIsBetter, kLowerIsBetter };
Direction MetricDirection(const std::string& name);

/// One metric compared across baseline and current.
struct MetricDelta {
  std::string name;
  double base = 0.0;
  double cur = 0.0;
  /// Signed relative change in percent ((cur-base)/base*100); +/-inf encoded
  /// as +/-1e99 when base == 0 and cur != 0.
  double delta_pct = 0.0;
  /// Change in the harmful direction larger than the tolerance.
  bool regressed = false;
  /// Change in the helpful direction larger than the tolerance (reported,
  /// never fatal — regenerate the baseline to lock it in).
  bool improved = false;
};

/// Comparison outcome for one (bench, config) identity.
struct RecordDelta {
  enum class Status {
    kOk,          ///< every metric within tolerance
    kImproved,    ///< no regressions, at least one improvement
    kRegressed,   ///< at least one metric regressed
    kMissing,     ///< in the baseline, absent from the current run
    kNew,         ///< in the current run, absent from the baseline
  };
  std::string bench;
  std::string config_text;
  Status status = Status::kOk;
  std::vector<MetricDelta> deltas;  ///< empty for kMissing / kNew
};

struct CompareResult {
  std::vector<RecordDelta> records;
  int num_ok = 0;
  int num_improved = 0;
  int num_regressed = 0;
  int num_missing = 0;
  int num_new = 0;

  [[nodiscard]] bool Passed() const {
    return num_regressed == 0 && num_missing == 0 && num_new == 0;
  }
  /// kExitOk when Passed(), else kExitCondition (see cli.hpp).
  [[nodiscard]] int ExitCode() const;
};

/// The metric vector the comparator sees for a record: the record's own
/// numeric metrics plus iostat-derived health metrics ("iostat.*") when an
/// iostat report is embedded.
std::vector<std::pair<std::string, double>> ComparableMetrics(
    const Record& rec);

/// Compare `current` against `baseline`. `tolerance_pct` is the allowed
/// relative drift per metric in percent; the default 0 demands exact
/// equality, which the deterministic smoke suite sustains (see
/// bench/suites.cpp).
CompareResult Compare(const ResultsFile& baseline, const ResultsFile& current,
                      double tolerance_pct);

/// Render the comparison: one summary line, then a per-metric delta table
/// for every non-ok record, regressions ranked worst-first (top
/// `max_regressions` rows). Returns the rendered text.
std::string RenderDeltaTable(const CompareResult& res,
                             int max_regressions = 20);

}  // namespace benchlib
