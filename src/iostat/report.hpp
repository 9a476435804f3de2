// iostat::Report — cross-rank reduction of the counter registry, plus the
// stable JSON schema ("pnc-iostat-v1") shared by the benches' BENCH_*.json
// records, the PNC_IOSTAT_REPORT auto-dump, and the ncstat CLI.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "iostat/iostat.hpp"
#include "iostat/pattern.hpp"
#include "iostat/timeline.hpp"
#include "util/status.hpp"

namespace iostat {

struct Report {
  /// Per-counter reduction across ranks [0, nranks).
  struct Agg {
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::uint64_t sum = 0;
    double mean = 0.0;
  };

  int nranks = 0;
  std::array<Agg, kNumCounters> counters{};

  // Derived ratios (always finite; 1.0 / 0.0 when the path never ran).
  /// Data-sieving read/write amplification: bytes moved at the file divided
  /// by useful payload bytes, over everything routed through SievedTransfer.
  double sieve_amplification = 1.0;
  /// Two-phase amplification: bytes aggregators moved at the file divided by
  /// the payload routed through collective buffering (RMW padding shows up
  /// here).
  double twophase_amplification = 1.0;
  /// Fraction of two-phase time spent in the exchange phase
  /// (exchange / (exchange + io)).
  double exchange_frac = 0.0;
  /// Mean busy fraction of one pfs server over the schedule horizon:
  /// busy_ns / (servers * horizon_ns). How loaded the server pool was.
  double pfs_busy_frac = 0.0;
  /// Share of server-side time requests spent queued rather than served:
  /// queue_wait / (queue_wait + busy): how contended the servers were.
  double pfs_queue_wait_frac = 0.0;

  /// Access-pattern profile (pattern.hpp). `pattern.present` is false when
  /// the profiler recorded nothing (gated off, or no I/O ran); the JSON then
  /// omits the "pattern" member entirely, keeping gated-off output
  /// byte-identical to pre-profiler reports.
  PatternSummary pattern;

  /// Time-resolved telemetry (timeline.hpp), same presence contract as
  /// `pattern`: absent from the JSON unless PNC_IOSTAT_TIMELINE recorded
  /// something, so gated-off reports stay byte-identical.
  TimelineSummary timeline;

  [[nodiscard]] const Agg& operator[](Ctr c) const {
    return counters[static_cast<std::size_t>(c)];
  }
};

/// Reduce the process-wide registry into a Report. Every rank's counters
/// must be final (call after the collective Close barrier or after
/// simmpi::Run returns).
Report BuildReport();

/// One-line JSON encoding of the report (schema "pnc-iostat-v1"):
///   {"schema":"pnc-iostat-v1","nranks":N,
///    "counters":{"pfs.read_ops":{"min":..,"max":..,"sum":..,"mean":..},...},
///    "derived":{"sieve_amplification":..,"twophase_amplification":..,
///               "exchange_frac":..},
///    "pattern":{"schema":"pnc-pattern-v1",...},   // only when present
///    "timeline":{"schema":"pnc-timeline-v1",...}} // only when present
std::string ToJson(const Report& rep);

/// Parse a report previously produced by ToJson (or embedded as the
/// "iostat" member of a bench record). Tolerates unknown counter keys.
pnc::Result<Report> ParseReportJson(std::string_view text);

/// Human-readable layer breakdown (the ncstat output).
std::string PrettyPrint(const Report& rep);

}  // namespace iostat
