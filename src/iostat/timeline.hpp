// Time-resolved telemetry: virtual-time bucketed rate timelines.
//
// The counters in iostat.hpp and the profiler in pattern.hpp report
// end-of-run totals; a mid-run bandwidth collapse, a queue-depth spike or a
// tenant briefly starving is invisible unless it survives into the final
// sum. This module buckets the same capture points by virtual time into
// per-interval series — per-server pfs bytes/busy/queue depth, per-tenant
// bytes/queue-wait p99/deadline misses, and global tracks for exchange
// messages, retries, faults, mode switches and straggler wait — and feeds
// an online SLO health monitor (health.hpp) at every sealed bucket
// boundary.
//
// The timeline is one sink of PNC_OBSERVE (observe.hpp). Cost discipline
// mirrors pattern.hpp:
//   * Compile-time: -DPNC_IOSTAT=OFF expands PNC_OBSERVE to nothing.
//   * Runtime: OFF by default — PNC_IOSTAT_TIMELINE=1 opts in, so the
//     iostat report JSON (and every committed bench baseline embedding it)
//     is byte-identical when unset. A disabled record is one relaxed atomic
//     load and a branch.
//
// Determinism: every accumulator is order-independent (per-bucket sums,
// maxes, mergeable log2 wait histograms keyed by fixed bucket indices), and
// recording NEVER advances virtual clocks — timestamps are sampled by the
// caller. Cell count and bucket range stay bounded by coarsening: when
// either cap is hit, neighbouring buckets merge pairwise and the cell width
// doubles (pattern.cpp heatmap style), which is loss of resolution, never
// of totals.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "iostat/health.hpp"
#include "iostat/iostat.hpp"
#include "iostat/pattern.hpp"

namespace iostat {

/// Global (non-server, non-tenant) timeline tracks. Wire names
/// (TlTrackName) are part of the pnc-timeline-v1 vocabulary — append only.
enum class TlTrack : int {
  kExchangeMsgs = 0,  ///< two-phase exchange messages posted
  kRetries,           ///< transient-fault I/O retries consumed
  kFaults,            ///< injected pfs faults surfaced
  kModeSwitches,      ///< define/data/independent-mode transitions
  kStragglerWaitNs,   ///< ns spent waiting at collective clock sync
};
inline constexpr int kNumTlTracks = 5;

/// Stable wire name for a track (e.g. "exchange_msgs").
const char* TlTrackName(TlTrack t);

/// One bucket of one per-server series. `bucket * cell_ns` is the cell's
/// start time; bytes/grants/busy attribute to the grant's begin cell.
struct TlServerCell {
  std::uint64_t bucket = 0;
  int server = 0;
  double bytes = 0.0;
  double busy_ns = 0.0;
  std::uint64_t grants = 0;
  std::uint64_t depth_max = 0;
};

/// One bucket of one per-tenant series. p99_wait_ns is the upper bound of
/// the bucketed per-grant queue-wait histogram (order-independent, merges
/// exactly under coarsening).
struct TlTenantCell {
  std::uint64_t bucket = 0;
  std::string tenant;
  double bytes = 0.0;
  double wait_ns = 0.0;  ///< summed queue wait
  std::uint64_t grants = 0;
  std::uint64_t misses = 0;
  double p99_wait_ns = 0.0;
};

/// One bucket of one global track.
struct TlTrackCell {
  int track = 0;  ///< TlTrack as int
  std::uint64_t bucket = 0;
  double value = 0.0;
};

/// Snapshot of the timeline (the `pnc-timeline-v1` JSON section).
/// Deterministically ordered: servers by (bucket, server), tenants by
/// (bucket, name), tracks by (track, bucket).
struct TimelineSummary {
  bool present = false;  ///< anything recorded? absent => no JSON emitted
  double cell_ns = 0.0;
  double horizon_ns = 0.0;  ///< high-water mark of observed virtual time
  std::vector<TlServerCell> servers;
  std::vector<TlTenantCell> tenants;
  std::vector<TlTrackCell> tracks;
  HealthStatus health;
};

/// p99 upper bound of a log2 histogram: the top of the smallest bucket
/// whose cumulative count reaches 99%, clamped to the observed max.
std::uint64_t HistP99UpperBound(const PatternHist& h);

/// Process-wide timeline accumulator, a sibling of PatternRegistry with the
/// same lifetime rules (leaked singleton, Reset between bench configs via
/// Registry::Reset). All Record* methods are thread-safe.
class TimelineRegistry {
 public:
  static TimelineRegistry& Get();

  /// Replace the SLO rule set (tests, ncstat --health). The constructor
  /// seeds from PNC_SLO / DefaultSloRules().
  void SetSloRules(std::vector<SloRule> rules);
  [[nodiscard]] std::vector<SloRule> SloRules();

  /// pfs: one per-server service grant, with its tenant class name. Busy
  /// time splits across the cells the grant overlaps; bytes/grants/waits
  /// attribute to the begin cell (matching the pattern heatmap).
  void RecordPfsGrant(int server, const char* tenant, std::uint64_t bytes,
                      double begin_ns, double done_ns, std::uint64_t depth,
                      double wait_ns, bool deadline_missed);

  /// Any layer: add `value` to a global track at virtual time `t_ns`.
  void RecordMark(TlTrack track, double t_ns, double value);

  /// Snapshot everything accumulated. Seals (and health-evaluates) every
  /// complete bucket up to the high-water mark first, emitting any pending
  /// slo_violation flight events — so the health verdict in the report is
  /// final and deterministic.
  TimelineSummary Snapshot();

  void Reset();

  /// Caps keep the accumulator bounded; hitting one coarsens (doubles the
  /// cell width), which loses resolution but never totals. Public: they are
  /// part of the contract (tests pin the coarsening behavior against them).
  static constexpr std::size_t kMaxCells = 4096;
  static constexpr std::uint64_t kMaxBuckets = 1 << 16;
  static constexpr double kBaseCellNs = 1 << 20;  ///< ~1 ms

 private:
  TimelineRegistry();

  struct ServerAcc {
    double bytes = 0.0;
    double busy_ns = 0.0;
    std::uint64_t grants = 0;
    std::uint64_t depth_max = 0;
  };
  struct TenantAcc {
    double bytes = 0.0;
    double wait_ns = 0.0;
    std::uint64_t grants = 0;
    std::uint64_t misses = 0;
    PatternHist waits;
  };

  void ObserveLocked(double t_ns);
  void CoarsenLocked();
  /// Feed buckets [first_b, last_b] to `m`; `emit` => surface violations
  /// as slo_violation flight-recorder events.
  void EvaluateRangeLocked(HealthMonitor& m, std::uint64_t first_b,
                           std::uint64_t last_b, bool emit);
  /// Advance the online monitor over newly sealed buckets.
  void OnlineEvalLocked();
  std::size_t CellCountLocked() const;

  std::mutex mu_;
  double cell_ns_ = kBaseCellNs;
  double high_water_ns_ = 0.0;
  double eval_frontier_ns_ = 0.0;  ///< health evaluated up to here
  bool any_ = false;
  std::map<std::pair<std::uint64_t, int>, ServerAcc> servers_;
  std::map<std::pair<std::uint64_t, std::string>, TenantAcc> tenants_;
  std::map<std::pair<int, std::uint64_t>, double> tracks_;
  HealthMonitor monitor_;
};

/// Serialize as the one-line `pnc-timeline-v1` JSON object (the "timeline"
/// member of the iostat report; see docs/API.md for the schema).
std::string TimelineToJson(const TimelineSummary& s);

/// Parse a `pnc-timeline-v1` object at the cursor (positioned on '{').
/// Unknown members are skipped for forward compatibility.
bool ParseTimelineValue(jsoncur::Cursor& cur, TimelineSummary* out);

/// ASCII rate sparklines (ncstat --timeline): per-server MB/s and queue
/// depth, per-tenant MB/s and p99 queue wait, plus any non-empty global
/// tracks, over `max_cols` virtual-time columns.
std::string RenderTimeline(const TimelineSummary& s, int max_cols = 64);

}  // namespace iostat
