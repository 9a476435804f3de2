#include "iostat/timeline.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>

#include "iostat/json_cursor.hpp"
#include "iostat/schemas.hpp"
#include "util/json.hpp"

namespace iostat {

using pnc::json::AppendF;

const char* TlTrackName(TlTrack t) {
  switch (t) {
    case TlTrack::kExchangeMsgs: return "exchange_msgs";
    case TlTrack::kRetries: return "retries";
    case TlTrack::kFaults: return "faults";
    case TlTrack::kModeSwitches: return "mode_switches";
    case TlTrack::kStragglerWaitNs: return "straggler_wait_ns";
  }
  return "?";
}

// -------------------------------------------------------- TimelineRegistry

TimelineRegistry& TimelineRegistry::Get() {
  // Leaked like the counter registry: rank threads may record during static
  // destruction of the main thread.
  static TimelineRegistry* g = new TimelineRegistry();
  return *g;
}

std::size_t TimelineRegistry::CellCountLocked() const {
  return servers_.size() + tracks_.size();
}

void TimelineRegistry::ObserveLocked(double t_ns) {
  high_water_ns_ = std::max(high_water_ns_, t_ns);
}

void TimelineRegistry::CoarsenLocked() {
  // Double the cell width and re-bin. Accumulators are sums and maxes, so
  // the merged maps equal direct binning at the coarser width — coarsening
  // keeps the timeline order-independent. The bucket-range cap bounds the
  // renderers' column sweep on sparse long runs.
  while (CellCountLocked() > kMaxCells ||
         high_water_ns_ / cell_ns_ > static_cast<double>(kMaxBuckets)) {
    {
      std::map<std::pair<std::uint64_t, int>, ServerAcc> merged;
      for (const auto& [key, a] : servers_) {
        ServerAcc& m = merged[{key.first / 2, key.second}];
        m.bytes += a.bytes;
        m.busy_ns += a.busy_ns;
        m.grants += a.grants;
        m.depth_max = std::max(m.depth_max, a.depth_max);
      }
      servers_ = std::move(merged);
    }
    {
      std::map<std::pair<int, std::uint64_t>, double> merged;
      for (const auto& [key, v] : tracks_)
        merged[{key.first, key.second / 2}] += v;
      tracks_ = std::move(merged);
    }
    cell_ns_ *= 2;
  }
}

void TimelineRegistry::RecordPfsGrant(int server, std::uint64_t bytes,
                                      double begin_ns, double done_ns,
                                      std::uint64_t depth) {
  if (server < 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  any_ = true;
  const std::uint64_t b0 =
      static_cast<std::uint64_t>(std::max(0.0, begin_ns) / cell_ns_);
  {
    ServerAcc& a = servers_[{b0, server}];
    a.bytes += static_cast<double>(bytes);
    ++a.grants;
    a.depth_max = std::max(a.depth_max, depth);
  }
  // Busy time splits exactly across every cell the service interval
  // overlaps (matching the pattern heatmap); bytes, grants and depth
  // attribute to the begin cell.
  double t = std::max(0.0, begin_ns);
  std::uint64_t b = b0;
  for (std::size_t guard = 0; t < done_ns && guard < 2 * kMaxCells; ++guard) {
    const double cell_end = static_cast<double>(b + 1) * cell_ns_;
    const double seg = std::min(done_ns, cell_end) - t;
    if (seg > 0) servers_[{b, server}].busy_ns += seg;
    t = cell_end;
    ++b;
  }
  ObserveLocked(done_ns);
  CoarsenLocked();
}

void TimelineRegistry::RecordMark(TlTrack track, double t_ns, double value) {
  std::lock_guard<std::mutex> lk(mu_);
  any_ = true;
  const std::uint64_t b =
      static_cast<std::uint64_t>(std::max(0.0, t_ns) / cell_ns_);
  tracks_[{static_cast<int>(track), b}] += value;
  ObserveLocked(t_ns);
  CoarsenLocked();
}

TimelineSummary TimelineRegistry::Snapshot() {
  std::lock_guard<std::mutex> lk(mu_);
  TimelineSummary s;
  s.present = any_;
  s.cell_ns = cell_ns_;
  s.horizon_ns = high_water_ns_;
  for (const auto& [key, a] : servers_) {
    TlServerCell c;
    c.bucket = key.first;
    c.server = key.second;
    c.bytes = a.bytes;
    c.busy_ns = a.busy_ns;
    c.grants = a.grants;
    c.depth_max = a.depth_max;
    s.servers.push_back(c);
  }
  for (const auto& [key, v] : tracks_) {
    TlTrackCell c;
    c.track = key.first;
    c.bucket = key.second;
    c.value = v;
    s.tracks.push_back(c);
  }
  return s;
}

void TimelineRegistry::Reset() {
  std::lock_guard<std::mutex> lk(mu_);
  servers_.clear();
  tracks_.clear();
  cell_ns_ = kBaseCellNs;
  high_water_ns_ = 0.0;
  any_ = false;
}

// ------------------------------------------------------------ serialization

std::string TimelineToJson(const TimelineSummary& s) {
  std::string out;
  out.reserve(4096);
  AppendF(out, "{\"schema\":\"%s\",\"cell_ns\":%.17g,\"horizon_ns\":%.17g",
          schemas::kTimeline, s.cell_ns, s.horizon_ns);
  out += ",\"servers\":[";
  for (std::size_t i = 0; i < s.servers.size(); ++i) {
    const TlServerCell& c = s.servers[i];
    if (i) out.push_back(',');
    AppendF(out, "[%" PRIu64 ",%d,%.17g,%.17g,%" PRIu64 ",%" PRIu64 "]",
            c.bucket, c.server, c.bytes, c.busy_ns, c.grants, c.depth_max);
  }
  out += "],\"tracks\":[";
  for (std::size_t i = 0; i < s.tracks.size(); ++i) {
    const TlTrackCell& c = s.tracks[i];
    if (i) out.push_back(',');
    AppendF(out, "[%d,%" PRIu64 ",%.17g]", c.track, c.bucket, c.value);
  }
  out += "]}";
  return out;
}

// ----------------------------------------------------------------- parsing

bool ParseTimelineValue(jsoncur::Cursor& cur, TimelineSummary* out) {
  *out = TimelineSummary{};
  if (!cur.Eat('{')) return false;
  if (cur.Eat('}')) return true;
  do {
    std::string key;
    if (!cur.ParseString(&key) || !cur.Eat(':')) return false;
    bool ok = true;
    if (key == "schema") {
      std::string s;
      ok = cur.ParseString(&s) && s == schemas::kTimeline;
    } else if (key == "cell_ns") {
      ok = cur.ParseNumber(&out->cell_ns);
    } else if (key == "horizon_ns") {
      ok = cur.ParseNumber(&out->horizon_ns);
    } else if (key == "servers") {
      if (!cur.Eat('[')) return false;
      if (!cur.Eat(']')) {
        do {
          TlServerCell c;
          double sv = 0;
          if (!cur.Eat('[') || !cur.ParseU64(&c.bucket) || !cur.Eat(',') ||
              !cur.ParseNumber(&sv) || !cur.Eat(',') ||
              !cur.ParseNumber(&c.bytes) || !cur.Eat(',') ||
              !cur.ParseNumber(&c.busy_ns) || !cur.Eat(',') ||
              !cur.ParseU64(&c.grants) || !cur.Eat(',') ||
              !cur.ParseU64(&c.depth_max) || !cur.Eat(']'))
            return false;
          c.server = static_cast<int>(sv);
          out->servers.push_back(c);
        } while (cur.Eat(','));
        if (!cur.Eat(']')) return false;
      }
    } else if (key == "tracks") {
      if (!cur.Eat('[')) return false;
      if (!cur.Eat(']')) {
        do {
          TlTrackCell c;
          double tr = 0;
          if (!cur.Eat('[') || !cur.ParseNumber(&tr) || !cur.Eat(',') ||
              !cur.ParseU64(&c.bucket) || !cur.Eat(',') ||
              !cur.ParseNumber(&c.value) || !cur.Eat(']'))
            return false;
          c.track = static_cast<int>(tr);
          out->tracks.push_back(c);
        } while (cur.Eat(','));
        if (!cur.Eat(']')) return false;
      }
    } else {
      ok = cur.SkipValue();
    }
    if (!ok) return false;
  } while (cur.Eat(','));
  if (!cur.Eat('}')) return false;
  out->present = !out->servers.empty() || !out->tracks.empty() ||
                 out->horizon_ns > 0;
  return true;
}

// --------------------------------------------------------- ASCII sparklines

namespace {

struct Row {
  std::string label;
  std::vector<double> cols;
  const char* unit = "";
  double scale = 1.0;  ///< applied to the peak annotation
};

void RenderRow(std::string& out, const Row& r) {
  static const char kGlyphs[] = " .:-=+*#%@";
  double mx = 0;
  for (const double v : r.cols) mx = std::max(mx, v);
  AppendF(out, "  %-22s |", r.label.c_str());
  for (const double v : r.cols) {
    const int g =
        (mx <= 0 || v <= 0)
            ? 0
            : std::min(9, 1 + static_cast<int>(v / mx * 8.999));
    out.push_back(kGlyphs[g]);
  }
  AppendF(out, "| peak=%.4g%s\n", mx * r.scale, r.unit);
}

}  // namespace

std::string RenderTimeline(const TimelineSummary& s, int max_cols) {
  std::string out;
  if (!s.present || s.cell_ns <= 0 || s.horizon_ns <= 0) {
    out = "timeline: no timeline data recorded (PNC_IOSTAT_TIMELINE off, or "
          "the run did no I/O)\n";
    return out;
  }
  max_cols = std::max(8, max_cols);
  const std::uint64_t nbuckets = static_cast<std::uint64_t>(
      s.horizon_ns / s.cell_ns) + 1;
  const std::uint64_t group =
      (nbuckets + static_cast<std::uint64_t>(max_cols) - 1) /
      static_cast<std::uint64_t>(max_cols);
  const std::uint64_t ncols = (nbuckets + group - 1) / group;
  const double col_ns = s.cell_ns * static_cast<double>(group);

  AppendF(out,
          "virtual-time timeline (%.3f ms horizon, %" PRIu64
          " cols, col = %.3f ms)\n",
          s.horizon_ns / 1e6, ncols, col_ns / 1e6);

  const auto col_of = [&](std::uint64_t bucket) { return bucket / group; };
  const auto mk_row = [&](std::string label, const char* unit, double scale) {
    Row r;
    r.label = std::move(label);
    r.cols.assign(static_cast<std::size_t>(ncols), 0.0);
    r.unit = unit;
    r.scale = scale;
    return r;
  };

  // Per-server bandwidth and queue depth.
  std::set<int> server_ids;
  for (const TlServerCell& c : s.servers) server_ids.insert(c.server);
  for (const int sv : server_ids) {
    char label[64];
    std::snprintf(label, sizeof label, "s%02d MB/s", sv);
    Row bw = mk_row(label, " MB/s", 1e3 / col_ns);
    std::snprintf(label, sizeof label, "s%02d queue depth", sv);
    Row depth = mk_row(label, "", 1.0);
    for (const TlServerCell& c : s.servers) {
      if (c.server != sv) continue;
      const std::uint64_t col = col_of(c.bucket);
      if (col >= ncols) continue;
      bw.cols[static_cast<std::size_t>(col)] += c.bytes;
      depth.cols[static_cast<std::size_t>(col)] = std::max(
          depth.cols[static_cast<std::size_t>(col)],
          static_cast<double>(c.depth_max));
    }
    RenderRow(out, bw);
    RenderRow(out, depth);
  }

  // Global tracks (only the non-empty ones).
  for (int t = 0; t < kNumTlTracks; ++t) {
    Row row = mk_row(TlTrackName(static_cast<TlTrack>(t)),
                     t == static_cast<int>(TlTrack::kStragglerWaitNs) ? " ns"
                                                                      : "",
                     1.0);
    bool any = false;
    for (const TlTrackCell& c : s.tracks) {
      if (c.track != t) continue;
      const std::uint64_t col = col_of(c.bucket);
      if (col >= ncols) continue;
      row.cols[static_cast<std::size_t>(col)] += c.value;
      any = true;
    }
    if (any) RenderRow(out, row);
  }
  return out;
}

}  // namespace iostat
