#include "iostat/timeline.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

#include "iostat/events.hpp"
#include "iostat/json_cursor.hpp"
#include "iostat/schemas.hpp"
#include "util/json.hpp"

namespace iostat {

using pnc::json::AppendF;

namespace {

/// Bucket-wise histogram merge — the property that makes per-bucket p99s
/// survive coarsening exactly.
void MergeHist(PatternHist& dst, const PatternHist& src) {
  if (src.count == 0) return;
  if (dst.count == 0) {
    dst = src;
    return;
  }
  for (int i = 0; i < PatternHist::kBuckets; ++i) dst.bucket[i] += src.bucket[i];
  dst.count += src.count;
  dst.sum += src.sum;
  dst.min = std::min(dst.min, src.min);
  dst.max = std::max(dst.max, src.max);
}

}  // namespace

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

std::uint64_t HistP99UpperBound(const PatternHist& h) {
  if (h.count == 0) return 0;
  const std::uint64_t target = h.count - h.count / 100;  // ceil(0.99 * count)
  std::uint64_t cum = 0;
  for (int i = 0; i < PatternHist::kBuckets; ++i) {
    cum += h.bucket[i];
    if (cum >= target) {
      const std::uint64_t ub =
          i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
      return std::min(ub, h.max);
    }
  }
  return h.max;
}

// -------------------------------------------------------- TimelineRegistry

TimelineRegistry& TimelineRegistry::Get() {
  // Leaked like the counter registry: rank threads may record during static
  // destruction of the main thread.
  static TimelineRegistry* g = new TimelineRegistry();
  return *g;
}

TimelineRegistry::TimelineRegistry() { monitor_.SetRules(SloRulesFromEnv()); }

void TimelineRegistry::SetSloRules(std::vector<SloRule> rules) {
  std::lock_guard<std::mutex> lk(mu_);
  monitor_.SetRules(std::move(rules));
}

std::vector<SloRule> TimelineRegistry::SloRules() {
  std::lock_guard<std::mutex> lk(mu_);
  return monitor_.rules();
}

std::size_t TimelineRegistry::CellCountLocked() const {
  return servers_.size() + tenants_.size() + tracks_.size();
}

void TimelineRegistry::ObserveLocked(double t_ns) {
  high_water_ns_ = std::max(high_water_ns_, t_ns);
}

void TimelineRegistry::CoarsenLocked() {
  // Double the cell width and re-bin. Accumulators are sums/maxes/mergeable
  // histograms, so the merged maps equal direct binning at the coarser
  // width — coarsening keeps the timeline order-independent. The bucket-
  // range cap additionally bounds the health sweep on sparse long runs.
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
      std::map<std::pair<std::uint64_t, std::string>, TenantAcc> merged;
      for (const auto& [key, a] : tenants_) {
        TenantAcc& m = merged[{key.first / 2, key.second}];
        m.bytes += a.bytes;
        m.wait_ns += a.wait_ns;
        m.grants += a.grants;
        m.misses += a.misses;
        MergeHist(m.waits, a.waits);
      }
      tenants_ = std::move(merged);
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

void TimelineRegistry::EvaluateRangeLocked(HealthMonitor& m,
                                           std::uint64_t first_b,
                                           std::uint64_t last_b, bool emit) {
  const std::vector<SloRule>& rules = m.rules();
  std::vector<SloBucketView> views(rules.size());
  for (std::uint64_t b = first_b; b <= last_b; ++b) {
    SloBucketView base;
    base.start_ns = static_cast<double>(b) * cell_ns_;
    base.len_ns = cell_ns_;
    double bytes = 0;
    for (auto it = servers_.lower_bound({b, 0});
         it != servers_.end() && it->first.first == b; ++it)
      bytes += it->second.bytes;
    // bytes / cell_ns * 1e9 = B/s; / 1e6 = MB/s.
    base.mbps = bytes * 1e3 / cell_ns_;
    const auto track = [&](TlTrack t) {
      const auto it = tracks_.find({static_cast<int>(t), b});
      return it == tracks_.end() ? 0.0 : it->second;
    };
    const double secs = cell_ns_ / 1e9;
    base.retries_per_s = track(TlTrack::kRetries) / secs;
    base.faults_per_s = track(TlTrack::kFaults) / secs;

    for (std::size_t i = 0; i < rules.size(); ++i) {
      SloBucketView v = base;
      for (auto it = tenants_.lower_bound({b, std::string()});
           it != tenants_.end() && it->first.first == b; ++it) {
        if (!rules[i].tenant.empty() && it->first.second != rules[i].tenant)
          continue;
        v.grants += it->second.grants;
        v.misses += it->second.misses;
        v.p99_wait_ns = std::max(
            v.p99_wait_ns,
            static_cast<double>(HistP99UpperBound(it->second.waits)));
      }
      views[i] = v;
    }
    for (const HealthMonitor::Violation& v : m.OnBucketSealed(b, views)) {
      if (!emit || !SinkOn(kSinkRing)) continue;
      FlightRecorder::Get().Record(
          Ev::kSloViolation, v.start_ns, v.end_ns - v.start_ns, v.bucket,
          static_cast<std::uint64_t>(std::max(0.0, v.observed)),
          rules[v.rule].id.c_str());
    }
  }
}

void TimelineRegistry::OnlineEvalLocked() {
  // Seal every bucket the virtual-time high-water mark has fully crossed
  // and evaluate it online, so slo_violation events fire while the run is
  // still in flight. Late out-of-order samples into an already-sealed
  // bucket only affect the final (Snapshot-time) re-evaluation, which is
  // the authoritative, deterministic verdict.
  const std::uint64_t sealed =
      static_cast<std::uint64_t>(high_water_ns_ / cell_ns_);
  if (sealed == 0) return;
  const std::uint64_t first_b = static_cast<std::uint64_t>(
      std::ceil(eval_frontier_ns_ / cell_ns_ - 1e-9));
  if (first_b >= sealed) return;
  EvaluateRangeLocked(monitor_, first_b, sealed - 1, /*emit=*/true);
  eval_frontier_ns_ = static_cast<double>(sealed) * cell_ns_;
}

void TimelineRegistry::RecordPfsGrant(int server, const char* tenant,
                                      std::uint64_t bytes, double begin_ns,
                                      double done_ns, std::uint64_t depth,
                                      double wait_ns, bool deadline_missed) {
  if (server < 0) return;
  const std::string name =
      (tenant == nullptr || *tenant == '\0') ? "default" : tenant;
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
  // overlaps (matching the pattern heatmap); everything else attributes to
  // the begin cell.
  double t = std::max(0.0, begin_ns);
  std::uint64_t b = b0;
  for (std::size_t guard = 0; t < done_ns && guard < 2 * kMaxCells; ++guard) {
    const double cell_end = static_cast<double>(b + 1) * cell_ns_;
    const double seg = std::min(done_ns, cell_end) - t;
    if (seg > 0) servers_[{b, server}].busy_ns += seg;
    t = cell_end;
    ++b;
  }
  {
    TenantAcc& a = tenants_[{b0, name}];
    a.bytes += static_cast<double>(bytes);
    a.wait_ns += std::max(0.0, wait_ns);
    ++a.grants;
    if (deadline_missed) ++a.misses;
    a.waits.Add(static_cast<std::uint64_t>(std::max(0.0, wait_ns)));
  }
  ObserveLocked(done_ns);
  CoarsenLocked();
  OnlineEvalLocked();
}

void TimelineRegistry::RecordMark(TlTrack track, double t_ns, double value) {
  std::lock_guard<std::mutex> lk(mu_);
  any_ = true;
  const std::uint64_t b =
      static_cast<std::uint64_t>(std::max(0.0, t_ns) / cell_ns_);
  tracks_[{static_cast<int>(track), b}] += value;
  ObserveLocked(t_ns);
  CoarsenLocked();
  OnlineEvalLocked();
}

TimelineSummary TimelineRegistry::Snapshot() {
  std::lock_guard<std::mutex> lk(mu_);
  // Catch up the online monitor first (emits any pending slo_violation
  // events for buckets sealed since the last record)...
  OnlineEvalLocked();

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
  for (const auto& [key, a] : tenants_) {
    TlTenantCell c;
    c.bucket = key.first;
    c.tenant = key.second;
    c.bytes = a.bytes;
    c.wait_ns = a.wait_ns;
    c.grants = a.grants;
    c.misses = a.misses;
    c.p99_wait_ns = static_cast<double>(HistP99UpperBound(a.waits));
    s.tenants.push_back(std::move(c));
  }
  for (const auto& [key, v] : tracks_) {
    TlTrackCell c;
    c.track = key.first;
    c.bucket = key.second;
    c.value = v;
    s.tracks.push_back(c);
  }

  // ...then produce the authoritative verdict: a fresh evaluation over the
  // final bucket contents, deterministic regardless of when samples landed
  // relative to the online sweeps (no events re-emitted here).
  HealthMonitor fin;
  fin.SetRules(monitor_.rules());
  const std::uint64_t sealed =
      static_cast<std::uint64_t>(high_water_ns_ / cell_ns_);
  if (sealed > 0) EvaluateRangeLocked(fin, 0, sealed - 1, /*emit=*/false);
  s.health = fin.Status();
  return s;
}

void TimelineRegistry::Reset() {
  std::lock_guard<std::mutex> lk(mu_);
  servers_.clear();
  tenants_.clear();
  tracks_.clear();
  cell_ns_ = kBaseCellNs;
  high_water_ns_ = 0.0;
  eval_frontier_ns_ = 0.0;
  any_ = false;
  monitor_.Reset();
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
  out += "],\"tenants\":[";
  for (std::size_t i = 0; i < s.tenants.size(); ++i) {
    const TlTenantCell& c = s.tenants[i];
    if (i) out.push_back(',');
    out.push_back('[');
    pnc::json::AppendQuoted(out, c.tenant);
    AppendF(out, ",%" PRIu64 ",%.17g,%.17g,%" PRIu64 ",%" PRIu64 ",%.17g]",
            c.bucket, c.bytes, c.wait_ns, c.grants, c.misses, c.p99_wait_ns);
  }
  out += "],\"tracks\":[";
  for (std::size_t i = 0; i < s.tracks.size(); ++i) {
    const TlTrackCell& c = s.tracks[i];
    if (i) out.push_back(',');
    AppendF(out, "[%d,%" PRIu64 ",%.17g]", c.track, c.bucket, c.value);
  }
  out += "],\"health\":{";
  AppendF(out, "\"evaluated\":%d,\"violations\":%" PRIu64 ",\"rules\":[",
          s.health.evaluated ? 1 : 0, s.health.total_violations);
  for (std::size_t i = 0; i < s.health.rules.size(); ++i) {
    const SloRuleStatus& r = s.health.rules[i];
    if (i) out.push_back(',');
    out += "{\"id\":";
    pnc::json::AppendQuoted(out, r.rule.id);
    out += ",\"kind\":";
    pnc::json::AppendQuoted(out, SloKindName(r.rule.kind));
    out += ",\"tenant\":";
    pnc::json::AppendQuoted(out, r.rule.tenant);
    AppendF(out,
            ",\"threshold\":%.17g,\"window\":%d,\"tripped\":%" PRIu64
            ",\"violations\":%" PRIu64 ",\"first_ns\":%.17g,\"worst\":%.17g}",
            r.rule.threshold, r.rule.window, r.tripped_buckets, r.violations,
            r.first_violation_ns, r.worst);
  }
  out += "]}}";
  return out;
}

// ----------------------------------------------------------------- parsing

namespace {

using jsoncur::Cursor;

bool ParseRuleStatus(Cursor& cur, SloRuleStatus* r) {
  if (!cur.Eat('{')) return false;
  if (cur.Eat('}')) return true;
  do {
    std::string key;
    if (!cur.ParseString(&key) || !cur.Eat(':')) return false;
    bool ok = true;
    if (key == "id") ok = cur.ParseString(&r->rule.id);
    else if (key == "kind") {
      std::string k;
      ok = cur.ParseString(&k) && SloKindFromName(k, &r->rule.kind);
    } else if (key == "tenant") ok = cur.ParseString(&r->rule.tenant);
    else if (key == "threshold") ok = cur.ParseNumber(&r->rule.threshold);
    else if (key == "window") {
      double w = 1;
      ok = cur.ParseNumber(&w);
      r->rule.window = static_cast<int>(w);
    } else if (key == "tripped") ok = cur.ParseU64(&r->tripped_buckets);
    else if (key == "violations") ok = cur.ParseU64(&r->violations);
    else if (key == "first_ns") ok = cur.ParseNumber(&r->first_violation_ns);
    else if (key == "worst") ok = cur.ParseNumber(&r->worst);
    else ok = cur.SkipValue();
    if (!ok) return false;
  } while (cur.Eat(','));
  return cur.Eat('}');
}

bool ParseHealth(Cursor& cur, HealthStatus* h) {
  if (!cur.Eat('{')) return false;
  if (cur.Eat('}')) return true;
  do {
    std::string key;
    if (!cur.ParseString(&key) || !cur.Eat(':')) return false;
    bool ok = true;
    if (key == "evaluated") {
      double v = 0;
      ok = cur.ParseNumber(&v);
      h->evaluated = v != 0;
    } else if (key == "violations") {
      ok = cur.ParseU64(&h->total_violations);
    } else if (key == "rules") {
      if (!cur.Eat('[')) return false;
      if (!cur.Eat(']')) {
        do {
          SloRuleStatus r;
          if (!ParseRuleStatus(cur, &r)) return false;
          h->rules.push_back(std::move(r));
        } while (cur.Eat(','));
        if (!cur.Eat(']')) return false;
      }
    } else {
      ok = cur.SkipValue();
    }
    if (!ok) return false;
  } while (cur.Eat(','));
  return cur.Eat('}');
}

}  // namespace

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
    } else if (key == "tenants") {
      if (!cur.Eat('[')) return false;
      if (!cur.Eat(']')) {
        do {
          TlTenantCell c;
          if (!cur.Eat('[') || !cur.ParseString(&c.tenant) || !cur.Eat(',') ||
              !cur.ParseU64(&c.bucket) || !cur.Eat(',') ||
              !cur.ParseNumber(&c.bytes) || !cur.Eat(',') ||
              !cur.ParseNumber(&c.wait_ns) || !cur.Eat(',') ||
              !cur.ParseU64(&c.grants) || !cur.Eat(',') ||
              !cur.ParseU64(&c.misses) || !cur.Eat(',') ||
              !cur.ParseNumber(&c.p99_wait_ns) || !cur.Eat(']'))
            return false;
          out->tenants.push_back(std::move(c));
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
    } else if (key == "health") {
      ok = ParseHealth(cur, &out->health);
    } else {
      ok = cur.SkipValue();
    }
    if (!ok) return false;
  } while (cur.Eat(','));
  if (!cur.Eat('}')) return false;
  out->present = !out->servers.empty() || !out->tenants.empty() ||
                 !out->tracks.empty() || out->horizon_ns > 0;
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

  // Per-tenant bandwidth and p99 queue wait.
  std::set<std::string> tenant_names;
  for (const TlTenantCell& c : s.tenants) tenant_names.insert(c.tenant);
  for (const std::string& tn : tenant_names) {
    Row bw = mk_row(tn + " MB/s", " MB/s", 1e3 / col_ns);
    Row p99 = mk_row(tn + " p99 wait", " us", 1e-3);
    for (const TlTenantCell& c : s.tenants) {
      if (c.tenant != tn) continue;
      const std::uint64_t col = col_of(c.bucket);
      if (col >= ncols) continue;
      bw.cols[static_cast<std::size_t>(col)] += c.bytes;
      p99.cols[static_cast<std::size_t>(col)] =
          std::max(p99.cols[static_cast<std::size_t>(col)], c.p99_wait_ns);
    }
    RenderRow(out, bw);
    RenderRow(out, p99);
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
