#include "tools/benchlib/trend.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "iostat/schemas.hpp"

namespace benchlib {
namespace {

/// Same glyph ramp as the iostat heatmap/timeline renderers: one character
/// per sample, scaled to the series' own [min, max].
constexpr const char kGlyphs[] = " .:-=+*#%@";

std::string Sparkline(const std::vector<double>& values) {
  if (values.empty()) return {};
  double lo = values[0], hi = values[0];
  for (const double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  for (const double v : values) {
    // A flat series renders mid-ramp so it reads as "steady", not "empty".
    const double t = hi > lo ? (v - lo) / (hi - lo) : 0.5;
    const int g = std::min(9, static_cast<int>(t * 10.0));
    out += kGlyphs[g < 0 ? 0 : g];
  }
  return out;
}

std::string FmtValue(double v) {
  char buf[48];
  if (std::fabs(v) >= 1e6 || (v != 0.0 && std::fabs(v) < 1e-3))
    std::snprintf(buf, sizeof buf, "%.3e", v);
  else
    std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

pnc::Result<std::vector<ResultsFile>> ParseHistory(const std::string& text) {
  const std::string record_marker =
      std::string("\"") + iostat::schemas::kBench + "\"";
  const std::string header_marker =
      std::string("\"") + iostat::schemas::kBenchSuite + "\"";
  std::vector<std::string> chunks;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    // A header line starts a new run; anything else rides with the current
    // one. Record lines also contain the record marker, so test it first —
    // a stamped record's meta carries the suite schema string too.
    const bool is_header = line.find(record_marker) == std::string::npos &&
                           line.find(header_marker) != std::string::npos;
    if (is_header || chunks.empty()) chunks.emplace_back();
    chunks.back() += line;
    chunks.back() += '\n';
  }
  std::vector<ResultsFile> runs;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    auto rf = ParseResults(chunks[i]);
    if (!rf.ok())
      return pnc::Status(pnc::Err::kNotNc,
                         "run " + std::to_string(i + 1) + ": " +
                             rf.status().message());
    // Chatter-only chunks (e.g. leading human-readable output) carry no
    // records and no header; drop them rather than counting phantom runs.
    if (rf.value().records.empty() && !rf.value().header.present) continue;
    runs.push_back(std::move(rf.value()));
  }
  return runs;
}

pnc::Result<std::vector<ResultsFile>> LoadHistory(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    return pnc::Status(pnc::Err::kIo, "cannot open " + path);
  std::string text;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  const bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) return pnc::Status(pnc::Err::kIo, "read error on " + path);
  return ParseHistory(text);
}

TrendReport BuildTrend(const std::vector<ResultsFile>& runs,
                       double tolerance_pct) {
  TrendReport rep;
  rep.num_runs = static_cast<int>(runs.size());
  // (record identity, metric) -> series, in first-appearance order.
  std::map<std::pair<std::string, std::string>, std::size_t> index;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    for (const Record& rec : runs[r].records) {
      for (const auto& [name, value] : ComparableMetrics(rec)) {
        const auto key = std::make_pair(rec.Key(), name);
        auto it = index.find(key);
        if (it == index.end()) {
          it = index.emplace(key, rep.series.size()).first;
          TrendSeries s;
          s.bench = rec.bench;
          s.config_text = rec.config_text;
          s.metric = name;
          s.direction = MetricDirection(name);
          rep.series.push_back(std::move(s));
        }
        TrendSeries& s = rep.series[it->second];
        // One sample per run: a rerun of the same identity within a run
        // (not something the writers produce) keeps the first sample.
        if (!s.runs.empty() && s.runs.back() == static_cast<int>(r)) continue;
        s.runs.push_back(static_cast<int>(r));
        s.values.push_back(value);
      }
    }
  }
  for (TrendSeries& s : rep.series) {
    if (s.values.size() < 2) continue;
    const double first = s.values.front();
    const double last = s.values.back();
    if (first == 0.0) {
      s.drift_pct = last == 0.0 ? 0.0 : (last > 0 ? 1e99 : -1e99);
    } else {
      s.drift_pct = (last - first) / std::fabs(first) * 100.0;
    }
    const bool harmful = s.direction == Direction::kHigherIsBetter
                             ? s.drift_pct < 0.0
                             : s.drift_pct > 0.0;
    s.flagged = harmful && std::fabs(s.drift_pct) > tolerance_pct;
    if (s.flagged) ++rep.num_flagged;
  }
  return rep;
}

std::string RenderTrend(const TrendReport& rep) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "trend: %d runs, %zu series, %d drifted\n", rep.num_runs,
                rep.series.size(), rep.num_flagged);
  out += buf;
  // Stable order: file order, flagged series hoisted to the front of their
  // bench so a long report leads with what changed.
  std::vector<const TrendSeries*> order;
  order.reserve(rep.series.size());
  for (const TrendSeries& s : rep.series)
    if (s.flagged) order.push_back(&s);
  for (const TrendSeries& s : rep.series)
    if (!s.flagged) order.push_back(&s);
  std::string last_group;
  for (const TrendSeries* sp : order) {
    const TrendSeries& s = *sp;
    const std::string group = s.bench + " " + s.config_text;
    if (group != last_group) {
      out += "== " + s.bench + " " + s.config_text + "\n";
      last_group = group;
    }
    std::snprintf(buf, sizeof buf, "  %-34s [%s] %s -> %s  ",
                  s.metric.c_str(), Sparkline(s.values).c_str(),
                  FmtValue(s.values.empty() ? 0.0 : s.values.front()).c_str(),
                  FmtValue(s.values.empty() ? 0.0 : s.values.back()).c_str());
    out += buf;
    if (s.values.size() < 2) {
      out += "(single sample)\n";
      continue;
    }
    if (s.drift_pct >= 1e99 || s.drift_pct <= -1e99)
      std::snprintf(buf, sizeof buf, "%sinf%%", s.drift_pct > 0 ? "+" : "-");
    else
      std::snprintf(buf, sizeof buf, "%+.2f%%", s.drift_pct);
    out += buf;
    if (s.flagged) out += "  REGRESSED";
    out += "\n";
  }
  return out;
}

}  // namespace benchlib
