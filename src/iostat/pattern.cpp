#include "iostat/pattern.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "iostat/json_cursor.hpp"
#include "iostat/schemas.hpp"
#include "util/json.hpp"

namespace iostat {

using pnc::json::AppendF;

// ------------------------------------------------------------- PatternHist

void PatternHist::Add(std::uint64_t v) {
  const int b = v == 0 ? 0
                       : std::min(kBuckets - 1,
                                  static_cast<int>(std::bit_width(v)));
  ++bucket[b];
  sum += v;
  if (count == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  ++count;
}

// --------------------------------------------------------- PatternRegistry

PatternRegistry& PatternRegistry::Get() {
  // Leaked like the counter registry, so a record made during static
  // destruction still finds it.
  static PatternRegistry* g = new PatternRegistry();
  return *g;
}

PatternRegistry::PatternRegistry() = default;

PatternRegistry::VarAcc& PatternRegistry::VarSlot(std::string_view var) {
  auto it = vars_.find(var);
  if (it != vars_.end()) return it->second;
  // Bound the per-variable table; late arrivals share an overflow slot.
  const std::string key =
      vars_.size() < kMaxVars ? std::string(var) : std::string("*other");
  auto& acc = vars_[key];
  if (acc.pat.var.empty()) acc.pat.var = key;
  return acc;
}

void PatternRegistry::RecordAccess(std::string_view var, bool is_write,
                                   bool collective,
                                   std::span<const pnc::Extent> extents) {
  if (extents.empty()) return;
  const int rank = Registry::rank();
  VarAcc& acc = VarSlot(var.empty() ? std::string_view("*unnamed") : var);
  VarPattern& p = acc.pat;
  ++p.calls;
  std::uint64_t bytes = 0;
  for (const pnc::Extent& e : extents) {
    p.extent_bytes.Add(e.len);
    bytes += e.len;
  }
  if (is_write) {
    ++p.writes;
    p.bytes_written += bytes;
  } else {
    ++p.reads;
    p.bytes_read += bytes;
  }
  if (collective)
    ++p.coll;
  else
    ++p.indep;

  SeqState& st = acc.seq[rank];
  if (extents.size() > 1) {
    // Within-call classification: constant length + constant start-to-start
    // stride = strided, anything irregular = random.
    bool regular = true;
    const std::uint64_t stride0 = extents[1].offset - extents[0].offset;
    for (std::size_t i = 1; i < extents.size(); ++i) {
      const std::uint64_t s = extents[i].offset - extents[i - 1].offset;
      p.stride_bytes.Add(s);
      if (extents[i].len != extents[0].len || s != stride0) regular = false;
    }
    if (regular)
      ++p.strided;
    else
      ++p.random;
    st.has_gap = false;  // a multi-extent call breaks any cross-call rhythm
  } else {
    // Single-extent call: classify against the same rank's previous call so
    // scattered small accesses register as random across calls.
    if (!st.has_last) {
      ++p.contig;
    } else {
      const std::int64_t gap = static_cast<std::int64_t>(extents[0].offset) -
                               static_cast<std::int64_t>(st.last_end);
      if (gap == 0) {
        ++p.contig;
      } else {
        p.stride_bytes.Add(static_cast<std::uint64_t>(gap < 0 ? -gap : gap));
        if (!st.has_gap)
          ++p.strided;
        else if (gap == st.last_gap)
          ++p.strided;
        else
          ++p.random;
        st.last_gap = gap;
        st.has_gap = true;
      }
    }
  }
  st.has_last = true;
  st.last_end = extents.back().offset + extents.back().len;
}

void PatternRegistry::RecordTwophasePre(std::span<const pnc::Extent> segs) {
  for (const auto& s : segs) twophase_pre_.Add(s.len);
}

void PatternRegistry::RecordAggWindow(std::uint64_t bytes) {
  const int rank = Registry::rank();
  twophase_post_.Add(bytes);
  if (static_cast<std::size_t>(rank) >= agg_bytes_.size())
    agg_bytes_.resize(static_cast<std::size_t>(rank) + 1, 0);
  agg_bytes_[static_cast<std::size_t>(rank)] += bytes;
}

void PatternRegistry::RecordSieveWindow(bool is_write, std::uint64_t wanted,
                                        std::uint64_t file_bytes,
                                        std::uint64_t span_start,
                                        bool sieved) {
  if (is_write) {
    ++sieve_wr_windows_;
    sieve_wr_wanted_ += wanted;
    sieve_wr_file_ += file_bytes;
  } else {
    ++sieve_rd_windows_;
    sieve_rd_wanted_ += wanted;
    sieve_rd_file_ += file_bytes;
    if (sieved) {
      const std::uint64_t block = span_start / kRereadBlock;
      if (seen_read_blocks_.count(block) > 0)
        ++sieve_rd_rereads_;
      else if (seen_read_blocks_.size() < kMaxSeenBlocks)
        seen_read_blocks_.insert(block);
    }
  }
}

void PatternRegistry::CoarsenCells() {
  // Double the cell width and re-bin. Accumulators are sums/maxes, so the
  // merged map equals what direct binning at the coarser width would have
  // produced — coarsening keeps the heatmap order-independent.
  while (cells_.size() > kMaxCells) {
    std::map<std::pair<int, std::uint64_t>, CellAcc> merged;
    for (const auto& [key, c] : cells_) {
      CellAcc& m = merged[{key.first, key.second / 2}];
      m.busy_ns += c.busy_ns;
      m.bytes += c.bytes;
      m.grants += c.grants;
      m.depth_max = std::max(m.depth_max, c.depth_max);
    }
    cells_ = std::move(merged);
    cell_ns_ *= 2;
  }
}

void PatternRegistry::RecordPfsGrant(int server, std::uint64_t offset,
                                     std::uint64_t bytes, double begin_ns,
                                     double done_ns, std::uint64_t depth,
                                     double wait_ns) {
  if (server < 0) return;
  if (static_cast<std::size_t>(server) >= servers_.size())
    servers_.resize(static_cast<std::size_t>(server) + 1);
  ServerPattern& sp = servers_[static_cast<std::size_t>(server)];
  ++sp.grants;
  sp.bytes += bytes;
  sp.busy_ns += std::max(0.0, done_ns - begin_ns);
  sp.queue_wait_ns += std::max(0.0, wait_ns);
  sp.offsets.Add(offset);

  // Heatmap: bytes/grants/depth land in the grant's begin cell; busy time is
  // split exactly across every cell the service interval overlaps.
  const std::uint64_t b0 =
      static_cast<std::uint64_t>(std::max(0.0, begin_ns) / cell_ns_);
  {
    CellAcc& c = cells_[{server, b0}];
    c.bytes += bytes;
    ++c.grants;
    c.depth_max = std::max(c.depth_max, depth);
  }
  double t = std::max(0.0, begin_ns);
  std::uint64_t b = b0;
  // A grant spanning more cells than the map may hold would trigger
  // coarsening anyway; the slice cap only bounds this loop.
  for (std::size_t guard = 0; t < done_ns && guard < 2 * kMaxCells; ++guard) {
    const double cell_end = static_cast<double>(b + 1) * cell_ns_;
    const double seg = std::min(done_ns, cell_end) - t;
    if (seg > 0) cells_[{server, b}].busy_ns += seg;
    t = cell_end;
    ++b;
  }
  CoarsenCells();
}

PatternSummary PatternRegistry::Snapshot() const {
  PatternSummary s;
  for (const auto& [name, acc] : vars_) s.vars.push_back(acc.pat);
  s.servers = servers_;
  s.cell_ns = cell_ns_;
  for (const auto& [key, c] : cells_) {
    HeatCell hc;
    hc.server = key.first;
    hc.t_bucket = key.second;
    hc.busy_ns = c.busy_ns;
    hc.bytes = c.bytes;
    hc.grants = c.grants;
    hc.depth_max = c.depth_max;
    s.cells.push_back(hc);
  }
  s.twophase_pre = twophase_pre_;
  s.twophase_post = twophase_post_;
  s.sieve_rd_windows = sieve_rd_windows_;
  s.sieve_wr_windows = sieve_wr_windows_;
  s.sieve_rd_wanted = sieve_rd_wanted_;
  s.sieve_rd_file = sieve_rd_file_;
  s.sieve_wr_wanted = sieve_wr_wanted_;
  s.sieve_wr_file = sieve_wr_file_;
  s.sieve_rd_rereads = sieve_rd_rereads_;
  for (std::size_t r = 0; r < agg_bytes_.size(); ++r)
    if (agg_bytes_[r] > 0)
      s.agg_bytes.emplace_back(static_cast<int>(r), agg_bytes_[r]);
  s.present = !s.vars.empty() || !s.servers.empty() || !s.agg_bytes.empty() ||
              s.twophase_pre.count > 0 || sieve_rd_windows_ > 0 ||
              sieve_wr_windows_ > 0;
  return s;
}

void PatternRegistry::Reset() {
  vars_.clear();
  servers_.clear();
  cell_ns_ = kBaseCellNs;
  cells_.clear();
  twophase_pre_ = PatternHist{};
  twophase_post_ = PatternHist{};
  agg_bytes_.clear();
  sieve_rd_windows_ = sieve_wr_windows_ = 0;
  sieve_rd_wanted_ = sieve_rd_file_ = 0;
  sieve_wr_wanted_ = sieve_wr_file_ = 0;
  sieve_rd_rereads_ = 0;
  seen_read_blocks_.clear();
}

// --------------------------------------------------------- derived features

double PatternSummary::AggImbalance(int nranks) const {
  if (agg_bytes.empty() || nranks <= 0) return 0.0;
  std::uint64_t total = 0, mx = 0;
  for (const auto& [rank, b] : agg_bytes) {
    total += b;
    mx = std::max(mx, b);
  }
  if (total == 0) return 0.0;
  return static_cast<double>(mx) * nranks / static_cast<double>(total);
}

std::pair<double, int> PatternSummary::HottestServer() const {
  std::uint64_t total = 0, mx = 0;
  int idx = -1;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    total += servers[i].bytes;
    if (servers[i].bytes > mx) {
      mx = servers[i].bytes;
      idx = static_cast<int>(i);
    }
  }
  if (total == 0) return {0.0, -1};
  return {static_cast<double>(mx) / static_cast<double>(total), idx};
}

double PatternSummary::SieveReadAmp() const {
  return sieve_rd_wanted > 0 ? static_cast<double>(sieve_rd_file) /
                                   static_cast<double>(sieve_rd_wanted)
                             : 1.0;
}

double PatternSummary::SieveWriteAmp() const {
  return sieve_wr_wanted > 0 ? static_cast<double>(sieve_wr_file) /
                                   static_cast<double>(sieve_wr_wanted)
                             : 1.0;
}

// ------------------------------------------------------------ serialization

namespace {

void AppendHist(std::string& out, const PatternHist& h) {
  AppendF(out,
          "{\"count\":%" PRIu64 ",\"sum\":%" PRIu64 ",\"min\":%" PRIu64
          ",\"max\":%" PRIu64 ",\"b\":[",
          h.count, h.sum, h.count ? h.min : 0, h.max);
  bool first = true;
  for (int i = 0; i < PatternHist::kBuckets; ++i) {
    if (h.bucket[i] == 0) continue;
    AppendF(out, "%s[%d,%" PRIu64 "]", first ? "" : ",", i, h.bucket[i]);
    first = false;
  }
  out += "]}";
}

}  // namespace

std::string PatternToJson(const PatternSummary& s) {
  std::string out;
  out.reserve(4096);
  AppendF(out, "{\"schema\":\"%s\",\"cell_ns\":%.17g,\"vars\":[",
          schemas::kPattern, s.cell_ns);
  for (std::size_t i = 0; i < s.vars.size(); ++i) {
    const VarPattern& v = s.vars[i];
    if (i) out.push_back(',');
    out += "{\"var\":";
    pnc::json::AppendQuoted(out, v.var);
    AppendF(out,
            ",\"calls\":%" PRIu64 ",\"writes\":%" PRIu64 ",\"reads\":%" PRIu64
            ",\"indep\":%" PRIu64 ",\"coll\":%" PRIu64 ",\"contig\":%" PRIu64
            ",\"strided\":%" PRIu64 ",\"random\":%" PRIu64
            ",\"bytes_written\":%" PRIu64 ",\"bytes_read\":%" PRIu64
            ",\"extent\":",
            v.calls, v.writes, v.reads, v.indep, v.coll, v.contig, v.strided,
            v.random, v.bytes_written, v.bytes_read);
    AppendHist(out, v.extent_bytes);
    out += ",\"stride\":";
    AppendHist(out, v.stride_bytes);
    out.push_back('}');
  }
  out += "],\"servers\":[";
  for (std::size_t i = 0; i < s.servers.size(); ++i) {
    const ServerPattern& sv = s.servers[i];
    if (i) out.push_back(',');
    AppendF(out,
            "{\"grants\":%" PRIu64 ",\"bytes\":%" PRIu64
            ",\"busy_ns\":%.17g,\"queue_wait_ns\":%.17g,\"offsets\":",
            sv.grants, sv.bytes, sv.busy_ns, sv.queue_wait_ns);
    AppendHist(out, sv.offsets);
    out.push_back('}');
  }
  out += "],\"cells\":[";
  for (std::size_t i = 0; i < s.cells.size(); ++i) {
    const HeatCell& c = s.cells[i];
    if (i) out.push_back(',');
    AppendF(out,
            "{\"s\":%d,\"t\":%" PRIu64 ",\"busy_ns\":%.17g,\"bytes\":%" PRIu64
            ",\"grants\":%" PRIu64 ",\"depth\":%" PRIu64 "}",
            c.server, c.t_bucket, c.busy_ns, c.bytes, c.grants, c.depth_max);
  }
  out += "],\"twophase\":{\"pre\":";
  AppendHist(out, s.twophase_pre);
  out += ",\"post\":";
  AppendHist(out, s.twophase_post);
  AppendF(out,
          "},\"sieve\":{\"rd_windows\":%" PRIu64 ",\"wr_windows\":%" PRIu64
          ",\"rd_wanted\":%" PRIu64 ",\"rd_file\":%" PRIu64
          ",\"wr_wanted\":%" PRIu64 ",\"wr_file\":%" PRIu64
          ",\"rd_rereads\":%" PRIu64 "},\"agg\":[",
          s.sieve_rd_windows, s.sieve_wr_windows, s.sieve_rd_wanted,
          s.sieve_rd_file, s.sieve_wr_wanted, s.sieve_wr_file,
          s.sieve_rd_rereads);
  for (std::size_t i = 0; i < s.agg_bytes.size(); ++i) {
    if (i) out.push_back(',');
    AppendF(out, "[%d,%" PRIu64 "]", s.agg_bytes[i].first,
            s.agg_bytes[i].second);
  }
  out += "]}";
  return out;
}

// ----------------------------------------------------------------- parsing

namespace {

using jsoncur::Cursor;

bool ParseHist(Cursor& cur, PatternHist* h) {
  if (!cur.Eat('{')) return false;
  if (cur.Eat('}')) return true;
  do {
    std::string key;
    if (!cur.ParseString(&key) || !cur.Eat(':')) return false;
    if (key == "count") {
      if (!cur.ParseU64(&h->count)) return false;
    } else if (key == "sum") {
      if (!cur.ParseU64(&h->sum)) return false;
    } else if (key == "min") {
      if (!cur.ParseU64(&h->min)) return false;
    } else if (key == "max") {
      if (!cur.ParseU64(&h->max)) return false;
    } else if (key == "b") {
      if (!cur.Eat('[')) return false;
      if (!cur.Eat(']')) {
        do {
          double idx = 0;
          std::uint64_t n = 0;
          if (!cur.Eat('[') || !cur.ParseNumber(&idx) || !cur.Eat(',') ||
              !cur.ParseU64(&n) || !cur.Eat(']'))
            return false;
          const int i = static_cast<int>(idx);
          if (i >= 0 && i < PatternHist::kBuckets) h->bucket[i] = n;
        } while (cur.Eat(','));
        if (!cur.Eat(']')) return false;
      }
    } else {
      if (!cur.SkipValue()) return false;
    }
  } while (cur.Eat(','));
  return cur.Eat('}');
}

bool ParseVar(Cursor& cur, VarPattern* v) {
  if (!cur.Eat('{')) return false;
  if (cur.Eat('}')) return true;
  do {
    std::string key;
    if (!cur.ParseString(&key) || !cur.Eat(':')) return false;
    bool ok = true;
    if (key == "var") ok = cur.ParseString(&v->var);
    else if (key == "calls") ok = cur.ParseU64(&v->calls);
    else if (key == "writes") ok = cur.ParseU64(&v->writes);
    else if (key == "reads") ok = cur.ParseU64(&v->reads);
    else if (key == "indep") ok = cur.ParseU64(&v->indep);
    else if (key == "coll") ok = cur.ParseU64(&v->coll);
    else if (key == "contig") ok = cur.ParseU64(&v->contig);
    else if (key == "strided") ok = cur.ParseU64(&v->strided);
    else if (key == "random") ok = cur.ParseU64(&v->random);
    else if (key == "bytes_written") ok = cur.ParseU64(&v->bytes_written);
    else if (key == "bytes_read") ok = cur.ParseU64(&v->bytes_read);
    else if (key == "extent") ok = ParseHist(cur, &v->extent_bytes);
    else if (key == "stride") ok = ParseHist(cur, &v->stride_bytes);
    else ok = cur.SkipValue();
    if (!ok) return false;
  } while (cur.Eat(','));
  return cur.Eat('}');
}

bool ParseServer(Cursor& cur, ServerPattern* sv) {
  if (!cur.Eat('{')) return false;
  if (cur.Eat('}')) return true;
  do {
    std::string key;
    if (!cur.ParseString(&key) || !cur.Eat(':')) return false;
    bool ok = true;
    if (key == "grants") ok = cur.ParseU64(&sv->grants);
    else if (key == "bytes") ok = cur.ParseU64(&sv->bytes);
    else if (key == "busy_ns") ok = cur.ParseNumber(&sv->busy_ns);
    else if (key == "queue_wait_ns") ok = cur.ParseNumber(&sv->queue_wait_ns);
    else if (key == "offsets") ok = ParseHist(cur, &sv->offsets);
    else ok = cur.SkipValue();
    if (!ok) return false;
  } while (cur.Eat(','));
  return cur.Eat('}');
}

bool ParseCell(Cursor& cur, HeatCell* c) {
  if (!cur.Eat('{')) return false;
  if (cur.Eat('}')) return true;
  do {
    std::string key;
    if (!cur.ParseString(&key) || !cur.Eat(':')) return false;
    bool ok = true;
    double v = 0;
    if (key == "s") {
      ok = cur.ParseNumber(&v);
      c->server = static_cast<int>(v);
    } else if (key == "t") ok = cur.ParseU64(&c->t_bucket);
    else if (key == "busy_ns") ok = cur.ParseNumber(&c->busy_ns);
    else if (key == "bytes") ok = cur.ParseU64(&c->bytes);
    else if (key == "grants") ok = cur.ParseU64(&c->grants);
    else if (key == "depth") ok = cur.ParseU64(&c->depth_max);
    else ok = cur.SkipValue();
    if (!ok) return false;
  } while (cur.Eat(','));
  return cur.Eat('}');
}

}  // namespace

bool ParsePatternValue(jsoncur::Cursor& cur, PatternSummary* out) {
  *out = PatternSummary{};
  if (!cur.Eat('{')) return false;
  if (cur.Eat('}')) return true;
  do {
    std::string key;
    if (!cur.ParseString(&key) || !cur.Eat(':')) return false;
    bool ok = true;
    if (key == "schema") {
      std::string s;
      ok = cur.ParseString(&s) && s == schemas::kPattern;
    } else if (key == "cell_ns") {
      ok = cur.ParseNumber(&out->cell_ns);
    } else if (key == "vars") {
      if (!cur.Eat('[')) return false;
      if (!cur.Eat(']')) {
        do {
          VarPattern v;
          if (!ParseVar(cur, &v)) return false;
          out->vars.push_back(std::move(v));
        } while (cur.Eat(','));
        if (!cur.Eat(']')) return false;
      }
    } else if (key == "servers") {
      if (!cur.Eat('[')) return false;
      if (!cur.Eat(']')) {
        do {
          ServerPattern sv;
          if (!ParseServer(cur, &sv)) return false;
          out->servers.push_back(std::move(sv));
        } while (cur.Eat(','));
        if (!cur.Eat(']')) return false;
      }
    } else if (key == "cells") {
      if (!cur.Eat('[')) return false;
      if (!cur.Eat(']')) {
        do {
          HeatCell c;
          if (!ParseCell(cur, &c)) return false;
          out->cells.push_back(c);
        } while (cur.Eat(','));
        if (!cur.Eat(']')) return false;
      }
    } else if (key == "twophase") {
      if (!cur.Eat('{')) return false;
      if (!cur.Eat('}')) {
        do {
          std::string k2;
          if (!cur.ParseString(&k2) || !cur.Eat(':')) return false;
          if (k2 == "pre") ok = ParseHist(cur, &out->twophase_pre);
          else if (k2 == "post") ok = ParseHist(cur, &out->twophase_post);
          else ok = cur.SkipValue();
          if (!ok) return false;
        } while (cur.Eat(','));
        if (!cur.Eat('}')) return false;
      }
    } else if (key == "sieve") {
      if (!cur.Eat('{')) return false;
      if (!cur.Eat('}')) {
        do {
          std::string k2;
          if (!cur.ParseString(&k2) || !cur.Eat(':')) return false;
          std::uint64_t v = 0;
          if (!cur.ParseU64(&v)) return false;
          if (k2 == "rd_windows") out->sieve_rd_windows = v;
          else if (k2 == "wr_windows") out->sieve_wr_windows = v;
          else if (k2 == "rd_wanted") out->sieve_rd_wanted = v;
          else if (k2 == "rd_file") out->sieve_rd_file = v;
          else if (k2 == "wr_wanted") out->sieve_wr_wanted = v;
          else if (k2 == "wr_file") out->sieve_wr_file = v;
          else if (k2 == "rd_rereads") out->sieve_rd_rereads = v;
        } while (cur.Eat(','));
        if (!cur.Eat('}')) return false;
      }
    } else if (key == "agg") {
      if (!cur.Eat('[')) return false;
      if (!cur.Eat(']')) {
        do {
          double rank = 0;
          std::uint64_t b = 0;
          if (!cur.Eat('[') || !cur.ParseNumber(&rank) || !cur.Eat(',') ||
              !cur.ParseU64(&b) || !cur.Eat(']'))
            return false;
          out->agg_bytes.emplace_back(static_cast<int>(rank), b);
        } while (cur.Eat(','));
        if (!cur.Eat(']')) return false;
      }
    } else {
      ok = cur.SkipValue();
    }
    if (!ok) return false;
  } while (cur.Eat(','));
  if (!cur.Eat('}')) return false;
  out->present =
      !out->vars.empty() || !out->servers.empty() || !out->agg_bytes.empty() ||
      out->twophase_pre.count > 0 || out->sieve_rd_windows > 0 ||
      out->sieve_wr_windows > 0;
  return true;
}

// ------------------------------------------------------- ASCII renderers

namespace {

/// One glyph ramp for every grid and sparkline: index 0 is empty, 9 full.
constexpr const char kGlyphs[] = " .:-=+*#%@";

/// Column grouping of a server x time grid: `group` base cells per column,
/// `ncols` columns (at most `max_cols`) covering buckets [0, max_bucket].
struct Columns {
  std::uint64_t group = 1;
  std::uint64_t ncols = 1;
  double col_ns = 0.0;
};

Columns ColumnsFor(const PatternSummary& s, int max_cols) {
  std::uint64_t max_bucket = 0;
  for (const HeatCell& c : s.cells)
    max_bucket = std::max(max_bucket, c.t_bucket);
  const std::uint64_t m =
      static_cast<std::uint64_t>(std::max(8, max_cols));
  Columns cols;
  // Ceiling division on the cell count max_bucket + 1, written so a bucket
  // near 2^64 cannot overflow.
  cols.group = max_bucket / m + 1;
  cols.ncols = max_bucket / cols.group + 1;
  cols.col_ns = s.cell_ns * static_cast<double>(cols.group);
  return cols;
}

}  // namespace

std::string RenderHeatmap(const PatternSummary& s, int max_cols) {
  std::string out;
  if (!s.present || s.cells.empty() || s.servers.empty()) {
    out = "heatmap: no pattern data recorded (PNC_IOSTAT_PATTERN off, or the "
          "run did no pfs I/O)\n";
    return out;
  }
  const Columns cols = ColumnsFor(s, max_cols);
  const std::uint64_t ncols = cols.ncols;
  const double col_ns = cols.col_ns;

  const int nservers = static_cast<int>(s.servers.size());
  std::vector<std::vector<double>> busy(
      static_cast<std::size_t>(nservers),
      std::vector<double>(static_cast<std::size_t>(ncols), 0.0));
  for (const HeatCell& c : s.cells) {
    if (c.server < 0 || c.server >= nservers) continue;
    busy[static_cast<std::size_t>(c.server)]
        [static_cast<std::size_t>(c.t_bucket / cols.group)] += c.busy_ns;
  }

  std::uint64_t total_bytes = 0;
  for (const ServerPattern& sv : s.servers) total_bytes += sv.bytes;

  AppendF(out,
          "pfs server x virtual-time heatmap (%d servers, %" PRIu64
          " cols, col = %.3f ms, glyph = busy fraction)\n",
          nservers, ncols, col_ns / 1e6);
  for (int sv = 0; sv < nservers; ++sv) {
    AppendF(out, "  s%02d |", sv);
    for (std::uint64_t col = 0; col < ncols; ++col) {
      const double util =
          std::min(1.0, busy[static_cast<std::size_t>(sv)]
                            [static_cast<std::size_t>(col)] / col_ns);
      const int g = std::min(9, static_cast<int>(util * 10.0));
      out.push_back(kGlyphs[g]);
    }
    const double share =
        total_bytes > 0
            ? 100.0 *
                  static_cast<double>(
                      s.servers[static_cast<std::size_t>(sv)].bytes) /
                  static_cast<double>(total_bytes)
            : 0.0;
    AppendF(out, "| %5.1f%% of bytes\n", share);
  }
  const auto [share, hottest] = s.HottestServer();
  if (hottest >= 0)
    AppendF(out, "  hottest: server %d carries %.0f%% of pfs bytes\n", hottest,
            100.0 * share);
  return out;
}

namespace {

/// One sparkline: glyph = value relative to the row's own peak, which the
/// right margin prints times `scale`.
void RenderSparkline(std::string& out, const char* label,
                     const std::vector<double>& cols, double scale,
                     const char* unit) {
  double mx = 0;
  for (const double v : cols) mx = std::max(mx, v);
  AppendF(out, "  %-22s |", label);
  for (const double v : cols) {
    const int g =
        (mx <= 0 || v <= 0) ? 0
                            : std::min(9, 1 + static_cast<int>(v / mx * 8.999));
    out.push_back(kGlyphs[g]);
  }
  AppendF(out, "| peak=%.4g%s\n", mx * scale, unit);
}

}  // namespace

std::string RenderTimeline(const PatternSummary& s, int max_cols) {
  std::string out;
  if (s.cells.empty() || s.cell_ns <= 0) {
    out = "timeline: no pfs grants recorded (PNC_IOSTAT_PATTERN off, or the "
          "run did no pfs I/O)\n";
    return out;
  }
  const Columns cols = ColumnsFor(s, max_cols);
  AppendF(out,
          "virtual-time timeline (%.3f ms in %" PRIu64 " cols of %.3f ms)\n",
          static_cast<double>(cols.ncols) * cols.col_ns / 1e6, cols.ncols,
          cols.col_ns / 1e6);

  std::set<int> server_ids;
  for (const HeatCell& c : s.cells) server_ids.insert(c.server);
  for (const int sv : server_ids) {
    std::vector<double> bytes(static_cast<std::size_t>(cols.ncols), 0.0);
    std::vector<double> depth(bytes.size(), 0.0);
    for (const HeatCell& c : s.cells) {
      if (c.server != sv) continue;
      const std::size_t col = static_cast<std::size_t>(c.t_bucket / cols.group);
      bytes[col] += static_cast<double>(c.bytes);
      depth[col] = std::max(depth[col], static_cast<double>(c.depth_max));
    }
    char label[32];
    std::snprintf(label, sizeof label, "s%02d MB/s", sv);
    RenderSparkline(out, label, bytes, 1e3 / cols.col_ns, " MB/s");
    std::snprintf(label, sizeof label, "s%02d queue depth", sv);
    RenderSparkline(out, label, depth, 1.0, "");
  }
  return out;
}

}  // namespace iostat
