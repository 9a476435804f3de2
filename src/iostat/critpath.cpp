#include "iostat/critpath.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <utility>

#include "util/json.hpp"

namespace iostat {

using pnc::json::AppendF;

namespace {

/// One rank's view of one collective op, rebuilt from its event stream.
struct RankOp {
  CritPath::RankSeg seg;
  bool is_write = false;
  bool ok = true;
};

/// Walk one rank's events (recording order) and rebuild its collective
/// ops: phase begin/end pairs nest inside CollBegin/CollEnd brackets.
std::vector<RankOp> RankOps(const std::vector<Event>& events, int rank) {
  std::vector<RankOp> ops;
  bool in_op = false;
  RankOp cur;
  double xchg_begin = 0, io_begin = 0;
  for (const Event& e : events) {
    switch (e.kind) {
      case Ev::kCollBegin:
        cur = RankOp{};
        cur.seg.rank = rank;
        cur.seg.req = e.req;
        cur.seg.detail = e.detail;
        cur.seg.arrive_ns = e.t_ns;
        cur.is_write = e.a1 != 0;
        in_op = true;
        break;
      case Ev::kCollEnd:
        if (!in_op) break;
        cur.seg.depart_ns = e.t_ns;
        cur.ok = e.a0 != 0;
        ops.push_back(cur);
        in_op = false;
        break;
      case Ev::kXchgBegin:
        xchg_begin = e.t_ns;
        break;
      case Ev::kXchgEnd:
        if (in_op) cur.seg.exchange_ns += e.t_ns - xchg_begin;
        break;
      case Ev::kIoBegin:
        io_begin = e.t_ns;
        break;
      case Ev::kIoEnd:
        if (in_op) cur.seg.io_ns += e.t_ns - io_begin;
        break;
      default:
        break;
    }
  }
  return ops;
}

}  // namespace

double CritPath::Op::attributed_ns() const {
  double sum = 0;
  for (const RankSeg& r : ranks) sum += r.wait_ns + r.exchange_ns + r.io_ns;
  return sum;
}

double CritPath::Op::attributed_frac() const {
  const double denom = static_cast<double>(ranks.size()) * wall_ns();
  return denom > 0 ? attributed_ns() / denom : 1.0;
}

CritPath AnalyzeCritPath(const std::vector<std::vector<Event>>& ranks) {
  CritPath cp;
  std::vector<std::vector<RankOp>> per_rank;
  per_rank.reserve(ranks.size());
  for (std::size_t r = 0; r < ranks.size(); ++r)
    per_rank.push_back(RankOps(ranks[r], static_cast<int>(r)));
  if (per_rank.empty()) return cp;

  // Tail-align: a bounded ring may retain different depths of history per
  // rank, but every rank participates in every collective, so the k-th op
  // from the end is the same op on every rank.
  std::size_t nops = per_rank[0].size();
  for (const auto& ops : per_rank) nops = std::min(nops, ops.size());
  if (nops == 0) return cp;

  for (std::size_t k = 0; k < nops; ++k) {
    CritPath::Op op;
    op.index = k;
    op.begin_ns = 0;
    op.end_ns = 0;
    bool first = true;
    for (const auto& ops : per_rank) {
      const RankOp& ro = ops[ops.size() - nops + k];
      op.ranks.push_back(ro.seg);
      op.is_write = op.is_write || ro.is_write;
      op.ok = op.ok && ro.ok;
      op.begin_ns = first ? ro.seg.arrive_ns
                          : std::min(op.begin_ns, ro.seg.arrive_ns);
      op.end_ns = first ? ro.seg.depart_ns
                        : std::max(op.end_ns, ro.seg.depart_ns);
      first = false;
    }
    // Straggler wait tiles the remainder of each rank's [op begin, depart]
    // interval not spent in a named phase.
    for (CritPath::RankSeg& seg : op.ranks) {
      seg.wait_ns = (seg.depart_ns - op.begin_ns) - seg.exchange_ns -
                    seg.io_ns;
      if (seg.wait_ns < 0) seg.wait_ns = 0;
    }
    // Per-server decomposition: pfs service events whose start falls in the
    // op window (independent traffic in the window counts too — it holds
    // the same servers busy).
    std::map<int, CritPath::ServerSeg> servers;
    for (const auto& evs : ranks) {
      for (const Event& e : evs) {
        if (e.kind != Ev::kPfsServer) continue;
        if (e.t_ns < op.begin_ns || e.t_ns > op.end_ns) continue;
        const int server = static_cast<int>(e.a0 & 0xff);
        CritPath::ServerSeg& s = servers[server];
        s.server = server;
        s.ops += 1;
        s.bytes += e.a0 >> 8;
        s.queue_ns += static_cast<double>(e.a1);
        s.service_ns += e.d_ns;
      }
    }
    for (const auto& [server, seg] : servers) op.servers.push_back(seg);
    cp.ops.push_back(std::move(op));
  }
  return cp;
}

CritPath AnalyzeCritPath(const EventDump& dump) {
  int max_rank = 0;
  for (const auto& tail : dump.ranks)
    max_rank = std::max(max_rank, tail.rank);
  std::vector<std::vector<Event>> ranks(
      static_cast<std::size_t>(max_rank) + 1);
  for (const auto& tail : dump.ranks)
    ranks[static_cast<std::size_t>(tail.rank)] = tail.events;
  return AnalyzeCritPath(ranks);
}

std::string PrettyPrintCritPath(const CritPath& cp) {
  std::string out;
  AppendF(out, "critical path: %zu collective op(s)\n", cp.ops.size());
  for (const CritPath::Op& op : cp.ops) {
    const double wall = op.wall_ns();
    AppendF(out,
            "op %zu %s%s: wall %.0f ns, %.1f%% attributed to named "
            "(rank, phase) segments\n",
            op.index, op.is_write ? "write" : "read", op.ok ? "" : " FAILED",
            wall, 100.0 * op.attributed_frac());
    for (const CritPath::RankSeg& r : op.ranks) {
      const double pct = wall > 0 ? 100.0 / wall : 0;
      AppendF(out,
              "  rank %d req %" PRIu64 " [%s]: wait %.0f ns (%.1f%%), "
              "exchange %.0f ns (%.1f%%), file-io %.0f ns (%.1f%%)\n",
              r.rank, r.req, r.detail.c_str(), r.wait_ns, r.wait_ns * pct,
              r.exchange_ns, r.exchange_ns * pct, r.io_ns, r.io_ns * pct);
    }
    for (const CritPath::ServerSeg& s : op.servers) {
      AppendF(out,
              "  server %d: %" PRIu64 " req(s), %" PRIu64
              " B, queue %.0f ns, service %.0f ns\n",
              s.server, s.ops, s.bytes, s.queue_ns, s.service_ns);
    }
  }
  return out;
}

}  // namespace iostat
