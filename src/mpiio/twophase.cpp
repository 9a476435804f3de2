// Two-phase collective I/O (ROMIO's generalized collective algorithm).
//
// Phase 1 (exchange): the aggregate file range touched by the collective is
// split into contiguous *file domains*, one per aggregator rank. Every rank
// ships the parts of its request that fall inside each domain to the owning
// aggregator (writes) or receives them from it (reads), window by window.
// The exchange is sparse: the ranks' file ranges are gathered once, and a
// rank messages an aggregator in a round only when its range meets that
// aggregator's window, all sends posted before any receive (ROMIO's
// ADIOI_Calc_others_req and Isend/Irecv/Waitall).
//
// Phase 2 (I/O): each aggregator services its domain with large contiguous
// requests of up to cb_buffer_size bytes, using read-modify-write when the
// union of pieces leaves holes in a window.
//
// The two phases are pipelined, as in ROMIO's threaded GPFS I/O path and
// Sehrish et al.'s pipelined collective I/O: an aggregator's file transfers
// run on its own I/O channel clock, so window w's write is in flight while
// the rank clock runs window w+1's exchange, and window w+1's read is in
// flight while window w's replies go out. The aggregator holds two windows;
// the rank waits on the channel only to reuse a window buffer, to get a
// read's bytes, and before the closing status agreement, so no collective
// returns with a transfer in flight. A one-window collective keeps the
// sequential schedule exactly.
//
// This is the optimization the paper leans on: "All processes in combination
// can make a single MPI-IO request to transfer large contiguous data as a
// whole" (§4.2.2). The per-request latency of the PFS makes the win visible.
#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <span>

#include "format/sums.hpp"
#include "iostat/observe.hpp"
#include "mpiio/file_impl.hpp"

namespace mpiio {

namespace {

std::uint64_t DivCeil(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

/// Rounds [lo, hi): the windows of one domain that a range meets.
struct Rounds {
  std::uint64_t lo = 0, hi = 0;
  [[nodiscard]] bool empty() const { return lo >= hi; }
  [[nodiscard]] bool contains(std::uint64_t w) const {
    return lo <= w && w < hi;
  }
};

/// The collective's file domains and their windows, which every rank
/// derives identically from the gathered ranges. Domain d is [start(d),
/// end(d)); round w covers [start(d) + w*cb, start(d) + (w+1)*cb) of every
/// domain. All cuts lie on one grid, origin + k*unit: absolute stripe
/// boundaries, so two aggregators never touch one stripe and no window
/// write cuts one, or, for a read that the attached chunk-sum map
/// verifies, chunk boundaries, so no chunk is fetched and checked by two
/// windows. Stripe windows of a stripe or more are rounded down to a stripe
/// multiple (as ROMIO's Lustre module does); chunk windows are rounded up to
/// a chunk multiple, overshooting the hint by less than one chunk rather
/// than cutting more, smaller windows.
struct Geometry {
  std::uint64_t base = 0, dsize = 0, cb = 0, gmax = 0, rounds = 0;
  std::size_t naggs = 0;

  [[nodiscard]] std::uint64_t start(std::size_t d) const {
    return base + d * dsize;
  }
  [[nodiscard]] std::uint64_t end(std::size_t d) const {
    return std::min(gmax, start(d) + dsize);
  }
  /// The domain holding file offset `off` (base <= off < gmax).
  [[nodiscard]] std::size_t DomainOf(std::uint64_t off) const {
    return std::min<std::size_t>((off - base) / dsize, naggs - 1);
  }
  /// The round whose window of domain d holds `off`.
  [[nodiscard]] std::uint64_t WindowOf(std::size_t d, std::uint64_t off) const {
    return (off - start(d)) / cb;
  }
  /// The rounds whose window of domain d meets the file range `r`.
  [[nodiscard]] Rounds Meets(std::size_t d, const pnc::Extent& r) const {
    const std::uint64_t lo = std::max(r.offset, start(d));
    const std::uint64_t hi = std::min(r.end(), end(d));
    if (lo >= hi) return {};
    return {WindowOf(d, lo), WindowOf(d, hi - 1) + 1};
  }
};

/// `naggs` domains over [gmin, gmax), on the grid origin + k*unit, in
/// windows of about `cb` bytes: at most `cb`, or, with `round_up` (the
/// chunk grid), `cb` rounded up to a unit multiple.
Geometry MakeGeometry(std::uint64_t gmin, std::uint64_t gmax,
                      std::size_t naggs, std::uint64_t cb,
                      std::uint64_t origin, std::uint64_t unit,
                      bool round_up) {
  Geometry g;
  g.naggs = naggs;
  g.gmax = gmax;
  g.base = origin + (gmin - origin) / unit * unit;
  g.dsize = std::max(DivCeil(DivCeil(gmax - g.base, naggs), unit) * unit, unit);
  g.cb = round_up      ? DivCeil(cb, unit) * unit
         : cb >= unit ? cb / unit * unit
                      : cb;
  g.rounds = DivCeil(g.dsize, g.cb);
  return g;
}

/// This rank's share of one window of one file domain: its extents there
/// (file-sorted, split at window boundaries) and where their bytes sit in
/// the packed buffer. Segments are file-sorted, so a share's bytes form one
/// contiguous slice of the packed buffer.
struct Share {
  std::size_t domain = 0;
  std::uint64_t window = 0;
  std::size_t first_ext = 0, n_ext = 0;  ///< range of the flat extent list
  std::uint64_t data_off = 0, bytes = 0;
};

struct Piece {
  std::uint64_t file_off = 0;
  std::uint64_t len = 0;
  const std::byte* src = nullptr;  ///< for writes
  int src_rank = 0;                ///< for reads: who wants these bytes
  std::uint64_t reply_off = 0;     ///< for reads: offset in the reply blob
  std::uint64_t window = 0;        ///< for reads: which window holds it
};

/// An aggregator's I/O channel: file transfers run on their own virtual
/// clock, one at a time, while the rank clock goes on with the exchanges.
class IoChannel {
 public:
  /// Run `io(clock)` on the channel, starting once the channel is free and
  /// no earlier than `issue_ns`, the rank-clock time it is issued at.
  template <typename Fn>
  pnc::Status Issue(double issue_ns, Fn&& io) {
    clock_.AdvanceTo(issue_ns);
    const double begin = clock_.now();
    const pnc::Status st = io(clock_);
    busy_ns_ += clock_.now() - begin;
    return st;
  }
  /// When everything issued so far has completed.
  [[nodiscard]] double idle_ns() const { return clock_.now(); }
  /// Hold the rank clock until channel time `t`.
  void WaitUntil(simmpi::VirtualClock& rank, double t) {
    if (t <= rank.now()) return;
    waited_ns_ += t - rank.now();
    rank.AdvanceTo(t);
  }
  void Drain(simmpi::VirtualClock& rank) { WaitUntil(rank, clock_.now()); }
  /// Channel time the rank never waited for: hidden behind its exchanges.
  /// Every wait falls inside busy time, because transfers are issued no
  /// later than the rank's clock and then run back to back.
  [[nodiscard]] double hidden_ns() const { return busy_ns_ - waited_ns_; }

 private:
  simmpi::VirtualClock clock_;
  double busy_ns_ = 0.0, waited_ns_ = 0.0;
};

/// Fill `msg` with an exchange request: u64 req (the sender's request ID,
/// for causal attribution of aggregator I/O), u64 n, n * (u64 off, u64
/// len), then `payload` (writes; for reads the extents alone form the
/// request).
void PackRequest(std::vector<std::byte>& msg, std::uint64_t req,
                 std::span<const pnc::Extent> ext,
                 std::span<const std::byte> payload) {
  const std::uint64_t n_ext = ext.size();
  const std::size_t header = 16 + 16 * ext.size();
  msg.resize(header + payload.size());
  std::memcpy(msg.data(), &req, 8);
  std::memcpy(msg.data() + 8, &n_ext, 8);
  std::memcpy(msg.data() + 16, ext.data(), 16 * ext.size());
  if (!payload.empty())
    std::memcpy(msg.data() + header, payload.data(), payload.size());
}

/// Walk one request in PackRequest's layout: `fn(req, e, extent,
/// payload_off)` for its e-th extent, whose bytes (writes) start
/// `payload_off` bytes into `msg`.
template <typename Fn>
void ForEachExtent(const std::vector<std::byte>& msg, Fn&& fn) {
  std::uint64_t req = 0, n_ext = 0;
  std::memcpy(&req, msg.data(), 8);
  std::memcpy(&n_ext, msg.data() + 8, 8);
  std::uint64_t payload_off = 16 + 16 * n_ext;
  for (std::uint64_t e = 0; e < n_ext; ++e) {
    pnc::Extent x;
    std::memcpy(&x, msg.data() + 16 + 16 * e, 16);
    fn(req, e, x, payload_off);
    payload_off += x.len;
  }
}

/// Span of `pieces` (file-sorted): its start, its length, and the bytes the
/// pieces cover (less than the length when the union has holes).
struct Span {
  std::uint64_t start = 0, len = 0, covered = 0;
};
Span SpanOf(std::span<const Piece> pieces) {
  Span sp;
  if (pieces.empty()) return sp;
  sp.start = pieces.front().file_off;
  std::uint64_t end = 0;
  for (const auto& pc : pieces) {
    end = std::max(end, pc.file_off + pc.len);
    sp.covered += pc.len;
  }
  sp.len = end - sp.start;
  return sp;
}

}  // namespace

pnc::Status File::CollectiveIo(std::uint64_t offset_etypes, void* buf,
                               std::uint64_t count,
                               const simmpi::Datatype& memtype, bool is_write) {
  if (!impl_ || !impl_->open) return pnc::Status(pnc::Err::kBadId, "coll io");
  auto& im = *impl_;
  auto& comm = im.comm;
  auto& clk = comm.clock();
  const auto& cost = comm.cost();
  const int p = comm.size();

  const std::uint64_t bytes = count * memtype.size();
  if (bytes > 0 && buf == nullptr)
    return pnc::Status(pnc::Err::kNullBuf, "coll io");

  PNC_OBSERVE(kCollBegin, .t_ns = clk.now(), .len = bytes,
              .is_write = is_write);
  const std::uint64_t my_req = PNC_IOSTAT_CURRENT_REQ();

  const bool use_cb = is_write ? im.hints.cb_write : im.hints.cb_read;
  if (!use_cb || p == 1) {
    // Collective buffering disabled: every rank does independent I/O, then
    // the collective completes when the slowest rank finishes. Error
    // agreement still applies: a collective returns one status everywhere.
    pnc::Status st = bytes == 0 ? pnc::Status::Ok()
                                : IndependentIo(offset_etypes, buf, count,
                                                memtype, is_write);
    st = comm.AgreeStatus(st);
    PNC_OBSERVE(kCollEnd, .t_ns = clk.now(), .is_write = is_write,
                .flag = st.ok());
    return st;
  }

  // Flatten this rank's file access. Its fragments are the "pre" extents
  // entering the exchange; the aggregators' file windows below are the
  // "post" side.
  std::vector<pnc::Extent> segs;
  if (bytes > 0)
    im.view.MapRange(offset_etypes * im.view.etype_size(), bytes, segs);
  PNC_OBSERVE(kTwoPhase, .len = bytes, .extents = segs);

  // Stage noncontiguous memory through a packed buffer.
  std::vector<std::byte> staging;
  std::byte* data = static_cast<std::byte*>(buf);
  const bool contig_mem = memtype.is_contiguous();
  if (!contig_mem && bytes > 0) {
    staging.resize(bytes);
    if (is_write) {
      memtype.Pack(data, count, staging.data());
      clk.Advance(cost.CopyCost(bytes));
    }
    data = staging.data();
  }

  // The exchange runs on `work`: this comm minus any member already dead
  // (always the comm itself when no rank-fault policy is armed). Aggregator
  // duties of a rank that died before the collective are reassigned simply
  // because the domain mapping below is computed over `work` — the fallback
  // aggregator is deterministic (same formula, smaller comm). A death
  // *during* the collective surfaces through the exchange and the closing
  // status agreement, and turns into kRankFailed on every survivor; either
  // way, nobody hangs.
  simmpi::Comm work = comm;
  PNC_RETURN_IF_ERROR(comm.TryShrink(work));
  const int wp = work.size();

  // Every rank's file range, from its first byte to its last, gathered
  // once: the domains, the windows and who exchanges with whom in each
  // round all follow from them. An empty range moves nothing.
  pnc::Extent mine;
  if (!segs.empty())
    mine = {segs.front().offset, segs.back().end() - segs.front().offset};
  std::vector<std::vector<std::byte>> gathered;
  const pnc::Status gst = work.TryAllgather(
      pnc::ConstByteSpan(reinterpret_cast<const std::byte*>(&mine),
                         sizeof mine),
      gathered);
  std::vector<pnc::Extent> ranges(static_cast<std::size_t>(wp));
  std::uint64_t gmin = std::numeric_limits<std::uint64_t>::max(), gmax = 0;
  if (gst.ok()) {
    for (std::size_t r = 0; r < ranges.size(); ++r) {
      std::memcpy(&ranges[r], gathered[r].data(), sizeof(pnc::Extent));
      if (ranges[r].len == 0) continue;
      gmin = std::min(gmin, ranges[r].offset);
      gmax = std::max(gmax, ranges[r].end());
    }
  }
  if (!gst.ok() || gmin >= gmax) {
    // Nothing to do anywhere, or the group shrank while setting up: skip
    // the transfer and settle together, so every survivor returns the
    // identical status.
    const pnc::Status st = comm.TrySyncClocks();
    PNC_OBSERVE(kCollEnd, .t_ns = clk.now(), .is_write = is_write,
                .flag = st.ok());
    return st;
  }

  // File domains: an even share per aggregator, cut on the grid (see
  // Geometry), as ROMIO aligns its domains to file system lock/block
  // boundaries.
  const auto naggs = std::min(static_cast<std::size_t>(im.hints.cb_nodes),
                              static_cast<std::size_t>(wp));
  std::uint64_t origin = 0, unit = im.fs->config().stripe_size;
  const ncformat::ChunkSumMap* sums = im.io.sums();
  const bool chunk_grid = !is_write && im.io.verifies() &&
                          sums->chunk_size() > 0 &&
                          gmin >= sums->data_begin();
  if (chunk_grid) {
    origin = sums->data_begin();
    unit = sums->chunk_size();
  }
  const Geometry geo =
      MakeGeometry(gmin, gmax, naggs, im.hints.cb_buffer_size, origin, unit,
                   /*round_up=*/chunk_grid);
  const std::uint64_t cb = geo.cb;
  const std::uint64_t rounds = geo.rounds;
  // Aggregators are spread across the (surviving) communicator.
  auto agg_rank = [&](std::size_t d) {
    return static_cast<int>(d * static_cast<std::size_t>(wp) / naggs);
  };
  std::size_t my_domain = naggs;  // "not an aggregator"
  for (std::size_t d = 0; d < naggs; ++d)
    if (agg_rank(d) == work.rank()) my_domain = d;

  // The sparse exchange's pairs, as ROMIO's ADIOI_Calc_others_req works
  // them out: this rank exchanges with domain d's aggregator in round w iff
  // its range meets window w of d, even where it holds no bytes there (an
  // empty message), so both sides of every pair derive it alike.
  std::vector<Rounds> my_rounds(naggs);  // per domain
  for (std::size_t d = 0; d < naggs; ++d) my_rounds[d] = geo.Meets(d, mine);
  std::vector<Rounds> peer_rounds;  // per rank, in my domain
  if (my_domain < naggs)
    for (const pnc::Extent& r : ranges)
      peer_rounds.push_back(geo.Meets(my_domain, r));
  // One exchange's pairs: my aggregators, and (as an aggregator) my
  // requesters, whose rounds pass `meets`.
  std::vector<int> aggs, requesters;
  const auto pairs = [&](auto meets) {
    aggs.clear();
    requesters.clear();
    for (std::size_t d = 0; d < naggs; ++d)
      if (meets(my_rounds[d])) aggs.push_back(agg_rank(d));
    for (std::size_t r = 0; r < peer_rounds.size(); ++r)
      if (meets(peer_rounds[r])) requesters.push_back(static_cast<int>(r));
  };
  const auto in_round = [](std::uint64_t w) {
    return [w](const Rounds& r) { return r.contains(w); };
  };

  // Split this rank's segments at domain and window boundaries. Shares come
  // out ordered by (domain, window), each domain's extents contiguous in
  // `ext`.
  std::vector<pnc::Extent> ext;
  std::vector<Share> shares;
  {
    std::uint64_t data_off = 0;
    for (const auto& sg : segs) {
      std::uint64_t off = sg.offset;
      const std::uint64_t end = sg.end();
      while (off < end) {
        const std::size_t d = geo.DomainOf(off);
        const std::uint64_t w = geo.WindowOf(d, off);
        const std::uint64_t n =
            std::min({end, geo.end(d), geo.start(d) + (w + 1) * cb}) - off;
        if (shares.empty() || shares.back().domain != d ||
            shares.back().window != w)
          shares.push_back({d, w, ext.size(), 0, data_off, 0});
        ext.push_back({off, n});
        shares.back().n_ext += 1;
        shares.back().bytes += n;
        off += n;
        data_off += n;
      }
    }
  }
  // next[d]: this rank's first share of domain d not yet exchanged.
  std::vector<std::size_t> next(naggs, shares.size());
  for (std::size_t i = shares.size(); i-- > 0;) next[shares[i].domain] = i;
  const auto share_at = [&](std::size_t d, std::uint64_t w) -> const Share* {
    const std::size_t i = next[d];
    if (i < shares.size() && shares[i].domain == d && shares[i].window == w) {
      ++next[d];
      return &shares[i];
    }
    return nullptr;
  };

  // The host keeps one window buffer: pfs transfers complete synchronously,
  // so the second buffer of the pipeline exists only in virtual time.
  std::vector<std::byte> window(cb);
  IoChannel chan;

  // First error seen by this rank (local I/O as aggregator). Even after an
  // error, every rank keeps participating in every round's exchanges so the
  // collective protocol stays aligned; the statuses are reconciled once at
  // the end with Comm::AgreeStatus.
  pnc::Status st;

  if (is_write) {
    // Channel time at which each of the two modelled window buffers is free.
    double buf_free[2] = {0.0, 0.0};
    std::uint64_t filled = 0;
    for (std::uint64_t w = 0; w < rounds; ++w) {
      const double exchange_start = clk.now();
      PNC_OBSERVE(kXchgBegin, .t_ns = exchange_start, .off = w);
      pairs(in_round(w));
      std::vector<std::vector<std::byte>> sendbufs(
          static_cast<std::size_t>(wp));
      for (std::size_t d = 0; d < naggs; ++d) {
        const Share* sh = share_at(d, w);
        if (sh == nullptr) continue;
        PackRequest(sendbufs[static_cast<std::size_t>(agg_rank(d))], my_req,
                    std::span(ext).subspan(sh->first_ext, sh->n_ext),
                    std::span(data + sh->data_off, sh->bytes));
        clk.Advance(cost.CopyCost(sh->bytes));
      }
      for (const int r : aggs) {
        if (r != work.rank() &&
            !sendbufs[static_cast<std::size_t>(r)].empty()) {
          PNC_OBSERVE(kXchgSend, .t_ns = exchange_start, .off = w, .peer = r);
        }
      }
      std::vector<std::vector<std::byte>> recvbufs;
      const pnc::Status xst = work.TryExchange(std::move(sendbufs), aggs,
                                               requesters, w, recvbufs);
      if (st.ok()) st = xst;
      PNC_OBSERVE(kXchgEnd, .t_ns = exchange_start, .end_ns = clk.now(),
                  .off = w);

      // ---- aggregator fills its window and hands it to the channel ----
      const double io_start = clk.now();
      PNC_OBSERVE(kIoBegin, .t_ns = io_start, .off = w);
      std::vector<Piece> pieces;
      for (const int r : requesters) {
        const auto& msg = recvbufs[static_cast<std::size_t>(r)];
        if (msg.empty()) continue;
        ForEachExtent(msg, [&](std::uint64_t req, std::uint64_t e,
                               const pnc::Extent& x, std::uint64_t at) {
          if (e == 0)
            PNC_OBSERVE(kAggPiece, .t_ns = io_start, .off = w, .peer = r,
                        .req = req);
          pieces.push_back(
              {.file_off = x.offset, .len = x.len, .src = msg.data() + at});
        });
      }
      std::sort(pieces.begin(), pieces.end(),
                [](const Piece& a, const Piece& b) {
                  return a.file_off < b.file_off;
                });
      if (!pieces.empty() && st.ok()) {
        const Span sp = SpanOf(pieces);
        assert(sp.len <= cb);
        double& buf = buf_free[filled++ % 2];
        pnc::Status wst;
        if (sp.covered < sp.len) {
          // Read-modify-write: the pre-read queues behind the channel's
          // writes (so the buffer is free when it lands), and the rank
          // waits for its bytes.
          PNC_OBSERVE(kAggWindow, .len = sp.len);
          wst = chan.Issue(clk.now(), [&](simmpi::VirtualClock& c) {
            return im.io.Transfer(/*is_write=*/false, sp.start,
                                  window.data(), sp.len, &c);
          });
          chan.Drain(clk);
        } else {
          chan.WaitUntil(clk, buf);
        }
        if (wst.ok()) {
          for (const auto& pc : pieces)
            std::memcpy(window.data() + (pc.file_off - sp.start), pc.src,
                        pc.len);
          clk.Advance(cost.CopyCost(sp.covered));
          PNC_OBSERVE(kAggWindow, .len = sp.len);
          wst = chan.Issue(clk.now(), [&](simmpi::VirtualClock& c) {
            return im.io.Transfer(/*is_write=*/true, sp.start,
                                  window.data(), sp.len, &c);
          });
          buf = chan.idle_ns();
        }
        st = wst;
      }
      if (w + 1 == rounds) chan.Drain(clk);
      PNC_OBSERVE(kIoEnd, .t_ns = io_start, .end_ns = clk.now(), .off = w);
    }
  } else {
    // ---- reads: one request exchange carries every window's extents ----
    const double exchange_start = clk.now();
    PNC_OBSERVE(kXchgBegin, .t_ns = exchange_start, .off = 0);
    // The request's pairs: ranges that meet a domain in any window.
    pairs([](const Rounds& r) { return !r.empty(); });
    std::vector<std::vector<std::byte>> sendbufs(static_cast<std::size_t>(wp));
    for (std::size_t d = 0; d < naggs; ++d) {
      // Domain d's shares are contiguous, and so are their extents.
      std::size_t n_ext = 0;
      for (std::size_t i = next[d];
           i < shares.size() && shares[i].domain == d; ++i)
        n_ext += shares[i].n_ext;
      if (n_ext == 0) continue;
      PackRequest(sendbufs[static_cast<std::size_t>(agg_rank(d))], my_req,
                  std::span(ext).subspan(shares[next[d]].first_ext, n_ext),
                  {});
    }
    for (const int r : aggs) {
      if (r != work.rank() && !sendbufs[static_cast<std::size_t>(r)].empty()) {
        PNC_OBSERVE(kXchgSend, .t_ns = exchange_start, .off = 0, .peer = r);
      }
    }
    std::vector<std::vector<std::byte>> recvbufs;
    const pnc::Status xst = work.TryExchange(std::move(sendbufs), aggs,
                                             requesters, 0, recvbufs);
    if (st.ok()) st = xst;
    PNC_OBSERVE(kXchgEnd, .t_ns = exchange_start, .end_ns = clk.now(),
                .off = 0);

    // The aggregator's pieces, ordered by (window, file offset); each
    // requester's reply for a window concatenates its extents there in
    // request order.
    std::vector<Piece> pieces;
    for (const int r : requesters) {
      const auto& msg = recvbufs[static_cast<std::size_t>(r)];
      if (msg.empty()) continue;
      std::uint64_t reply_off = 0;
      ForEachExtent(msg, [&](std::uint64_t req, std::uint64_t e,
                             const pnc::Extent& x, std::uint64_t) {
        const std::uint64_t w = geo.WindowOf(my_domain, x.offset);
        if (e == 0 || w != pieces.back().window) {
          reply_off = 0;
          PNC_OBSERVE(kAggPiece, .t_ns = clk.now(), .off = w, .peer = r,
                      .req = req);
        }
        pieces.push_back({.file_off = x.offset, .len = x.len, .src_rank = r,
                          .reply_off = reply_off, .window = w});
        reply_off += x.len;
      });
    }
    std::sort(pieces.begin(), pieces.end(),
              [](const Piece& a, const Piece& b) {
                return a.window != b.window ? a.window < b.window
                                            : a.file_off < b.file_off;
              });

    // The window in flight on the channel: its pieces [first, last), its
    // span and its read's status.
    struct Pending {
      std::size_t first = 0, last = 0;
      Span span;
      pnc::Status st;
    } pending;
    const auto issue_read = [&](std::uint64_t w, double issue_ns) {
      pending.first = pending.last;
      while (pending.last < pieces.size() && pieces[pending.last].window == w)
        ++pending.last;
      const auto win = std::span(pieces).subspan(
          pending.first, pending.last - pending.first);
      pending.span = SpanOf(win);
      pending.st = pnc::Status::Ok();
      if (win.empty() || !st.ok()) return;
      assert(pending.span.len <= cb);
      PNC_OBSERVE(kAggWindow, .len = pending.span.len);
      pending.st = chan.Issue(issue_ns, [&](simmpi::VirtualClock& c) {
        return im.io.Transfer(/*is_write=*/false, pending.span.start,
                              window.data(), pending.span.len, &c);
      });
    };

    for (std::uint64_t w = 0; w < rounds; ++w) {
      const double io_start = clk.now();
      PNC_OBSERVE(kIoBegin, .t_ns = io_start, .off = w);
      pairs(in_round(w));
      if (w == 0) issue_read(0, clk.now());
      // Replies are always sized to what each requester expects, even on
      // failure (zero-filled), so the reply exchange stays aligned and the
      // error is reported via status agreement, not a hang.
      std::vector<std::vector<std::byte>> replies(
          static_cast<std::size_t>(wp));
      const auto win = std::span(pieces).subspan(
          pending.first, pending.last - pending.first);
      for (const auto& pc : win)
        replies[static_cast<std::size_t>(pc.src_rank)].resize(
            pc.reply_off + pc.len);
      bool copied = false;
      if (!win.empty()) {
        chan.Drain(clk);
        if (st.ok()) st = pending.st;
        if (st.ok()) {
          for (const auto& pc : win)
            std::memcpy(
                replies[static_cast<std::size_t>(pc.src_rank)].data() +
                    pc.reply_off,
                window.data() + (pc.file_off - pending.span.start), pc.len);
          copied = true;
        }
      }
      // The next window's read goes out now, before this window's replies.
      const std::uint64_t covered = pending.span.covered;
      if (w + 1 < rounds) issue_read(w + 1, clk.now());
      if (copied) clk.Advance(cost.CopyCost(covered));
      PNC_OBSERVE(kIoEnd, .t_ns = io_start, .end_ns = clk.now(), .off = w);

      // ---- ship the bytes back into each requester's packed buffer ----
      const double reply_start = clk.now();
      PNC_OBSERVE(kXchgBegin, .t_ns = reply_start, .off = w);
      std::vector<std::vector<std::byte>> returned;
      const pnc::Status rxst = work.TryExchange(std::move(replies), requesters,
                                                aggs, w + 1, returned);
      if (st.ok()) st = rxst;
      for (std::size_t d = 0; d < naggs; ++d) {
        const Share* sh = share_at(d, w);
        if (sh == nullptr) continue;
        const auto& blob = returned[static_cast<std::size_t>(agg_rank(d))];
        // The reply concatenates my requested extents in request order,
        // which is packed-data order, so it lands in one slice. When one
        // aggregator serves several of my domains this would be ambiguous —
        // but domains map to distinct aggregator ranks by construction
        // (agg_rank is injective for d < naggs <= p). A shorter-than-expected
        // blob means the aggregator failed; record it and let the final
        // agreement surface the real cause.
        if (blob.size() != sh->bytes && st.ok())
          st = pnc::Status(pnc::Err::kInternal, "collective reply truncated");
        const std::uint64_t n = std::min<std::uint64_t>(blob.size(), sh->bytes);
        if (n > 0) std::memcpy(data + sh->data_off, blob.data(), n);
        clk.Advance(cost.CopyCost(n));
      }
      PNC_OBSERVE(kXchgEnd, .t_ns = reply_start, .end_ns = clk.now(),
                  .off = w);
    }
  }
  if (chan.hidden_ns() > 0)
    PNC_OBSERVE(kIoOverlap, .wait_ns = chan.hidden_ns());

  // Collective error agreement: all ranks return the same status (most
  // severe code across the communicator), so no rank proceeds believing the
  // collective succeeded while an aggregator failed.
  st = comm.AgreeStatus(st, [&](const pnc::Status& agreed) {
    if (agreed.ok() && !is_write && !contig_mem && bytes > 0) {
      memtype.Unpack(staging.data(), count, static_cast<std::byte*>(buf));
      clk.Advance(cost.CopyCost(bytes));
    }
  });
  PNC_OBSERVE(kCollEnd, .t_ns = clk.now(), .is_write = is_write,
              .flag = st.ok());
  return st;
}

}  // namespace mpiio
