// Two-phase collective I/O (ROMIO's generalized collective algorithm).
//
// Phase 1 (exchange): the aggregate file range touched by the collective is
// split into contiguous *file domains*, one per aggregator rank. Every rank
// ships the parts of its request that fall inside each domain to the owning
// aggregator (writes) or receives them from it (reads), window by window.
//
// Phase 2 (I/O): each aggregator services its domain with large contiguous
// requests of up to cb_buffer_size bytes, using read-modify-write when the
// union of pieces leaves holes in a window.
//
// This is the optimization the paper leans on: "All processes in combination
// can make a single MPI-IO request to transfer large contiguous data as a
// whole" (§4.2.2). The per-request latency of the PFS makes the win visible.
#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

#include "iostat/observe.hpp"
#include "mpiio/file_impl.hpp"

namespace mpiio {

namespace {

/// One rank's portion of a collective, split by aggregator domain: for each
/// domain, the half-open range of `segs` indices plus the packed-data offset
/// where that domain's bytes start (segments are file-sorted, so each
/// domain's bytes form one contiguous slice of the packed buffer).
struct DomainSlices {
  struct Slice {
    std::size_t first_seg = 0, last_seg = 0;  // [first, last)
    std::uint64_t first_seg_skip = 0;  ///< bytes of segs[first] before domain
    std::uint64_t data_off = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<Slice> per_domain;
};

std::uint64_t DivCeil(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

/// Offset -> owning domain index, given domain size.
std::size_t DomainOf(std::uint64_t off, std::uint64_t gmin,
                     std::uint64_t domain_size, std::size_t naggs) {
  return std::min<std::size_t>((off - gmin) / domain_size, naggs - 1);
}

DomainSlices SplitByDomain(const std::vector<pnc::Extent>& segs,
                           std::uint64_t gmin, std::uint64_t domain_size,
                           std::size_t naggs) {
  DomainSlices ds;
  ds.per_domain.resize(naggs);
  for (auto& s : ds.per_domain) s.first_seg = segs.size();

  std::uint64_t data_off = 0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    std::uint64_t off = segs[i].offset;
    std::uint64_t remaining = segs[i].len;
    std::uint64_t consumed = 0;
    while (remaining > 0) {
      const std::size_t d = DomainOf(off, gmin, domain_size, naggs);
      const std::uint64_t dom_end =
          (d + 1 == naggs) ? ~0ULL : gmin + (d + 1) * domain_size;
      const std::uint64_t n = std::min(remaining, dom_end - off);
      auto& slice = ds.per_domain[d];
      if (slice.bytes == 0) {
        slice.first_seg = i;
        slice.first_seg_skip = consumed;
        slice.data_off = data_off + consumed;
      }
      slice.last_seg = i + 1;
      slice.bytes += n;
      off += n;
      consumed += n;
      remaining -= n;
    }
    data_off += segs[i].len;
  }
  return ds;
}

struct Piece {
  std::uint64_t file_off = 0;
  std::uint64_t len = 0;
  const std::byte* src = nullptr;  ///< for writes
  int src_rank = 0;                ///< for reads: who wants these bytes
  std::uint64_t reply_off = 0;     ///< for reads: offset in the reply blob
};

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

  // Global extent of the collective. Empty ranks contribute the identity.
  std::int64_t gmin_i =
      segs.empty() ? std::numeric_limits<std::int64_t>::max()
                   : static_cast<std::int64_t>(segs.front().offset);
  std::int64_t gmax_i =
      segs.empty() ? 0 : static_cast<std::int64_t>(segs.back().end());
  const pnc::Status smin = work.TryAllreduceMin(gmin_i);
  const pnc::Status smax = work.TryAllreduceMax(gmax_i);
  if (!smin.ok() || !smax.ok() || gmin_i >= gmax_i) {
    // Nothing to do anywhere, or the group shrank while setting up: skip
    // the transfer and settle together, so every survivor returns the
    // identical status.
    const pnc::Status st = comm.TrySyncClocks();
    PNC_OBSERVE(kCollEnd, .t_ns = clk.now(), .is_write = is_write,
                .flag = st.ok());
    return st;
  }
  const auto gmin = static_cast<std::uint64_t>(gmin_i);
  const auto gmax = static_cast<std::uint64_t>(gmax_i);

  // File domains: an even share per aggregator, with boundaries on absolute
  // stripe boundaries so two aggregators never touch one stripe and every
  // interior window write is stripe-aligned (ROMIO aligns its domains to
  // file system lock/block boundaries for exactly this reason).
  const auto naggs = std::min(static_cast<std::size_t>(im.hints.cb_nodes),
                              static_cast<std::size_t>(wp));
  const std::uint64_t stripe = im.fs->config().stripe_size;
  const std::uint64_t gmin_aligned = gmin / stripe * stripe;
  std::uint64_t domain_size =
      DivCeil(DivCeil(gmax - gmin_aligned, naggs), stripe) * stripe;
  domain_size = std::max(domain_size, stripe);
  // Aggregators are spread across the (surviving) communicator.
  auto agg_rank = [&](std::size_t d) {
    return static_cast<int>(d * static_cast<std::size_t>(wp) / naggs);
  };
  std::size_t my_domain = naggs;  // "not an aggregator"
  for (std::size_t d = 0; d < naggs; ++d)
    if (agg_rank(d) == work.rank()) my_domain = d;

  const DomainSlices ds = SplitByDomain(segs, gmin_aligned, domain_size, naggs);

  // Window loop: every rank iterates the same number of rounds; round w
  // covers [dom_start + w*cb, dom_start + (w+1)*cb) of every domain.
  const std::uint64_t cb = im.hints.cb_buffer_size;
  const std::uint64_t rounds = DivCeil(domain_size, cb);

  // Per-domain cursors into this rank's segments.
  struct Cursor {
    std::size_t seg;
    std::uint64_t seg_skip;  ///< bytes of segs[seg] already consumed
    std::uint64_t data_off;
  };
  std::vector<Cursor> cur(naggs);
  for (std::size_t d = 0; d < naggs; ++d)
    cur[d] = {ds.per_domain[d].first_seg, ds.per_domain[d].first_seg_skip,
              ds.per_domain[d].data_off};

  std::vector<std::byte> window(cb);

  // First error seen by this rank (local I/O as aggregator). Even after an
  // error, every rank keeps participating in every round's exchanges so the
  // collective protocol stays aligned; the statuses are reconciled once at
  // the end with Comm::AgreeStatus.
  pnc::Status st;

  for (std::uint64_t w = 0; w < rounds; ++w) {
    const double exchange_start = clk.now();
    PNC_OBSERVE(kXchgBegin, .t_ns = exchange_start, .off = w);
    // ---- build this round's per-aggregator messages ----
    // Message layout: u64 req (the sender's request ID, for causal
    // attribution of aggregator I/O), u64 n, then n * (u64 off, u64 len),
    // then the bytes (writes only; for reads the extents alone form the
    // request).
    std::vector<std::vector<std::byte>> sendbufs(
        static_cast<std::size_t>(wp));
    // For reads: where in the packed buffer this round's slice of each
    // domain starts (the reply from the aggregator lands there verbatim,
    // because extents are requested in packed-data order).
    std::vector<std::uint64_t> round_data_start(naggs, 0);
    std::vector<std::uint64_t> round_data_len(naggs, 0);
    for (std::size_t d = 0; d < naggs; ++d) {
      const std::uint64_t dom_start = gmin_aligned + d * domain_size;
      const std::uint64_t dom_end = std::min(gmax, dom_start + domain_size);
      const std::uint64_t w0 = dom_start + w * cb;
      if (w0 >= dom_end) continue;
      const std::uint64_t w1 = std::min(dom_end, w0 + cb);

      // Collect extents of mine inside [w0, w1).
      std::vector<pnc::Extent> ext;
      std::uint64_t data_start = cur[d].data_off;
      std::uint64_t data_len = 0;
      auto& c = cur[d];
      while (c.seg < ds.per_domain[d].last_seg) {
        const std::uint64_t s_off = segs[c.seg].offset + c.seg_skip;
        if (s_off >= w1) break;
        const std::uint64_t n =
            std::min(segs[c.seg].len - c.seg_skip, w1 - s_off);
        ext.push_back({s_off, n});
        data_len += n;
        c.seg_skip += n;
        c.data_off += n;
        if (c.seg_skip == segs[c.seg].len) {
          ++c.seg;
          c.seg_skip = 0;
        } else {
          break;  // window boundary split this segment
        }
      }
      if (ext.empty()) continue;
      round_data_start[d] = data_start;
      round_data_len[d] = data_len;

      auto& msg = sendbufs[static_cast<std::size_t>(agg_rank(d))];
      const std::uint64_t n_ext = ext.size();
      const std::size_t header = 16 + 16 * ext.size();
      msg.resize(header + (is_write ? data_len : 0));
      std::memcpy(msg.data(), &my_req, 8);
      std::memcpy(msg.data() + 8, &n_ext, 8);
      std::memcpy(msg.data() + 16, ext.data(), 16 * ext.size());
      if (is_write) {
        std::memcpy(msg.data() + header, data + data_start, data_len);
        clk.Advance(cost.CopyCost(data_len));
      }
    }

    for (int r = 0; r < wp; ++r) {
      if (r != work.rank() && !sendbufs[static_cast<std::size_t>(r)].empty()) {
        PNC_OBSERVE(kXchgSend, .t_ns = exchange_start, .off = w, .peer = r);
      }
    }
    std::vector<std::vector<std::byte>> recvbufs;
    const pnc::Status xst =
        work.TryAlltoall(std::move(sendbufs), 2 * w, recvbufs);
    if (st.ok()) st = xst;
    PNC_OBSERVE(kXchgEnd, .t_ns = exchange_start, .end_ns = clk.now(),
                .off = w);
    const double io_start = clk.now();
    PNC_OBSERVE(kIoBegin, .t_ns = io_start, .off = w);

    // ---- aggregator services its window ----
    std::vector<std::vector<std::byte>> replies(static_cast<std::size_t>(wp));
    if (my_domain < naggs) {
      const std::uint64_t dom_start = gmin_aligned + my_domain * domain_size;
      const std::uint64_t dom_end = std::min(gmax, dom_start + domain_size);
      const std::uint64_t w0 = dom_start + w * cb;
      if (w0 < dom_end) {
        std::vector<Piece> pieces;
        std::vector<std::uint64_t> reply_bytes(static_cast<std::size_t>(wp), 0);
        for (int r = 0; r < wp; ++r) {
          const auto& msg = recvbufs[static_cast<std::size_t>(r)];
          if (msg.empty()) continue;
          std::uint64_t src_req = 0;
          std::memcpy(&src_req, msg.data(), 8);
          std::uint64_t n_ext = 0;
          std::memcpy(&n_ext, msg.data() + 8, 8);
          PNC_OBSERVE(kAggPiece, .t_ns = io_start, .off = w, .peer = r,
                      .req = src_req);
          const std::byte* payload = msg.data() + 16 + 16 * n_ext;
          std::uint64_t dpos = 0;
          for (std::uint64_t e = 0; e < n_ext; ++e) {
            pnc::Extent x;
            std::memcpy(&x, msg.data() + 16 + 16 * e, 16);
            Piece pc;
            pc.file_off = x.offset;
            pc.len = x.len;
            pc.src = is_write ? payload + dpos : nullptr;
            pc.src_rank = r;
            pc.reply_off = reply_bytes[static_cast<std::size_t>(r)];
            pieces.push_back(pc);
            dpos += x.len;
            reply_bytes[static_cast<std::size_t>(r)] += x.len;
          }
        }
        if (!pieces.empty()) {
          std::sort(pieces.begin(), pieces.end(),
                    [](const Piece& a, const Piece& b) {
                      return a.file_off < b.file_off;
                    });
          const std::uint64_t span_start = pieces.front().file_off;
          std::uint64_t span_end = 0;
          std::uint64_t covered = 0;
          for (const auto& pc : pieces) {
            span_end = std::max(span_end, pc.file_off + pc.len);
            covered += pc.len;
          }
          const std::uint64_t span_len = span_end - span_start;
          assert(span_len <= cb);

          if (is_write) {
            const bool holes = covered < span_len;
            pnc::Status wst;
            if (holes && st.ok()) {
              PNC_OBSERVE(kAggWindow, .len = span_len);  // RMW pre-read
              wst = im.RetryIo(/*is_write=*/false, span_start, window.data(),
                               span_len);
            }
            if (wst.ok() && st.ok()) {
              for (const auto& pc : pieces)
                std::memcpy(window.data() + (pc.file_off - span_start), pc.src,
                            pc.len);
              clk.Advance(cost.CopyCost(covered));
              PNC_OBSERVE(kAggWindow, .len = span_len);
              wst = im.RetryIo(/*is_write=*/true, span_start, window.data(),
                               span_len);
            }
            if (st.ok() && !wst.ok()) st = wst;
          } else {
            // Replies are always sized to what each requester expects, even
            // on failure (zero-filled), so the return Alltoall stays aligned
            // and the error is reported via status agreement, not a hang.
            for (int r = 0; r < wp; ++r)
              replies[static_cast<std::size_t>(r)].assign(
                  reply_bytes[static_cast<std::size_t>(r)], std::byte{0});
            pnc::Status rst;
            if (st.ok()) {
              PNC_OBSERVE(kAggWindow, .len = span_len);
              rst = im.RetryIo(/*is_write=*/false, span_start, window.data(),
                               span_len);
            }
            if (rst.ok() && st.ok()) {
              for (const auto& pc : pieces)
                std::memcpy(
                    replies[static_cast<std::size_t>(pc.src_rank)].data() +
                        pc.reply_off,
                    window.data() + (pc.file_off - span_start), pc.len);
              clk.Advance(cost.CopyCost(covered));
            } else if (st.ok()) {
              st = rst;
            }
          }
        }
      }
    }

    PNC_OBSERVE(kIoEnd, .t_ns = io_start, .end_ns = clk.now(), .off = w);

    // ---- reads: ship the bytes back into each requester's packed buffer ----
    if (!is_write) {
      const double reply_start = clk.now();
      PNC_OBSERVE(kXchgBegin, .t_ns = reply_start, .off = w);
      std::vector<std::vector<std::byte>> returned;
      const pnc::Status rxst =
          work.TryAlltoall(std::move(replies), 2 * w + 1, returned);
      if (st.ok()) st = rxst;
      for (std::size_t d = 0; d < naggs; ++d) {
        if (round_data_len[d] == 0) continue;
        const auto& blob = returned[static_cast<std::size_t>(agg_rank(d))];
        // The reply concatenates my requested extents in request order,
        // which is packed-data order, so it lands in one slice. When one
        // aggregator serves several of my domains this would be ambiguous —
        // but domains map to distinct aggregator ranks by construction
        // (agg_rank is injective for d < naggs <= p). A shorter-than-expected
        // blob means the aggregator failed; record it and let the final
        // agreement surface the real cause.
        if (blob.size() != round_data_len[d]) {
          if (st.ok())
            st = pnc::Status(pnc::Err::kInternal, "collective reply truncated");
        }
        const std::uint64_t n =
            std::min<std::uint64_t>(blob.size(), round_data_len[d]);
        std::memcpy(data + round_data_start[d], blob.data(), n);
        clk.Advance(cost.CopyCost(n));
      }
      PNC_OBSERVE(kXchgEnd, .t_ns = reply_start, .end_ns = clk.now(),
                  .off = w);
    }
  }

  // Collective error agreement: all ranks return the same status (most
  // severe code across the communicator), so no rank proceeds believing the
  // collective succeeded while an aggregator failed. The jump this rank's
  // clock takes as the clocks settle is exactly how long it idled waiting
  // for the slowest rank — the straggler-wait timeline track.
  double pre_sync_ns = 0.0;
  st = comm.AgreeStatus(st, [&](const pnc::Status& agreed) {
    if (agreed.ok() && !is_write && !contig_mem && bytes > 0) {
      memtype.Unpack(staging.data(), count, static_cast<std::byte*>(buf));
      clk.Advance(cost.CopyCost(bytes));
    }
    pre_sync_ns = clk.now();
  });
  PNC_OBSERVE(kCollEnd, .t_ns = clk.now(), .wait_ns = clk.now() - pre_sync_ns,
              .is_write = is_write, .flag = st.ok());
  return st;
}

}  // namespace mpiio
