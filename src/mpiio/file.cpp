#include "mpiio/file.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>

#include "iostat/observe.hpp"
#include "mpiio/file_impl.hpp"

namespace mpiio {

pnc::Result<File> File::Open(simmpi::Comm comm, pfs::FileSystem& fs,
                             const std::string& path, unsigned mode,
                             const simmpi::Info& info) {
  Hints hints = Hints::Parse(info, comm.size(), fs.config().num_servers);

  // Rank 0 performs the namespace operation; the result is broadcast so all
  // ranks agree before anyone touches the file (paper §4.2.1: dataset
  // functions manage interprocess communication and file synchronization).
  int err = 0;
  std::shared_ptr<Impl> impl;
  if (comm.rank() == 0) {
    pnc::Result<pfs::File> r =
        (mode & kCreate) ? fs.Create(path, (mode & kExcl) != 0)
                         : fs.Open(path);
    if (r.ok()) {
      impl = std::make_shared<Impl>(comm, &fs, std::move(r).value(), mode,
                                    hints);
      // Charge one request round trip for the open/create itself, retried
      // like any other request; a fault that outlasts the retries fails the
      // open instead of being swallowed.
      err = impl->io.Sync().raw();
    } else {
      err = r.status().raw();
    }
  }
  PNC_RETURN_IF_ERROR(comm.TryBcastValue(err, 0));
  if (err != 0) return pnc::Status(static_cast<pnc::Err>(err), path);
  if (comm.rank() != 0) {
    auto r = fs.Open(path);
    if (!r.ok()) return r.status();
    impl = std::make_shared<Impl>(comm, &fs, std::move(r).value(), mode,
                                  hints);
  }
  // A comm with a dead member cannot produce a coherent collective handle:
  // callers reopen on a LiveSubsetFT comm instead.
  PNC_RETURN_IF_ERROR(comm.TryBarrier());

  File f;
  f.impl_ = std::move(impl);
  return f;
}

pnc::Status File::SetView(std::uint64_t disp, const simmpi::Datatype& etype,
                          const simmpi::Datatype& filetype) {
  if (!impl_ || !impl_->open) return pnc::Status(pnc::Err::kBadId, "set_view");
  impl_->view = FileView(disp, etype, filetype);
  return impl_->comm.TryBarrier();
}

pnc::Status File::SetViewLocal(std::uint64_t disp,
                               const simmpi::Datatype& etype,
                               const simmpi::Datatype& filetype) {
  if (!impl_ || !impl_->open) return pnc::Status(pnc::Err::kBadId, "set_view");
  impl_->view = FileView(disp, etype, filetype);
  return pnc::Status::Ok();
}

void File::ClearView() {
  if (impl_) impl_->view = FileView();
}

pnc::Status File::ReadAt(std::uint64_t offset, void* buf, std::uint64_t count,
                         const simmpi::Datatype& memtype) {
  return IndependentIo(offset, buf, count, memtype, /*is_write=*/false);
}

pnc::Status File::WriteAt(std::uint64_t offset, const void* buf,
                          std::uint64_t count, const simmpi::Datatype& memtype) {
  return IndependentIo(offset, const_cast<void*>(buf), count, memtype,
                       /*is_write=*/true);
}

pnc::Status File::ReadAtAll(std::uint64_t offset, void* buf,
                            std::uint64_t count,
                            const simmpi::Datatype& memtype) {
  return CollectiveIo(offset, buf, count, memtype, /*is_write=*/false);
}

pnc::Status File::WriteAtAll(std::uint64_t offset, const void* buf,
                             std::uint64_t count,
                             const simmpi::Datatype& memtype) {
  return CollectiveIo(offset, const_cast<void*>(buf), count, memtype,
                      /*is_write=*/true);
}

pnc::Status File::Sync() {
  if (!impl_ || !impl_->open) return pnc::Status(pnc::Err::kBadId, "sync");
  // Collective: each rank flushes from its own clock, then every rank
  // agrees on one status (which also settles the clocks at the latest).
  return impl_->comm.AgreeStatus(impl_->io.Sync());
}

pnc::Status File::SyncLocal() {
  if (!impl_ || !impl_->open) return pnc::Status(pnc::Err::kBadId, "sync");
  return impl_->io.Sync();
}

pnc::Status File::SetSize(std::uint64_t size) {
  if (!impl_ || !impl_->open) return pnc::Status(pnc::Err::kBadId, "set_size");
  if (impl_->comm.rank() == 0) impl_->io.file().Truncate(size);
  return impl_->comm.TryBarrier();
}

pnc::Result<std::uint64_t> File::GetSize() const {
  if (!impl_ || !impl_->open) return pnc::Status(pnc::Err::kBadId, "get_size");
  return impl_->io.file().size();
}

pnc::Status File::Close() {
  if (!impl_ || !impl_->open) return pnc::Status(pnc::Err::kBadId, "close");
  // Every rank releases its handle whatever the outcome; the status reports
  // whether the group was whole.
  impl_->open = false;
  return impl_->comm.TryBarrier();
}

const Hints& File::hints() const { return impl_->hints; }
simmpi::Comm& File::comm() { return impl_->comm; }

void File::AttachSums(ncformat::ChunkSumMap* sums, bool verify) {
  if (impl_) impl_->io.AttachSums(sums, verify);
}

// ------------------------------------------------------- independent path

pnc::Status File::IndependentIo(std::uint64_t offset_etypes, void* buf,
                                std::uint64_t count,
                                const simmpi::Datatype& memtype,
                                bool is_write) {
  if (!impl_ || !impl_->open) return pnc::Status(pnc::Err::kBadId, "io");
  auto& im = *impl_;
  const std::uint64_t bytes = count * memtype.size();
  PNC_OBSERVE(kIndep, .t_ns = im.comm.clock().now(), .len = bytes,
              .is_write = is_write);
  if (bytes == 0) return pnc::Status::Ok();
  if (buf == nullptr) return pnc::Status(pnc::Err::kNullBuf, "io");

  const std::uint64_t logical = offset_etypes * im.view.etype_size();
  std::vector<pnc::Extent> segs;
  im.view.MapRange(logical, bytes, segs);

  auto* base = static_cast<std::byte*>(buf);
  if (memtype.is_contiguous()) {
    return SievedTransfer(segs, base, is_write);
  }

  // Noncontiguous memory: stage through a packed buffer (cost charged).
  std::vector<std::byte> staging(bytes);
  auto& clk = im.comm.clock();
  if (is_write) {
    memtype.Pack(base, count, staging.data());
    clk.Advance(im.comm.cost().CopyCost(bytes));
    PNC_RETURN_IF_ERROR(SievedTransfer(segs, staging.data(), true));
  } else {
    PNC_RETURN_IF_ERROR(SievedTransfer(segs, staging.data(), false));
    memtype.Unpack(staging.data(), count, base);
    clk.Advance(im.comm.cost().CopyCost(bytes));
  }
  return pnc::Status::Ok();
}

pnc::Status File::SievedTransfer(const std::vector<pnc::Extent>& segments,
                                 std::byte* data, bool is_write) {
  auto& im = *impl_;
  auto& clk = im.comm.clock();
  auto& cost = im.comm.cost();
  clk.Advance(cost.sw_overhead_ns);
  if (segments.empty()) return pnc::Status::Ok();

  // Fast path: one contiguous request. (Both sieve counters advance by the
  // same amount on the non-sieving paths, so amplification stays 1.0.)
  if (segments.size() == 1) {
    const auto& s = segments[0];
    PNC_OBSERVE(kSieve, .off = s.offset, .len = s.len, .n = s.len,
                .is_write = is_write);
    return im.io.Transfer(is_write, s.offset, data, s.len);
  }

  const bool sieve = is_write ? im.hints.ds_write : im.hints.ds_read;
  if (!sieve) {
    // One file request per segment — the naive noncontiguous path the paper's
    // related work (data sieving) exists to avoid.
    std::uint64_t dpos = 0;
    for (const auto& s : segments) {
      PNC_OBSERVE(kSieve, .off = s.offset, .len = s.len, .n = s.len,
                  .is_write = is_write);
      PNC_RETURN_IF_ERROR(
          im.io.Transfer(is_write, s.offset, data + dpos, s.len));
      dpos += s.len;
    }
    return pnc::Status::Ok();
  }

  // Data sieving: process the covering byte range in buffer-size windows;
  // each window costs one large request (plus one extra read for writes with
  // holes: read-modify-write).
  const std::uint64_t bufsize =
      is_write ? im.hints.ind_wr_buffer_size : im.hints.ind_rd_buffer_size;
  std::vector<std::byte> window(bufsize);

  std::size_t seg_idx = 0;     // first segment not fully consumed
  std::uint64_t seg_done = 0;  // bytes of segments[seg_idx] already handled
  std::uint64_t dpos = 0;      // cursor into packed data

  std::uint64_t wstart = segments.front().offset;
  const std::uint64_t end = segments.back().end();
  while (wstart < end && seg_idx < segments.size()) {
    // Skip any gap before the next segment so windows start on useful bytes.
    wstart = std::max(wstart, segments[seg_idx].offset + seg_done);
    const std::uint64_t wend = std::min(end, wstart + bufsize);

    // Collect the segment pieces that fall inside [wstart, wend).
    struct Piece {
      std::uint64_t file_off, len, data_off;
    };
    std::vector<Piece> pieces;
    std::uint64_t covered = 0;
    std::size_t i = seg_idx;
    std::uint64_t idone = seg_done;
    std::uint64_t idpos = dpos;
    std::uint64_t last = wstart;
    while (i < segments.size()) {
      const std::uint64_t s_off = segments[i].offset + idone;
      if (s_off >= wend) break;
      const std::uint64_t n = std::min(segments[i].len - idone, wend - s_off);
      pieces.push_back({s_off, n, idpos});
      covered += n;
      last = s_off + n;
      idpos += n;
      idone += n;
      if (idone == segments[i].len) {
        ++i;
        idone = 0;
      } else {
        break;  // window boundary split this segment
      }
    }
    const std::uint64_t span_start = wstart;
    const std::uint64_t span_len = last - wstart;
    if (span_len == 0) break;
    const bool holes = covered != span_len;
    // Useful payload vs bytes at the file: writes with holes pre-read the
    // whole span below, doubling the file bytes.
    PNC_OBSERVE(kSieve, .off = span_start, .len = covered,
                .n = is_write && holes ? 2 * span_len : span_len,
                .is_write = is_write, .flag = true);

    if (is_write) {
      // ROMIO takes a file lock around sieved writes: the read-modify-write
      // of the covering range must not interleave with another client's RMW
      // of an overlapping range, or updates are lost.
      std::optional<pfs::RmwLock> rmw_lock;
      if (holes) {
        const double asked = clk.now();
        rmw_lock.emplace(im.io.file(), clk);
        PNC_OBSERVE(kRmwWait, .t_ns = asked, .end_ns = clk.now(),
                    .off = span_start, .len = span_len);
        PNC_RETURN_IF_ERROR(im.io.Transfer(/*is_write=*/false, span_start,
                                           window.data(), span_len));
      }
      for (const auto& p : pieces)
        std::memcpy(window.data() + (p.file_off - span_start), data + p.data_off,
                    p.len);
      clk.Advance(cost.CopyCost(covered));
      PNC_RETURN_IF_ERROR(im.io.Transfer(/*is_write=*/true, span_start,
                                         window.data(), span_len));
    } else {
      PNC_RETURN_IF_ERROR(im.io.Transfer(/*is_write=*/false, span_start,
                                         window.data(), span_len));
      for (const auto& p : pieces)
        std::memcpy(data + p.data_off, window.data() + (p.file_off - span_start),
                    p.len);
      clk.Advance(cost.CopyCost(covered));
    }

    seg_idx = i;
    seg_done = idone;
    dpos = idpos;
    wstart = wend;
  }
  return pnc::Status::Ok();
}

}  // namespace mpiio
