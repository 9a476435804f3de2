#include "netcdf/buffered_file.hpp"

#include <algorithm>
#include <cstring>

namespace netcdf {

BufferedFile::BufferedFile(pfs::File file, simmpi::VirtualClock* clock,
                           std::uint64_t buffer_size, double copy_ns_per_byte)
    : file_(std::move(file)),
      clock_(clock),
      retry_(pnc::util::ResolveRetryPolicy(/*rank=*/0)),
      bufsize_(std::max<std::uint64_t>(buffer_size, 4096)),
      copy_ns_per_byte_(copy_ns_per_byte) {
  block_.resize(bufsize_);
}

void BufferedFile::AttachSums(ncformat::ChunkSumMap* sums, bool verify) {
  sums_ = sums;
  sums_verify_ = verify && sums != nullptr;
  // Bytes cached before the map was attached (the header read that
  // preceded loading the sidecar) were never verified; drop a clean block
  // so every later read re-fetches through the verify path. A dirty block
  // holds this session's own writes and stays.
  if (sums_verify_ && block_valid_ && dirty_lo_ == dirty_hi_)
    block_valid_ = false;
}

pnc::Status BufferedFile::RetryIo(bool is_write, std::uint64_t offset,
                                  std::byte* data, std::uint64_t len) {
  if (!is_write && sums_verify_ && len != 0)
    return ncformat::VerifiedRead(
        *sums_, offset, pnc::ByteSpan(data, len), file_.size(),
        [this](std::uint64_t o, pnc::ByteSpan out) {
          return RawIo(/*is_write=*/false, o, out.data(), out.size());
        },
        std::max(1, retry_.max_attempts), clock_->now());
  pnc::Status st = RawIo(is_write, offset, data, len);
  if (!is_write || sums_ == nullptr || len == 0) return st;
  // Checksum the bytes while they are in memory; a write that did not land
  // in full leaves its chunks to be read back at the flush.
  if (st.ok())
    sums_->RecordWrite(offset, pnc::ConstByteSpan(data, len),
                       file_.discards_data());
  else
    sums_->MarkDirtyRange(offset, len);
  return st;
}

pnc::Status BufferedFile::RawIo(bool is_write, std::uint64_t offset,
                                std::byte* data, std::uint64_t len) {
  return pnc::util::RetryWithBackoff(
      retry_, *clock_, len,
      [&](std::uint64_t done) {
        return is_write
                   ? file_.TryWrite(
                         offset + done,
                         pnc::ConstByteSpan(data + done, len - done),
                         clock_->now())
                   : file_.TryRead(offset + done,
                                   pnc::ByteSpan(data + done, len - done),
                                   clock_->now());
      },
      [&](int, double) { file_.RecordRetry(is_write); });
}

pnc::Status BufferedFile::LoadBlock(std::uint64_t block_start) {
  PNC_RETURN_IF_ERROR(Flush());
  // Bytes past EOF read as zeros, so fetch only the part the file holds: a
  // block that starts at or past EOF (a fresh file, an append) costs no read.
  const std::uint64_t fsize = file_.size();
  const std::uint64_t n =
      block_start < fsize ? std::min(bufsize_, fsize - block_start) : 0;
  if (n > 0)
    PNC_RETURN_IF_ERROR(
        RetryIo(/*is_write=*/false, block_start, block_.data(), n));
  std::fill(block_.begin() + static_cast<std::ptrdiff_t>(n), block_.end(),
            std::byte{0});
  block_start_ = block_start;
  block_valid_ = true;
  dirty_lo_ = dirty_hi_ = 0;
  return pnc::Status::Ok();
}

pnc::Status BufferedFile::Flush() {
  if (!block_valid_ || dirty_lo_ == dirty_hi_) return pnc::Status::Ok();
  // On failure the dirty range is kept, so no buffered data is lost and a
  // later Flush retries the whole write-back (idempotent: same bytes, same
  // offsets).
  PNC_RETURN_IF_ERROR(RetryIo(/*is_write=*/true, block_start_ + dirty_lo_,
                              block_.data() + dirty_lo_,
                              dirty_hi_ - dirty_lo_));
  dirty_lo_ = dirty_hi_ = 0;
  return pnc::Status::Ok();
}

pnc::Status BufferedFile::ReadAt(std::uint64_t offset, pnc::ByteSpan out) {
  // Large requests bypass the buffer but are still issued at buffer-size
  // granularity, like the reference library's user-space I/O layer. When
  // reads verify, each cut moves down to a chunk boundary, so no chunk is
  // fetched and checked by the two pieces it would straddle.
  if (out.size() >= bufsize_) {
    PNC_RETURN_IF_ERROR(Flush());
    block_valid_ = false;
    const std::uint64_t end = offset + out.size();
    std::uint64_t pos = offset;
    for (std::uint64_t k = 1; pos < end; ++k) {
      std::uint64_t cut = std::min(end, offset + k * bufsize_);
      if (cut < end && sums_verify_ && sums_->chunk_size() > 0 &&
          cut > sums_->data_begin()) {
        const std::uint64_t chunk_cut = sums_->ChunkStart(sums_->ChunkOf(cut));
        if (chunk_cut > pos) cut = chunk_cut;
      }
      PNC_RETURN_IF_ERROR(RetryIo(/*is_write=*/false, pos,
                                  out.data() + (pos - offset), cut - pos));
      pos = cut;
    }
    return pnc::Status::Ok();
  }
  std::size_t produced = 0;
  while (produced < out.size()) {
    const std::uint64_t pos = offset + produced;
    const std::uint64_t bstart = pos / bufsize_ * bufsize_;
    if (!block_valid_ || block_start_ != bstart)
      PNC_RETURN_IF_ERROR(LoadBlock(bstart));
    const std::uint64_t in_block = pos - bstart;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(bufsize_ - in_block, out.size() - produced));
    std::memcpy(out.data() + produced, block_.data() + in_block, n);
    clock_->Advance(copy_ns_per_byte_ * static_cast<double>(n));
    produced += n;
  }
  return pnc::Status::Ok();
}

pnc::Status BufferedFile::WriteAt(std::uint64_t offset,
                                  pnc::ConstByteSpan data) {
  if (data.size() >= bufsize_) {
    PNC_RETURN_IF_ERROR(Flush());
    block_valid_ = false;
    std::size_t done_bytes = 0;
    while (done_bytes < data.size()) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(bufsize_, data.size() - done_bytes));
      PNC_RETURN_IF_ERROR(
          RetryIo(/*is_write=*/true, offset + done_bytes,
                  const_cast<std::byte*>(data.data()) + done_bytes, n));
      done_bytes += n;
    }
    return pnc::Status::Ok();
  }
  std::size_t consumed = 0;
  while (consumed < data.size()) {
    const std::uint64_t pos = offset + consumed;
    const std::uint64_t bstart = pos / bufsize_ * bufsize_;
    if (!block_valid_ || block_start_ != bstart)
      PNC_RETURN_IF_ERROR(LoadBlock(bstart));
    const std::uint64_t in_block = pos - bstart;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(bufsize_ - in_block, data.size() - consumed));
    std::memcpy(block_.data() + in_block, data.data() + consumed, n);
    clock_->Advance(copy_ns_per_byte_ * static_cast<double>(n));
    if (dirty_lo_ == dirty_hi_) {
      dirty_lo_ = in_block;
      dirty_hi_ = in_block + n;
    } else {
      dirty_lo_ = std::min(dirty_lo_, in_block);
      dirty_hi_ = std::max(dirty_hi_, in_block + n);
    }
    consumed += n;
  }
  return pnc::Status::Ok();
}

pnc::Status BufferedFile::PatchAt(std::uint64_t offset,
                                  pnc::ConstByteSpan data) {
  const std::uint64_t bstart = offset / bufsize_ * bufsize_;
  if (block_valid_ && block_start_ == bstart &&
      offset + data.size() <= bstart + bufsize_)
    return WriteAt(offset, data);
  return RetryIo(/*is_write=*/true, offset,
                 const_cast<std::byte*>(data.data()), data.size());
}

std::uint64_t BufferedFile::size() { return file_.size(); }

pnc::Status BufferedFile::Truncate(std::uint64_t n) {
  PNC_RETURN_IF_ERROR(Flush());
  block_valid_ = false;
  file_.Truncate(n);
  return pnc::Status::Ok();
}

pnc::Status BufferedFile::Sync() {
  PNC_RETURN_IF_ERROR(Flush());
  return pnc::util::RetrySyncWithBackoff(
      retry_, *clock_, [&] { return file_.TrySync(clock_->now()); },
      [&](int, double) { file_.RecordRetry(/*is_write=*/true); });
}

}  // namespace netcdf
