#include "format/pfs_io.hpp"

#include <algorithm>

#include "format/sums.hpp"

namespace ncformat {

PfsIo::PfsIo(pfs::File file, simmpi::VirtualClock* clock,
             pnc::util::RetryPolicy policy, PfsIoHooks* hooks)
    : file_(std::move(file)), clock_(clock), policy_(policy), hooks_(hooks) {}

void PfsIo::AttachSums(ChunkSumMap* sums, bool verify) {
  sums_ = sums;
  verify_ = verify && sums != nullptr;
}

pnc::Status PfsIo::Transfer(bool is_write, std::uint64_t offset,
                            std::byte* data, std::uint64_t len,
                            simmpi::VirtualClock* clock) {
  simmpi::VirtualClock& clk = clock != nullptr ? *clock : *clock_;
  if (!is_write && verify_ && len != 0)
    return VerifiedRead(
        *sums_, offset, pnc::ByteSpan(data, len), file_.size(),
        [this, &clk](std::uint64_t o, pnc::ByteSpan out) {
          return Raw(/*is_write=*/false, o, out.data(), out.size(), clk);
        },
        std::max(1, policy_.max_attempts), clk.now());
  pnc::Status st = Raw(is_write, offset, data, len, clk);
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

pnc::Status PfsIo::Raw(bool is_write, std::uint64_t offset, std::byte* data,
                       std::uint64_t len, simmpi::VirtualClock& clk) {
  return pnc::util::RetryWithBackoff(
      policy_, clk, len,
      [&](std::uint64_t done) {
        const pfs::IoResult r =
            is_write ? file_.TryWrite(
                           offset + done,
                           pnc::ConstByteSpan(data + done, len - done),
                           clk.now())
                     : file_.TryRead(offset + done,
                                     pnc::ByteSpan(data + done, len - done),
                                     clk.now());
        if (r.ok() && hooks_ != nullptr)
          hooks_->Landed(is_write, r.transferred);
        return r;
      },
      [&](int attempt, double backoff) {
        if (hooks_ != nullptr)
          hooks_->Retrying(/*sync=*/false, is_write, attempt, backoff,
                           clk.now());
        file_.RecordRetry(is_write);
      });
}

pnc::Status PfsIo::Sync() {
  simmpi::VirtualClock& clk = *clock_;
  return pnc::util::RetrySyncWithBackoff(
      policy_, clk, [&] { return file_.TrySync(clk.now()); },
      [&](int attempt, double backoff) {
        if (hooks_ != nullptr)
          hooks_->Retrying(/*sync=*/true, /*is_write=*/true, attempt, backoff,
                           clk.now());
        file_.RecordRetry(/*is_write=*/true);
      });
}

}  // namespace ncformat
