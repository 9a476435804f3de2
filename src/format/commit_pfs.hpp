// CommitIo adapter over a pfs::File, and the storage half of a CommitPath
// for a dataset in a pfs::FileSystem (header-only; consumers link simpfs +
// simmpi themselves).
//
// Routes every journal/primary access through the fault-injected Try* path
// with the same bounded retry-with-backoff discipline as mpiio and the
// serial BufferedFile: short transfers resume from the reported count
// without consuming retry budget, transient errors back off exponentially
// (charged to the virtual clock), and an exhausted budget converts to a
// permanent error. Crash points therefore bite here exactly as they do on
// the data path — which is the whole point of committing through it.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "format/commit.hpp"
#include "format/session.hpp"
#include "pfs/pfs.hpp"
#include "simmpi/clock.hpp"
#include "util/retry.hpp"

namespace ncformat {

class PfsCommitIo final : public CommitIo {
 public:
  PfsCommitIo(pfs::File file, simmpi::VirtualClock* clock, int rank = 0)
      : file_(std::move(file)), clock_(clock),
        retry_(pnc::util::ResolveRetryPolicy(rank)) {}

  pnc::Status Read(std::uint64_t offset, pnc::ByteSpan out) override {
    return RetryIo(/*is_write=*/false, offset, out.data(), out.size());
  }
  pnc::Status Write(std::uint64_t offset, pnc::ConstByteSpan data) override {
    return RetryIo(/*is_write=*/true, offset,
                   const_cast<std::byte*>(data.data()), data.size());
  }
  pnc::Status Sync() override {
    return pnc::util::RetrySyncWithBackoff(
        retry_, *clock_, [&] { return file_.TrySync(clock_->now()); },
        [&](int, double) { file_.RecordRetry(/*is_write=*/true); });
  }
  std::uint64_t Size() override { return file_.size(); }

 private:
  pnc::Status RetryIo(bool is_write, std::uint64_t offset, std::byte* data,
                      std::uint64_t len) {
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

  pfs::File file_;
  simmpi::VirtualClock* clock_;
  pnc::util::RetryPolicy retry_;  ///< defaults + PNC_RETRY_* env + jitter
};

/// The journal and the raw primary of dataset `path` in `fs`, both through
/// PfsCommitIo charged to `clock`.
class PfsCommitPath : public CommitPath {
 public:
  PfsCommitPath(pfs::FileSystem* fs, std::string path,
                simmpi::VirtualClock* clock)
      : fs_(fs), path_(std::move(path)), clock_(clock) {}

  bool JournalExists() override { return fs_->Exists(JournalPath(path_)); }
  pnc::Result<std::unique_ptr<CommitIo>> OpenJournal(bool create) override {
    return Wrap(create ? fs_->Create(JournalPath(path_), /*exclusive=*/false)
                       : fs_->Open(JournalPath(path_)));
  }
  pnc::Result<std::unique_ptr<CommitIo>> OpenRawPrimary() override {
    return Wrap(fs_->Open(path_));
  }

 private:
  pnc::Result<std::unique_ptr<CommitIo>> Wrap(pnc::Result<pfs::File> f) {
    if (!f.ok()) return f.status();
    return std::unique_ptr<CommitIo>(
        std::make_unique<PfsCommitIo>(std::move(f).value(), clock_));
  }

  pfs::FileSystem* fs_;
  std::string path_;
  simmpi::VirtualClock* clock_;
};

}  // namespace ncformat
