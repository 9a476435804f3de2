// The one way a client's bytes reach the simulated parallel file system.
//
// mpiio's file handle, the serial library's BufferedFile, the commit
// journal and ncverify all move bytes through a PfsIo; nothing else in the
// I/O stack calls pfs::File::TryRead/TryWrite/TrySync (the ctest
// lint.pfs_io_in_one_place enforces it). Each request is
//   * retried with util/retry.hpp's bounded backoff under the owner's
//     RetryPolicy: a short transfer resumes from the reported count, a
//     transient error waits a growing backoff charged to the virtual clock,
//     an exhausted budget is a permanent kIo, and every retry is counted in
//     pfs::Stats;
//   * checked against an attached chunk-sum map (format/sums.hpp): a write
//     that lands records its fragments (RecordWrite), one that does not
//     marks its chunks for a read-back (MarkDirtyRange), and with verify
//     set a read goes through VerifiedRead;
//   * charged to the owner's clock, or to the clock a transfer names (a
//     two-phase aggregator's I/O channel).
// Crash points therefore bite the commit journal exactly as they do the
// data path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "format/commit.hpp"
#include "format/session.hpp"
#include "pfs/pfs.hpp"
#include "simmpi/clock.hpp"
#include "util/retry.hpp"

namespace ncformat {

class ChunkSumMap;

/// What an owner observes of its own requests (mpiio counts its transfers
/// and retries), hung on util/retry.hpp's attempt and retry callables. The
/// defaults observe nothing.
class PfsIoHooks {
 public:
  /// One attempt of a read or write moved `bytes`.
  virtual void Landed(bool /*is_write*/, std::uint64_t /*bytes*/) {}
  /// Retry number `attempt` of a transfer or of a sync (`sync`), about to
  /// wait `backoff_ns` from `t_ns`.
  virtual void Retrying(bool /*sync*/, bool /*is_write*/, int /*attempt*/,
                        double /*backoff_ns*/, double /*t_ns*/) {}

 protected:
  ~PfsIoHooks() = default;
};

class PfsIo final : public CommitIo {
 public:
  /// `clock` is the owner's: CommitIo's calls and Sync charge it. `hooks`,
  /// when set, must outlive this object.
  PfsIo(pfs::File file, simmpi::VirtualClock* clock,
        pnc::util::RetryPolicy policy = pnc::util::ResolveRetryPolicy(0),
        PfsIoHooks* hooks = nullptr);

  pnc::Status Read(std::uint64_t offset, pnc::ByteSpan out) override {
    return Transfer(/*is_write=*/false, offset, out.data(), out.size());
  }
  pnc::Status Write(std::uint64_t offset, pnc::ConstByteSpan data) override {
    return Transfer(/*is_write=*/true, offset,
                    const_cast<std::byte*>(data.data()), data.size());
  }
  pnc::Status Sync() override;
  std::uint64_t Size() override { return file_.size(); }

  /// Move [offset, offset + len) between the file and `data`, charged to
  /// `clock` (the owner's when null).
  pnc::Status Transfer(bool is_write, std::uint64_t offset, std::byte* data,
                       std::uint64_t len,
                       simmpi::VirtualClock* clock = nullptr);

  /// Attach a chunk-sum map owned by the caller, which must outlive this
  /// object; null detaches. With `verify`, reads are verified.
  void AttachSums(ChunkSumMap* sums, bool verify);
  [[nodiscard]] ChunkSumMap* sums() const { return sums_; }
  [[nodiscard]] bool verifies() const { return verify_; }
  /// The file, for what is not a transfer (size, truncate, the RMW lock).
  [[nodiscard]] pfs::File& file() { return file_; }

 private:
  /// The transfer with its retries and no integrity hooks (the verified
  /// read issues its cover and heal re-reads through this).
  pnc::Status Raw(bool is_write, std::uint64_t offset, std::byte* data,
                  std::uint64_t len, simmpi::VirtualClock& clock);

  pfs::File file_;
  simmpi::VirtualClock* clock_;
  pnc::util::RetryPolicy policy_;
  PfsIoHooks* hooks_;
  ChunkSumMap* sums_ = nullptr;
  bool verify_ = false;
};

/// The journal and the raw primary of dataset `path` in `fs`, both through
/// PfsIo charged to `clock`.
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
        std::make_unique<PfsIo>(std::move(f).value(), clock_));
  }

  pfs::FileSystem* fs_;
  std::string path_;
  simmpi::VirtualClock* clock_;
};

}  // namespace ncformat
