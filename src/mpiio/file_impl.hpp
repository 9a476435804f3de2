// Shared state behind mpiio::File (internal header).
#pragma once

#include <optional>

#include "format/sums.hpp"
#include "mpiio/file.hpp"
#include "util/retry.hpp"

namespace mpiio {

struct File::Impl {
  Impl(simmpi::Comm c, pfs::FileSystem* filesystem, pfs::File f, unsigned m,
       Hints h)
      : comm(std::move(c)), fs(filesystem), file(std::move(f)), mode(m),
        hints(h),
        retry(pnc::util::ResolveRetryPolicy(comm.rank(), h.retry_max,
                                            h.retry_backoff_ns)) {}

  simmpi::Comm comm;
  pfs::FileSystem* fs;
  pfs::File file;
  unsigned mode;
  Hints hints;
  pnc::util::RetryPolicy retry;  ///< hints + env + per-rank jitter
  FileView view;
  bool open = true;

  /// Attached chunk-sum map (format/sums.hpp), owned by the dataset layer.
  /// Null = integrity machinery fully disarmed (PNC_SUMS=0 discipline).
  /// When set, every successful physical write marks its chunks dirty;
  /// reads additionally verify when `sums_verify` is set (read-only
  /// sessions — a writable parallel session cannot verify, because peers'
  /// writes dirty chunks this rank has no way to know about).
  ncformat::ChunkSumMap* sums = nullptr;
  bool sums_verify = false;

  /// Move [off, off+len) between the file and `data` through the
  /// fault-injected pfs path, absorbing short transfers by resuming from the
  /// transferred count and transient errors by bounded retry-with-backoff
  /// (charged to the virtual clock, counted in pfs::Stats). A transient
  /// error that survives the retry budget is reported as kIo. On top of
  /// RawIo this maintains the attached chunk-sum map: dirty marking on
  /// writes; on reads a verified read (ncformat::VerifiedRead) that fetches
  /// whole boundary chunks in the same request (every read path —
  /// independent, sieving windows, RMW pre-reads, and two-phase aggregator
  /// I/O — funnels here).
  /// The transfer, its retries and their backoff advance `clk`: the rank
  /// clock when null, or a two-phase aggregator's I/O channel.
  pnc::Status RetryIo(bool is_write, std::uint64_t off, std::byte* data,
                      std::uint64_t len, simmpi::VirtualClock* clk = nullptr);
  /// The transfer itself, with no integrity hooks (the verified read
  /// issues its cover and heal re-reads through this, avoiding recursion).
  pnc::Status RawIo(bool is_write, std::uint64_t off, std::byte* data,
                    std::uint64_t len, simmpi::VirtualClock& clk);
  /// Same policy for a sync barrier (zero-length faultable op).
  pnc::Status RetrySync();
};

}  // namespace mpiio
