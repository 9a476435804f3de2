// Shared state behind mpiio::File (internal header).
#pragma once

#include "format/pfs_io.hpp"
#include "iostat/observe.hpp"
#include "mpiio/file.hpp"

namespace mpiio {

struct File::Impl final : ncformat::PfsIoHooks {
  Impl(simmpi::Comm c, pfs::FileSystem* filesystem, pfs::File f, unsigned m,
       Hints h)
      : comm(std::move(c)), fs(filesystem), mode(m), hints(h),
        io(std::move(f), &comm.clock(),
           pnc::util::ResolveRetryPolicy(comm.rank(), h.retry_max,
                                         h.retry_backoff_ns),
           this) {}
  Impl(const Impl&) = delete;  // `io` holds this object's address
  Impl& operator=(const Impl&) = delete;

  simmpi::Comm comm;
  pfs::FileSystem* fs;
  unsigned mode;
  Hints hints;
  /// Every transfer and sync of this handle: retried under the hints' policy
  /// (+ env + per-rank jitter), charged to the rank clock or the clock a
  /// transfer names (a two-phase aggregator's I/O channel), and checked
  /// against the chunk-sum map the dataset layer attaches (writes record
  /// their fragments; reads verify in read-only sessions — in a writable
  /// parallel session a peer's writes change chunks this rank cannot see).
  /// Every read path — independent, sieving windows, RMW pre-reads and
  /// two-phase aggregator I/O — funnels here.
  ncformat::PfsIo io;
  FileView view;
  bool open = true;

  // mpiio's own observations of its requests.
  void Landed(bool is_write, std::uint64_t bytes) override {
    PNC_OBSERVE(kXfer, .len = bytes, .is_write = is_write);
  }
  void Retrying(bool sync, bool is_write, int attempt, double backoff_ns,
                double t_ns) override {
    if (sync)
      PNC_OBSERVE(kSyncRetry, .t_ns = t_ns,
                  .n = static_cast<std::uint64_t>(attempt),
                  .wait_ns = backoff_ns);
    else
      PNC_OBSERVE(kIoRetry, .t_ns = t_ns,
                  .n = static_cast<std::uint64_t>(attempt),
                  .wait_ns = backoff_ns, .is_write = is_write);
  }
};

}  // namespace mpiio
