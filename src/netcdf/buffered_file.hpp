// User-space buffered file I/O for the serial netCDF library.
//
// Paper §3.2: "The I/O implementation of the serial netCDF API is built on
// the native I/O system calls and has its own buffering mechanism in user
// space." This is that mechanism: a single aligned write-back block buffer
// (like the reference library's v1hp I/O layer). Requests at or above the
// buffer size bypass it. All timing is charged to an internal virtual clock,
// which is what the Figure 6 "serial netCDF" baseline reports.
//
// Failure model: every physical transfer and sync goes through one
// ncformat::PfsIo (format/pfs_io.hpp), which retries transient storage
// errors with bounded backoff (charged to the virtual clock) and resumes
// short transfers. A Flush that ultimately fails leaves the block dirty, so
// the data is not lost and a later Flush/Sync retries the write-back.
#pragma once

#include <cstdint>
#include <vector>

#include "format/pfs_io.hpp"
#include "pfs/pfs.hpp"
#include "simmpi/clock.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"

namespace netcdf {

class BufferedFile {
 public:
  BufferedFile(pfs::File file, simmpi::VirtualClock* clock,
               std::uint64_t buffer_size = 1ULL << 20,
               double copy_ns_per_byte = 0.35);

  [[nodiscard]] pnc::Status ReadAt(std::uint64_t offset, pnc::ByteSpan out);
  [[nodiscard]] pnc::Status WriteAt(std::uint64_t offset,
                                    pnc::ConstByteSpan data);
  /// Write a small patch (a header field) without moving the cache: into
  /// the cached block when that block holds the bytes, otherwise straight
  /// through the retrying write path, leaving the cached block in place.
  [[nodiscard]] pnc::Status PatchAt(std::uint64_t offset,
                                    pnc::ConstByteSpan data);
  /// Write back any dirty buffered block. On failure the block stays dirty
  /// (and the error retryable): call Flush/Sync again to retry.
  [[nodiscard]] pnc::Status Flush();
  [[nodiscard]] std::uint64_t size();
  [[nodiscard]] pnc::Status Truncate(std::uint64_t n);
  [[nodiscard]] pnc::Status Sync();

  /// Attach a chunk-sum map (format/sums.hpp) owned by the caller, which
  /// must outlive this file. Physical writes record their fragments;
  /// with `verify` set, physical reads (block loads and large bypass
  /// reads) recompute covered chunk CRCs, healing transient flips by
  /// re-reading and returning kDataCorrupt for persistent damage. The
  /// serial library is single-writer, so verify is safe in writable
  /// sessions too (this rank's own writes are exactly the dirty set).
  void AttachSums(ncformat::ChunkSumMap* sums, bool verify);

 private:
  pnc::Status LoadBlock(std::uint64_t block_start);

  simmpi::VirtualClock* clock_;
  /// Retried under the default policy + PNC_RETRY_* env (rank 0), with the
  /// attached chunk-sum map's hooks.
  ncformat::PfsIo io_;
  std::uint64_t bufsize_;
  double copy_ns_per_byte_;

  std::vector<std::byte> block_;
  std::uint64_t block_start_ = 0;
  bool block_valid_ = false;
  // Dirty byte range within the block; only this much is written back, so
  // buffering never pads the file beyond what was actually written.
  std::uint64_t dirty_lo_ = 0;
  std::uint64_t dirty_hi_ = 0;  ///< exclusive; lo == hi means clean
};

}  // namespace netcdf
