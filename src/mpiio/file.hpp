// MPI-IO file access (the subset PnetCDF builds on).
//
// Implements the MPI-2 file model over the simulated parallel file system:
//   * collective open/close over a communicator,
//   * per-rank file views (set_view),
//   * independent read_at/write_at with ROMIO-style data sieving for
//     noncontiguous patterns,
//   * collective read_at_all/write_at_all with ROMIO-style two-phase I/O
//     (aggregators own contiguous file domains; data is exchanged with an
//     all-to-all and flushed in large contiguous requests).
//
// Offsets given to the data calls are in etype units relative to the current
// view, exactly as in MPI-2. Memory buffers are described by a simmpi
// Datatype (count, type), as in MPI; noncontiguous memory is packed/unpacked
// through a staging buffer with its copy cost charged to the virtual clock.
#pragma once

#include <memory>
#include <string>

#include "mpiio/hints.hpp"
#include "mpiio/view.hpp"
#include "pfs/pfs.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/info.hpp"
#include "util/status.hpp"

namespace ncformat {
class ChunkSumMap;
}

namespace mpiio {

/// Open mode flags (subset of MPI_MODE_*).
enum Mode : unsigned {
  kRdOnly = 1u << 0,
  kWrOnly = 1u << 1,
  kRdWr = 1u << 2,
  kCreate = 1u << 3,
  kExcl = 1u << 4,
};

class File {
 public:
  /// Collective. All ranks of `comm` must call with identical arguments.
  static pnc::Result<File> Open(simmpi::Comm comm, pfs::FileSystem& fs,
                                const std::string& path, unsigned mode,
                                const simmpi::Info& info);

  File() = default;
  [[nodiscard]] bool valid() const { return impl_ != nullptr; }

  /// Collective: set this rank's file view. The etype and filetype may
  /// differ across ranks (that is the point); the call synchronizes like a
  /// barrier, as required for views changing under collective I/O.
  pnc::Status SetView(std::uint64_t disp, const simmpi::Datatype& etype,
                      const simmpi::Datatype& filetype);
  /// Non-collective view change, for layers that multiplex independent and
  /// collective access over one handle (PnetCDF opens a second, per-process
  /// MPI file handle for its independent data mode; this models that handle
  /// without a second open).
  pnc::Status SetViewLocal(std::uint64_t disp, const simmpi::Datatype& etype,
                           const simmpi::Datatype& filetype);
  void ClearView();

  // --- independent data access (offsets in etype units, view-relative) ---
  pnc::Status ReadAt(std::uint64_t offset, void* buf, std::uint64_t count,
                     const simmpi::Datatype& memtype);
  pnc::Status WriteAt(std::uint64_t offset, const void* buf,
                      std::uint64_t count, const simmpi::Datatype& memtype);

  // --- collective data access ---
  pnc::Status ReadAtAll(std::uint64_t offset, void* buf, std::uint64_t count,
                        const simmpi::Datatype& memtype);
  pnc::Status WriteAtAll(std::uint64_t offset, const void* buf,
                         std::uint64_t count, const simmpi::Datatype& memtype);

  /// Collective; returns when all ranks' data is at the servers.
  pnc::Status Sync();
  /// Independent: flush this rank's handle only (no agreement, no barrier).
  /// For layers where one rank orders its own writes (e.g. a root-performed
  /// header commit) without involving peers.
  pnc::Status SyncLocal();
  /// Collective resize (MPI_File_set_size).
  pnc::Status SetSize(std::uint64_t size);
  /// Independent size query.
  pnc::Result<std::uint64_t> GetSize() const;
  /// Collective close.
  pnc::Status Close();

  [[nodiscard]] const Hints& hints() const;
  [[nodiscard]] simmpi::Comm& comm();

  /// Attach a chunk-sum map (format/sums.hpp) owned by the caller (the
  /// dataset layer), which must outlive the file. Writes then mark their
  /// chunks dirty in the map; with `verify` set, every physical read —
  /// independent, sieving (including RMW pre-reads), and two-phase
  /// aggregator I/O — recomputes covered chunk CRCs, heals transient
  /// mismatches by re-reading, and returns kDataCorrupt for persistent
  /// ones. Pass nullptr to detach. Not collective.
  void AttachSums(ncformat::ChunkSumMap* sums, bool verify);

 private:
  struct Impl;

  pnc::Status IndependentIo(std::uint64_t offset_etypes, void* buf,
                            std::uint64_t count, const simmpi::Datatype& memtype,
                            bool is_write);
  pnc::Status CollectiveIo(std::uint64_t offset_etypes, void* buf,
                           std::uint64_t count, const simmpi::Datatype& memtype,
                           bool is_write);
  /// Move `segments` worth of bytes between the file and `data` (packed
  /// order), using data sieving when profitable. Advances the clock.
  /// Transient storage faults are retried per the retry hints; a non-ok
  /// return means the transfer did not complete (kIo after retries are
  /// exhausted, or a permanent storage error).
  pnc::Status SievedTransfer(const std::vector<pnc::Extent>& segments,
                             std::byte* data, bool is_write);

  std::shared_ptr<Impl> impl_;
};

}  // namespace mpiio
