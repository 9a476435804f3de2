#include "pnetcdf/dataset.hpp"

#include <algorithm>
#include <cstring>

#include "format/commit.hpp"
#include "format/commit_pfs.hpp"
#include "format/sums.hpp"
#include "iostat/observe.hpp"

namespace pnetcdf {

using ncformat::Attr;
using ncformat::Header;
using ncformat::NcType;

struct Dataset::Impl {
  Impl(simmpi::Comm c, pfs::FileSystem* filesystem, mpiio::File f,
       std::string p, bool w, simmpi::Info i)
      : comm(std::move(c)), fs(filesystem), file(std::move(f)),
        path(std::move(p)), writable(w), info(std::move(i)) {}

  simmpi::Comm comm;
  pfs::FileSystem* fs;
  mpiio::File file;
  std::string path;
  bool writable;
  simmpi::Info info;

  Header header;
  bool defining = false;
  bool fresh = false;
  bool indep = false;  ///< independent data mode active
  std::optional<Header> pre_redef;
  std::uint64_t header_align = 0;  ///< nc_header_align_size hint

  // Crash consistency (§4.2.1 pattern: the root performs the metadata I/O).
  // `journaled` is agreed on all ranks so the collective syncs that order
  // data before metadata stay aligned; the journal handle and committed
  // state live on rank 0 only. Absent for a legacy file (one without a
  // journal) opened read-only or with PNC_SUMS=0; such a session keeps the
  // pre-journal in-place update behaviour. A writable open with sums on
  // starts a journal (SetupOpenSums).
  bool journaled = false;
  std::optional<ncformat::PfsCommitIo> journal;
  std::optional<ncformat::CommitState> commit;

  // Sticky degradation under an armed rank-fault schedule: once any
  // collective on this dataset observed a peer death, further data-mode
  // calls refuse with kRankFailed and Close skips the collective commit
  // (the journal keeps the last committed state legal: session-OPEN, with
  // no table to trust). Survivors shrink the communicator (Comm::AgreeFT +
  // LiveSubsetFT) and reopen.
  bool rank_failed = false;

  // Data integrity (format/sums.hpp), committed through the journal, so it
  // needs one. `sums_on` is agreed on all ranks; every rank holds the
  // geometry and the chunks its own writes dirtied. The root also holds the
  // committed entries: it alone resolves the gathered dirty chunks against
  // them and commits the table. Verification is attached only for
  // read-only opens, whose ranks all get the committed table: in a writable
  // parallel session a peer's write invalidates chunks this rank cannot
  // see, so inline verification would flag fresh peer data as corrupt.
  // Writable sessions maintain the map only; scrub and later read-only
  // opens get the protection.
  bool sums_on = false;
  ncformat::ChunkSumMap sums;
  bool data_corrupt = false;  ///< sticky: a read surfaced kDataCorrupt

  // The record count of the last commit (Open, a header write, Sync, Close),
  // the same on every rank. Collective writes converge `header.numrecs` in
  // memory only; a commit that finds it past this count commits it.
  std::uint64_t committed_numrecs = 0;
  // The primary's numrecs field trails `committed_numrecs`: a Sync of a
  // journaled file commits the count to the journal slot alone. Only the
  // closing commit (and a header write) catches the field up. The same on
  // every rank.
  bool primary_lags = false;

  pnc::Status SetupOpenSums(bool root_torn,
                            pnc::ConstByteSpan journal_prefix);
  pnc::Status CommitCollective(bool closing);
  pnc::Status RootCommit(const std::vector<std::vector<std::byte>>& dirty,
                         bool resolve, bool patch, bool closing);
  /// Root only: commit the current header (as `header_bytes`), record
  /// count and, with sums on and `!open`, the root's table through the
  /// journal.
  pnc::Status CommitToJournal(pnc::ConstByteSpan header_bytes, bool open) {
    return ncformat::Commit(*journal, header_bytes, header.numrecs,
                            sums_on ? &sums : nullptr, open, commit);
  }
};

namespace {

std::vector<std::byte> EncodeHeader(const Header& h) {
  std::vector<std::byte> bytes;
  h.Encode(bytes);
  return bytes;
}

/// The root's primary, through its MPI-IO handle, as the numrecs patch
/// writes it: one independent write and a local sync.
class PrimaryIo final : public ncformat::CommitIo {
 public:
  explicit PrimaryIo(mpiio::File& file) : file_(file) {}
  pnc::Status Read(std::uint64_t offset, pnc::ByteSpan out) override {
    return file_.ReadAt(offset, out.data(), out.size(), simmpi::ByteType());
  }
  pnc::Status Write(std::uint64_t offset, pnc::ConstByteSpan data) override {
    return file_.WriteAt(offset, data.data(), data.size(), simmpi::ByteType());
  }
  pnc::Status Sync() override { return file_.SyncLocal(); }
  std::uint64_t Size() override {
    const auto size = file_.GetSize();
    return size.ok() ? size.value() : 0;
  }

 private:
  mpiio::File& file_;
};

/// Sticky degradation for statuses coming back from a collective: the
/// simmpi status collectives and the mpiio layer's own failure agreement
/// (two-phase, Sync, SetView...).
pnc::Status Track(Dataset::Impl& im, pnc::Status st) {
  if (st.code() == pnc::Err::kRankFailed) im.rank_failed = true;
  if (st.code() == pnc::Err::kDataCorrupt) im.data_corrupt = true;
  return st;
}

/// The root's status code, agreed, then a rendezvous: every rank returns
/// the root's verdict, and the barrier is reached by everyone or no one.
pnc::Status AgreeRootStatus(Dataset::Impl& im, int err, const char* what) {
  PNC_RETURN_IF_ERROR(Track(im, im.comm.TryBcastValue(err, 0)));
  if (err != 0) return pnc::Status(static_cast<pnc::Err>(err), what);
  return Track(im, im.comm.TryBarrier());
}

}  // namespace

/// Arm the integrity subsystem at Open. The root reads the committed table
/// from the journal and decides trust; a writable session then commits the
/// OPEN flag before any data write can land. The root broadcasts what the
/// other ranks need: for a writable session only the geometry, for a
/// read-only one, which verifies, the whole committed table. An empty
/// broadcast means the subsystem stays off (read-only with nothing
/// trustworthy, or a torn header body whose in-memory repair does not match
/// the on-disk bytes). The table rides the journal, so a writable open of a
/// file without one (a legacy file) starts one on the root; that OPEN
/// commit is its first. `journal_prefix` holds the journal bytes the
/// recovery check read; a table inside it is not read again.
pnc::Status Dataset::Impl::SetupOpenSums(bool root_torn,
                                         pnc::ConstByteSpan journal_prefix) {
  if (!ncformat::SumsEnabled() || (!journaled && !writable))
    return pnc::Status::Ok();
  int err = 0;
  std::vector<std::byte> table;
  if (comm.rank() == 0 && !journal) {
    auto jf = fs->Create(ncformat::JournalPath(path), /*exclusive=*/false);
    if (jf.ok()) {
      journal.emplace(std::move(jf).value(), &comm.clock());
    } else {
      err = jf.status().raw();
    }
  }
  if (comm.rank() == 0 && err == 0 && !root_torn) {
    std::optional<ncformat::ChunkSumMap> loaded;
    if (commit) {
      auto l = ncformat::ReadCommittedSums(*journal, *commit, journal_prefix);
      if (l.ok()) {
        loaded = std::move(l).value();
      } else {
        err = l.status().raw();
      }
    }
    const std::uint64_t db = ncformat::SumsDataBegin(header);
    // A table whose recorded geometry disagrees with the live header is
    // discarded rather than risking false corruption verdicts.
    const bool trusted = loaded && loaded->data_begin() == db;
    if (err == 0 && (writable || trusted)) {
      if (trusted) {
        sums = *std::move(loaded);
      } else {
        sums.Clear();
        sums.SetGeometry(ncformat::SumChunkSize(), db);
      }
      sums_on = true;
      if (writable) {
        err = CommitToJournal(EncodeHeader(header), /*open=*/true).raw();
        ncformat::ChunkSumMap geometry;
        geometry.SetGeometry(sums.chunk_size(), sums.data_begin());
        table = geometry.EncodeTable();
      } else {
        table = sums.EncodeTable();
      }
    }
  }
  PNC_RETURN_IF_ERROR(Track(*this, comm.TryBcastValue(err, 0)));
  if (err != 0)
    return pnc::Status(static_cast<pnc::Err>(err), "chunk-sum table open");
  journaled = true;
  PNC_RETURN_IF_ERROR(Track(*this, comm.TryBcast(table, 0)));
  if (table.empty()) return pnc::Status::Ok();
  if (comm.rank() != 0) {
    auto m = ncformat::ChunkSumMap::DecodeTable(table);
    if (!m.ok()) return m.status();
    sums = std::move(m).value();
  }
  sums_on = true;
  file.AttachSums(&sums, /*verify=*/!writable);
  return pnc::Status::Ok();
}

/// The collective commit of a Sync or Close. Record counts converge first.
/// It makes every rank's data durable with one collective sync, gathers
/// each rank's dirty chunks to the root, and the root resolves them and
/// makes one journal commit: session-OPEN at Sync, closed and carrying the
/// table at Close. The journal slot is where a Sync commits the record
/// count; Close then patches the primary's numrecs field when it trails (a
/// file without a journal is patched at every commit that grew it). One
/// status agreement ends it.
pnc::Status Dataset::Impl::CommitCollective(bool closing) {
  std::uint64_t global = header.numrecs;
  PNC_RETURN_IF_ERROR(Track(*this, comm.TryAllreduceMax(global)));
  header.numrecs = global;
  // The counts, `primary_lags` and `journaled` are the same on every rank,
  // so no decision here needs an agreement.
  const bool grew = global != committed_numrecs;
  const bool resolve = sums_on && writable;
  const bool commit_now = writable && (grew || resolve);
  const bool patch =
      writable && (grew || primary_lags) && (closing || !journaled);
  // The record count grows, and sums are committed, only after the data
  // they describe is durable on every rank (all-old-or-all-new for a crash
  // between data and count). A Sync makes the data durable regardless.
  if (!closing || (commit_now && journaled))
    PNC_RETURN_IF_ERROR(Track(*this, file.Sync()));
  if (!commit_now && !patch) return pnc::Status::Ok();
  file.ClearView();
  std::vector<std::vector<std::byte>> dirty;
  if (resolve) {
    const std::vector<std::byte> local = sums.EncodeDirty();
    PNC_RETURN_IF_ERROR(Track(
        *this, comm.TryGather(pnc::ConstByteSpan(local.data(), local.size()),
                              0, dirty)));
  }
  int err = 0;
  if (comm.rank() == 0) err = RootCommit(dirty, resolve, patch, closing).raw();
  PNC_RETURN_IF_ERROR(AgreeRootStatus(*this, err, "commit failed"));
  if (resolve) sums.ClearDirty();
  committed_numrecs = global;
  primary_lags = !patch && (primary_lags || grew);
  return pnc::Status::Ok();
}

/// The root's half of a collective commit: resolve the gathered dirty
/// chunks (combining fragments that tile a chunk, reading back only the
/// chunks they do not), commit through the journal, then, with `patch`,
/// write and sync the primary's numrecs field.
pnc::Status Dataset::Impl::RootCommit(
    const std::vector<std::vector<std::byte>>& dirty, bool resolve,
    bool patch, bool closing) {
  if (resolve) {
    sums.ClearDirty();  // the root's own chunks come back in dirty[0]
    for (const auto& blob : dirty) sums.MergeDirty(blob);
    const std::uint64_t fsize =
        file.GetSize().ok() ? file.GetSize().value() : 0;
    PNC_RETURN_IF_ERROR(sums.ResolveDirty(
        fsize, [this](std::uint64_t o, pnc::ByteSpan out) {
          return file.ReadAt(o, out.data(), out.size(), simmpi::ByteType());
        }));
  }
  if (journal)
    PNC_RETURN_IF_ERROR(CommitToJournal(EncodeHeader(header), !closing));
  if (!patch) return pnc::Status::Ok();
  PrimaryIo primary(file);
  return ncformat::WritePrimaryNumrecs(primary, header.numrecs);
}

// ------------------------------------------------------------- lifecycle

pnc::Result<Dataset> Dataset::Create(simmpi::Comm comm, pfs::FileSystem& fs,
                                     const std::string& path,
                                     const simmpi::Info& info,
                                     const CreateOptions& opts) {
  unsigned mode = mpiio::kCreate | mpiio::kRdWr;
  if (!opts.clobber) mode |= mpiio::kExcl;
  auto f = mpiio::File::Open(comm, fs, path, mode, info);
  if (!f.ok()) return f.status();

  Dataset ds;
  ds.impl_ = std::make_shared<Impl>(std::move(comm), &fs, std::move(f).value(),
                                    path, /*writable=*/true, info);
  auto& im = *ds.impl_;
  im.header.version = opts.use_cdf2 ? 2 : 1;
  im.defining = true;
  im.fresh = true;
  // PnetCDF-level hint: align the start of the data section, leaving space
  // for the header to grow without relocating data (§4.2.2: PnetCDF hints
  // are interpreted by the library, the rest pass through to MPI-IO).
  im.header_align =
      static_cast<std::uint64_t>(im.info.GetInt("nc_header_align_size", 0));
  // Create the sidecar commit journal empty on the root (truncating any
  // stale one left by a previous file at this path so its commits can never
  // be replayed; the first EndDef's commit writes its magic); the result is
  // agreed before anyone proceeds.
  int jerr = 0;
  if (im.comm.rank() == 0) {
    auto jf = fs.Create(ncformat::JournalPath(path), /*exclusive=*/false);
    if (!jf.ok()) {
      jerr = jf.status().raw();
    } else {
      im.journal.emplace(std::move(jf).value(), &im.comm.clock());
    }
  }
  PNC_RETURN_IF_ERROR(Track(im, im.comm.TryBcastValue(jerr, 0)));
  if (jerr != 0)
    return pnc::Status(static_cast<pnc::Err>(jerr), "commit journal create");
  im.journaled = true;
  // The chunk-sum table rides the journal's commits. All ranks attach
  // maintain-only; the geometry comes at EndDef.
  if (ncformat::SumsEnabled()) {
    im.sums_on = true;
    im.file.AttachSums(&im.sums, /*verify=*/false);
  }
  PNC_RETURN_IF_ERROR(Track(im, im.comm.TryBarrier()));
  return ds;
}

pnc::Result<Dataset> Dataset::Open(simmpi::Comm comm, pfs::FileSystem& fs,
                                   const std::string& path, bool writable,
                                   const simmpi::Info& info) {
  unsigned mode = writable ? mpiio::kRdWr : mpiio::kRdOnly;
  auto f = mpiio::File::Open(comm, fs, path, mode, info);
  if (!f.ok()) return f.status();

  Dataset ds;
  ds.impl_ = std::make_shared<Impl>(std::move(comm), &fs, std::move(f).value(),
                                    path, writable, info);
  auto& im = *ds.impl_;

  // Crash recovery before anything trusts the on-disk header: the root
  // checks the sidecar journal and, when the primary does not match the
  // committed state, rolls it back/forward (in place when writable; in
  // memory only for a read-only open). §4.2.1 pattern: the root performs
  // the metadata work, then the agreed outcome is broadcast.
  int err = 0;
  std::vector<std::byte> bytes;
  // 0: no journal; 1: a journal; 2: a journal, and the primary's numrecs
  // field trails the committed count (a clean file Synced since its last
  // Close), which this session's Close catches up if it is writable.
  int journaled = 0;
  std::vector<std::byte> committed;  ///< the committed header image, if any
  bool root_torn = false;  ///< header body torn, recovered in memory only
  std::vector<std::byte> journal_prefix;
  if (im.comm.rank() == 0 && fs.Exists(ncformat::JournalPath(path))) {
    journaled = 1;
    pnc::Status rst = pnc::Status::Ok();
    auto jf = fs.Open(ncformat::JournalPath(path));
    auto pf = fs.Open(path);
    if (!jf.ok()) {
      rst = jf.status();
    } else if (!pf.ok()) {
      rst = pf.status();
    } else {
      im.journal.emplace(std::move(jf).value(), &im.comm.clock());
      ncformat::PfsCommitIo primary(std::move(pf).value(), &im.comm.clock());
      auto rep = ncformat::AnalyzeCommit(&*im.journal, primary);
      if (!rep.ok()) {
        rst = rep.status();
      } else {
        ncformat::VerifyReport& r = rep.value();
        if (r.has_commit) im.commit = r.committed;
        if (r.numrecs_lag) journaled = 2;
        if (r.state == ncformat::FileState::kCorrupt && r.has_commit) {
          rst = pnc::Status(pnc::Err::kNotNc, "unrecoverable: " + r.detail);
        } else if (r.state == ncformat::FileState::kTornRecoverable) {
          if (writable) {
            rst = ncformat::RepairFromReport(r, primary);
          } else {
            root_torn = !r.numrecs_only;
          }
        }
        committed = std::move(r.committed_header);
        journal_prefix = std::move(r.journal_prefix);
      }
    }
    err = rst.raw();
  }
  PNC_RETURN_IF_ERROR(Track(im, im.comm.TryBcastValue(err, 0)));
  if (err != 0) return pnc::Status(static_cast<pnc::Err>(err), path);
  PNC_RETURN_IF_ERROR(Track(im, im.comm.TryBcastValue(journaled, 0)));
  im.journaled = journaled != 0;
  im.primary_lags = journaled == 2;

  // §4.2.1: the root process fetches the file header and broadcasts it; all
  // processes then hold an identical local copy until close. The recovery
  // check above already read (or reconstructed) the committed header.
  if (im.comm.rank() == 0 && !committed.empty()) {
    auto hdr = Header::Decode(committed);
    if (hdr.ok()) {
      im.header = std::move(hdr).value();
      bytes = EncodeHeader(im.header);
    } else {
      err = hdr.status().raw();
    }
  } else if (im.comm.rank() == 0) {
    const std::uint64_t fsize = im.file.GetSize().ok()
                                    ? im.file.GetSize().value()
                                    : 0;
    std::uint64_t try_size = 8 * 1024;
    for (;;) {
      const std::uint64_t n = std::min(try_size, std::max<std::uint64_t>(fsize, 4));
      bytes.assign(n, std::byte{0});
      pnc::Status rs =
          im.file.ReadAt(0, bytes.data(), n, simmpi::ByteType());
      PNC_OBSERVE(kHeaderRead, .len = n);
      if (!rs.ok()) {
        err = rs.raw();
        break;
      }
      auto hdr = Header::Decode(bytes);
      if (hdr.ok()) {
        im.header = std::move(hdr).value();
        bytes = EncodeHeader(im.header);
        break;
      }
      if (hdr.status().code() != pnc::Err::kTrunc || n >= fsize) {
        err = hdr.status().raw();
        break;
      }
      try_size *= 4;
    }
  }
  PNC_RETURN_IF_ERROR(Track(im, im.comm.TryBcastValue(err, 0)));
  if (err != 0) return pnc::Status(static_cast<pnc::Err>(err), path);
  PNC_RETURN_IF_ERROR(Track(im, im.comm.TryBcast(bytes, 0)));
  if (im.comm.rank() != 0) {
    auto hdr = Header::Decode(bytes);
    if (!hdr.ok()) return hdr.status();
    im.header = std::move(hdr).value();
  }
  im.committed_numrecs = im.header.numrecs;
  im.header_align =
      static_cast<std::uint64_t>(im.info.GetInt("nc_header_align_size", 0));
  PNC_RETURN_IF_ERROR(im.SetupOpenSums(root_torn, journal_prefix));
  return ds;
}

pnc::Status Dataset::Redef() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (im.defining) return pnc::Status(pnc::Err::kInDefine);
  if (!im.writable) return pnc::Status(pnc::Err::kPermission);
  if (im.indep) return pnc::Status(pnc::Err::kInIndep);
  im.pre_redef = im.header;
  im.defining = true;
  PNC_OBSERVE(kModeSwitch);
  return Track(im, im.comm.TryBarrier());
}

pnc::Status Dataset::WriteHeaderCollective() {
  auto& im = *impl_;
  PNC_IOSTAT_REQ_SCOPE("write_header", "", im.comm.clock().now(),
                       std::uint64_t{0}, 1);
  auto bytes = EncodeHeader(im.header);
  im.file.ClearView();
  // Data first, metadata last: every rank's outstanding data lands before
  // the header that makes it reachable commits. The collective sync also
  // upholds the journal invariant that the primary from the previous commit
  // is durable before its shadow is overwritten.
  if (im.journaled) PNC_RETURN_IF_ERROR(Track(im, im.file.Sync()));
  // Rank 0 writes; its status is broadcast so every rank returns the same
  // result (and nobody blocks in a barrier a failed root never reaches).
  int err = 0;
  if (im.comm.rank() == 0) {
    // Journal commit, then the primary in place, then a local sync so the
    // primary is durable before the next commit may reuse the shadow.
    pnc::Status st = im.journal ? im.CommitToJournal(bytes, /*open=*/true)
                                : pnc::Status::Ok();
    if (st.ok())
      st = im.file.WriteAt(0, bytes.data(), bytes.size(), simmpi::ByteType());
    if (st.ok() && im.journal) st = im.file.SyncLocal();
    if (st.ok()) PNC_OBSERVE(kHeaderWrite, .len = bytes.size());
    err = st.raw();
  }
  PNC_RETURN_IF_ERROR(AgreeRootStatus(im, err, "header write failed"));
  im.committed_numrecs = im.header.numrecs;
  im.primary_lags = false;
  return pnc::Status::Ok();
}

pnc::Status Dataset::EndDef() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (!im.defining) return pnc::Status(pnc::Err::kNotInDefine);

  // Keep the data section where it is if the new header still fits in front
  // of it; also honor the header alignment hint.
  std::uint64_t min_begin = im.header_align;
  if (im.pre_redef) {
    const std::uint64_t new_size = im.header.EncodedSize();
    if (new_size <= im.pre_redef->data_begin())
      min_begin = std::max(min_begin, im.pre_redef->data_begin());
  }
  pnc::Status lst = im.header.ComputeLayout(min_begin);
  PNC_RETURN_IF_ERROR(CollectiveCheck(lst, true));

  // §4.2.1: all define mode functions are collective and require identical
  // arguments on every process; verify before committing anything to disk.
  auto bytes = EncodeHeader(im.header);
  bool same = false;
  PNC_RETURN_IF_ERROR(Track(im, im.comm.TryAllAgree(bytes, same)));
  if (!same)
    return pnc::Status(pnc::Err::kMultiDefine, "EndDef header mismatch");

  // Sum geometry follows the (possibly moved) data region; set it before
  // the relayout below so its writes mark chunks dirty in the new geometry.
  // When the region moved, every committed sum is stale: the root marks all
  // existing data dirty so the next flush re-sums it.
  if (im.sums_on) {
    const std::uint64_t db = ncformat::SumsDataBegin(im.header);
    if (im.sums.chunk_size() == 0 || im.sums.data_begin() != db) {
      const std::uint64_t cs = im.sums.chunk_size() != 0
                                   ? im.sums.chunk_size()
                                   : ncformat::SumChunkSize();
      im.sums.Clear();
      im.sums.SetGeometry(cs, db);
      if (!im.fresh && im.comm.rank() == 0) {
        const std::uint64_t fsize =
            im.file.GetSize().ok() ? im.file.GetSize().value() : 0;
        if (fsize > db) im.sums.MarkDirtyRange(db, fsize - db);
      }
    }
  }
  if (im.pre_redef && !im.fresh) {
    PNC_RETURN_IF_ERROR(RelayoutParallel(*im.pre_redef));
  }
  PNC_RETURN_IF_ERROR(WriteHeaderCollective());
  im.defining = false;
  im.fresh = false;
  im.pre_redef.reset();
  PNC_OBSERVE(kModeSwitch);
  return pnc::Status::Ok();
}

pnc::Status Dataset::Sync() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (im.defining) return pnc::Status(pnc::Err::kInDefine);
  if (im.rank_failed)
    return pnc::Status(pnc::Err::kRankFailed, "dataset degraded by a failure");
  return im.CommitCollective(/*closing=*/false);
}

pnc::Status Dataset::Close() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (im.rank_failed) {
    // A participant died: the group can no longer agree on a record count,
    // so skip the collective commit — the journal keeps the last committed
    // header and count (the last Sync's) legal — and release the handle.
    // mpiio's close is itself fault tolerant, so the survivors complete here
    // together.
    (void)im.file.Close();
    if (im.comm.rank() == 0) PNC_IOSTAT_AUTO_REPORT();
    return pnc::Status(pnc::Err::kRankFailed, "closed after a rank failure");
  }
  if (im.defining) PNC_RETURN_IF_ERROR(EndDef());
  // Only a session that reaches this closing commit hands trustworthy sums
  // to the next open.
  PNC_RETURN_IF_ERROR(im.CommitCollective(/*closing=*/true));
  pnc::Status st = Track(im, im.file.Close());
  // The collective close barrier has passed: every rank's counters are
  // final, so the reduction in the report is well defined.
  if (im.comm.rank() == 0) PNC_IOSTAT_AUTO_REPORT();
  // A sticky corrupt read is re-reported here so a caller that ignored the
  // data call's status cannot mistake the dataset for healthy.
  if (st.ok() && im.data_corrupt)
    st = pnc::Status(pnc::Err::kDataCorrupt,
                     "dataset read corrupt data this session");
  return st;
}

pnc::Status Dataset::Abort() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (im.defining && im.fresh) {
    PNC_RETURN_IF_ERROR(im.file.Close());
    int err = 0;
    if (im.comm.rank() == 0) {
      im.journal.reset();
      (void)im.fs->Remove(ncformat::JournalPath(im.path));
      err = im.fs->Remove(im.path).raw();
    }
    return AgreeRootStatus(im, err, im.path.c_str());
  }
  if (im.defining && im.pre_redef) {
    im.header = *im.pre_redef;
    im.pre_redef.reset();
    im.defining = false;
  }
  return pnc::Status::Ok();
}

pnc::Status Dataset::BeginIndepData() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (im.defining) return pnc::Status(pnc::Err::kInDefine);
  if (im.indep) return pnc::Status(pnc::Err::kInIndep);
  PNC_RETURN_IF_ERROR(Track(im, im.comm.TryBarrier()));
  im.indep = true;
  PNC_OBSERVE(kModeSwitch);
  return pnc::Status::Ok();
}

pnc::Status Dataset::EndIndepData() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (!im.indep) return pnc::Status(pnc::Err::kNotIndep);
  im.indep = false;
  PNC_OBSERVE(kModeSwitch);
  // Record counts may have diverged across ranks during independent writes;
  // converge on the maximum (Sync or Close persists it).
  return ConvergeNumrecs(im.header.numrecs, /*collective=*/true);
}

// ----------------------------------------------------------- define mode
// Define mode functions keep the serial syntax and semantics (§4.1); they
// mutate only the local header copy. Cross-process argument consistency is
// verified wholesale at EndDef (AllAgree on the encoded header), which is
// where the library pays its one synchronization for the whole definition
// phase (§4.3).

namespace {
pnc::Status CheckDefine(const Dataset::Impl& im) {
  if (!im.defining) return pnc::Status(pnc::Err::kNotInDefine);
  if (!im.writable) return pnc::Status(pnc::Err::kPermission);
  return pnc::Status::Ok();
}
}  // namespace

pnc::Result<int> Dataset::DefDim(const std::string& name, std::uint64_t len) {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  PNC_RETURN_IF_ERROR(CheckDefine(im));
  auto& h = im.header;
  if (h.FindDim(name) >= 0) return pnc::Status(pnc::Err::kNameInUse, name);
  if (len == kUnlimited && h.unlimited_dimid() >= 0)
    return pnc::Status(pnc::Err::kUnlimit, name);
  if (h.dims.size() >= ncformat::kMaxDims)
    return pnc::Status(pnc::Err::kMaxDims);
  h.dims.push_back({name, len});
  return static_cast<int>(h.dims.size()) - 1;
}

pnc::Result<int> Dataset::DefVar(const std::string& name, NcType type,
                                 std::vector<std::int32_t> dimids) {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  PNC_RETURN_IF_ERROR(CheckDefine(im));
  auto& h = im.header;
  if (h.FindVar(name) >= 0) return pnc::Status(pnc::Err::kNameInUse, name);
  if (h.vars.size() >= ncformat::kMaxVars)
    return pnc::Status(pnc::Err::kMaxVars);
  if (!ncformat::IsValidType(static_cast<std::int32_t>(type)))
    return pnc::Status(pnc::Err::kBadType, name);
  ncformat::Var v;
  v.name = name;
  v.type = type;
  v.dimids = std::move(dimids);
  for (std::size_t i = 0; i < v.dimids.size(); ++i) {
    const auto d = v.dimids[i];
    if (d < 0 || static_cast<std::size_t>(d) >= h.dims.size())
      return pnc::Status(pnc::Err::kBadDim, name);
    if (h.dims[static_cast<std::size_t>(d)].is_unlimited() && i != 0)
      return pnc::Status(pnc::Err::kUnlimPos, name);
  }
  h.vars.push_back(std::move(v));
  return static_cast<int>(h.vars.size()) - 1;
}

pnc::Status Dataset::RenameDim(int dimid, const std::string& name) {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  PNC_RETURN_IF_ERROR(CheckDefine(*impl_));
  auto& h = impl_->header;
  if (dimid < 0 || static_cast<std::size_t>(dimid) >= h.dims.size())
    return pnc::Status(pnc::Err::kBadDim);
  if (h.FindDim(name) >= 0) return pnc::Status(pnc::Err::kNameInUse, name);
  h.dims[static_cast<std::size_t>(dimid)].name = name;
  return pnc::Status::Ok();
}

pnc::Status Dataset::RenameVar(int varid, const std::string& name) {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  PNC_RETURN_IF_ERROR(CheckDefine(*impl_));
  auto& h = impl_->header;
  if (varid < 0 || static_cast<std::size_t>(varid) >= h.vars.size())
    return pnc::Status(pnc::Err::kNotVar);
  if (h.FindVar(name) >= 0) return pnc::Status(pnc::Err::kNameInUse, name);
  h.vars[static_cast<std::size_t>(varid)].name = name;
  return pnc::Status::Ok();
}

// ------------------------------------------------------------ attributes

namespace {
pnc::Result<std::vector<Attr>*> AttrListOf(Header& h, int varid) {
  if (varid == kGlobal) return &h.gatts;
  if (varid < 0 || static_cast<std::size_t>(varid) >= h.vars.size())
    return pnc::Status(pnc::Err::kNotVar);
  return &h.vars[static_cast<std::size_t>(varid)].attrs;
}
}  // namespace

pnc::Status Dataset::PutAtt(int varid, Attr att) {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (!im.writable) return pnc::Status(pnc::Err::kPermission);
  PNC_ASSIGN_OR_RETURN(std::vector<Attr>* attrs, AttrListOf(im.header, varid));
  int existing = -1;
  for (std::size_t i = 0; i < attrs->size(); ++i)
    if ((*attrs)[i].name == att.name) existing = static_cast<int>(i);
  if (!im.defining) {
    // Data mode: in-place replacement only; the change is collective and the
    // root rewrites the (same-size) header.
    if (existing < 0) return pnc::Status(pnc::Err::kNotInDefine, att.name);
    const auto& old = (*attrs)[static_cast<std::size_t>(existing)];
    if (att.type != old.type || att.data.size() > old.data.size())
      return pnc::Status(pnc::Err::kNotInDefine, att.name);
    (*attrs)[static_cast<std::size_t>(existing)] = std::move(att);
    // Independent writers may hold different record counts, and the header
    // write commits one: converge first.
    if (im.indep)
      PNC_RETURN_IF_ERROR(ConvergeNumrecs(im.header.numrecs, true));
    return WriteHeaderCollective();
  }
  if (existing >= 0) {
    (*attrs)[static_cast<std::size_t>(existing)] = std::move(att);
  } else {
    if (attrs->size() >= ncformat::kMaxAttrs)
      return pnc::Status(pnc::Err::kMaxAtts);
    attrs->push_back(std::move(att));
  }
  return pnc::Status::Ok();
}

pnc::Status Dataset::PutAttText(int varid, const std::string& name,
                                std::string_view text) {
  return PutAtt(varid, Attr::Text(name, text));
}

pnc::Result<Attr> Dataset::GetAtt(int varid, const std::string& name) const {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  PNC_ASSIGN_OR_RETURN(std::vector<Attr>* attrs,
                       AttrListOf(impl_->header, varid));
  for (const auto& a : *attrs)
    if (a.name == name) return a;
  return pnc::Status(pnc::Err::kNotAtt, name);
}

pnc::Status Dataset::DelAtt(int varid, const std::string& name) {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  PNC_RETURN_IF_ERROR(CheckDefine(*impl_));
  PNC_ASSIGN_OR_RETURN(std::vector<Attr>* attrs,
                       AttrListOf(impl_->header, varid));
  auto it = std::find_if(attrs->begin(), attrs->end(),
                         [&](const Attr& a) { return a.name == name; });
  if (it == attrs->end()) return pnc::Status(pnc::Err::kNotAtt, name);
  attrs->erase(it);
  return pnc::Status::Ok();
}

// --------------------------------------------------------------- inquiry
// All inquiry works on the local header copy: "All header information can be
// accessed directly in local memory" (§4.3) — no communication here.

const Header& Dataset::header() const { return impl_->header; }
int Dataset::ndims() const { return static_cast<int>(impl_->header.dims.size()); }
int Dataset::nvars() const { return static_cast<int>(impl_->header.vars.size()); }
int Dataset::ngatts() const { return static_cast<int>(impl_->header.gatts.size()); }
int Dataset::unlimdim() const { return impl_->header.unlimited_dimid(); }
std::uint64_t Dataset::numrecs() const { return impl_->header.numrecs; }

pnc::Result<int> Dataset::DimId(const std::string& name) const {
  const int id = impl_->header.FindDim(name);
  if (id < 0) return pnc::Status(pnc::Err::kBadDim, name);
  return id;
}

pnc::Result<int> Dataset::VarId(const std::string& name) const {
  const int id = impl_->header.FindVar(name);
  if (id < 0) return pnc::Status(pnc::Err::kNotVar, name);
  return id;
}

simmpi::Comm& Dataset::comm() { return impl_->comm; }
const mpiio::Hints& Dataset::hints() const { return impl_->file.hints(); }

// ------------------------------------------------------------- data mode

pnc::Status Dataset::CheckDataMode(bool need_write, bool collective) const {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  const auto& im = *impl_;
  if (im.rank_failed)
    return pnc::Status(pnc::Err::kRankFailed, "dataset degraded by a failure");
  if (im.defining) return pnc::Status(pnc::Err::kInDefine);
  if (need_write && !im.writable) return pnc::Status(pnc::Err::kPermission);
  if (collective && im.indep) return pnc::Status(pnc::Err::kInIndep);
  if (!collective && !im.indep) return pnc::Status(pnc::Err::kNotIndep);
  return pnc::Status::Ok();
}

pnc::Status Dataset::CollectiveCheck(pnc::Status st, bool collective) {
  if (!collective) return st;
  auto& im = *impl_;
  std::uint8_t all_ok = st.ok() ? 1 : 0;
  PNC_RETURN_IF_ERROR(Track(im, im.comm.TryAllreduceMin(all_ok)));
  if (all_ok != 0) return pnc::Status::Ok();
  return st.ok() ? pnc::Status(pnc::Err::kMultiDefine,
                               "a peer process failed validation")
                 : st;
}

pnc::Status Dataset::MoveExternal(int varid,
                                  std::span<const std::uint64_t> start,
                                  std::span<const std::uint64_t> count,
                                  std::span<const std::uint64_t> stride,
                                  pnc::ByteSpan ext, bool is_write,
                                  bool collective) {
  auto& im = *impl_;

  // Mint the causal request ID here — the typed/flexible API funnel — so
  // every lower-layer event (two-phase phases, pfs server service, faults,
  // retries, the numrecs sync below) attributes to "api:variable".
  const char* api =
      is_write
          ? (collective ? (stride.empty() ? "put_vara_all" : "put_vars_all")
                        : (stride.empty() ? "put_vara" : "put_vars"))
          : (collective ? (stride.empty() ? "get_vara_all" : "get_vars_all")
                        : (stride.empty() ? "get_vara" : "get_vars"));
  const char* varname =
      varid >= 0 && varid < static_cast<int>(im.header.vars.size())
          ? im.header.vars[static_cast<std::size_t>(varid)].name.c_str()
          : "";
  PNC_IOSTAT_REQ_SCOPE(api, varname, im.comm.clock().now(), ext.size(),
                       is_write);

  // §4.2.2: represent the access pattern as an MPI file view constructed
  // from the variable metadata and the start/count/stride arguments. The
  // regions come out sorted, so the hindexed filetype is monotonic as MPI
  // requires.
  std::vector<pnc::Extent> regions;
  ncformat::AccessRegions(im.header, varid, start, count, stride, regions);
  std::vector<std::uint64_t> lens, offs;
  lens.reserve(regions.size());
  offs.reserve(regions.size());
  for (const auto& r : regions) {
    offs.push_back(r.offset);
    lens.push_back(r.len);
  }
  auto filetype = simmpi::Datatype::Hindexed(lens, offs, simmpi::ByteType());
  // The flattened extents feed the pattern profiler, tagged per variable.
  PNC_OBSERVE(kNcData, .len = ext.size(), .is_write = is_write,
              .flag = collective, .detail = varname, .extents = regions);

  pnc::Status io;
  if (collective) {
    PNC_RETURN_IF_ERROR(Track(im, im.file.SetView(0, simmpi::ByteType(),
                                                  filetype)));
    io = is_write ? im.file.WriteAtAll(0, ext.data(), ext.size(),
                                       simmpi::ByteType())
                  : im.file.ReadAtAll(0, ext.data(), ext.size(),
                                      simmpi::ByteType());
  } else {
    PNC_RETURN_IF_ERROR(im.file.SetViewLocal(0, simmpi::ByteType(), filetype));
    io = is_write
             ? im.file.WriteAt(0, ext.data(), ext.size(), simmpi::ByteType())
             : im.file.ReadAt(0, ext.data(), ext.size(), simmpi::ByteType());
  }
  im.file.ClearView();
  PNC_RETURN_IF_ERROR(Track(im, io));

  // Record growth: converge numrecs in memory across ranks for collective
  // access; independent writers converge later (EndIndepData / Sync /
  // Close). Every rank of a collective takes this path even with a
  // zero-sized count, so the embedded allreduce stays aligned.
  if (is_write && im.header.IsRecordVar(varid)) {
    std::uint64_t last = 0;
    if (!count.empty() && count[0] > 0) {
      const std::uint64_t st0 = stride.empty() ? 1 : stride[0];
      last = start[0] + (count[0] - 1) * st0 + 1;
    }
    return ConvergeNumrecs(std::max(im.header.numrecs, last), collective);
  }
  return pnc::Status::Ok();
}

pnc::Status Dataset::ConvergeNumrecs(std::uint64_t local_numrecs,
                                     bool collective) {
  auto& im = *impl_;
  // In memory only, as PnetCDF outside NC_SHARE: Sync, Close, EndDef and a
  // data-mode PutAtt commit the count.
  if (collective)
    PNC_RETURN_IF_ERROR(Track(im, im.comm.TryAllreduceMax(local_numrecs)));
  im.header.numrecs = std::max(im.header.numrecs, local_numrecs);
  return pnc::Status::Ok();
}

// --------------------------------------------------------------- flexible

pnc::Status Dataset::FlexPut(int varid, std::span<const std::uint64_t> start,
                             std::span<const std::uint64_t> count,
                             std::span<const std::uint64_t> stride,
                             const void* buf, std::uint64_t bufcount,
                             const simmpi::Datatype& buftype, bool collective) {
  PNC_RETURN_IF_ERROR(CheckDataMode(/*need_write=*/true, collective));
  const std::uint64_t nelems = ncformat::AccessElems(count);
  pnc::Status vst = pnc::Status::Ok();
  if (buftype.count_elems() * bufcount != nelems)
    vst = pnc::Status(pnc::Err::kTypeMismatch, "flexible put");
  PNC_RETURN_IF_ERROR(CollectiveCheck(vst, collective));

  // Pack the (possibly noncontiguous) user memory described by the MPI
  // datatype into element order, then hand off to the typed engine.
  const std::uint64_t bytes = bufcount * buftype.size();
  std::vector<std::byte> packed(bytes);
  buftype.Pack(static_cast<const std::byte*>(buf), bufcount, packed.data());
  impl_->comm.clock().Advance(impl_->comm.cost().CopyCost(bytes));

  switch (buftype.prim()) {
    case simmpi::Prim::kByte:
    case simmpi::Prim::kSChar:
      return TypedPut<signed char>(
          varid, start, count, stride, {},
          {reinterpret_cast<const signed char*>(packed.data()), nelems},
          collective);
    case simmpi::Prim::kChar:
      return TypedPut<char>(
          varid, start, count, stride, {},
          {reinterpret_cast<const char*>(packed.data()), nelems}, collective);
    case simmpi::Prim::kShort:
      return TypedPut<short>(
          varid, start, count, stride, {},
          {reinterpret_cast<const short*>(packed.data()), nelems}, collective);
    case simmpi::Prim::kInt:
      return TypedPut<int>(
          varid, start, count, stride, {},
          {reinterpret_cast<const int*>(packed.data()), nelems}, collective);
    case simmpi::Prim::kLongLong:
      return TypedPut<long long>(
          varid, start, count, stride, {},
          {reinterpret_cast<const long long*>(packed.data()), nelems},
          collective);
    case simmpi::Prim::kFloat:
      return TypedPut<float>(
          varid, start, count, stride, {},
          {reinterpret_cast<const float*>(packed.data()), nelems}, collective);
    case simmpi::Prim::kDouble:
      return TypedPut<double>(
          varid, start, count, stride, {},
          {reinterpret_cast<const double*>(packed.data()), nelems}, collective);
  }
  return pnc::Status(pnc::Err::kBadType);
}

pnc::Status Dataset::FlexGet(int varid, std::span<const std::uint64_t> start,
                             std::span<const std::uint64_t> count,
                             std::span<const std::uint64_t> stride, void* buf,
                             std::uint64_t bufcount,
                             const simmpi::Datatype& buftype, bool collective) {
  PNC_RETURN_IF_ERROR(CheckDataMode(/*need_write=*/false, collective));
  const std::uint64_t nelems = ncformat::AccessElems(count);
  pnc::Status vst = pnc::Status::Ok();
  if (buftype.count_elems() * bufcount != nelems)
    vst = pnc::Status(pnc::Err::kTypeMismatch, "flexible get");
  PNC_RETURN_IF_ERROR(CollectiveCheck(vst, collective));

  const std::uint64_t bytes = bufcount * buftype.size();
  std::vector<std::byte> packed(bytes);
  pnc::Status st;
  switch (buftype.prim()) {
    case simmpi::Prim::kByte:
    case simmpi::Prim::kSChar:
      st = TypedGet<signed char>(
          varid, start, count, stride, {},
          {reinterpret_cast<signed char*>(packed.data()), nelems}, collective);
      break;
    case simmpi::Prim::kChar:
      st = TypedGet<char>(varid, start, count, stride, {},
                          {reinterpret_cast<char*>(packed.data()), nelems},
                          collective);
      break;
    case simmpi::Prim::kShort:
      st = TypedGet<short>(varid, start, count, stride, {},
                           {reinterpret_cast<short*>(packed.data()), nelems},
                           collective);
      break;
    case simmpi::Prim::kInt:
      st = TypedGet<int>(varid, start, count, stride, {},
                         {reinterpret_cast<int*>(packed.data()), nelems},
                         collective);
      break;
    case simmpi::Prim::kLongLong:
      st = TypedGet<long long>(
          varid, start, count, stride, {},
          {reinterpret_cast<long long*>(packed.data()), nelems}, collective);
      break;
    case simmpi::Prim::kFloat:
      st = TypedGet<float>(varid, start, count, stride, {},
                           {reinterpret_cast<float*>(packed.data()), nelems},
                           collective);
      break;
    case simmpi::Prim::kDouble:
      st = TypedGet<double>(varid, start, count, stride, {},
                            {reinterpret_cast<double*>(packed.data()), nelems},
                            collective);
      break;
  }
  if (!st.ok() && st.code() != pnc::Err::kRange) return st;
  buftype.Unpack(packed.data(), bufcount, static_cast<std::byte*>(buf));
  impl_->comm.clock().Advance(impl_->comm.cost().CopyCost(bytes));
  return st;
}

// ---------------------------------------------------------- batch access

pnc::Status Dataset::BatchAccess(std::span<BatchItem> items, bool is_write) {
  PNC_RETURN_IF_ERROR(CheckDataMode(is_write, /*collective=*/true));
  auto& im = *impl_;
  auto& clk = im.comm.clock();
  PNC_IOSTAT_REQ_SCOPE(is_write ? "wait_all.put" : "wait_all.get", "*batch",
                       clk.now(), std::uint64_t{0}, is_write);

  // Flatten every item into (file extent, source pointer) pieces, then sort
  // by file offset: the combined access becomes one monotonic file view —
  // "more contiguous and larger transfers" out of many small requests.
  struct Piece {
    pnc::Extent ext;
    std::byte* data;
  };
  std::vector<Piece> pieces;
  std::uint64_t total = 0;
  pnc::Status vst = pnc::Status::Ok();
  std::uint64_t max_recs = im.header.numrecs;
  for (const auto& item : items) {
    pnc::Status st = ncformat::ValidateAccess(
        im.header, item.varid, item.start, item.count, {},
        is_write ? ncformat::AccessKind::kWrite : ncformat::AccessKind::kRead);
    if (!st.ok()) {
      vst = st;
      break;
    }
    std::vector<pnc::Extent> regions;
    ncformat::AccessRegions(im.header, item.varid, item.start, item.count, {},
                            regions);
    std::uint64_t pos = 0;
    for (const auto& r : regions) {
      pieces.push_back({r, item.ext.data() + pos});
      pos += r.len;
      total += r.len;
    }
    if (pos != item.ext.size()) {
      vst = pnc::Status(pnc::Err::kTypeMismatch, "batch item size");
      break;
    }
    if (is_write && im.header.IsRecordVar(item.varid) && !item.count.empty() &&
        item.count[0] > 0) {
      max_recs = std::max(max_recs, item.start[0] + item.count[0]);
    }
  }
  PNC_RETURN_IF_ERROR(CollectiveCheck(vst, true));

  std::stable_sort(pieces.begin(), pieces.end(),
                   [](const Piece& a, const Piece& b) {
                     return a.ext.offset < b.ext.offset;
                   });

  // Combined filetype + staging buffer in file order.
  std::vector<pnc::Extent> regions;
  std::vector<std::uint64_t> lens, offs;
  regions.reserve(pieces.size());
  lens.reserve(pieces.size());
  offs.reserve(pieces.size());
  std::vector<std::byte> staging(total);
  std::uint64_t pos = 0;
  for (const auto& p : pieces) {
    regions.push_back(p.ext);
    offs.push_back(p.ext.offset);
    lens.push_back(p.ext.len);
    if (is_write) std::memcpy(staging.data() + pos, p.data, p.ext.len);
    pos += p.ext.len;
  }
  if (is_write && total > 0) clk.Advance(im.comm.cost().CopyCost(total));
  auto filetype = simmpi::Datatype::Hindexed(lens, offs, simmpi::ByteType());
  // The coalesced nonblocking batch is one access to the pattern profiler:
  // the merged extent list is exactly what wait_all hands the I/O engine.
  PNC_OBSERVE(kNcData, .len = total, .is_write = is_write, .flag = true,
              .detail = "*batch", .extents = regions);

  PNC_RETURN_IF_ERROR(Track(im, im.file.SetView(0, simmpi::ByteType(),
                                                filetype)));
  pnc::Status io =
      is_write ? im.file.WriteAtAll(0, staging.data(), staging.size(),
                                    simmpi::ByteType())
               : im.file.ReadAtAll(0, staging.data(), staging.size(),
                                   simmpi::ByteType());
  im.file.ClearView();
  PNC_RETURN_IF_ERROR(Track(im, io));

  if (!is_write) {
    pos = 0;
    for (const auto& p : pieces) {
      std::memcpy(p.data, staging.data() + pos, p.ext.len);
      pos += p.ext.len;
    }
    if (total > 0) clk.Advance(im.comm.cost().CopyCost(total));
    return pnc::Status::Ok();
  }
  return ConvergeNumrecs(max_recs, /*collective=*/true);
}

// ------------------------------------------------------------- relayout

pnc::Status Dataset::RelayoutParallel(const Header& old_header) {
  auto& im = *impl_;
  const Header& nh = im.header;
  const int p = im.comm.size();
  const int r = im.comm.rank();

  struct Move {
    std::uint64_t from, to, len;
  };
  std::vector<Move> moves;
  const std::uint64_t nrecs = old_header.numrecs;
  for (std::size_t i = 0; i < old_header.vars.size(); ++i) {
    const auto& ov = old_header.vars[i];
    const int nid = nh.FindVar(ov.name);
    if (nid < 0) continue;
    const auto& nv = nh.vars[static_cast<std::size_t>(nid)];
    if (old_header.IsRecordVar(static_cast<int>(i))) {
      for (std::uint64_t rec = 0; rec < nrecs; ++rec)
        moves.push_back({ov.begin + rec * old_header.recsize(),
                         nv.begin + rec * nh.recsize(), ov.vsize});
    } else {
      moves.push_back({ov.begin, nv.begin, ov.vsize});
    }
  }
  // Destinations strictly grow, so moving the highest destination first is
  // clobber-free; within a chunk each rank moves a disjoint slice, and a
  // barrier between chunks orders cross-chunk dependences. This is the
  // "moving the existing data to the extended area is performed in parallel"
  // of §4.3.
  std::sort(moves.begin(), moves.end(),
            [](const Move& a, const Move& b) { return a.to > b.to; });

  im.file.ClearView();
  std::vector<std::byte> buf;
  for (const auto& m : moves) {
    // Each move ends in a status agreement (a collective, so it also orders
    // cross-chunk dependences the way the old barrier did). A rank-local
    // I/O failure therefore surfaces identically on all ranks instead of
    // leaving peers stuck in a barrier the failed rank never reaches.
    pnc::Status st;
    if (m.to != m.from && m.len != 0) {
      if (m.to < m.from) {
        st = pnc::Status(pnc::Err::kInternal, "relayout moved data backwards");
      } else {
        const std::uint64_t per = (m.len + static_cast<std::uint64_t>(p) - 1) /
                                  static_cast<std::uint64_t>(p);
        const std::uint64_t lo =
            std::min(m.len, per * static_cast<std::uint64_t>(r));
        const std::uint64_t hi = std::min(m.len, lo + per);
        if (hi > lo) {
          buf.resize(hi - lo);
          st = im.file.ReadAt(m.from + lo, buf.data(), hi - lo,
                              simmpi::ByteType());
          if (st.ok())
            st = im.file.WriteAt(m.to + lo, buf.data(), hi - lo,
                                 simmpi::ByteType());
        }
      }
    }
    int agreed = st.raw();
    PNC_RETURN_IF_ERROR(Track(im, im.comm.TryAllreduceMin(agreed)));
    if (agreed != 0)
      return st.raw() == agreed
                 ? st
                 : pnc::Status(static_cast<pnc::Err>(agreed),
                               "relayout failed on a peer rank");
  }
  return pnc::Status::Ok();
}

}  // namespace pnetcdf

