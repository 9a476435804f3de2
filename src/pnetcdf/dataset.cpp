#include "pnetcdf/dataset.hpp"

#include <algorithm>
#include <cstring>

#include "format/pfs_io.hpp"
#include "format/session.hpp"
#include "format/sums.hpp"
#include "iostat/observe.hpp"

namespace pnetcdf {

using ncformat::Attr;
using ncformat::CommitPoint;
using ncformat::Header;
using ncformat::NcType;

namespace {

/// The parallel library's commit path, root-performed (§4.2.1 pattern: the
/// root does the metadata I/O and shares the outcome). The root's primary
/// goes through its MPI-IO handle: independent reads and writes, and a
/// local sync. No write-back buffer: a Close that journals no grown count
/// and no sums leaves the data to the file close.
class CollectivePath final : public ncformat::PfsCommitPath {
 public:
  explicit CollectivePath(Dataset::Impl& im);
  bool write_back() const override { return false; }
  bool root() const override;
  pnc::Status Read(std::uint64_t offset, pnc::ByteSpan out) override;
  pnc::Status Write(std::uint64_t offset, pnc::ConstByteSpan data) override;
  pnc::Status Sync() override;
  std::uint64_t Size() override;
  pnc::Status WriteHeader(pnc::ConstByteSpan bytes) override {
    return Write(0, bytes);
  }
  pnc::Status SyncData() override;
  pnc::Status MaxAcross(std::uint64_t& v) override;
  pnc::Status ShareValue(int& v) override;
  pnc::Status Share(std::vector<std::byte>& bytes) override;
  pnc::Status Barrier() override;
  pnc::Status GatherDirty(ncformat::ChunkSumMap& sums) override;

 private:
  Dataset::Impl& im_;
};

}  // namespace

struct Dataset::Impl {
  Impl(simmpi::Comm c, pfs::FileSystem* filesystem, mpiio::File f,
       std::string p, bool w, simmpi::Info i)
      : comm(std::move(c)), fs(filesystem), file(std::move(f)),
        path(std::move(p)), writable(w), info(std::move(i)),
        commit_path(*this), session(commit_path, writable) {}

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

  // Sticky degradation under an armed rank-fault schedule: once any
  // collective on this dataset observed a peer death, further data-mode
  // calls refuse with kRankFailed and Close skips the collective commit
  // (the journal keeps the last committed state legal: session-OPEN, with
  // no table to trust). Survivors shrink the communicator (Comm::AgreeFT +
  // LiveSubsetFT) and reopen.
  bool rank_failed = false;
  bool data_corrupt = false;  ///< sticky: a read surfaced kDataCorrupt

  // Crash consistency and data integrity (format/session.hpp): the journal
  // and the commit in force live on the root; every rank keeps the sum
  // geometry and the chunks its own writes dirtied. Verification is
  // attached only for read-only opens, whose ranks all get the committed
  // table: in a writable parallel session a peer's write invalidates chunks
  // this rank cannot see, so inline verification would flag fresh peer data
  // as corrupt. Writable sessions maintain the map only; scrub and later
  // read-only opens get the protection.
  CollectivePath commit_path;
  ncformat::CommitSession session;

  void AttachSums() {
    if (session.sums_on()) file.AttachSums(&session.sums(), !writable);
  }
  pnc::Status Commit(CommitPoint at) {
    file.ClearView();
    return session.Commit(at, header);
  }
  /// EndDef's, or a data-mode PutAtt's, header commit.
  pnc::Status CommitHeader() {
    PNC_IOSTAT_REQ_SCOPE("write_header", "", comm.clock().now(),
                         std::uint64_t{0}, 1);
    return Commit(CommitPoint::kHeader);
  }
};

namespace {

/// Sticky degradation for statuses coming back from a collective: the
/// simmpi status collectives and the mpiio layer's own failure agreement
/// (two-phase, Sync, SetView...).
pnc::Status Track(Dataset::Impl& im, pnc::Status st) {
  if (st.code() == pnc::Err::kRankFailed) im.rank_failed = true;
  if (st.code() == pnc::Err::kDataCorrupt) im.data_corrupt = true;
  return st;
}

CollectivePath::CollectivePath(Dataset::Impl& im)
    : PfsCommitPath(im.fs, im.path, &im.comm.clock()), im_(im) {}

bool CollectivePath::root() const { return im_.comm.rank() == 0; }

pnc::Status CollectivePath::Read(std::uint64_t offset, pnc::ByteSpan out) {
  return im_.file.ReadAt(offset, out.data(), out.size(), simmpi::ByteType());
}

pnc::Status CollectivePath::Write(std::uint64_t offset,
                                  pnc::ConstByteSpan data) {
  return im_.file.WriteAt(offset, data.data(), data.size(),
                          simmpi::ByteType());
}

pnc::Status CollectivePath::Sync() { return im_.file.SyncLocal(); }

std::uint64_t CollectivePath::Size() {
  const auto size = im_.file.GetSize();
  return size.ok() ? size.value() : 0;
}

pnc::Status CollectivePath::SyncData() { return Track(im_, im_.file.Sync()); }

pnc::Status CollectivePath::MaxAcross(std::uint64_t& v) {
  return Track(im_, im_.comm.TryAllreduceMax(v));
}

pnc::Status CollectivePath::ShareValue(int& v) {
  return Track(im_, im_.comm.TryBcastValue(v, 0));
}

pnc::Status CollectivePath::Share(std::vector<std::byte>& bytes) {
  return Track(im_, im_.comm.TryBcast(bytes, 0));
}

pnc::Status CollectivePath::Barrier() {
  return Track(im_, im_.comm.TryBarrier());
}

pnc::Status CollectivePath::GatherDirty(ncformat::ChunkSumMap& sums) {
  const std::vector<std::byte> local = sums.EncodeDirty();
  std::vector<std::vector<std::byte>> dirty;
  PNC_RETURN_IF_ERROR(Track(
      im_, im_.comm.TryGather(pnc::ConstByteSpan(local.data(), local.size()),
                              0, dirty)));
  if (!root()) return pnc::Status::Ok();
  sums.ClearDirty();  // the root's own chunks come back in dirty[0]
  for (const auto& blob : dirty) sums.MergeDirty(blob);
  return pnc::Status::Ok();
}

/// The root's status code, agreed, then a rendezvous: every rank returns
/// the root's verdict, and the barrier is reached by everyone or no one.
pnc::Status AgreeRootStatus(Dataset::Impl& im, int err, const char* what) {
  PNC_RETURN_IF_ERROR(Track(im, im.comm.TryBcastValue(err, 0)));
  if (err != 0) return pnc::Status(static_cast<pnc::Err>(err), what);
  return Track(im, im.comm.TryBarrier());
}

}  // namespace

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
  // The root creates the journal empty, truncating any stale one left by a
  // previous file at this path so its commits can never be replayed; the
  // result is agreed before anyone proceeds. All ranks attach the sums
  // maintain-only; the geometry comes at EndDef.
  PNC_RETURN_IF_ERROR(im.session.Create());
  im.AttachSums();
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
  // §4.2.1: the root recovers and fetches the file header and broadcasts
  // it; all processes then hold an identical local copy until close.
  PNC_ASSIGN_OR_RETURN(im.header, im.session.Open(path));
  im.header_align =
      static_cast<std::uint64_t>(im.info.GetInt("nc_header_align_size", 0));
  im.AttachSums();
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
  std::vector<std::byte> bytes;
  im.header.Encode(bytes);
  bool same = false;
  PNC_RETURN_IF_ERROR(Track(im, im.comm.TryAllAgree(bytes, same)));
  if (!same)
    return pnc::Status(pnc::Err::kMultiDefine, "EndDef header mismatch");

  // Sum geometry follows the (possibly moved) data region; set it before
  // the relayout below so its writes mark chunks dirty in the new geometry.
  im.session.LayoutSums(im.header, !im.fresh);
  if (im.pre_redef && !im.fresh) {
    PNC_RETURN_IF_ERROR(RelayoutParallel(*im.pre_redef));
  }
  PNC_RETURN_IF_ERROR(im.CommitHeader());
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
  return im.Commit(CommitPoint::kSync);
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
  PNC_RETURN_IF_ERROR(im.Commit(CommitPoint::kClose));
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
      im.session.Release();
      (void)im.fs->Remove(ncformat::JournalPath(im.path));
      err = im.fs->Remove(im.path).raw();
    }
    return AgreeRootStatus(im, err, im.path.c_str());
  }
  // ncmpi_abort closes the dataset: define-mode changes are dropped, and
  // the session ends by the close rule.
  if (im.defining && im.pre_redef) {
    im.header = *im.pre_redef;
    im.pre_redef.reset();
    im.defining = false;
  }
  return Close();
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
  PNC_RETURN_IF_ERROR(CheckDefine(*impl_));
  return impl_->header.DefDim(name, len);
}

pnc::Result<int> Dataset::DefVar(const std::string& name, NcType type,
                                 std::vector<std::int32_t> dimids) {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  PNC_RETURN_IF_ERROR(CheckDefine(*impl_));
  return impl_->header.DefVar(name, type, std::move(dimids));
}

pnc::Status Dataset::RenameDim(int dimid, const std::string& name) {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  PNC_RETURN_IF_ERROR(CheckDefine(*impl_));
  return impl_->header.RenameDim(dimid, name);
}

pnc::Status Dataset::RenameVar(int varid, const std::string& name) {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  PNC_RETURN_IF_ERROR(CheckDefine(*impl_));
  return impl_->header.RenameVar(varid, name);
}

// ------------------------------------------------------------ attributes

pnc::Status Dataset::PutAtt(int varid, Attr att) {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (!im.writable) return pnc::Status(pnc::Err::kPermission);
  PNC_RETURN_IF_ERROR(im.header.PutAtt(varid, std::move(att), im.defining));
  if (im.defining) return pnc::Status::Ok();
  // Data mode: the change is collective and the root rewrites the
  // (same-size) header. Independent writers may hold different record
  // counts, and the header write commits one: converge first.
  if (im.indep) PNC_RETURN_IF_ERROR(ConvergeNumrecs(im.header.numrecs, true));
  return im.CommitHeader();
}

pnc::Status Dataset::PutAttText(int varid, const std::string& name,
                                std::string_view text) {
  return PutAtt(varid, Attr::Text(name, text));
}

pnc::Result<Attr> Dataset::GetAtt(int varid, const std::string& name) const {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  return impl_->header.GetAtt(varid, name);
}

pnc::Status Dataset::DelAtt(int varid, const std::string& name) {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  PNC_RETURN_IF_ERROR(CheckDefine(*impl_));
  return impl_->header.DelAtt(varid, name);
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
  PNC_ASSIGN_OR_RETURN(const auto moves,
                       ncformat::RelayoutMoves(old_header, im.header));
  const auto p = static_cast<std::uint64_t>(im.comm.size());
  const auto r = static_cast<std::uint64_t>(im.comm.rank());
  // Within a move each rank copies a disjoint slice: "moving the existing
  // data to the extended area is performed in parallel" (§4.3).
  im.file.ClearView();
  std::vector<std::byte> buf;
  for (const auto& m : moves) {
    pnc::Status st;
    if (m.to != m.from && m.len != 0) {
      const std::uint64_t per = (m.len + p - 1) / p;
      const std::uint64_t lo = std::min(m.len, per * r);
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
    // Each move ends in a status agreement, a collective, so it also orders
    // cross-move dependences. A rank-local I/O failure therefore surfaces
    // identically on all ranks instead of leaving peers stuck in a
    // collective the failed rank never reaches.
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
