#include "netcdf/dataset.hpp"

#include <algorithm>

#include "format/commit.hpp"
#include "format/commit_pfs.hpp"
#include "format/header_io.hpp"
#include "format/sums.hpp"
#include "iostat/observe.hpp"

namespace netcdf {

using ncformat::Attr;
using ncformat::Header;
using ncformat::NcType;

struct Dataset::Impl {
  Impl(pfs::FileSystem* filesystem, pfs::File f, std::string p, bool w,
       std::uint64_t bufsize)
      : fs(filesystem), path(std::move(p)), writable(w),
        io(std::move(f), &clock, bufsize) {}

  pfs::FileSystem* fs;
  std::string path;
  bool writable;
  simmpi::VirtualClock clock;
  BufferedFile io;

  Header header;
  bool defining = false;
  bool fresh = false;          ///< created this session, EndDef not yet run
  bool numrecs_dirty = false;  ///< numrecs grew since the last commit
  /// The primary's numrecs field trails the committed count: a Sync of a
  /// journaled file commits the count to the journal slot alone, and only
  /// Close (or a header write) catches the field up.
  bool primary_lags = false;
  FillMode fill = FillMode::kNoFill;
  std::optional<Header> pre_redef;  ///< snapshot for Abort/relayout

  // Crash consistency: the sidecar commit journal and the last committed
  // state (see format/commit.hpp). Absent for a legacy file (one without a
  // journal) opened read-only or with PNC_SUMS=0; such a session keeps the
  // pre-journal in-place update behaviour. A writable open with sums on
  // starts a journal (SetupOpenSums).
  std::optional<ncformat::PfsCommitIo> journal;
  std::optional<ncformat::CommitState> commit;

  // Data integrity (format/sums.hpp): the chunk-sum map attached to `io`,
  // whose table the closing journal commit carries, so it needs a journal.
  // Armed only when PNC_SUMS is on (the default); disarmed, commits carry
  // no table and the primary file is bit-identical. The serial library is
  // single-writer, so verify-on-read is safe even in writable sessions:
  // this session's own writes are exactly the dirty set.
  ncformat::ChunkSumMap sums;
  bool sums_on = false;
  bool data_corrupt = false;  ///< sticky: a read surfaced kDataCorrupt

  pnc::Status SetupOpenSums(pnc::ConstByteSpan journal_prefix);
  /// Commit the current header (as `header_bytes`), record count and, with
  /// sums on and `!open`, the chunk-sum table through the journal.
  pnc::Status CommitToJournal(pnc::ConstByteSpan header_bytes, bool open) {
    return ncformat::Commit(*journal, header_bytes, header.numrecs,
                            sums_on ? &sums : nullptr, open, commit);
  }
};

namespace {

/// The primary through the block cache, as the numrecs patch writes it:
/// past the cache (loading block 0 would evict the tail block the next
/// record append writes into), then a flush and sync.
class PrimaryIo final : public ncformat::CommitIo {
 public:
  explicit PrimaryIo(BufferedFile& io) : io_(io) {}
  pnc::Status Read(std::uint64_t offset, pnc::ByteSpan out) override {
    return io_.ReadAt(offset, out);
  }
  pnc::Status Write(std::uint64_t offset, pnc::ConstByteSpan data) override {
    return io_.PatchAt(offset, data);
  }
  pnc::Status Sync() override { return io_.Sync(); }
  std::uint64_t Size() override { return io_.size(); }

 private:
  BufferedFile& io_;
};

}  // namespace

/// Arm the integrity subsystem for an opened (not freshly created) dataset.
/// Writable opens commit the session-OPEN flag *before* any data write can
/// land; read-only opens attach verification only when a trusted, closed
/// table exists whose geometry matches the live header. The table rides the
/// journal, so a writable open of a file without one (a legacy file) starts
/// one; that OPEN commit is its first. `journal_prefix` holds the journal
/// bytes the recovery check read; a table inside it is not read again.
pnc::Status Dataset::Impl::SetupOpenSums(pnc::ConstByteSpan journal_prefix) {
  if (!ncformat::SumsEnabled()) return pnc::Status::Ok();
  if (!journal) {
    if (!writable) return pnc::Status::Ok();
    auto jf = fs->Create(ncformat::JournalPath(path), /*exclusive=*/false);
    if (!jf.ok()) return jf.status();
    journal.emplace(std::move(jf).value(), &clock);
  }
  std::optional<ncformat::ChunkSumMap> loaded;
  if (commit) {
    PNC_ASSIGN_OR_RETURN(loaded, ncformat::ReadCommittedSums(
                                     *journal, *commit, journal_prefix));
  }
  const std::uint64_t db = ncformat::SumsDataBegin(header);
  // A table whose recorded geometry disagrees with the live header (e.g.
  // stale after an out-of-band rewrite of the primary) is discarded rather
  // than risking false corruption verdicts.
  const bool trusted = loaded && loaded->data_begin() == db;
  if (!writable && !trusted) return pnc::Status::Ok();  // nothing to verify
  if (trusted) {
    sums = *std::move(loaded);
  } else {
    sums.Clear();
    sums.SetGeometry(ncformat::SumChunkSize(), db);
  }
  sums_on = true;
  if (writable) {
    std::vector<std::byte> bytes;
    header.Encode(bytes);
    PNC_RETURN_IF_ERROR(CommitToJournal(bytes, /*open=*/true));
  }
  io.AttachSums(&sums, /*verify=*/true);
  return pnc::Status::Ok();
}

// ------------------------------------------------------------ lifecycle

pnc::Result<Dataset> Dataset::Create(pfs::FileSystem& fs,
                                     const std::string& path,
                                     const CreateOptions& opts) {
  auto f = fs.Create(path, /*exclusive=*/!opts.clobber);
  if (!f.ok()) return f.status();
  Dataset ds;
  ds.impl_ = std::make_shared<Impl>(&fs, std::move(f).value(), path,
                                    /*writable=*/true, opts.buffer_size);
  auto& im = *ds.impl_;
  im.header.version = opts.use_cdf2 ? 2 : 1;
  im.defining = true;
  im.fresh = true;
  // Create the sidecar journal empty, truncating any stale one left by a
  // previous file at this path so its commits can never be replayed. The
  // first EndDef's commit writes its magic.
  auto jf = fs.Create(ncformat::JournalPath(path), /*exclusive=*/false);
  if (!jf.ok()) return jf.status();
  im.journal.emplace(std::move(jf).value(), &im.clock);
  // The chunk-sum table rides the journal's commits. No geometry yet —
  // EndDef sets it once the data region exists.
  if (ncformat::SumsEnabled()) {
    im.sums_on = true;
    im.io.AttachSums(&im.sums, /*verify=*/true);
  }
  return ds;
}

pnc::Result<Dataset> Dataset::Open(pfs::FileSystem& fs, const std::string& path,
                                   bool writable, std::uint64_t buffer_size) {
  auto f = fs.Open(path);
  if (!f.ok()) return f.status();
  Dataset ds;
  ds.impl_ = std::make_shared<Impl>(&fs, f.value(), path, writable,
                                    buffer_size);
  auto& im = *ds.impl_;

  // Crash recovery before anything trusts the on-disk header: if a journal
  // exists and holds a committed state the primary does not match, roll the
  // primary back/forward to it (in place when writable; in memory only for a
  // read-only open).
  bool body_torn = false;  ///< header body recovered in memory only
  std::vector<std::byte> committed;  ///< the committed header image, if any
  std::vector<std::byte> journal_prefix;
  if (fs.Exists(ncformat::JournalPath(path))) {
    auto jf = fs.Open(ncformat::JournalPath(path));
    if (!jf.ok()) return jf.status();
    im.journal.emplace(std::move(jf).value(), &im.clock);
    ncformat::PfsCommitIo primary(f.value(), &im.clock);
    auto rep = ncformat::AnalyzeCommit(&*im.journal, primary);
    if (!rep.ok()) return rep.status();
    ncformat::VerifyReport& r = rep.value();
    if (r.has_commit) im.commit = r.committed;
    im.primary_lags = r.numrecs_lag;
    if (r.state == ncformat::FileState::kCorrupt && r.has_commit)
      return pnc::Status(pnc::Err::kNotNc, "unrecoverable: " + r.detail);
    if (r.state == ncformat::FileState::kTornRecoverable) {
      if (writable) {
        PNC_RETURN_IF_ERROR(ncformat::RepairFromReport(r, primary));
      } else {
        body_torn = !r.numrecs_only;
      }
    }
    committed = std::move(r.committed_header);
    journal_prefix = std::move(r.journal_prefix);
  }

  // The recovery check above already read the committed header.
  const auto read_at = [&im](std::uint64_t off, pnc::ByteSpan out) {
    PNC_OBSERVE(kHeaderRead, .len = out.size());
    return im.io.ReadAt(off, out);
  };
  auto hdr = committed.empty() ? ncformat::ReadHeader(im.io.size(), read_at)
                               : Header::Decode(committed);
  if (!hdr.ok()) return hdr.status();
  im.header = std::move(hdr).value();
  // A torn header body, recovered in memory only: the on-disk bytes do not
  // match what this session sees, so attaching sums (written against the
  // repaired view) could only mislead. Run without them. A torn numrecs
  // alone leaves the summed data region exact.
  if (body_torn) return ds;
  PNC_RETURN_IF_ERROR(im.SetupOpenSums(journal_prefix));
  return ds;
}

pnc::Status Dataset::Redef() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (im.defining) return pnc::Status(pnc::Err::kInDefine);
  if (!im.writable) return pnc::Status(pnc::Err::kPermission);
  im.pre_redef = im.header;
  im.defining = true;
  PNC_OBSERVE(kModeSwitch);
  return pnc::Status::Ok();
}

pnc::Status Dataset::EndDef() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (!im.defining) return pnc::Status(pnc::Err::kNotInDefine);

  Header old = im.pre_redef ? *im.pre_redef : Header{};
  const bool had_data = !im.fresh;
  // Keep the existing data_begin when the grown header still fits in front
  // of it: besides saving the copy, an in-place relayout is the one case the
  // commit protocol cannot make atomic (moves are interpreted by whichever
  // header survives the crash), so not moving is also the crash-safe choice.
  std::uint64_t min_begin = 0;
  if (had_data && im.pre_redef &&
      im.header.EncodedSize() <= im.pre_redef->data_begin())
    min_begin = im.pre_redef->data_begin();
  PNC_RETURN_IF_ERROR(im.header.ComputeLayout(min_begin));
  // Sum geometry follows the (possibly moved) data region. Set it before
  // the moves/fills below so their writes mark chunks dirty in the new
  // geometry; when the region moved, every committed sum is stale, so
  // re-sum all existing bytes at the next flush.
  if (im.sums_on) {
    const std::uint64_t db = ncformat::SumsDataBegin(im.header);
    if (im.sums.chunk_size() == 0 || im.sums.data_begin() != db) {
      const std::uint64_t cs = im.sums.chunk_size() != 0
                                   ? im.sums.chunk_size()
                                   : ncformat::SumChunkSize();
      im.sums.Clear();
      im.sums.SetGeometry(cs, db);
      if (had_data && im.io.size() > db)
        im.sums.MarkDirtyRange(db, im.io.size() - db);
    }
  }
  if (had_data && im.pre_redef) {
    PNC_RETURN_IF_ERROR(MoveDataForRelayout(*im.pre_redef));
  }
  // Data first, metadata last: fills and moved bytes land before the header
  // that makes them reachable commits, so a crash anywhere in between still
  // cold-opens as the old dataset.
  if (im.fill == FillMode::kFill) {
    PNC_RETURN_IF_ERROR(FillNewSpace(had_data ? &old : nullptr));
  }
  PNC_RETURN_IF_ERROR(WriteHeader());
  im.defining = false;
  im.fresh = false;
  im.pre_redef.reset();
  PNC_OBSERVE(kModeSwitch);
  return pnc::Status::Ok();
}

pnc::Status Dataset::Sync() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  if (impl_->defining) return pnc::Status(pnc::Err::kInDefine);
  return CommitData(/*closing=*/false);
}

pnc::Status Dataset::Close() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (im.defining) PNC_RETURN_IF_ERROR(EndDef());
  // Only a session that reaches this closing commit hands trustworthy sums
  // to the next open. A sticky corrupt read is re-reported here so a caller
  // that ignored the data call cannot mistake the dataset for healthy.
  PNC_RETURN_IF_ERROR(CommitData(/*closing=*/true));
  if (im.data_corrupt)
    return pnc::Status(pnc::Err::kDataCorrupt,
                       "dataset read corrupt data this session");
  return pnc::Status::Ok();
}

pnc::Status Dataset::Abort() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (im.defining && im.fresh) {
    (void)im.fs->Remove(ncformat::JournalPath(im.path));
    return im.fs->Remove(im.path);
  }
  if (im.defining && im.pre_redef) {
    im.header = *im.pre_redef;
    im.pre_redef.reset();
    im.defining = false;
  }
  return pnc::Status::Ok();
}

pnc::Status Dataset::SetFill(FillMode m) {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  impl_->fill = m;
  return pnc::Status::Ok();
}

// ----------------------------------------------------------- define mode

pnc::Status Dataset::CheckDefineMode() const {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  if (!impl_->defining) return pnc::Status(pnc::Err::kNotInDefine);
  if (!impl_->writable) return pnc::Status(pnc::Err::kPermission);
  return pnc::Status::Ok();
}

pnc::Status Dataset::CheckDataMode(bool need_write) const {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  if (impl_->defining) return pnc::Status(pnc::Err::kInDefine);
  if (need_write && !impl_->writable)
    return pnc::Status(pnc::Err::kPermission);
  return pnc::Status::Ok();
}

pnc::Result<int> Dataset::DefDim(const std::string& name, std::uint64_t len) {
  PNC_RETURN_IF_ERROR(CheckDefineMode());
  auto& h = impl_->header;
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
  PNC_RETURN_IF_ERROR(CheckDefineMode());
  auto& h = impl_->header;
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
  PNC_RETURN_IF_ERROR(CheckDefineMode());
  auto& h = impl_->header;
  if (dimid < 0 || static_cast<std::size_t>(dimid) >= h.dims.size())
    return pnc::Status(pnc::Err::kBadDim);
  if (h.FindDim(name) >= 0) return pnc::Status(pnc::Err::kNameInUse, name);
  h.dims[static_cast<std::size_t>(dimid)].name = name;
  return pnc::Status::Ok();
}

pnc::Status Dataset::RenameVar(int varid, const std::string& name) {
  PNC_RETURN_IF_ERROR(CheckDefineMode());
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
  const int existing =
      [&] {
        for (std::size_t i = 0; i < attrs->size(); ++i)
          if ((*attrs)[i].name == att.name) return static_cast<int>(i);
        return -1;
      }();
  if (!im.defining) {
    // Data mode: only replacing an existing attribute without growing it is
    // allowed (the header cannot expand without a relayout).
    if (existing < 0) return pnc::Status(pnc::Err::kNotInDefine, att.name);
    const auto& old = (*attrs)[static_cast<std::size_t>(existing)];
    if (att.type != old.type || att.data.size() > old.data.size())
      return pnc::Status(pnc::Err::kNotInDefine, att.name);
    (*attrs)[static_cast<std::size_t>(existing)] = std::move(att);
    return WriteHeader();
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
  PNC_RETURN_IF_ERROR(CheckDefineMode());
  PNC_ASSIGN_OR_RETURN(std::vector<Attr>* attrs,
                       AttrListOf(impl_->header, varid));
  auto it = std::find_if(attrs->begin(), attrs->end(),
                         [&](const Attr& a) { return a.name == name; });
  if (it == attrs->end()) return pnc::Status(pnc::Err::kNotAtt, name);
  attrs->erase(it);
  return pnc::Status::Ok();
}

pnc::Status Dataset::RenameAtt(int varid, const std::string& old_name,
                               const std::string& new_name) {
  PNC_RETURN_IF_ERROR(CheckDefineMode());
  PNC_ASSIGN_OR_RETURN(std::vector<Attr>* attrs,
                       AttrListOf(impl_->header, varid));
  for (const auto& a : *attrs)
    if (a.name == new_name) return pnc::Status(pnc::Err::kNameInUse, new_name);
  for (auto& a : *attrs) {
    if (a.name == old_name) {
      a.name = new_name;
      return pnc::Status::Ok();
    }
  }
  return pnc::Status(pnc::Err::kNotAtt, old_name);
}

// --------------------------------------------------------------- inquiry

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

simmpi::VirtualClock& Dataset::clock() { return impl_->clock; }

// ------------------------------------------------------------- data I/O

pnc::Status Dataset::PutExternal(int varid,
                                 std::span<const std::uint64_t> start,
                                 std::span<const std::uint64_t> count,
                                 std::span<const std::uint64_t> stride,
                                 pnc::ConstByteSpan external) {
  auto& im = *impl_;
  auto& h = im.header;
  const std::string_view put_var =
      varid >= 0 && varid < static_cast<int>(h.vars.size())
          ? std::string_view(h.vars[static_cast<std::size_t>(varid)].name)
          : std::string_view();
  PNC_IOSTAT_REQ_SCOPE(stride.empty() ? "put_vara" : "put_vars", put_var,
                       im.clock.now(), external.size(), 1);

  // Record growth bookkeeping (and fill of skipped records) first.
  if (h.IsRecordVar(varid) && !count.empty() && count[0] > 0) {
    const std::uint64_t st = stride.empty() ? 1 : stride[0];
    const std::uint64_t last = start[0] + (count[0] - 1) * st + 1;
    if (last > h.numrecs) {
      const std::uint64_t old_recs = h.numrecs;
      h.numrecs = last;
      im.numrecs_dirty = true;
      if (im.fill == FillMode::kFill) {
        for (int v = 0; v < static_cast<int>(h.vars.size()); ++v)
          if (h.IsRecordVar(v))
            PNC_RETURN_IF_ERROR(FillVariable(v, old_recs, last));
      }
    }
  }

  PNC_OBSERVE(kNcData, .len = external.size(), .is_write = true);
  std::vector<pnc::Extent> regions;
  ncformat::AccessRegions(h, varid, start, count, stride, regions);
  std::uint64_t pos = 0;
  for (const auto& r : regions) {
    PNC_RETURN_IF_ERROR(im.io.WriteAt(r.offset, external.subspan(pos, r.len)));
    pos += r.len;
  }
  return pnc::Status::Ok();
}

pnc::Status Dataset::GetExternal(int varid,
                                 std::span<const std::uint64_t> start,
                                 std::span<const std::uint64_t> count,
                                 std::span<const std::uint64_t> stride,
                                 pnc::ByteSpan external) {
  auto& im = *impl_;
  const std::string_view get_var =
      varid >= 0 && varid < static_cast<int>(im.header.vars.size())
          ? std::string_view(
                im.header.vars[static_cast<std::size_t>(varid)].name)
          : std::string_view();
  PNC_IOSTAT_REQ_SCOPE(stride.empty() ? "get_vara" : "get_vars", get_var,
                       im.clock.now(), external.size(), 0);
  PNC_OBSERVE(kNcData, .len = external.size());
  std::vector<pnc::Extent> regions;
  ncformat::AccessRegions(im.header, varid, start, count, stride, regions);
  std::uint64_t pos = 0;
  for (const auto& r : regions) {
    pnc::Status st = im.io.ReadAt(r.offset, external.subspan(pos, r.len));
    if (st.code() == pnc::Err::kDataCorrupt) im.data_corrupt = true;
    PNC_RETURN_IF_ERROR(st);
    pos += r.len;
  }
  return pnc::Status::Ok();
}

// --------------------------------------------------------- header output

pnc::Status Dataset::WriteHeader() {
  auto& im = *impl_;
  std::vector<std::byte> bytes;
  im.header.Encode(bytes);
  if (im.journal) {
    // Data before metadata, then the journal commit, and only then the
    // primary — which must itself be durable before the *next* commit may
    // overwrite the shadow it relies on.
    PNC_RETURN_IF_ERROR(im.io.Sync());
    PNC_RETURN_IF_ERROR(im.CommitToJournal(bytes, /*open=*/true));
    PNC_RETURN_IF_ERROR(im.io.WriteAt(0, bytes));
    PNC_RETURN_IF_ERROR(im.io.Sync());
  } else {
    PNC_RETURN_IF_ERROR(im.io.WriteAt(0, bytes));
  }
  PNC_OBSERVE(kHeaderWrite, .len = bytes.size());
  im.numrecs_dirty = false;
  im.primary_lags = false;
  return pnc::Status::Ok();
}

pnc::Status Dataset::CommitData(bool closing) {
  auto& im = *impl_;
  const bool grew = im.numrecs_dirty;
  PrimaryIo primary(im.io);
  if (!im.journal) {  // a legacy file: numrecs in place, no sums
    PNC_RETURN_IF_ERROR(closing ? im.io.Flush() : im.io.Sync());
    if (!grew) return pnc::Status::Ok();
    PNC_RETURN_IF_ERROR(
        ncformat::WritePrimaryNumrecs(primary, im.header.numrecs));
    im.numrecs_dirty = false;
    return pnc::Status::Ok();
  }
  // Data durable first; then one journal commit of the record count and
  // the sums describing that data (still session-OPEN unless closing). The
  // slot is where a Sync commits the count; Close then catches the
  // primary's numrecs field up.
  PNC_RETURN_IF_ERROR(im.io.Sync());
  const bool patch = closing && (grew || im.primary_lags);
  if (!im.writable || (!im.sums_on && !grew && !patch))
    return pnc::Status::Ok();
  if (im.sums_on) {
    PNC_RETURN_IF_ERROR(im.sums.ResolveDirty(
        im.io.size(), [&im](std::uint64_t o, pnc::ByteSpan out) {
          return im.io.ReadAt(o, out);
        }));
  }
  std::vector<std::byte> bytes;
  im.header.Encode(bytes);
  PNC_RETURN_IF_ERROR(im.CommitToJournal(bytes, /*open=*/!closing));
  im.numrecs_dirty = false;
  im.primary_lags = im.primary_lags || grew;
  if (!patch) return pnc::Status::Ok();
  PNC_RETURN_IF_ERROR(
      ncformat::WritePrimaryNumrecs(primary, im.header.numrecs));
  im.primary_lags = false;
  return pnc::Status::Ok();
}

// ------------------------------------------------------------- relayout

pnc::Status Dataset::MoveDataForRelayout(const Header& old_header) {
  auto& im = *impl_;
  const Header& nh = im.header;

  // Copy helper, chunked; safe because every move is to a strictly higher
  // offset and we process moves from the highest new offset downward.
  auto copy_region = [&](std::uint64_t from, std::uint64_t to,
                         std::uint64_t len) -> pnc::Status {
    if (from == to || len == 0) return pnc::Status::Ok();
    constexpr std::uint64_t kChunk = 4ULL << 20;
    std::vector<std::byte> buf(std::min(len, kChunk));
    std::uint64_t done = 0;
    while (done < len) {  // back to front within the region as well
      const std::uint64_t n = std::min(kChunk, len - done);
      const std::uint64_t off = len - done - n;
      PNC_RETURN_IF_ERROR(im.io.ReadAt(from + off, pnc::ByteSpan(buf.data(), n)));
      PNC_RETURN_IF_ERROR(
          im.io.WriteAt(to + off, pnc::ConstByteSpan(buf.data(), n)));
      done += n;
    }
    return pnc::Status::Ok();
  };

  struct Move {
    std::uint64_t from, to, len;
  };
  std::vector<Move> moves;

  // Record region: relocate record-by-record if either the base offset or
  // the internal record layout changed.
  const std::uint64_t nrecs = old_header.numrecs;
  for (std::size_t i = 0; i < old_header.vars.size(); ++i) {
    const auto& ov = old_header.vars[i];
    const int nid = nh.FindVar(ov.name);
    if (nid < 0) continue;  // vars cannot be deleted, but be defensive
    const auto& nv = nh.vars[static_cast<std::size_t>(nid)];
    if (old_header.IsRecordVar(static_cast<int>(i))) {
      for (std::uint64_t r = 0; r < nrecs; ++r) {
        moves.push_back({ov.begin + r * old_header.recsize(),
                         nv.begin + r * nh.recsize(), ov.vsize});
      }
    } else {
      moves.push_back({ov.begin, nv.begin, ov.vsize});
    }
  }
  // Highest destination first: destinations never precede their sources
  // (the header only grows), so this order never clobbers unmoved data.
  std::sort(moves.begin(), moves.end(),
            [](const Move& a, const Move& b) { return a.to > b.to; });
  for (const auto& m : moves) {
    if (m.to < m.from)
      return pnc::Status(pnc::Err::kInternal, "relayout moved data backwards");
    PNC_RETURN_IF_ERROR(copy_region(m.from, m.to, m.len));
  }
  return pnc::Status::Ok();
}

// ------------------------------------------------------------------ fill

pnc::Status Dataset::FillVariable(int varid, std::uint64_t rec_from,
                                  std::uint64_t rec_to) {
  auto& im = *impl_;
  const auto& h = im.header;
  const auto& v = h.vars[static_cast<std::size_t>(varid)];
  const std::uint64_t tsize = ncformat::TypeSize(v.type);

  // One instance (whole fixed var / one record) of external fill bytes.
  const std::uint64_t elems = h.VarInstanceElems(varid);
  std::vector<std::byte> pattern(elems * tsize);
  auto fill_with = [&](auto value) {
    using T = decltype(value);
    std::vector<T> vals(elems, value);
    (void)ncformat::ToExternal<T>(std::span<const T>(vals), v.type,
                                  pattern.data());
  };
  switch (v.type) {
    case NcType::kByte: fill_with(kFillByte); break;
    case NcType::kChar: fill_with(kFillChar); break;
    case NcType::kShort: fill_with(kFillShort); break;
    case NcType::kInt: fill_with(kFillInt); break;
    case NcType::kFloat: fill_with(kFillFloat); break;
    case NcType::kDouble: fill_with(kFillDouble); break;
  }

  if (h.IsRecordVar(varid)) {
    for (std::uint64_t r = rec_from; r < rec_to; ++r)
      PNC_RETURN_IF_ERROR(im.io.WriteAt(v.begin + r * h.recsize(), pattern));
  } else {
    PNC_RETURN_IF_ERROR(im.io.WriteAt(v.begin, pattern));
  }
  return pnc::Status::Ok();
}

pnc::Status Dataset::FillNewSpace(const Header* old_header) {
  auto& im = *impl_;
  const auto& h = im.header;
  for (int v = 0; v < static_cast<int>(h.vars.size()); ++v) {
    const bool existed =
        old_header && old_header->FindVar(h.vars[static_cast<std::size_t>(v)].name) >= 0;
    if (existed) continue;
    if (h.IsRecordVar(v)) {
      PNC_RETURN_IF_ERROR(FillVariable(v, 0, h.numrecs));
    } else {
      PNC_RETURN_IF_ERROR(FillVariable(v, 0, 0));
    }
  }
  return pnc::Status::Ok();
}

}  // namespace netcdf
