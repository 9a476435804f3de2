#include "netcdf/dataset.hpp"

#include <algorithm>

#include "format/commit_pfs.hpp"
#include "format/session.hpp"
#include "iostat/observe.hpp"

namespace netcdf {

using ncformat::Attr;
using ncformat::CommitPoint;
using ncformat::Header;
using ncformat::NcType;

namespace {

/// The serial library's commit path: one process over the block cache, a
/// write-back buffer that every Sync and Close writes back and syncs. The
/// header rewrite goes through the cache; the numrecs patch goes past it
/// (loading block 0 would evict the tail block the next record append
/// writes into).
class BufferedPath final : public ncformat::PfsCommitPath {
 public:
  BufferedPath(pfs::FileSystem* fs, const std::string& path,
               simmpi::VirtualClock* clock, BufferedFile& io)
      : PfsCommitPath(fs, path, clock), io_(io) {}
  bool write_back() const override { return true; }
  pnc::Status Read(std::uint64_t offset, pnc::ByteSpan out) override {
    return io_.ReadAt(offset, out);
  }
  pnc::Status Write(std::uint64_t offset, pnc::ConstByteSpan data) override {
    return io_.PatchAt(offset, data);
  }
  pnc::Status Sync() override { return io_.Sync(); }
  std::uint64_t Size() override { return io_.size(); }
  pnc::Status WriteHeader(pnc::ConstByteSpan bytes) override {
    return io_.WriteAt(0, bytes);
  }
  pnc::Status SyncData() override { return io_.Sync(); }

 private:
  BufferedFile& io_;
};

}  // namespace

struct Dataset::Impl {
  Impl(pfs::FileSystem* filesystem, pfs::File f, std::string p, bool w,
       std::uint64_t bufsize)
      : fs(filesystem), path(std::move(p)), writable(w),
        io(std::move(f), &clock, bufsize), commit_path(fs, path, &clock, io),
        session(commit_path, writable) {}

  pfs::FileSystem* fs;
  std::string path;
  bool writable;
  simmpi::VirtualClock clock;
  BufferedFile io;
  BufferedPath commit_path;
  // Crash consistency and data integrity: the journal, the commit in force
  // and the chunk-sum map attached to `io` (format/session.hpp). The serial
  // library is single-writer, so verify-on-read is safe even in writable
  // sessions: this session's own writes are exactly the dirty set.
  ncformat::CommitSession session;

  Header header;
  bool defining = false;
  bool fresh = false;          ///< created this session, EndDef not yet run
  FillMode fill = FillMode::kNoFill;
  std::optional<Header> pre_redef;  ///< snapshot for Abort/relayout
  bool data_corrupt = false;  ///< sticky: a read surfaced kDataCorrupt

  void AttachSums() {
    if (session.sums_on()) io.AttachSums(&session.sums(), /*verify=*/true);
  }
};

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
  // The journal starts empty, truncating any stale one left by a previous
  // file at this path so its commits can never be replayed.
  PNC_RETURN_IF_ERROR(im.session.Create());
  im.AttachSums();
  return ds;
}

pnc::Result<Dataset> Dataset::Open(pfs::FileSystem& fs, const std::string& path,
                                   bool writable, std::uint64_t buffer_size) {
  auto f = fs.Open(path);
  if (!f.ok()) return f.status();
  Dataset ds;
  ds.impl_ = std::make_shared<Impl>(&fs, std::move(f).value(), path, writable,
                                    buffer_size);
  auto& im = *ds.impl_;
  PNC_ASSIGN_OR_RETURN(im.header, im.session.Open(path));
  im.AttachSums();
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
  // Before the moves/fills below, so their writes mark chunks dirty in the
  // new geometry.
  im.session.LayoutSums(im.header, had_data);
  if (had_data && im.pre_redef) {
    PNC_RETURN_IF_ERROR(MoveDataForRelayout(*im.pre_redef));
  }
  // Data first, metadata last: fills and moved bytes land before the header
  // that makes them reachable commits, so a crash anywhere in between still
  // cold-opens as the old dataset.
  if (im.fill == FillMode::kFill) {
    PNC_RETURN_IF_ERROR(FillNewSpace(had_data ? &old : nullptr));
  }
  PNC_RETURN_IF_ERROR(im.session.Commit(CommitPoint::kHeader, im.header));
  im.defining = false;
  im.fresh = false;
  im.pre_redef.reset();
  PNC_OBSERVE(kModeSwitch);
  return pnc::Status::Ok();
}

pnc::Status Dataset::Sync() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  if (impl_->defining) return pnc::Status(pnc::Err::kInDefine);
  return impl_->session.Commit(CommitPoint::kSync, impl_->header);
}

pnc::Status Dataset::Close() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (im.defining) PNC_RETURN_IF_ERROR(EndDef());
  // Only a session that reaches this closing commit hands trustworthy sums
  // to the next open. A sticky corrupt read is re-reported here so a caller
  // that ignored the data call cannot mistake the dataset for healthy.
  PNC_RETURN_IF_ERROR(im.session.Commit(CommitPoint::kClose, im.header));
  if (im.data_corrupt)
    return pnc::Status(pnc::Err::kDataCorrupt,
                       "dataset read corrupt data this session");
  return pnc::Status::Ok();
}

pnc::Status Dataset::Abort() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (im.defining && im.fresh) {
    im.session.Release();
    (void)im.fs->Remove(ncformat::JournalPath(im.path));
    return im.fs->Remove(im.path);
  }
  // nc_abort closes the dataset: define-mode changes are dropped, and the
  // session ends by the close rule.
  if (im.defining && im.pre_redef) {
    im.header = *im.pre_redef;
    im.pre_redef.reset();
    im.defining = false;
  }
  return Close();
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
  return impl_->header.DefDim(name, len);
}

pnc::Result<int> Dataset::DefVar(const std::string& name, NcType type,
                                 std::vector<std::int32_t> dimids) {
  PNC_RETURN_IF_ERROR(CheckDefineMode());
  return impl_->header.DefVar(name, type, std::move(dimids));
}

pnc::Status Dataset::RenameDim(int dimid, const std::string& name) {
  PNC_RETURN_IF_ERROR(CheckDefineMode());
  return impl_->header.RenameDim(dimid, name);
}

pnc::Status Dataset::RenameVar(int varid, const std::string& name) {
  PNC_RETURN_IF_ERROR(CheckDefineMode());
  return impl_->header.RenameVar(varid, name);
}

// ------------------------------------------------------------ attributes

pnc::Status Dataset::PutAtt(int varid, Attr att) {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (!im.writable) return pnc::Status(pnc::Err::kPermission);
  PNC_RETURN_IF_ERROR(im.header.PutAtt(varid, std::move(att), im.defining));
  // In data mode the replaced attribute commits at once.
  if (im.defining) return pnc::Status::Ok();
  return im.session.Commit(CommitPoint::kHeader, im.header);
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
  PNC_RETURN_IF_ERROR(CheckDefineMode());
  return impl_->header.DelAtt(varid, name);
}

pnc::Status Dataset::RenameAtt(int varid, const std::string& old_name,
                               const std::string& new_name) {
  PNC_RETURN_IF_ERROR(CheckDefineMode());
  return impl_->header.RenameAtt(varid, old_name, new_name);
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

// ------------------------------------------------------------- relayout

pnc::Status Dataset::MoveDataForRelayout(const Header& old_header) {
  auto& im = *impl_;
  PNC_ASSIGN_OR_RETURN(const auto moves,
                       ncformat::RelayoutMoves(old_header, im.header));
  // Back to front within each region as well, in bounded chunks.
  constexpr std::uint64_t kChunk = 4ULL << 20;
  std::vector<std::byte> buf;
  for (const auto& m : moves) {
    if (m.from == m.to || m.len == 0) continue;
    buf.resize(std::min(m.len, kChunk));
    for (std::uint64_t done = 0; done < m.len;) {
      const std::uint64_t n = std::min(kChunk, m.len - done);
      const std::uint64_t off = m.len - done - n;
      PNC_RETURN_IF_ERROR(
          im.io.ReadAt(m.from + off, pnc::ByteSpan(buf.data(), n)));
      PNC_RETURN_IF_ERROR(
          im.io.WriteAt(m.to + off, pnc::ConstByteSpan(buf.data(), n)));
      done += n;
    }
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
