#include "hdf5lite/h5file.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>

#include "util/xdr.hpp"

namespace hdf5lite {

namespace {

constexpr std::uint32_t kSuperMagic = 0x48354C54;  // "H5LT"
constexpr std::uint32_t kStabMagic = 0x53544142;   // "STAB"
constexpr std::uint32_t kOhdrMagic = 0x4F484452;   // "OHDR"
constexpr std::uint64_t kSuperblockSize = 64;
constexpr std::uint64_t kDataAlign = 512;

std::uint64_t AlignUp(std::uint64_t x, std::uint64_t a) {
  return (x + a - 1) / a * a;
}

struct Superblock {
  std::uint64_t eof = kSuperblockSize;
  std::uint64_t symtab_addr = 0;  ///< 0: no datasets yet
  std::uint32_t nobjects = 0;

  std::vector<std::byte> Encode() const {
    std::vector<std::byte> out;
    pnc::xdr::Encoder enc(out);
    enc.PutU32(kSuperMagic);
    enc.PutU32(1);  // version
    enc.PutU64(eof);
    enc.PutU64(symtab_addr);
    enc.PutU32(nobjects);
    out.resize(kSuperblockSize);
    return out;
  }
  static pnc::Result<Superblock> Decode(pnc::ConstByteSpan in) {
    pnc::xdr::Decoder dec(in);
    std::uint32_t magic = 0, version = 0;
    Superblock sb;
    PNC_RETURN_IF_ERROR(dec.GetU32(magic));
    if (magic != kSuperMagic)
      return pnc::Status(pnc::Err::kNotNc, "not an hdf5lite file");
    PNC_RETURN_IF_ERROR(dec.GetU32(version));
    PNC_RETURN_IF_ERROR(dec.GetU64(sb.eof));
    PNC_RETURN_IF_ERROR(dec.GetU64(sb.symtab_addr));
    PNC_RETURN_IF_ERROR(dec.GetU32(sb.nobjects));
    return sb;
  }
};

struct ObjectHeader {
  std::string name;
  NcType type = NcType::kByte;
  std::vector<std::uint64_t> dims;
  std::uint64_t data_addr = 0;
  std::uint32_t mod_count = 0;

  std::vector<std::byte> Encode() const {
    std::vector<std::byte> out;
    pnc::xdr::Encoder enc(out);
    enc.PutU32(kOhdrMagic);
    enc.PutI32(static_cast<std::int32_t>(type));
    enc.PutU32(static_cast<std::uint32_t>(dims.size()));
    enc.PutU32(mod_count);
    enc.PutU64(data_addr);
    for (auto d : dims) enc.PutU64(d);
    enc.PutName(name);
    return out;
  }
  static pnc::Result<ObjectHeader> Decode(pnc::ConstByteSpan in) {
    pnc::xdr::Decoder dec(in);
    std::uint32_t magic = 0, rank = 0;
    ObjectHeader oh;
    PNC_RETURN_IF_ERROR(dec.GetU32(magic));
    if (magic != kOhdrMagic)
      return pnc::Status(pnc::Err::kTrunc, "bad object header");
    std::int32_t t = 0;
    PNC_RETURN_IF_ERROR(dec.GetI32(t));
    if (!ncformat::IsValidType(t)) return pnc::Status(pnc::Err::kBadType);
    oh.type = static_cast<NcType>(t);
    PNC_RETURN_IF_ERROR(dec.GetU32(rank));
    PNC_RETURN_IF_ERROR(dec.GetU32(oh.mod_count));
    PNC_RETURN_IF_ERROR(dec.GetU64(oh.data_addr));
    oh.dims.resize(rank);
    for (auto& d : oh.dims) PNC_RETURN_IF_ERROR(dec.GetU64(d));
    PNC_RETURN_IF_ERROR(dec.GetName(oh.name));
    return oh;
  }
};

struct SymbolTable {
  struct Entry {
    std::string name;
    std::uint64_t ohdr_addr = 0;
  };
  std::vector<Entry> entries;

  std::vector<std::byte> Encode() const {
    std::vector<std::byte> out;
    pnc::xdr::Encoder enc(out);
    enc.PutU32(kStabMagic);
    enc.PutU32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& e : entries) {
      enc.PutName(e.name);
      enc.PutU64(e.ohdr_addr);
    }
    return out;
  }
  static pnc::Result<SymbolTable> Decode(pnc::ConstByteSpan in) {
    pnc::xdr::Decoder dec(in);
    std::uint32_t magic = 0, count = 0;
    PNC_RETURN_IF_ERROR(dec.GetU32(magic));
    if (magic != kStabMagic)
      return pnc::Status(pnc::Err::kTrunc, "bad symbol table");
    PNC_RETURN_IF_ERROR(dec.GetU32(count));
    SymbolTable st;
    st.entries.resize(count);
    for (auto& e : st.entries) {
      PNC_RETURN_IF_ERROR(dec.GetName(e.name));
      PNC_RETURN_IF_ERROR(dec.GetU64(e.ohdr_addr));
    }
    return st;
  }
};

}  // namespace

struct File::Impl {
  Impl(simmpi::Comm c, pfs::FileSystem* filesystem, mpiio::File f, bool w,
       double descent)
      : comm(std::move(c)), fs(filesystem), file(std::move(f)), writable(w),
        descent_ns(descent) {}

  simmpi::Comm comm;
  pfs::FileSystem* fs;
  mpiio::File file;
  bool writable = true;
  Superblock sb;
  /// Per-descent cost of the recursive hyperslab machinery (ablatable via
  /// the "h5l_descent_ns" hint).
  double descent_ns = 300.0;

  // Metadata cache (real HDF5 keeps one too): decoded blocks are served
  // from memory, but the file read is still issued so its virtual-time cost
  // is charged — the paper's point is the *file access* to locate and fetch
  // headers, which the cache does not remove on first touch or under
  // invalidation, and which we model as a read per lookup.
  std::optional<SymbolTable> symtab_cache;
  std::map<std::uint64_t, ObjectHeader> ohdr_cache;

  /// Root-mediated read of a metadata block of unknown length: read a
  /// generous fixed span and let the decoder stop where it stops.
  template <typename T>
  pnc::Result<T> ReadBlockAtRoot(std::uint64_t addr) {
    std::vector<std::byte> buf(64 * 1024);
    PNC_RETURN_IF_ERROR(
        file.ReadAt(addr, buf.data(), buf.size(), simmpi::ByteType()));
    return T::Decode(buf);
  }

  pnc::Result<SymbolTable> ReadSymtabAtRoot() {
    if (sb.symtab_addr == 0) return SymbolTable{};
    if (symtab_cache) {
      // Timed lookup, served from cache.
      std::vector<std::byte> scratch(4096);
      PNC_RETURN_IF_ERROR(file.ReadAt(sb.symtab_addr, scratch.data(),
                                      scratch.size(), simmpi::ByteType()));
      return *symtab_cache;
    }
    auto st = ReadBlockAtRoot<SymbolTable>(sb.symtab_addr);
    if (st.ok()) symtab_cache = st.value();
    return st;
  }

  pnc::Result<ObjectHeader> ReadOhdrAtRoot(std::uint64_t addr) {
    auto it = ohdr_cache.find(addr);
    if (it != ohdr_cache.end()) {
      std::vector<std::byte> scratch(4096);
      PNC_RETURN_IF_ERROR(file.ReadAt(addr, scratch.data(), scratch.size(),
                                      simmpi::ByteType()));
      return it->second;
    }
    auto oh = ReadBlockAtRoot<ObjectHeader>(addr);
    if (oh.ok()) ohdr_cache[addr] = oh.value();
    return oh;
  }

  pnc::Status WriteBlockAtRoot(std::uint64_t addr,
                               const std::vector<std::byte>& bytes) {
    return file.WriteAt(addr, bytes.data(), bytes.size(), simmpi::ByteType());
  }

  pnc::Status FlushSuperblockAtRoot() {
    return WriteBlockAtRoot(0, sb.Encode());
  }
};

struct Dataset::Impl {
  std::shared_ptr<File::Impl> file;
  std::uint64_t ohdr_addr = 0;
  ObjectHeader oh;
};

// ---------------------------------------------------------------- file ops

pnc::Result<File> File::Create(simmpi::Comm comm, pfs::FileSystem& fs,
                               const std::string& path,
                               const simmpi::Info& info) {
  auto f = mpiio::File::Open(comm, fs, path, mpiio::kCreate | mpiio::kRdWr,
                             info);
  if (!f.ok()) return f.status();
  File file;
  file.impl_ = std::make_shared<Impl>(
      std::move(comm), &fs, std::move(f).value(), /*writable=*/true,
      static_cast<double>(info.GetInt("h5l_descent_ns", 300)));
  auto& im = *file.impl_;
  pnc::Status flushed;
  if (im.comm.rank() == 0) flushed = im.FlushSuperblockAtRoot();
  // Every rank returns the root's status, so none is left in a collective.
  PNC_RETURN_IF_ERROR(im.comm.BarrierStatus(flushed));
  return file;
}

pnc::Result<File> File::Open(simmpi::Comm comm, pfs::FileSystem& fs,
                             const std::string& path, bool writable,
                             const simmpi::Info& info) {
  unsigned mode = writable ? mpiio::kRdWr : mpiio::kRdOnly;
  auto f = mpiio::File::Open(comm, fs, path, mode, info);
  if (!f.ok()) return f.status();
  File file;
  file.impl_ = std::make_shared<Impl>(
      std::move(comm), &fs, std::move(f).value(), writable,
      static_cast<double>(info.GetInt("h5l_descent_ns", 300)));
  auto& im = *file.impl_;

  int err = 0;
  if (im.comm.rank() == 0) {
    auto sb = im.ReadBlockAtRoot<Superblock>(0);
    if (sb.ok()) {
      im.sb = sb.value();
    } else {
      err = sb.status().raw();
    }
  }
  im.comm.BcastValue(err, 0);
  if (err != 0) return pnc::Status(static_cast<pnc::Err>(err), path);
  im.comm.BcastValue(im.sb, 0);
  return file;
}

pnc::Status File::Close() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  // The root's superblock flush is folded into the sync's agreement, so
  // every rank returns one status.
  pnc::Status local;
  if (im.writable && im.comm.rank() == 0) local = im.FlushSuperblockAtRoot();
  if (local.ok()) local = im.file.SyncLocal();
  PNC_RETURN_IF_ERROR(im.file.comm().AgreeStatus(local));
  return im.file.Close();
}

simmpi::Comm& File::comm() { return impl_->comm; }

pnc::Result<Dataset> File::CreateDataset(const std::string& name, NcType type,
                                         std::span<const std::uint64_t> dims) {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  if (dims.empty())
    return pnc::Status(pnc::Err::kInvalidArg, "rank-0 datasets unsupported");
  auto& im = *impl_;

  // Collective create, root-mediated (parallel HDF5 requires H5Dcreate to
  // be called by all processes).
  ObjectHeader oh;
  oh.name = name;
  oh.type = type;
  oh.dims.assign(dims.begin(), dims.end());
  std::uint64_t ohdr_addr = 0;
  int err = 0;
  if (im.comm.rank() == 0) {
    // Duplicate-name scan through the existing namespace.
    if (im.sb.symtab_addr != 0) {
      auto st = im.ReadSymtabAtRoot();
      if (!st.ok()) {
        err = st.status().raw();
      } else {
        for (const auto& e : st.value().entries)
          if (e.name == name) err = pnc::Status(pnc::Err::kNameInUse).raw();
      }
    }
    if (err == 0) {
      // Allocate the object header block, then the (aligned) data space.
      ohdr_addr = im.sb.eof;
      std::uint64_t bytes = ncformat::TypeSize(type);
      for (auto d : dims) bytes *= d;
      auto ohdr_bytes = oh.Encode();  // pre-layout encode for sizing
      oh.data_addr = AlignUp(ohdr_addr + ohdr_bytes.size(), kDataAlign);
      im.sb.eof = oh.data_addr + bytes;

      // Rewrite: object header, then the grown symbol table at the new eof
      // (the old symbol table block becomes dead space — tree-file
      // fragmentation), then the superblock.
      pnc::Status s = im.WriteBlockAtRoot(ohdr_addr, oh.Encode());
      if (s.ok()) {
        SymbolTable st;
        if (im.sb.symtab_addr != 0) {
          auto old = im.ReadSymtabAtRoot();
          if (old.ok()) st = old.value();
        }
        st.entries.push_back({name, ohdr_addr});
        im.sb.symtab_addr = im.sb.eof;
        auto st_bytes = st.Encode();
        im.sb.eof += st_bytes.size();
        im.sb.nobjects = static_cast<std::uint32_t>(st.entries.size());
        s = im.WriteBlockAtRoot(im.sb.symtab_addr, st_bytes);
        if (s.ok()) s = im.FlushSuperblockAtRoot();
        im.symtab_cache = st;
        im.ohdr_cache[ohdr_addr] = oh;
      }
      if (!s.ok()) err = s.raw();
    }
  }
  im.comm.BcastValue(err, 0);
  if (err != 0) return pnc::Status(static_cast<pnc::Err>(err), name);

  // Broadcast the header (and the updated superblock) to all processes.
  std::vector<std::byte> oh_bytes;
  if (im.comm.rank() == 0) oh_bytes = oh.Encode();
  im.comm.Bcast(oh_bytes, 0);
  im.comm.BcastValue(ohdr_addr, 0);
  im.comm.BcastValue(im.sb, 0);
  if (im.comm.rank() != 0) {
    auto dec = ObjectHeader::Decode(oh_bytes);
    if (!dec.ok()) return dec.status();
    oh = std::move(dec).value();
  }
  im.comm.Barrier();

  Dataset ds;
  ds.impl_ = std::make_shared<Dataset::Impl>();
  ds.impl_->file = impl_;
  ds.impl_->ohdr_addr = ohdr_addr;
  ds.impl_->oh = std::move(oh);
  return ds;
}

pnc::Result<Dataset> File::OpenDataset(const std::string& name) {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;

  // Collective open: the root iterates through the namespace, reading each
  // object header from the file until the name matches (§4.3), then
  // broadcasts the result.
  int err = 0;
  std::uint64_t ohdr_addr = 0;
  std::vector<std::byte> oh_bytes;
  if (im.comm.rank() == 0) {
    err = pnc::Status(pnc::Err::kNotVar).raw();
    if (im.sb.symtab_addr != 0) {
      auto st = im.ReadSymtabAtRoot();
      if (!st.ok()) {
        err = st.status().raw();
      } else {
        for (const auto& e : st.value().entries) {
          auto oh = im.ReadOhdrAtRoot(e.ohdr_addr);
          if (!oh.ok()) {
            err = oh.status().raw();
            break;
          }
          if (oh.value().name == name) {
            ohdr_addr = e.ohdr_addr;
            oh_bytes = oh.value().Encode();
            err = 0;
            break;
          }
        }
      }
    }
  }
  im.comm.BcastValue(err, 0);
  if (err != 0) return pnc::Status(static_cast<pnc::Err>(err), name);
  im.comm.Bcast(oh_bytes, 0);
  im.comm.BcastValue(ohdr_addr, 0);
  im.comm.Barrier();

  auto dec = ObjectHeader::Decode(oh_bytes);
  if (!dec.ok()) return dec.status();
  Dataset ds;
  ds.impl_ = std::make_shared<Dataset::Impl>();
  ds.impl_->file = impl_;
  ds.impl_->ohdr_addr = ohdr_addr;
  ds.impl_->oh = std::move(dec).value();
  return ds;
}

pnc::Result<std::vector<std::string>> File::ListDatasets() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  int err = 0;
  std::vector<std::string> names;
  std::vector<std::byte> frame;
  if (im.comm.rank() == 0) {
    if (im.sb.symtab_addr != 0) {
      auto st = im.ReadSymtabAtRoot();
      if (!st.ok()) {
        err = st.status().raw();
      } else {
        pnc::xdr::Encoder enc(frame);
        enc.PutU32(static_cast<std::uint32_t>(st.value().entries.size()));
        for (const auto& e : st.value().entries) enc.PutName(e.name);
      }
    } else {
      pnc::xdr::Encoder enc(frame);
      enc.PutU32(0);
    }
  }
  im.comm.BcastValue(err, 0);
  if (err != 0) return pnc::Status(static_cast<pnc::Err>(err));
  im.comm.Bcast(frame, 0);
  pnc::xdr::Decoder dec(frame);
  std::uint32_t n = 0;
  PNC_RETURN_IF_ERROR(dec.GetU32(n));
  names.resize(n);
  for (auto& s : names) PNC_RETURN_IF_ERROR(dec.GetName(s));
  return names;
}

// ------------------------------------------------------------ dataset ops

const std::string& Dataset::name() const { return impl_->oh.name; }
NcType Dataset::type() const { return impl_->oh.type; }
const std::vector<std::uint64_t>& Dataset::dims() const {
  return impl_->oh.dims;
}

pnc::Status Dataset::Close() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& fim = *impl_->file;
  // H5Dclose is collective: flush the object header and synchronize.
  if (fim.writable && fim.comm.rank() == 0) {
    PNC_RETURN_IF_ERROR(
        fim.WriteBlockAtRoot(impl_->ohdr_addr, impl_->oh.Encode()));
    fim.ohdr_cache[impl_->ohdr_addr] = impl_->oh;
  }
  fim.comm.Barrier();
  return pnc::Status::Ok();
}

namespace {

/// Recursive hyperslab pack/unpack between an N-D memory array and a
/// contiguous buffer, charging the per-descent cost that makes HDF5-style
/// hyperslab handling expensive for small rows.
struct HyperslabCopier {
  std::span<const std::uint64_t> mem_dims;
  std::span<const std::uint64_t> mem_start;
  std::span<const std::uint64_t> count;
  std::size_t tsize = 1;
  bool pack = true;
  std::uint64_t calls = 0;

  std::vector<std::uint64_t> mem_stride;  // in elements

  void Init() {
    mem_stride.assign(mem_dims.size(), 1);
    for (std::size_t d = mem_dims.size() - 1; d > 0; --d)
      mem_stride[d - 1] = mem_stride[d] * mem_dims[d];
  }

  void Recurse(std::byte* mem, std::byte*& contig, std::size_t dim,
               std::uint64_t elem_off) {
    ++calls;
    if (dim + 1 == count.size()) {
      const std::uint64_t row_elems = count[dim];
      const std::uint64_t off =
          (elem_off + (mem_start[dim]) * mem_stride[dim]) * tsize;
      const std::uint64_t bytes = row_elems * tsize;
      if (pack) {
        std::memcpy(contig, mem + off, bytes);
      } else {
        std::memcpy(mem + off, contig, bytes);
      }
      contig += bytes;
      return;
    }
    for (std::uint64_t i = 0; i < count[dim]; ++i) {
      Recurse(mem, contig, dim + 1,
              elem_off + (mem_start[dim] + i) * mem_stride[dim]);
    }
  }
};

/// File extents of the hyperslab [start, start+count) of a row-major array
/// `dims` of `tsize`-byte elements based at `data_addr`.
void FileRegions(std::uint64_t data_addr, std::span<const std::uint64_t> dims,
                 std::span<const std::uint64_t> start,
                 std::span<const std::uint64_t> count, std::size_t tsize,
                 std::vector<pnc::Extent>& out) {
  const std::size_t nd = dims.size();
  std::vector<std::uint64_t> stride(nd, 1);
  for (std::size_t d = nd - 1; d > 0; --d)
    stride[d - 1] = stride[d] * dims[d];
  std::uint64_t rows = 1;
  for (std::size_t d = 0; d + 1 < nd; ++d) rows *= count[d];
  std::vector<std::uint64_t> idx(nd, 0);
  for (std::uint64_t r = 0; r < rows; ++r) {
    std::uint64_t elem = start[nd - 1];
    for (std::size_t d = 0; d + 1 < nd; ++d)
      elem += (start[d] + idx[d]) * stride[d];
    const std::uint64_t off = data_addr + elem * tsize;
    const std::uint64_t len = count[nd - 1] * tsize;
    if (!out.empty() && out.back().end() == off) {
      out.back().len += len;
    } else {
      out.push_back({off, len});
    }
    for (std::size_t d = nd - 1; d-- > 0;) {
      if (++idx[d] < count[d]) break;
      idx[d] = 0;
    }
  }
}

}  // namespace

pnc::Status Dataset::Write(std::span<const std::uint64_t> start,
                           std::span<const std::uint64_t> count,
                           const void* buf,
                           std::span<const std::uint64_t> mem_dims,
                           std::span<const std::uint64_t> mem_start) {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& fim = *impl_->file;
  auto& oh = impl_->oh;
  const std::size_t nd = oh.dims.size();
  if (start.size() != nd || count.size() != nd || mem_dims.size() != nd ||
      mem_start.size() != nd)
    return pnc::Status(pnc::Err::kInvalidArg, "hyperslab rank");
  for (std::size_t d = 0; d < nd; ++d) {
    if (start[d] + count[d] > oh.dims[d])
      return pnc::Status(pnc::Err::kEdge, oh.name);
    if (mem_start[d] + count[d] > mem_dims[d])
      return pnc::Status(pnc::Err::kInvalidArg, "memory hyperslab");
  }
  const std::size_t tsize = ncformat::TypeSize(oh.type);
  const std::uint64_t nelems = pnc::ShapeProduct(count);
  if (nelems == 0) return pnc::Status::Ok();

  // Recursive pack memory -> contiguous staging.
  std::vector<std::byte> staging(nelems * tsize);
  HyperslabCopier cp{mem_dims, mem_start, count, tsize, /*pack=*/true};
  cp.Init();
  std::byte* cursor = staging.data();
  cp.Recurse(const_cast<std::byte*>(static_cast<const std::byte*>(buf)),
             cursor, 0, 0);
  auto& clk = fim.comm.clock();
  clk.Advance(fim.comm.cost().CopyCost(staging.size()) +
              fim.descent_ns * static_cast<double>(cp.calls));

  // Independent raw-data I/O through the file view.
  std::vector<pnc::Extent> regions;
  FileRegions(oh.data_addr, oh.dims, start, count, tsize, regions);
  std::vector<std::uint64_t> lens, offs;
  for (const auto& r : regions) {
    offs.push_back(r.offset);
    lens.push_back(r.len);
  }
  auto ft = simmpi::Datatype::Hindexed(lens, offs, simmpi::ByteType());
  PNC_RETURN_IF_ERROR(fim.file.SetViewLocal(0, simmpi::ByteType(), ft));
  PNC_RETURN_IF_ERROR(fim.file.WriteAt(0, staging.data(), staging.size(),
                                       simmpi::ByteType()));
  fim.file.ClearView();

  // Metadata updated during data writes: the root bumps the modification
  // count in the object header, and everyone synchronizes (§4.3).
  oh.mod_count += 1;
  if (fim.comm.rank() == 0) {
    PNC_RETURN_IF_ERROR(
        fim.WriteBlockAtRoot(impl_->ohdr_addr, oh.Encode()));
    fim.ohdr_cache[impl_->ohdr_addr] = oh;
  }
  fim.comm.Barrier();
  return pnc::Status::Ok();
}

pnc::Status Dataset::Read(std::span<const std::uint64_t> start,
                          std::span<const std::uint64_t> count, void* buf,
                          std::span<const std::uint64_t> mem_dims,
                          std::span<const std::uint64_t> mem_start) {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& fim = *impl_->file;
  auto& oh = impl_->oh;
  const std::size_t nd = oh.dims.size();
  if (start.size() != nd || count.size() != nd || mem_dims.size() != nd ||
      mem_start.size() != nd)
    return pnc::Status(pnc::Err::kInvalidArg, "hyperslab rank");
  for (std::size_t d = 0; d < nd; ++d) {
    if (start[d] + count[d] > oh.dims[d])
      return pnc::Status(pnc::Err::kEdge, oh.name);
    if (mem_start[d] + count[d] > mem_dims[d])
      return pnc::Status(pnc::Err::kInvalidArg, "memory hyperslab");
  }
  const std::size_t tsize = ncformat::TypeSize(oh.type);
  const std::uint64_t nelems = pnc::ShapeProduct(count);
  if (nelems == 0) return pnc::Status::Ok();

  std::vector<std::byte> staging(nelems * tsize);
  std::vector<pnc::Extent> regions;
  FileRegions(oh.data_addr, oh.dims, start, count, tsize, regions);
  std::vector<std::uint64_t> lens, offs;
  for (const auto& r : regions) {
    offs.push_back(r.offset);
    lens.push_back(r.len);
  }
  auto ft = simmpi::Datatype::Hindexed(lens, offs, simmpi::ByteType());
  PNC_RETURN_IF_ERROR(fim.file.SetViewLocal(0, simmpi::ByteType(), ft));
  PNC_RETURN_IF_ERROR(
      fim.file.ReadAt(0, staging.data(), staging.size(), simmpi::ByteType()));
  fim.file.ClearView();

  HyperslabCopier cp{mem_dims, mem_start, count, tsize, /*pack=*/false};
  cp.Init();
  std::byte* cursor = staging.data();
  cp.Recurse(static_cast<std::byte*>(buf), cursor, 0, 0);
  auto& clk = fim.comm.clock();
  clk.Advance(fim.comm.cost().CopyCost(staging.size()) +
              fim.descent_ns * static_cast<double>(cp.calls));
  return pnc::Status::Ok();
}

}  // namespace hdf5lite
