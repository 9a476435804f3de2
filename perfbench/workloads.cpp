#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <numeric>

#include "flash/flash.hpp"
#include "hdf5lite/h5file.hpp"
#include "iostat/iostat.hpp"
#include "netcdf/dataset.hpp"
#include "pnetcdf/dataset.hpp"
#include "pnetcdf/nonblocking.hpp"
#include "simmpi/runtime.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace perfbench {

using ncformat::NcType;

namespace {

/// Seeded value generator: element `i` of stream `stream` under `seed`.
/// Values are exactly representable, so written and read bytes compare
/// exactly.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  pnc::SplitMix64 g(seed * 0xD1B54A32D192ED03ULL ^ (stream << 48) ^ i);
  return g.Next();
}
double GenDouble(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  return static_cast<double>(Mix(seed, stream, i) >> 11) * 0x1.0p-43;
}
float GenFloat(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  return static_cast<float>(Mix(seed, stream, i) >> 40) * 0x1.0p-12f;
}

/// A job's free-text "history" metadata, as real files carry: seeded
/// length (0..4096 characters) and content. It moves where the data section
/// starts, so the seed perturbs every virtual time a little while leaving
/// the payload the same.
std::string History(std::uint64_t seed, std::uint64_t job) {
  std::string h(Mix(seed, 20, job) % 4097, ' ');
  for (std::size_t i = 0; i < h.size(); ++i)
    h[i] = static_cast<char>('a' + Mix(seed, 21, (job << 13) + i) % 26);
  return h;
}

// ------------------------------------------------------------- platforms
// The Figure 6 / Figure 7 testbeds and SP-2 fabric, as the paper-figure
// benches define them. Copied here so the benchmark's definition does not
// move when those benches do.

pfs::Config SdscBlueHorizon() {
  pfs::Config c;
  c.num_servers = 12;
  c.stripe_size = 256 * 1024;
  c.client_read_ns_per_byte = 4.0;
  c.client_write_ns_per_byte = 10.0;
  c.client_request_ns = 30'000.0;
  c.server_read_ns_per_byte = 16.0;
  c.server_write_ns_per_byte = 40.0;
  c.server_request_ns = 800'000.0;
  return c;
}

pfs::Config AsciFrost() {
  pfs::Config c;
  c.num_servers = 2;
  c.stripe_size = 256 * 1024;
  c.client_read_ns_per_byte = 3.0;
  c.client_write_ns_per_byte = 6.0;
  c.client_request_ns = 30'000.0;
  c.server_read_ns_per_byte = 8.0;
  c.server_write_ns_per_byte = 14.0;
  c.server_request_ns = 500'000.0;
  return c;
}

simmpi::CostModel Sp2Cost() {
  simmpi::CostModel c;
  c.msg_latency_ns = 20'000.0;
  c.msg_ns_per_byte = 2.0;
  c.mem_copy_ns_per_byte = 0.35;
  c.sw_overhead_ns = 2'000.0;
  // A hung collective aborts the process; run.py counts the job as
  // failed and restarts after it.
  c.hang_timeout_ms = 20'000.0;
  return c;
}

// ------------------------------------------------------------- helpers

std::uint64_t Fnv(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001B3ULL;
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

/// Seeded permutation of [0, n).
std::vector<int> Shuffle(int n, std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t i) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  pnc::SplitMix64 g(Mix(seed, stream, i));
  for (std::size_t k = v.size(); k > 1; --k)
    std::swap(v[k - 1], v[g.Below(k)]);
  return v;
}

void SyncClocks(simmpi::Comm& comm, Recorder& rec) {
  rec("simmpi.sync_clocks", [&] {
    comm.SyncClocksToMax();
    return 0;
  });
}

/// Run one parallel phase on `nprocs` ranks. `body(comm, rec, err)` sets
/// `err` on failure.
template <class Body>
Phase RunParallel(const char* kind, int nprocs, std::uint32_t job,
                  bool tracing, Body&& body) {
  Phase ph;
  ph.kind = kind;
  ph.ranks.resize(static_cast<std::size_t>(nprocs));
  std::vector<std::string> errs(static_cast<std::size_t>(nprocs));
  iostat::Registry::Get().Reset();
  const std::int64_t h0 = ph.host_begin = HostNs();
  simmpi::RunResult rr;
  try {
    rr = simmpi::Run(
        nprocs,
        [&](simmpi::Comm& comm) {
          const auto r = static_cast<std::size_t>(comm.rank());
          Recorder rec(ph.ranks[r], &comm.clock(), tracing, job, comm.rank());
          rec.BeginRank();
          body(comm, rec, errs[r]);
          rec.EndRank();
        },
        Sp2Cost());
  } catch (const std::exception& e) {
    ph.Fail(std::string("exception: ") + e.what());
  }
  ph.host_ns = HostNs() - h0;
  ph.rep = iostat::BuildReport();
  for (const auto& e : errs)
    if (!e.empty()) ph.Fail(e);
  if (!rr.rank_times_ns.empty()) {
    const auto [lo, hi] = std::minmax_element(rr.rank_times_ns.begin(),
                                              rr.rank_times_ns.end());
    ph.skew_vns = *hi - *lo;
  }
  if (tracing && ph.ok) {
    for (std::size_t r = 0; r < ph.ranks.size() && ph.tiling.empty(); ++r)
      ph.tiling = CheckTiling(ph.ranks[r], rr.rank_times_ns[r]);
  }
  return ph;
}

/// Run one serial phase on the calling thread (recorded as rank 0).
template <class Body>
Phase RunSerial(const char* kind, std::uint32_t job, bool tracing,
                Body&& body) {
  Phase ph;
  ph.kind = kind;
  ph.ranks.resize(1);
  iostat::Registry::Get().Reset();
  const std::int64_t h0 = ph.host_begin = HostNs();
  std::string err;
  {
    Recorder rec(ph.ranks[0], nullptr, tracing, job, 0);
    rec.BeginRank();
    body(rec, err);
    rec.EndRank();
  }
  ph.host_ns = HostNs() - h0;
  ph.rep = iostat::BuildReport();
  if (!err.empty()) ph.Fail(err);
  return ph;
}

std::string Why(const char* what, const pnc::Status& st) {
  return std::string(what) + ": " + st.message();
}

/// Workload::CreateDataset for a dataset at `path` whose variables
/// `define(ds)` declares.
template <class Define>
std::string CreateDatasetOn(const pfs::Config& cfg, int nprocs,
                            const char* path, Define&& define) {
  pfs::FileSystem fs(cfg);
  std::vector<std::string> errs(static_cast<std::size_t>(nprocs));
  simmpi::Run(
      nprocs,
      [&](simmpi::Comm& comm) {
        std::string& err = errs[static_cast<std::size_t>(comm.rank())];
        auto dsr = pnetcdf::Dataset::Create(comm, fs, path, simmpi::NullInfo());
        if (!dsr.ok()) return void(err = Why("set-up create", dsr.status()));
        auto ds = std::move(dsr).value();
        pnc::Status st = define(ds).status();
        if (st.ok()) st = ds.EndDef();
        if (st.ok()) st = ds.Close();
        if (!st.ok()) err = Why("set-up dataset", st);
      },
      Sp2Cost());
  for (const auto& e : errs)
    if (!e.empty()) return e;
  return "";
}

// ================================================================ lbl_rw

/// Figure 5's seven partitions as axis bitmasks (bit 0 = Z, 1 = Y, 2 = X).
constexpr unsigned kPartitions[] = {1u, 2u, 4u, 3u, 5u, 6u, 7u};
constexpr int kNumPartitions = 7;

class Lbl final : public Workload {
 public:
  explicit Lbl(const LblParams& p) : p_(p) {}

  int nprocs() const override { return p_.nprocs; }
  int cycle_len() const override { return kNumPartitions + 1; }

  void Setup(std::uint64_t seed) override {
    seed_ = seed;
    ref_.resize(p_.z * p_.y * p_.x);
    for (std::size_t i = 0; i < ref_.size(); ++i)
      ref_[i] = GenDouble(seed, 1, i);
  }

  std::string CreateDataset() const override {
    return CreateDatasetOn(SdscBlueHorizon(), p_.nprocs, "tt.nc",
                           [&](auto& ds) { return Define(ds, 0); });
  }

  std::uint64_t InputHash() const override {
    return Fnv(kFnvBasis, ref_.data(), ref_.size() * sizeof(double));
  }

  std::vector<int> CycleOrder(int c) const override {
    return Shuffle(kNumPartitions, seed_, 2, static_cast<std::uint64_t>(c));
  }

  std::vector<Phase> Job(int k, bool tracing) override {
    const int c = k / cycle_len(), j = k % cycle_len();
    pfs::FileSystem fs(SdscBlueHorizon());
    const auto job = static_cast<std::uint32_t>(k);
    if (j == 0) return {SerialWrite(fs, job, tracing)};
    // Job j writes with the cycle's j-th partition and reads back with the
    // next one, so every partition is written and read once per cycle.
    const auto order = CycleOrder(c);
    const unsigned wmask = kPartitions[order[static_cast<std::size_t>(j - 1)]];
    const unsigned rmask =
        kPartitions[order[static_cast<std::size_t>(j % kNumPartitions)]];
    std::vector<Phase> out;
    out.push_back(Write(fs, wmask, job, tracing));
    fs.ResetTime();
    if (out.back().ok) out.push_back(Read(fs, rmask, job, tracing));
    return out;
  }

 private:
  std::uint64_t bytes() const { return ref_.size() * sizeof(double); }

  /// Powers-of-two block decomposition of the array over the set axes of
  /// `mask`, as Figure 5 draws it.
  void Slab(unsigned mask, int rank, std::uint64_t start[3],
            std::uint64_t count[3]) const {
    int f[3] = {1, 1, 1};
    std::vector<int> axes;
    for (int d = 0; d < 3; ++d)
      if (mask & (1u << d)) axes.push_back(d);
    std::size_t i = 0;
    for (int rem = p_.nprocs; rem > 1; rem /= 2, ++i)
      f[axes[i % axes.size()]] *= 2;
    const std::uint64_t dims[3] = {p_.z, p_.y, p_.x};
    int rem = rank;
    for (int d = 2; d >= 0; --d) {
      const int coord = rem % f[d];
      rem /= f[d];
      count[d] = dims[d] / static_cast<std::uint64_t>(f[d]);
      start[d] = count[d] * static_cast<std::uint64_t>(coord);
    }
  }

  /// Copy the slab out of the reference array, or compare it against `buf`
  /// (returns false on the first differing element).
  bool SlabRows(const std::uint64_t start[3], const std::uint64_t count[3],
                std::vector<double>& buf, bool compare) const {
    if (!compare) buf.resize(count[0] * count[1] * count[2]);
    std::size_t o = 0;
    for (std::uint64_t zi = 0; zi < count[0]; ++zi)
      for (std::uint64_t yi = 0; yi < count[1]; ++yi) {
        const double* row =
            ref_.data() + ((start[0] + zi) * p_.y + start[1] + yi) * p_.x +
            start[2];
        const std::size_t n = count[2] * sizeof(double);
        if (compare) {
          if (std::memcmp(buf.data() + o, row, n) != 0) return false;
        } else {
          std::memcpy(buf.data() + o, row, n);
        }
        o += count[2];
      }
    return true;
  }

  pnc::Result<int> Define(auto& ds, std::uint32_t job) const {
    PNC_ASSIGN_OR_RETURN(int zd, ds.DefDim("level", p_.z));
    PNC_ASSIGN_OR_RETURN(int yd, ds.DefDim("latitude", p_.y));
    PNC_ASSIGN_OR_RETURN(int xd, ds.DefDim("longitude", p_.x));
    PNC_RETURN_IF_ERROR(ds.PutAttText(-1, "history", History(seed_, job)));
    return ds.DefVar("tt", NcType::kDouble, {zd, yd, xd});
  }

  Phase Write(pfs::FileSystem& fs, unsigned mask, std::uint32_t job,
              bool tracing) {
    Phase ph = RunParallel(
        "write", p_.nprocs, job, tracing,
        [&](simmpi::Comm& comm, Recorder& rec, std::string& err) {
          std::uint64_t start[3], count[3];
          Slab(mask, comm.rank(), start, count);
          std::vector<double> mine;
          SlabRows(start, count, mine, /*compare=*/false);

          SyncClocks(comm, rec);
          const double t0 = rec.vnow();
          auto dsr = rec("pnetcdf.create", [&] {
            return pnetcdf::Dataset::Create(comm, fs, "tt.nc",
                                            simmpi::NullInfo());
          });
          if (!dsr.ok()) return void(err = Why("create", dsr.status()));
          auto ds = std::move(dsr).value();
          auto v = rec("pnetcdf.def", [&] { return Define(ds, job); });
          if (!v.ok()) return void(err = Why("define", v.status()));
          pnc::Status st = rec("pnetcdf.enddef", [&] { return ds.EndDef(); });
          if (!st.ok()) return void(err = Why("enddef", st));
          const double s0 = rec.vnow();
          st = rec("pnetcdf.put", [&] {
            return ds.PutVaraAll<double>(v.value(), start, count, mine);
          });
          if (st.ok()) st = rec("pnetcdf.sync", [&] { return ds.Sync(); });
          if (!st.ok()) return void(err = Why("put/sync", st));
          rec.steps().push_back(rec.vnow() - s0);
          st = rec("pnetcdf.close", [&] { return ds.Close(); });
          if (!st.ok()) return void(err = Why("close", st));
          SyncClocks(comm, rec);
          if (comm.rank() == 0) out_vns_ = rec.vnow() - t0;
        });
    ph.vns = out_vns_;
    ph.bytes = bytes();
    return ph;
  }

  Phase Read(pfs::FileSystem& fs, unsigned mask, std::uint32_t job,
             bool tracing) {
    Phase ph = RunParallel(
        "read", p_.nprocs, job, tracing,
        [&](simmpi::Comm& comm, Recorder& rec, std::string& err) {
          std::uint64_t start[3], count[3];
          Slab(mask, comm.rank(), start, count);
          std::vector<double> got(count[0] * count[1] * count[2], -1.0);

          SyncClocks(comm, rec);
          const double t0 = rec.vnow();
          auto dsr = rec("pnetcdf.open", [&] {
            return pnetcdf::Dataset::Open(comm, fs, "tt.nc", false,
                                          simmpi::NullInfo());
          });
          if (!dsr.ok()) return void(err = Why("open", dsr.status()));
          auto ds = std::move(dsr).value();
          auto v = ds.VarId("tt");
          if (!v.ok()) return void(err = Why("varid", v.status()));
          pnc::Status st = rec("pnetcdf.get", [&] {
            return ds.GetVaraAll<double>(v.value(), start, count, got);
          });
          if (!st.ok()) return void(err = Why("get", st));
          st = rec("pnetcdf.close", [&] { return ds.Close(); });
          if (!st.ok()) return void(err = Why("close", st));
          SyncClocks(comm, rec);
          if (comm.rank() == 0) out_vns_ = rec.vnow() - t0;
          if (!SlabRows(start, count, got, /*compare=*/true))
            err = "read bytes differ from the generator";
        });
    ph.vns = out_vns_;
    ph.bytes = bytes();
    return ph;
  }

  /// The Figure 6 serial column: one process writes the whole array
  /// through serial netCDF in Z-slabs, then reads it back to check it.
  Phase SerialWrite(pfs::FileSystem& fs, std::uint32_t job, bool tracing) {
    double vns = 0;
    Phase ph = RunSerial("base", job, tracing, [&](Recorder& rec,
                                                   std::string& err) {
      auto dsr = rec("netcdf.create",
                     [&] { return netcdf::Dataset::Create(fs, "serial.nc"); });
      if (!dsr.ok()) return void(err = Why("create", dsr.status()));
      auto ds = std::move(dsr).value();
      ClockScope clock(rec, ds.clock());
      auto v = rec("netcdf.def", [&] { return Define(ds, job); });
      if (!v.ok()) return void(err = Why("define", v.status()));
      pnc::Status st = rec("netcdf.enddef", [&] { return ds.EndDef(); });
      if (!st.ok()) return void(err = Why("enddef", st));

      const std::uint64_t slabs = std::min<std::uint64_t>(p_.z, 8);
      const std::uint64_t zper = p_.z / slabs;
      const std::uint64_t slab_elems = zper * p_.y * p_.x;
      for (std::uint64_t s = 0; s < slabs && st.ok(); ++s) {
        const std::uint64_t start[] = {s * zper, 0, 0};
        const std::uint64_t count[] = {zper, p_.y, p_.x};
        st = rec("netcdf.put", [&] {
          return ds.PutVara<double>(
              v.value(), start, count,
              std::span<const double>(ref_.data() + s * slab_elems,
                                      slab_elems));
        });
      }
      if (st.ok()) st = rec("netcdf.sync", [&] { return ds.Sync(); });
      if (!st.ok()) return void(err = Why("put/sync", st));
      st = rec("netcdf.close", [&] { return ds.Close(); });
      if (!st.ok()) return void(err = Why("close", st));
      vns = rec.vnow();
    });
    ph.vns = vns;
    ph.bytes = bytes();
    if (ph.ok) {
      // Untimed check of every byte, outside the phase's counters.
      auto rr = netcdf::Dataset::Open(fs, "serial.nc", false);
      std::vector<double> got(ref_.size());
      pnc::Status st = rr.ok() ? rr.value().GetVar<double>(0, got) : rr.status();
      if (!st.ok())
        ph.Fail(Why("serial read back", st));
      else if (std::memcmp(got.data(), ref_.data(), bytes()) != 0)
        ph.Fail("serial file differs from the generator");
      if (rr.ok()) (void)rr.value().Close();
    }
    return ph;
  }

  LblParams p_;
  std::uint64_t seed_ = 0;
  std::vector<double> ref_;
  double out_vns_ = 0;  ///< rank 0's timed region of the last phase
};

// ============================================================ flash_ckpt

std::string FlashVarName(int v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "var%02d", v + 1);
  return buf;
}

class Flash final : public Workload {
 public:
  explicit Flash(const FlashParams& p) : p_(p) {
    cfg_.nxb = cfg_.nyb = cfg_.nzb = p.nxb;
    cfg_.blocks_per_proc = p.blocks_per_proc;
    cfg_.nvar = p.nvar;
  }

  int nprocs() const override { return p_.nprocs; }
  int cycle_len() const override { return 2; }

  void Setup(std::uint64_t seed) override {
    seed_ = seed;
    // File variable v holds generator unknown perm_[v]; the PnetCDF jobs
    // read back verify_ (a seeded subset of file variables).
    perm_ = Shuffle(p_.nvar, seed, 3, 0);
    verify_ = Shuffle(p_.nvar, seed, 4, 0);
    verify_.resize(static_cast<std::size_t>(p_.verify_vars));
    data_.clear();
    data_.reserve(static_cast<std::size_t>(p_.nprocs));
    for (int r = 0; r < p_.nprocs; ++r) data_.emplace_back(cfg_, r);
  }

  std::string CreateDataset() const override {
    return CreateDatasetOn(AsciFrost(), p_.nprocs, "flash.chk",
                           [&](pnetcdf::Dataset& ds) { return Define(ds, 0); });
  }

  std::uint64_t InputHash() const override {
    std::uint64_t h = Fnv(kFnvBasis, perm_.data(), perm_.size() * sizeof(int));
    h = Fnv(h, verify_.data(), verify_.size() * sizeof(int));
    std::vector<double> unk;
    for (const auto& d : data_) {
      h = Fnv(h, d.gid().data(), d.gid().size() * sizeof(std::int32_t));
      d.FillUnk(perm_[0], unk);
      h = Fnv(h, unk.data(), unk.size() * sizeof(double));
    }
    return h;
  }

  std::vector<int> CycleOrder(int) const override { return perm_; }

  std::vector<Phase> Job(int k, bool tracing) override {
    pfs::FileSystem fs(AsciFrost());
    const auto job = static_cast<std::uint32_t>(k);
    if (k % cycle_len() == 1) return {H5Write(fs, job, tracing)};
    std::vector<Phase> out;
    out.push_back(PncWrite(fs, job, tracing));
    fs.ResetTime();
    if (out.back().ok) out.push_back(PncRead(fs, job, tracing));
    return out;
  }

 private:
  std::uint64_t blocks() const {
    return static_cast<std::uint64_t>(p_.blocks_per_proc);
  }
  std::uint64_t write_bytes() const {
    return flashio::BytesPerProc(cfg_, flashio::FileKind::kCheckpoint) *
           static_cast<std::uint64_t>(p_.nprocs);
  }
  /// The checkpoint's header, as flash::WriteFlashPnetcdf defines it, plus
  /// the job's history attribute. Returns the ids of the nvar unknowns, then
  /// lrefine, nodetype, gid, coordinates, blocksize and bounding_box.
  pnc::Result<std::vector<int>> Define(pnetcdf::Dataset& ds,
                                       std::uint32_t job) const {
    const auto n = static_cast<std::uint64_t>(p_.nxb);
    PNC_ASSIGN_OR_RETURN(
        int d_blocks,
        ds.DefDim("tot_blocks",
                  blocks() * static_cast<std::uint64_t>(p_.nprocs)));
    PNC_ASSIGN_OR_RETURN(int d_z, ds.DefDim("nzb", n));
    PNC_ASSIGN_OR_RETURN(int d_y, ds.DefDim("nyb", n));
    PNC_ASSIGN_OR_RETURN(int d_x, ds.DefDim("nxb", n));
    std::vector<int> ids;
    for (int v = 0; v < p_.nvar; ++v) {
      PNC_ASSIGN_OR_RETURN(int id, ds.DefVar(FlashVarName(v), NcType::kDouble,
                                             {d_blocks, d_z, d_y, d_x}));
      ids.push_back(id);
    }
    PNC_ASSIGN_OR_RETURN(int d_dim, ds.DefDim("ndim", 3));
    PNC_ASSIGN_OR_RETURN(
        int d_gid, ds.DefDim("gid_entries", flashio::FlashData::kGidEntries));
    PNC_ASSIGN_OR_RETURN(int d_two, ds.DefDim("two", 2));
    struct MetaVar {
      const char* name;
      NcType type;
      std::vector<int> dims;
    };
    const MetaVar meta[] = {
        {"lrefine", NcType::kInt, {d_blocks}},
        {"nodetype", NcType::kInt, {d_blocks}},
        {"gid", NcType::kInt, {d_blocks, d_gid}},
        {"coordinates", NcType::kDouble, {d_blocks, d_dim}},
        {"blocksize", NcType::kDouble, {d_blocks, d_dim}},
        {"bounding_box", NcType::kDouble, {d_blocks, d_dim, d_two}}};
    for (const auto& m : meta) {
      PNC_ASSIGN_OR_RETURN(int id, ds.DefVar(m.name, m.type, m.dims));
      ids.push_back(id);
    }
    PNC_RETURN_IF_ERROR(
        ds.PutAttText(pnetcdf::kGlobal, "file_kind", "checkpoint"));
    PNC_RETURN_IF_ERROR(
        ds.PutAttText(pnetcdf::kGlobal, "history", History(seed_, job)));
    return ids;
  }

  /// Guarded in-memory block storage and its interior, FLASH's layout.
  void MemShape(std::uint64_t sizes[4], std::uint64_t sub[4],
                std::uint64_t mstart[4]) const {
    const auto n = static_cast<std::uint64_t>(p_.nxb);
    const auto g = static_cast<std::uint64_t>(cfg_.nguard);
    const std::uint64_t s[4] = {blocks(), n + 2 * g, n + 2 * g, n + 2 * g};
    const std::uint64_t u[4] = {blocks(), n, n, n};
    const std::uint64_t m[4] = {0, g, g, g};
    std::copy(s, s + 4, sizes);
    std::copy(u, u + 4, sub);
    std::copy(m, m + 4, mstart);
  }

  /// The FLASH checkpoint through PnetCDF, call for call as flash::
  /// WriteFlashPnetcdf issues it plus the job's history attribute, with
  /// each call in its own span.
  Phase PncWrite(pfs::FileSystem& fs, std::uint32_t job, bool tracing) {
    Phase ph = RunParallel(
        "write", p_.nprocs, job, tracing,
        [&](simmpi::Comm& comm, Recorder& rec, std::string& err) {
          const auto& data = data_[static_cast<std::size_t>(comm.rank())];
          const std::uint64_t b0 =
              blocks() * static_cast<std::uint64_t>(comm.rank());
          const auto n = static_cast<std::uint64_t>(p_.nxb);
          std::uint64_t msizes[4], msub[4], mstart[4];
          MemShape(msizes, msub, mstart);
          auto buftype = simmpi::Datatype::Subarray(msizes, msub, mstart,
                                                    simmpi::DoubleType());
          if (!buftype.ok()) return void(err = Why("subarray", buftype.status()));

          SyncClocks(comm, rec);
          const double t0 = rec.vnow();
          auto dsr = rec("pnetcdf.create", [&] {
            return pnetcdf::Dataset::Create(comm, fs, "flash.chk",
                                            simmpi::NullInfo());
          });
          if (!dsr.ok()) return void(err = Why("create", dsr.status()));
          auto ds = std::move(dsr).value();
          auto ids = rec("pnetcdf.def", [&] { return Define(ds, job); });
          if (!ids.ok()) return void(err = Why("define", ids.status()));
          const auto id = [&](int i) {
            return ids.value()[static_cast<std::size_t>(i)];
          };
          const int v_lref = id(p_.nvar), v_ntype = id(p_.nvar + 1),
                    v_gid = id(p_.nvar + 2), v_coord = id(p_.nvar + 3),
                    v_bsize = id(p_.nvar + 4), v_bnd = id(p_.nvar + 5);
          pnc::Status st = rec("pnetcdf.enddef", [&] { return ds.EndDef(); });
          if (!st.ok()) return void(err = Why("enddef", st));

          const std::uint64_t start[] = {b0, 0, 0, 0};
          const std::uint64_t count[] = {blocks(), n, n, n};
          std::vector<double> scratch;
          for (int v = 0; v < p_.nvar && st.ok(); ++v) {
            rec("flash.fill", [&] {
              data.FillUnk(perm_[static_cast<std::size_t>(v)], scratch);
              return 0;
            });
            const double s0 = rec.vnow();
            st = rec("pnetcdf.put", [&] {
              return ds.PutVaraAllFlex(id(v), start, count, scratch.data(), 1,
                                       buftype.value());
            });
            rec.steps().push_back(rec.vnow() - s0);
          }
          const std::uint64_t s1[] = {b0}, c1[] = {blocks()};
          const std::uint64_t s2[] = {b0, 0};
          const std::uint64_t c2g[] = {blocks(),
                                       flashio::FlashData::kGidEntries};
          const std::uint64_t c2d[] = {blocks(), 3};
          const std::uint64_t s3[] = {b0, 0, 0}, c3[] = {blocks(), 3, 2};
          const auto put = [&](auto&& f) {
            if (st.ok()) st = rec("pnetcdf.put", f);
          };
          put([&] { return ds.PutVaraAll<std::int32_t>(v_lref, s1, c1, data.lrefine()); });
          put([&] { return ds.PutVaraAll<std::int32_t>(v_ntype, s1, c1, data.nodetype()); });
          put([&] { return ds.PutVaraAll<std::int32_t>(v_gid, s2, c2g, data.gid()); });
          put([&] { return ds.PutVaraAll<double>(v_coord, s2, c2d, data.coord()); });
          put([&] { return ds.PutVaraAll<double>(v_bsize, s2, c2d, data.bsize()); });
          put([&] { return ds.PutVaraAll<double>(v_bnd, s3, c3, data.bnd_box()); });
          if (!st.ok()) return void(err = Why("put", st));
          st = rec("pnetcdf.close", [&] { return ds.Close(); });
          if (!st.ok()) return void(err = Why("close", st));
          SyncClocks(comm, rec);
          if (comm.rank() == 0) out_vns_ = rec.vnow() - t0;
        });
    ph.vns = out_vns_;
    ph.bytes = write_bytes();
    return ph;
  }

  /// Restart read of the seeded unknowns, compared in full (guard cells
  /// included) against the generator.
  Phase PncRead(pfs::FileSystem& fs, std::uint32_t job, bool tracing) {
    Phase ph = RunParallel(
        "read", p_.nprocs, job, tracing,
        [&](simmpi::Comm& comm, Recorder& rec, std::string& err) {
          const auto& data = data_[static_cast<std::size_t>(comm.rank())];
          const std::uint64_t b0 =
              blocks() * static_cast<std::uint64_t>(comm.rank());
          const auto n = static_cast<std::uint64_t>(p_.nxb);
          std::uint64_t msizes[4], msub[4], mstart[4];
          MemShape(msizes, msub, mstart);
          auto buftype = simmpi::Datatype::Subarray(msizes, msub, mstart,
                                                    simmpi::DoubleType());
          if (!buftype.ok()) return void(err = Why("subarray", buftype.status()));
          SyncClocks(comm, rec);
          const double t0 = rec.vnow();
          auto dsr = rec("pnetcdf.open", [&] {
            return pnetcdf::Dataset::Open(comm, fs, "flash.chk", false,
                                          simmpi::NullInfo());
          });
          if (!dsr.ok()) return void(err = Why("open", dsr.status()));
          auto ds = std::move(dsr).value();
          const std::uint64_t start[] = {b0, 0, 0, 0};
          const std::uint64_t count[] = {blocks(), n, n, n};
          std::vector<double> got, want;
          for (int v : verify_) {
            auto vid = ds.VarId(FlashVarName(v));
            if (!vid.ok()) return void(err = Why("varid", vid.status()));
            got.assign(pnc::ShapeProduct(msizes), -1.0);
            pnc::Status st = rec("pnetcdf.get", [&] {
              return ds.GetVaraAllFlex(vid.value(), start, count, got.data(),
                                       1, buftype.value());
            });
            if (!st.ok()) return void(err = Why("get", st));
            data.FillUnk(perm_[static_cast<std::size_t>(v)], want);
            if (got != want && err.empty())
              err = "restart read differs from the generator";
          }
          pnc::Status st = rec("pnetcdf.close", [&] { return ds.Close(); });
          if (!st.ok()) return void(err = Why("close", st));
          SyncClocks(comm, rec);
          if (comm.rank() == 0) out_vns_ = rec.vnow() - t0;
        });
    ph.vns = out_vns_;
    ph.bytes = static_cast<std::uint64_t>(p_.verify_vars) *
               static_cast<std::uint64_t>(p_.nprocs) * blocks() *
               cfg_.block_interior_elems() * sizeof(double);
    return ph;
  }

  /// The same checkpoint through hdf5lite, as flash::WriteFlashHdf5lite
  /// issues it, then an untimed read-back of the seeded unknowns.
  Phase H5Write(pfs::FileSystem& fs, std::uint32_t job, bool tracing) {
    std::string history = History(seed_, job);
    const std::uint64_t share =
        history.size() / static_cast<std::uint64_t>(p_.nprocs) + 1;
    history.resize(share * static_cast<std::uint64_t>(p_.nprocs), ' ');
    Phase ph = RunParallel(
        "base", p_.nprocs, job, tracing,
        [&](simmpi::Comm& comm, Recorder& rec, std::string& err) {
          const auto& data = data_[static_cast<std::size_t>(comm.rank())];
          const std::uint64_t b0 =
              blocks() * static_cast<std::uint64_t>(comm.rank());
          const auto n = static_cast<std::uint64_t>(p_.nxb);
          const std::uint64_t tot = blocks() * static_cast<std::uint64_t>(p_.nprocs);
          std::uint64_t msizes[4], msub[4], mstart[4];
          MemShape(msizes, msub, mstart);
          const std::uint64_t dims[] = {tot, n, n, n};
          const std::uint64_t start[] = {b0, 0, 0, 0};
          const std::uint64_t count[] = {blocks(), n, n, n};

          SyncClocks(comm, rec);
          const double t0 = rec.vnow();
          auto fr = rec("hdf5lite.create", [&] {
            return hdf5lite::File::Create(comm, fs, "flash.h5",
                                          simmpi::NullInfo());
          });
          if (!fr.ok()) return void(err = Why("create", fr.status()));
          auto f = std::move(fr).value();
          std::vector<double> scratch;
          pnc::Status st;
          const auto dataset = [&](const std::string& name, NcType t,
                                   std::span<const std::uint64_t> d,
                                   auto&& write) {
            if (!st.ok()) return;
            auto dsr = rec("hdf5lite.create_dataset",
                           [&] { return f.CreateDataset(name, t, d); });
            if (!dsr.ok()) return void(st = dsr.status());
            auto ds = std::move(dsr).value();
            st = rec("hdf5lite.write", [&] { return write(ds); });
            if (st.ok())
              st = rec("hdf5lite.close_dataset", [&] { return ds.Close(); });
          };
          for (int v = 0; v < p_.nvar; ++v) {
            data.FillUnk(perm_[static_cast<std::size_t>(v)], scratch);
            const double s0 = rec.vnow();
            dataset(FlashVarName(v), NcType::kDouble, dims,
                    [&](hdf5lite::Dataset& ds) {
                      return ds.Write(start, count, scratch.data(), msizes,
                                      mstart);
                    });
            rec.steps().push_back(rec.vnow() - s0);
          }
          const auto meta = [&](const char* name, NcType t,
                                std::vector<std::uint64_t> extra,
                                const void* buf) {
            std::vector<std::uint64_t> d{tot};
            d.insert(d.end(), extra.begin(), extra.end());
            std::vector<std::uint64_t> s(d.size(), 0), c = d;
            s[0] = b0;
            c[0] = blocks();
            dataset(name, t, d, [&](hdf5lite::Dataset& ds) {
              return ds.Write(s, c, buf);
            });
          };
          meta("lrefine", NcType::kInt, {}, data.lrefine().data());
          meta("nodetype", NcType::kInt, {}, data.nodetype().data());
          meta("gid", NcType::kInt,
               {static_cast<std::uint64_t>(flashio::FlashData::kGidEntries)},
               data.gid().data());
          meta("coordinates", NcType::kDouble, {3}, data.coord().data());
          meta("blocksize", NcType::kDouble, {3}, data.bsize().data());
          meta("bounding_box", NcType::kDouble, {3, 2}, data.bnd_box().data());
          // hdf5lite has no attributes: the history goes in a small dataset,
          // an equal share from every rank.
          const std::uint64_t hd[] = {history.size()};
          const std::uint64_t hs[] = {share * static_cast<std::uint64_t>(comm.rank())};
          const std::uint64_t hc[] = {share};
          dataset("history", NcType::kChar, hd, [&](hdf5lite::Dataset& ds) {
            return ds.Write(hs, hc, history.data() + hs[0]);
          });
          if (!st.ok()) return void(err = Why("write", st));
          st = rec("hdf5lite.close", [&] { return f.Close(); });
          if (!st.ok()) return void(err = Why("close", st));
          SyncClocks(comm, rec);
          if (comm.rank() == 0) out_vns_ = rec.vnow() - t0;
        });
    ph.vns = out_vns_;
    ph.bytes = write_bytes();
    if (!ph.ok) return ph;

    // Untimed check, outside the phase's counters and spans.
    std::vector<std::string> errs(static_cast<std::size_t>(p_.nprocs));
    simmpi::Run(
        p_.nprocs,
        [&](simmpi::Comm& comm) {
          std::string& err = errs[static_cast<std::size_t>(comm.rank())];
          const auto& data = data_[static_cast<std::size_t>(comm.rank())];
          const std::uint64_t b0 =
              blocks() * static_cast<std::uint64_t>(comm.rank());
          const auto n = static_cast<std::uint64_t>(p_.nxb);
          std::uint64_t msizes[4], msub[4], mstart[4];
          MemShape(msizes, msub, mstart);
          const std::uint64_t start[] = {b0, 0, 0, 0};
          const std::uint64_t count[] = {blocks(), n, n, n};
          auto fr = hdf5lite::File::Open(comm, fs, "flash.h5", false,
                                         simmpi::NullInfo());
          if (!fr.ok()) return void(err = Why("h5 open", fr.status()));
          auto f = std::move(fr).value();
          std::vector<double> got, want;
          for (int v : verify_) {
            auto dsr = f.OpenDataset(FlashVarName(v));
            if (!dsr.ok()) return void(err = Why("h5 dataset", dsr.status()));
            auto ds = std::move(dsr).value();
            got.assign(pnc::ShapeProduct(msizes), -1.0);
            pnc::Status st = ds.Read(start, count, got.data(), msizes, mstart);
            if (!st.ok()) return void(err = Why("h5 read", st));
            data.FillUnk(perm_[static_cast<std::size_t>(v)], want);
            if (got != want && err.empty())
              err = "hdf5lite read differs from the generator";
            st = ds.Close();
            if (!st.ok()) return void(err = Why("h5 dataset close", st));
          }
          pnc::Status st = f.Close();
          if (!st.ok() && err.empty()) err = Why("h5 close", st);
        },
        Sp2Cost());
    for (const auto& e : errs)
      if (!e.empty()) ph.Fail(e);
    return ph;
  }

  FlashParams p_;
  flashio::FlashConfig cfg_;
  std::uint64_t seed_ = 0;
  std::vector<int> perm_, verify_;
  std::vector<flashio::FlashData> data_;
  double out_vns_ = 0;
};

// ========================================================= record_append

class Append final : public Workload {
 public:
  explicit Append(const AppendParams& p) : p_(p) {}

  int nprocs() const override { return p_.nprocs; }
  int cycle_len() const override { return 2; }

  void Setup(std::uint64_t seed) override {
    seed_ = seed;
    series_.resize(static_cast<std::size_t>(p_.nvars) * rec_elems() *
                   static_cast<std::size_t>(p_.steps));
    const std::size_t per_var = series_.size() / static_cast<std::size_t>(p_.nvars);
    for (std::size_t i = 0; i < series_.size(); ++i)
      series_[i] = GenFloat(seed, 10 + i / per_var, i % per_var);
  }

  std::string CreateDataset() const override {
    return CreateDatasetOn(SdscBlueHorizon(), p_.nprocs, "series.nc",
                           [&](auto& ds) { return Define(ds, 0); });
  }

  std::uint64_t InputHash() const override {
    return Fnv(kFnvBasis, series_.data(), series_.size() * sizeof(float));
  }

  std::vector<int> CycleOrder(int) const override { return {0, 1}; }

  std::vector<Phase> Job(int k, bool tracing) override {
    pfs::FileSystem fs(SdscBlueHorizon());
    const auto job = static_cast<std::uint32_t>(k);
    if (k % cycle_len() == 1) return {SerialAppend(fs, job, tracing)};
    std::vector<Phase> out;
    out.push_back(ParallelAppend(fs, job, tracing));
    fs.ResetTime();
    if (out.back().ok) out.push_back(ReadBack(fs, "series.nc", job, tracing));
    return out;
  }

 private:
  std::uint64_t rec_elems() const { return p_.lat * p_.lon; }
  std::uint64_t bytes() const { return series_.size() * sizeof(float); }
  /// Variable v's slice at step t, from row lat0 on.
  const float* At(int v, std::uint64_t t, std::uint64_t lat0) const {
    return series_.data() +
           ((static_cast<std::uint64_t>(v) * static_cast<std::uint64_t>(p_.steps) +
             t) *
                p_.lat +
            lat0) *
               p_.lon;
  }

  pnc::Result<std::vector<int>> Define(auto& ds, std::uint32_t job) const {
    PNC_RETURN_IF_ERROR(ds.PutAttText(-1, "history", History(seed_, job)));
    PNC_ASSIGN_OR_RETURN(int td, ds.DefDim("time", 0));
    PNC_ASSIGN_OR_RETURN(int yd, ds.DefDim("lat", p_.lat));
    PNC_ASSIGN_OR_RETURN(int xd, ds.DefDim("lon", p_.lon));
    std::vector<int> ids;
    for (int v = 0; v < p_.nvars; ++v) {
      char name[16];
      std::snprintf(name, sizeof name, "field%d", v);
      PNC_ASSIGN_OR_RETURN(int id, ds.DefVar(name, NcType::kFloat, {td, yd, xd}));
      ids.push_back(id);
    }
    return ids;
  }

  /// Each step posts one IputVara per variable, then WaitAll and Sync.
  Phase ParallelAppend(pfs::FileSystem& fs, std::uint32_t job, bool tracing) {
    Phase ph = RunParallel(
        "write", p_.nprocs, job, tracing,
        [&](simmpi::Comm& comm, Recorder& rec, std::string& err) {
          SyncClocks(comm, rec);
          const double t0 = rec.vnow();
          auto dsr = rec("pnetcdf.create", [&] {
            return pnetcdf::Dataset::Create(comm, fs, "series.nc",
                                            simmpi::NullInfo());
          });
          if (!dsr.ok()) return void(err = Why("create", dsr.status()));
          auto ds = std::move(dsr).value();
          auto ids = rec("pnetcdf.def", [&] { return Define(ds, job); });
          if (!ids.ok()) return void(err = Why("define", ids.status()));
          pnc::Status st = rec("pnetcdf.enddef", [&] { return ds.EndDef(); });
          if (!st.ok()) return void(err = Why("enddef", st));

          pnetcdf::NonblockingQueue q(ds);
          const std::uint64_t per =
              p_.lat / static_cast<std::uint64_t>(comm.size());
          const std::uint64_t lat0 = per * static_cast<std::uint64_t>(comm.rank());
          for (int t = 0; t < p_.steps; ++t) {
            const double s0 = rec.vnow();
            const auto ut = static_cast<std::uint64_t>(t);
            const std::uint64_t start[] = {ut, lat0, 0};
            const std::uint64_t count[] = {1, per, p_.lon};
            for (int v = 0; v < p_.nvars; ++v) {
              auto id = rec("pnetcdf.iput", [&] {
                return q.IputVara<float>(
                    ids.value()[static_cast<std::size_t>(v)], start, count,
                    std::span<const float>(At(v, ut, lat0), per * p_.lon));
              });
              if (!id.ok()) return void(err = Why("iput", id.status()));
            }
            st = rec("pnetcdf.wait", [&] { return q.WaitAll(); });
            if (st.ok()) st = rec("pnetcdf.sync", [&] { return ds.Sync(); });
            if (!st.ok()) return void(err = Why("wait/sync", st));
            rec.steps().push_back(rec.vnow() - s0);
          }
          st = rec("pnetcdf.close", [&] { return ds.Close(); });
          if (!st.ok()) return void(err = Why("close", st));
          SyncClocks(comm, rec);
          if (comm.rank() == 0) out_vns_ = rec.vnow() - t0;
        });
    ph.vns = out_vns_;
    ph.bytes = bytes();
    return ph;
  }

  /// Serial read of every record of every variable, timed from Open to
  /// Close and checked against the generator, numrecs included.
  Phase ReadBack(pfs::FileSystem& fs, const char* path, std::uint32_t job,
                 bool tracing) {
    double vns = 0;
    Phase ph = RunSerial("read", job, tracing, [&](Recorder& rec,
                                                   std::string& err) {
      auto dsr = rec("netcdf.open",
                     [&] { return netcdf::Dataset::Open(fs, path, false); });
      if (!dsr.ok()) return void(err = Why("open", dsr.status()));
      auto ds = std::move(dsr).value();
      ClockScope clock(rec, ds.clock());
      if (ds.numrecs() != static_cast<std::uint64_t>(p_.steps))
        return void(err = "numrecs " + std::to_string(ds.numrecs()) +
                          ", expected " + std::to_string(p_.steps));
      const auto steps = static_cast<std::uint64_t>(p_.steps);
      std::vector<float> got(steps * rec_elems());
      for (int v = 0; v < p_.nvars; ++v) {
        char name[16];
        std::snprintf(name, sizeof name, "field%d", v);
        auto vid = ds.VarId(name);
        if (!vid.ok()) return void(err = Why("varid", vid.status()));
        const std::uint64_t start[] = {0, 0, 0};
        const std::uint64_t count[] = {steps, p_.lat, p_.lon};
        pnc::Status st = rec("netcdf.get", [&] {
          return ds.GetVara<float>(vid.value(), start, count, got);
        });
        if (!st.ok()) return void(err = Why("get", st));
        if (std::memcmp(got.data(), At(v, 0, 0), got.size() * sizeof(float)) !=
                0 &&
            err.empty())
          err = "records differ from the generator";
      }
      pnc::Status st = rec("netcdf.close", [&] { return ds.Close(); });
      if (!st.ok() && err.empty()) err = Why("close", st);
      vns = rec.vnow();
    });
    ph.vns = vns;
    ph.bytes = bytes();
    return ph;
  }

  /// The single-process baseline: the same series appended through serial
  /// netCDF, one Sync per step, then checked like the parallel file.
  Phase SerialAppend(pfs::FileSystem& fs, std::uint32_t job, bool tracing) {
    double vns = 0;
    Phase ph = RunSerial("base", job, tracing, [&](Recorder& rec,
                                                   std::string& err) {
      auto dsr = rec("netcdf.create",
                     [&] { return netcdf::Dataset::Create(fs, "serial.nc"); });
      if (!dsr.ok()) return void(err = Why("create", dsr.status()));
      auto ds = std::move(dsr).value();
      ClockScope clock(rec, ds.clock());
      auto ids = rec("netcdf.def", [&] { return Define(ds, job); });
      if (!ids.ok()) return void(err = Why("define", ids.status()));
      pnc::Status st = rec("netcdf.enddef", [&] { return ds.EndDef(); });
      if (!st.ok()) return void(err = Why("enddef", st));
      for (int t = 0; t < p_.steps && st.ok(); ++t) {
        const auto ut = static_cast<std::uint64_t>(t);
        const std::uint64_t start[] = {ut, 0, 0};
        const std::uint64_t count[] = {1, p_.lat, p_.lon};
        for (int v = 0; v < p_.nvars && st.ok(); ++v)
          st = rec("netcdf.put", [&] {
            return ds.PutVara<float>(
                ids.value()[static_cast<std::size_t>(v)], start, count,
                std::span<const float>(At(v, ut, 0), rec_elems()));
          });
        if (st.ok()) st = rec("netcdf.sync", [&] { return ds.Sync(); });
      }
      if (!st.ok()) return void(err = Why("put/sync", st));
      st = rec("netcdf.close", [&] { return ds.Close(); });
      if (!st.ok()) return void(err = Why("close", st));
      vns = rec.vnow();
    });
    ph.vns = vns;
    ph.bytes = bytes();
    if (ph.ok) {
      fs.ResetTime();
      Phase check = ReadBack(fs, "serial.nc", 0, false);
      if (!check.ok) ph.Fail("serial file: " + check.err);
    }
    return ph;
  }

  AppendParams p_;
  std::uint64_t seed_ = 0;
  std::vector<float> series_;  ///< [var][step][lat][lon]
  double out_vns_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeLbl(const LblParams& p) {
  return std::make_unique<Lbl>(p);
}
std::unique_ptr<Workload> MakeFlash(const FlashParams& p) {
  return std::make_unique<Flash>(p);
}
std::unique_ptr<Workload> MakeAppend(const AppendParams& p) {
  return std::make_unique<Append>(p);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "lbl_rw") return MakeLbl({});
  if (name == "flash_ckpt") return MakeFlash({});
  if (name == "record_append") return MakeAppend({});
  return nullptr;
}

}  // namespace perfbench
