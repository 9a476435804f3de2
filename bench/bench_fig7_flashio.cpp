// Figure 7 reproduction: the FLASH I/O benchmark, PnetCDF vs parallel HDF5
// (here: the hdf5lite baseline), on an ASCI White Frost-like platform with a
// 2-node I/O system.
//
// Six charts: {checkpoint, plotfile, plotfile w/ corners} x {8^3, 16^3}
// blocks, aggregate write bandwidth vs number of processors. Each process
// holds 80 AMR blocks; checkpoints write 24 double-precision unknowns plus
// tree metadata (~8 MB/proc at 8^3, ~60 MB/proc at 16^3), plotfiles write 4
// single-precision variables (~1 MB and ~6 MB/proc).
//
// Usage: bench_fig7_flashio [--file=checkpoint|plotfile|corners|all]
//                           [--block=8|16|all] [--procs=4,8,16,32,64]
//                           [--lib=pnetcdf|hdf5lite|both] [--quick]
//                           [--hints=k=v,...] [--json=BENCH_fig7.json]
//                           [--trace=flash.trace.json]
//
// --trace (a driver-level bench::Recorder flag, available on every bench)
// writes a Chrome trace-event timeline (chrome://tracing / Perfetto) of the
// most recent configuration.
#include <cstdio>
#include <string>

#include "bench/bench_common.hpp"
#include "bench/platforms.hpp"
#include "bench/registry.hpp"
#include "flash/flash.hpp"
#include "simmpi/runtime.hpp"

namespace {

using bench::Args;
using bench::MBps;
using flashio::FileKind;
using flashio::FlashConfig;
using flashio::FlashData;

double RunOne(const FlashConfig& cfg, FileKind kind, int nprocs,
              bool use_pnetcdf, const simmpi::Info& info) {
  pfs::Config pcfg = bench::AsciFrost();
  pcfg.discard_data = true;
  pfs::FileSystem fs(pcfg);
  const std::uint64_t total_bytes =
      flashio::BytesPerProc(cfg, kind) * static_cast<std::uint64_t>(nprocs);
  double bw = 0.0;

  simmpi::Run(
      nprocs,
      [&](simmpi::Comm& comm) {
        FlashData data(cfg, comm.rank());
        comm.SyncClocksToMax();
        const double t0 = comm.clock().now();
        pnc::Status st =
            use_pnetcdf
                ? flashio::WriteFlashPnetcdf(comm, fs, "flash.out", data, kind,
                                             info)
                : flashio::WriteFlashHdf5lite(comm, fs, "flash.out", data,
                                              kind, info);
        if (!st.ok()) {
          if (comm.rank() == 0)
            std::fprintf(stderr, "write failed: %s\n", st.message().c_str());
          return;
        }
        comm.SyncClocksToMax();
        if (comm.rank() == 0) bw = MBps(total_bytes, comm.clock().now() - t0);
      },
      bench::Sp2Cost());
  return bw;
}

const char* KindName(FileKind k) {
  switch (k) {
    case FileKind::kCheckpoint: return "Checkpoint";
    case FileKind::kPlotfile: return "Plotfiles";
    case FileKind::kPlotfileCorners: return "Plotfiles w/corners";
  }
  return "?";
}

void RunChart(FileKind kind, int block, const std::vector<int>& procs,
              bench::Recorder& rec, bool run_pnetcdf, bool run_hdf5lite,
              const simmpi::Info& info) {
  FlashConfig cfg;
  cfg.nxb = cfg.nyb = cfg.nzb = block;
  std::printf("\n=== Figure 7: Flash I/O Benchmark (%s, %dx%dx%d) ===\n",
              KindName(kind), block, block, block);
  std::printf("(aggregate write bandwidth, MB/s; %d blocks/proc, %.1f "
              "MB/proc)\n",
              cfg.blocks_per_proc,
              static_cast<double>(flashio::BytesPerProc(cfg, kind)) /
                  (1 << 20));
  std::printf("%-8s %12s %12s %8s\n", "nprocs", "PnetCDF", "HDF5(lite)",
              "ratio");
  const auto config = [&](int np, const char* lib) {
    return bench::JsonObj()
        .Str("file", KindName(kind))
        .Int("block", static_cast<std::uint64_t>(block))
        .Int("nprocs", static_cast<std::uint64_t>(np))
        .Str("lib", lib);
  };
  for (int np : procs) {
    double pnc_bw = 0.0, h5_bw = 0.0;
    if (run_pnetcdf) {
      rec.BeginConfig();
      pnc_bw = RunOne(cfg, kind, np, /*use_pnetcdf=*/true, info);
      rec.EndConfig(config(np, "pnetcdf"), bench::JsonObj().Num("mbps", pnc_bw));
    }
    if (run_hdf5lite) {
      rec.BeginConfig();
      h5_bw = RunOne(cfg, kind, np, /*use_pnetcdf=*/false, info);
      rec.EndConfig(config(np, "hdf5lite"), bench::JsonObj().Num("mbps", h5_bw));
    }
    std::printf("%-8d %12.1f %12.1f %7.2fx\n", np, pnc_bw, h5_bw,
                h5_bw > 0 ? pnc_bw / h5_bw : 0.0);
    std::fflush(stdout);
  }
}

int Run(const Args& args, bench::Recorder& rec) {
  const std::string file = args.Get("file", "all");
  const std::string block = args.Get("block", "all");
  const std::string lib = args.Get("lib", "both");
  const bool quick = args.Has("quick");
  simmpi::Info info;
  bench::ApplyHintOverrides(args, info);

  // The paper sweeps 16..512 processes on 1024-way hardware; the default
  // here stops at 64 ranks to keep host memory (each rank holds its FLASH
  // data) and wall time in check (--procs extends it; the virtual-time model is the same).
  const std::vector<int> procs = bench::ProcsList(
      args, quick ? std::vector<int>{4, 16}
                  : std::vector<int>{4, 8, 16, 32, 64});

  std::printf("PnetCDF reproduction - Figure 7 FLASH I/O benchmark\n");
  std::printf("Platform: ASCI White Frost-like (2-node GPFS I/O system)\n");

  std::vector<FileKind> kinds;
  if (file == "checkpoint" || file == "all")
    kinds.push_back(FileKind::kCheckpoint);
  if (file == "plotfile" || file == "all") kinds.push_back(FileKind::kPlotfile);
  if (file == "corners" || file == "all")
    kinds.push_back(FileKind::kPlotfileCorners);
  std::vector<int> blocks;
  if (block == "8" || block == "all") blocks.push_back(8);
  if (block == "16" || block == "all") blocks.push_back(16);

  for (int b : blocks)
    for (auto k : kinds) {
      // 16^3 checkpoints are ~60 MB/proc; cap the sweep to bound host RAM.
      std::vector<int> p = procs;
      if (b == 16 && k == FileKind::kCheckpoint && !args.Has("procs")) {
        while (!p.empty() && p.back() > 32) p.pop_back();
      }
      RunChart(k, b, p, rec, lib != "hdf5lite", lib != "pnetcdf", info);
    }
  return 0;
}

const bench::BenchDef kBench{
    "fig7_flashio",
    "Figure 7: FLASH I/O checkpoint/plotfile writes, PnetCDF vs hdf5lite",
    {"file", "block", "procs", "lib", "quick"},
    Run};

}  // namespace

BENCH_REGISTER(kBench)
