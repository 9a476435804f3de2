// Ablation: collective vs independent data mode (paper §4.1: "Using
// collective operations provides the underlying PnetCDF implementation an
// opportunity to further optimize access ... proven to provide dramatic
// performance improvement in multidimensional dataset access").
//
// The same Y-partitioned (interleaved) write is issued once through
// put_vara_all (collective) and once through begin_indep_data/put_vara
// (independent), per process count.
#include <cstdio>
#include <optional>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/platforms.hpp"
#include "bench/registry.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"

namespace {

double RunOne(int nprocs, bool collective, const simmpi::Info& info) {
  pfs::Config pcfg = bench::SdscBlueHorizon();
  pcfg.discard_data = true;
  pfs::FileSystem fs(pcfg);
  const std::uint64_t kZ = 128, kY = 128, kX = 64;
  double bw = 0.0;

  simmpi::Run(
      nprocs,
      [&](simmpi::Comm& comm) {
        auto ds = pnetcdf::Dataset::Create(comm, fs, "a.nc", info).value();
        const int zd = ds.DefDim("z", kZ).value();
        const int yd = ds.DefDim("y", kY).value();
        const int xd = ds.DefDim("x", kX).value();
        const int v =
            ds.DefVar("u", ncformat::NcType::kDouble, {zd, yd, xd}).value();
        (void)ds.EndDef();

        const std::uint64_t yper = kY / static_cast<std::uint64_t>(nprocs);
        const std::uint64_t start[] = {
            0, yper * static_cast<std::uint64_t>(comm.rank()), 0};
        const std::uint64_t count[] = {kZ, yper, kX};
        std::vector<double> mine(kZ * yper * kX, 3.5);

        comm.SyncClocksToMax();
        const double t0 = comm.clock().now();
        if (collective) {
          (void)ds.PutVaraAll<double>(v, start, count, mine);
        } else {
          (void)ds.BeginIndepData();
          (void)ds.PutVara<double>(v, start, count, mine);
          (void)ds.EndIndepData();
        }
        comm.SyncClocksToMax();
        if (comm.rank() == 0)
          bw = bench::MBps(kZ * kY * kX * 8, comm.clock().now() - t0);
        (void)ds.Close();
      },
      bench::Sp2Cost());
  return bw;
}

int Run(const bench::Args& args, bench::Recorder& rec) {
  const std::string mode = args.Get("mode", "both");
  simmpi::Info info;
  bench::ApplyHintOverrides(args, info);
  std::printf("Ablation: collective (_all) vs independent data mode\n");
  std::printf("Y-partitioned 8 MB write of u(128,128,64) doubles, 12-server "
              "platform\n\n");
  std::printf("%-8s %14s %14s %9s\n", "nprocs", "collective", "independent",
              "speedup");
  for (int np : bench::ProcsList(args, {2, 4, 8, 16})) {
    const auto config = [np](const char* m) {
      return bench::JsonObj()
          .Int("nprocs", static_cast<std::uint64_t>(np))
          .Str("mode", m);
    };
    std::optional<double> c, i;
    if (mode == "collective" || mode == "both") {
      rec.BeginConfig();
      c = RunOne(np, true, info);
      rec.EndConfig(config("collective"), bench::JsonObj().Num("mbps", *c));
    }
    if (mode == "independent" || mode == "both") {
      rec.BeginConfig();
      i = RunOne(np, false, info);
      rec.EndConfig(config("independent"), bench::JsonObj().Num("mbps", *i));
    }
    std::printf("%-8d %14s %14s %9s\n", np, bench::Cell(c, 1).c_str(),
                bench::Cell(i, 1).c_str(), bench::SpeedupCell(c, i).c_str());
  }
  return 0;
}

const bench::BenchDef kBench{
    "ablation_collective",
    "collective (_all) vs independent data mode on an interleaved write",
    {"mode", "procs"},
    Run};

}  // namespace

BENCH_REGISTER(kBench)
