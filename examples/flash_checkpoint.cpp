// A miniature FLASH run writing a checkpoint through PnetCDF (§5.2).
//
// Sixteen ranks each hold 8 AMR blocks of 8^3 cells with 4
// guard cells; the checkpoint (all 24 unknowns + AMR tree metadata) is
// written collectively to a single netCDF file, which is then validated
// serially — the paper's FLASH I/O benchmark as an application example.
#include <cstdio>

#include "flash/flash.hpp"
#include "simmpi/runtime.hpp"

int main() {
  pfs::FileSystem fs;
  const int nprocs = 16;

  flashio::FlashConfig cfg;     // 8x8x8 blocks, 4 guard cells, 24 unknowns
  cfg.blocks_per_proc = 8;      // a small run; the benchmark uses 80

  auto result = simmpi::Run(nprocs, [&](simmpi::Comm& comm) {
    flashio::FlashData data(cfg, comm.rank());
    auto st = flashio::WriteFlashPnetcdf(comm, fs, "flash_chk_0001.nc", data,
                                         flashio::FileKind::kCheckpoint,
                                         simmpi::NullInfo());
    if (!st.ok() && comm.rank() == 0)
      std::fprintf(stderr, "checkpoint failed: %s\n", st.message().c_str());
  });

  const std::uint64_t total =
      flashio::BytesPerProc(cfg, flashio::FileKind::kCheckpoint) * nprocs;
  std::printf("checkpoint: %.1f MB from %d ranks in %.1f ms virtual time "
              "(%.1f MB/s aggregate)\n",
              static_cast<double>(total) / (1 << 20), nprocs,
              result.max_time_ns / 1e6,
              static_cast<double>(total) / result.max_time_ns * 1e3);

  auto st = flashio::ValidateFlashPnetcdf(fs, "flash_chk_0001.nc", cfg, nprocs,
                                          flashio::FileKind::kCheckpoint);
  std::printf("serial validation: %s\n", st.ok() ? "OK" : st.message().c_str());
  return st.ok() ? 0 : 1;
}
