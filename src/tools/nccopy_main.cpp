// nccopy — copy a netCDF file, optionally converting between the classic
// (CDF-1) and 64-bit-offset (CDF-2) variants.
//
// Usage: nccopy [-k 1|2] in.nc out.nc
#include <cstdio>
#include <cstring>

#include "tools/compare.hpp"
#include "tools/verify.hpp"

int main(int argc, char** argv) {
  nctools::CopyOptions opts;
  const char* paths[2] = {nullptr, nullptr};
  int npaths = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-k") == 0 && i + 1 < argc) {
      opts.use_cdf2 = std::strcmp(argv[++i], "2") == 0;
    } else if (npaths < 2) {
      paths[npaths++] = argv[i];
    }
  }
  if (npaths != 2) {
    std::fprintf(stderr, "usage: nccopy [-k 1|2] in.nc out.nc\n");
    return 2;
  }

  pfs::FileSystem fs;
  if (!nctools::AttachDiskDataset(fs, paths[0]).ok() ||
      !fs.CreateOnDisk(paths[1], paths[1]).ok()) {
    std::fprintf(stderr, "nccopy: cannot open files\n");
    return 2;
  }
  auto st = nctools::CopyDataset(fs, paths[0], paths[1], opts);
  if (!st.ok()) {
    std::fprintf(stderr, "nccopy: %s\n", st.message().c_str());
    return 1;
  }
  return 0;
}
