// ncdump — print a netCDF file (classic format) as CDL.
//
// Usage: ncdump [-h] file.nc
//   -h   header only (no data: section)
//
// Works on real files produced by this library or by any classic-format
// netCDF writer.
#include <cstdio>
#include <cstring>

#include "tools/cdl.hpp"
#include "tools/verify.hpp"

int main(int argc, char** argv) {
  bool header_only = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-h") == 0) {
      header_only = true;
    } else {
      path = argv[i];
    }
  }
  if (!path) {
    std::fprintf(stderr, "usage: ncdump [-h] file.nc\n");
    return 2;
  }

  pfs::FileSystem fs;
  const pnc::Status attach = nctools::AttachDiskDataset(fs, path);
  if (!attach.ok()) {
    std::fprintf(stderr, "ncdump: cannot open %s: %s\n", path,
                 attach.message().c_str());
    return 1;
  }
  auto ds = netcdf::Dataset::Open(fs, path, /*writable=*/false);
  if (!ds.ok()) {
    std::fprintf(stderr, "ncdump: %s: %s\n", path,
                 ds.status().message().c_str());
    return 1;
  }

  // Dataset name: basename without extension, as ncdump prints it.
  std::string name = path;
  if (auto slash = name.find_last_of('/'); slash != std::string::npos)
    name = name.substr(slash + 1);
  if (auto dot = name.find_last_of('.'); dot != std::string::npos)
    name = name.substr(0, dot);

  auto cdl = nctools::DumpCdl(ds.value(), name, !header_only);
  if (!cdl.ok()) {
    std::fprintf(stderr, "ncdump: %s\n", cdl.status().message().c_str());
    return 1;
  }
  std::fputs(cdl.value().c_str(), stdout);
  return 0;
}
