// ncmpidiff — compare two netCDF files (classic format), like the tool the
// production PnetCDF ships.
//
// Usage: ncmpidiff [-t tolerance] [-h] a.nc b.nc
//   -t   absolute tolerance for floating-point data comparison
//   -h   header (schema + attributes) only, skip data
//
// Exit status: 0 identical, 1 different, 2 usage/IO error.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "tools/compare.hpp"
#include "tools/verify.hpp"

int main(int argc, char** argv) {
  nctools::DiffOptions opts;
  const char* paths[2] = {nullptr, nullptr};
  int npaths = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-t") == 0 && i + 1 < argc) {
      opts.tolerance = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "-h") == 0) {
      opts.compare_data = false;
    } else if (npaths < 2) {
      paths[npaths++] = argv[i];
    }
  }
  if (npaths != 2) {
    std::fprintf(stderr, "usage: ncmpidiff [-t tol] [-h] a.nc b.nc\n");
    return 2;
  }

  pfs::FileSystem fs;
  for (const char* p : paths) {
    if (!nctools::AttachDiskDataset(fs, p).ok()) {
      std::fprintf(stderr, "ncmpidiff: cannot open %s\n", p);
      return 2;
    }
  }
  auto a = netcdf::Dataset::Open(fs, paths[0], false);
  auto b = netcdf::Dataset::Open(fs, paths[1], false);
  if (!a.ok() || !b.ok()) {
    std::fprintf(stderr, "ncmpidiff: not a netCDF file\n");
    return 2;
  }
  auto r = nctools::CompareDatasets(a.value(), b.value(), opts);
  if (!r.ok()) {
    std::fprintf(stderr, "ncmpidiff: %s\n", r.status().message().c_str());
    return 2;
  }
  for (const auto& d : r.value().differences)
    std::printf("DIFF: %s\n", d.c_str());
  if (r.value().equal) {
    std::printf("Files are identical%s\n",
                opts.compare_data ? "" : " (headers)");
    return 0;
  }
  return 1;
}
