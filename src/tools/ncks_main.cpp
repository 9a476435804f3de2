// ncks — the "kitchen sink" subset extractor, NCO-style.
//
// Usage: ncks [-v var1,var2,...] [-d dim,min,max]... in.nc out.nc
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "tools/subset.hpp"
#include "tools/verify.hpp"

int main(int argc, char** argv) {
  nctools::SubsetOptions opts;
  const char* paths[2] = {nullptr, nullptr};
  int npaths = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-v") == 0 && i + 1 < argc) {
      std::string list = argv[++i];
      std::size_t pos = 0;
      while (pos < list.size()) {
        const auto comma = list.find(',', pos);
        opts.variables.push_back(list.substr(pos, comma - pos));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (std::strcmp(argv[i], "-d") == 0 && i + 1 < argc) {
      std::string spec = argv[++i];
      nctools::SubsetOptions::DimRange r;
      const auto c1 = spec.find(',');
      const auto c2 = spec.find(',', c1 + 1);
      if (c1 == std::string::npos || c2 == std::string::npos) {
        std::fprintf(stderr, "ncks: bad -d spec '%s'\n", spec.c_str());
        return 2;
      }
      r.dim = spec.substr(0, c1);
      r.min = std::strtoull(spec.c_str() + c1 + 1, nullptr, 10);
      r.max = std::strtoull(spec.c_str() + c2 + 1, nullptr, 10);
      opts.ranges.push_back(std::move(r));
    } else if (npaths < 2) {
      paths[npaths++] = argv[i];
    }
  }
  if (npaths != 2) {
    std::fprintf(stderr,
                 "usage: ncks [-v vars] [-d dim,min,max] in.nc out.nc\n");
    return 2;
  }

  pfs::FileSystem fs;
  if (!nctools::AttachDiskDataset(fs, paths[0]).ok() ||
      !fs.CreateOnDisk(paths[1], paths[1]).ok()) {
    std::fprintf(stderr, "ncks: cannot open files\n");
    return 2;
  }
  auto st = nctools::ExtractSubset(fs, paths[0], paths[1], opts);
  if (!st.ok()) {
    std::fprintf(stderr, "ncks: %s\n", st.message().c_str());
    return 1;
  }
  return 0;
}
