// ncverify — fsck for classic netCDF files written through the commit
// journal (<file>.nccommit sidecar).
//
// Usage: ncverify [--repair] [--data] [-q] file.nc
//   --repair  roll a torn file back to its last committed state, in place,
//             and catch up a record count left trailing the journal's by a
//             Sync without a Close; with --data, also commit a
//             chunk-checksum table rebuilt from the current bytes (the new
//             baseline; a file without a journal gets a fresh one)
//   --data    scrub the data region against the chunk-checksum table the
//             journal committed: every chunk is classified clean / corrupt
//             / unsummed
//   -q        quiet: no per-file report, exit status only
//
// Exit status (the shared tool contract, src/tools/cli.hpp): 0 clean (or
// repaired), 1 torn-but-recoverable or unsummed-only scrub coverage, 2
// corrupt (crash state or failed checksums) or usage/IO error.
#include <cstdio>
#include <filesystem>
#include <string>

#include "tools/cli.hpp"
#include "tools/verify.hpp"

int main(int argc, char** argv) {
  nctools::Cli cli(argc, argv);
  nctools::VerifyOptions opts;
  opts.repair = cli.Flag("--repair");
  opts.data = cli.Flag("--data");
  const bool quiet = cli.Flag("-q");
  if (!cli.Unknown().empty() || cli.positionals().size() != 1) {
    std::fprintf(stderr, "usage: ncverify [--repair] [--data] [-q] file.nc\n");
    return nctools::kExitError;
  }
  const std::string& path_s = cli.positionals()[0];
  const char* path = path_s.c_str();

  pfs::FileSystem fs;
  if (!fs.AttachDisk(path, path).ok()) {
    std::fprintf(stderr, "ncverify: cannot open %s\n", path);
    return nctools::kExitError;
  }
  const std::string jpath = ncformat::JournalPath(path);
  std::error_code ec;
  if (std::filesystem::exists(jpath, ec)) {
    if (!fs.AttachDisk(jpath, jpath).ok()) {
      std::fprintf(stderr, "ncverify: cannot open %s\n", jpath.c_str());
      return nctools::kExitError;
    }
  } else if (opts.repair && opts.data && !fs.CreateOnDisk(jpath, jpath).ok()) {
    std::fprintf(stderr, "ncverify: cannot create %s\n", jpath.c_str());
    return nctools::kExitError;
  }

  auto r = nctools::VerifyFile(fs, path, opts);
  if (!r.ok()) {
    std::fprintf(stderr, "ncverify: %s\n", r.status().message().c_str());
    return nctools::kExitError;
  }
  const nctools::VerifyResult& v = r.value();
  if (!quiet) {
    const char* label = v.state == ncformat::FileState::kClean
                            ? (v.repaired ? "repaired" : "clean")
                            : v.state == ncformat::FileState::kTornRecoverable
                                  ? "torn (recoverable)"
                                  : "corrupt";
    std::printf("%s: %s — %s\n", path, label, v.detail.c_str());
    if (!v.has_journal) std::printf("  (no commit journal)\n");
    for (const auto& n : v.notes) std::printf("  note: %s\n", n.c_str());
    if (v.state == ncformat::FileState::kTornRecoverable && !opts.repair)
      std::printf("  run with --repair to restore the committed state\n");
    if (v.scrub) {
      const auto& s = *v.scrub;
      std::printf("  data: %llu clean, %llu corrupt, %llu unsummed (%s)\n",
                  static_cast<unsigned long long>(s.clean),
                  static_cast<unsigned long long>(s.corrupt),
                  static_cast<unsigned long long>(s.unsummed),
                  s.trusted ? "table trusted" : "table untrusted");
      for (const std::uint64_t c : s.corrupt_chunks)
        std::printf("  corrupt chunk %llu\n",
                    static_cast<unsigned long long>(c));
      if (v.sums_rebuilt)
        std::printf("  checksum table rebuilt from current bytes\n");
      else if (s.corrupt > 0)
        std::printf(
            "  restore the data, then run --data --repair to re-baseline\n");
    }
  }
  if (v.scrub && v.scrub->corrupt > 0 && !v.sums_rebuilt)
    return nctools::kExitError;
  switch (v.state) {
    case ncformat::FileState::kClean:
      if (v.scrub && !v.scrub->trusted && v.scrub->unsummed > 0 &&
          !v.sums_rebuilt)
        return nctools::kExitCondition;
      return nctools::kExitOk;
    case ncformat::FileState::kTornRecoverable:
      return nctools::kExitCondition;
    case ncformat::FileState::kCorrupt:
    default:
      return nctools::kExitError;
  }
}
