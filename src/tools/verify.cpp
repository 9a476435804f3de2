#include "tools/verify.hpp"

#include <algorithm>
#include <filesystem>

#include "format/commit_pfs.hpp"
#include "format/header.hpp"
#include "simmpi/clock.hpp"

namespace nctools {

namespace {

using ncformat::FileState;
using ncformat::Header;

/// Walk the variable extents the surviving header declares and note
/// anything odd. None of these are corruption by themselves — pfs reads
/// zero-fill past EOF, so a short file is a legal unwritten tail — but they
/// are exactly what an operator wants to see after a crash.
void WalkExtents(const Header& h, std::uint64_t file_size,
                 std::vector<std::string>& notes) {
  struct VarRange {
    std::uint64_t begin, end;
    const std::string* name;
  };
  std::vector<VarRange> fixed;
  std::uint64_t rec_begin = 0;
  bool has_rec = false;
  for (std::size_t i = 0; i < h.vars.size(); ++i) {
    const auto& v = h.vars[i];
    if (v.begin < h.data_begin()) {
      notes.push_back("variable '" + v.name +
                      "' begins inside the header region");
      continue;
    }
    if (h.IsRecordVar(static_cast<int>(i))) {
      rec_begin = has_rec ? std::min(rec_begin, v.begin) : v.begin;
      has_rec = true;
    } else {
      fixed.push_back({v.begin, v.begin + v.vsize, &v.name});
    }
  }
  std::sort(fixed.begin(), fixed.end(),
            [](const VarRange& a, const VarRange& b) {
              return a.begin < b.begin;
            });
  for (std::size_t i = 1; i < fixed.size(); ++i) {
    if (fixed[i].begin < fixed[i - 1].end)
      notes.push_back("variables '" + *fixed[i - 1].name + "' and '" +
                      *fixed[i].name + "' overlap");
  }
  if (has_rec && !fixed.empty() && rec_begin < fixed.back().end)
    notes.push_back("record section begins inside fixed variable '" +
                    *fixed.back().name + "'");
  const std::uint64_t expected = h.FileSize();
  if (file_size < expected)
    notes.push_back("file is " + std::to_string(expected - file_size) +
                    " bytes shorter than the header declares "
                    "(unwritten tail reads as fill)");
}

}  // namespace

pnc::Status AttachDiskDataset(pfs::FileSystem& fs, const std::string& path) {
  PNC_RETURN_IF_ERROR(fs.AttachDisk(path, path).status());
  const std::string jpath = ncformat::JournalPath(path);
  std::error_code ec;
  if (!std::filesystem::exists(jpath, ec)) return pnc::Status::Ok();
  return fs.AttachDisk(jpath, jpath).status();
}

pnc::Result<VerifyResult> VerifyFile(pfs::FileSystem& fs,
                                     const std::string& path,
                                     const VerifyOptions& opts) {
  VerifyResult out;
  simmpi::VirtualClock clock;

  auto pf = fs.Open(path);
  if (!pf.ok()) return pf.status();
  ncformat::PfsCommitIo primary(std::move(pf).value(), &clock);

  // A missing journal takes AnalyzeCommit's no-journal path; an existing
  // one, even empty, is analyzed as a journal.
  std::optional<ncformat::PfsCommitIo> journal;
  const std::string jpath = ncformat::JournalPath(path);
  if (fs.Exists(jpath)) {
    auto jf = fs.Open(jpath);
    if (!jf.ok()) return jf.status();
    journal.emplace(std::move(jf).value(), &clock);
  }
  auto r = ncformat::AnalyzeCommit(journal ? &*journal : nullptr, primary);
  if (!r.ok()) return r.status();
  const ncformat::VerifyReport rep = std::move(r).value();

  out.state = rep.state;
  out.has_journal = rep.has_journal;
  out.detail = rep.detail;

  // A torn primary is rolled to the committed state; a clean one whose
  // record count trails the slot's (Synced since its last Close) has the
  // count caught up. A damaged journal has nothing to roll to: only the
  // sums rebuild below lays it down again.
  if (opts.repair && rep.has_commit &&
      (rep.state == FileState::kTornRecoverable || rep.numrecs_lag)) {
    PNC_RETURN_IF_ERROR(ncformat::RepairFromReport(rep, primary));
    out.repaired = true;
    out.state = FileState::kClean;
  }

  // Extent walk over the header in force: the committed image (the slot's
  // record count in it) when the journal holds one, else the primary's.
  std::optional<Header> h;
  if (!rep.committed_header.empty()) {
    auto d = Header::Decode(rep.committed_header);
    if (d.ok()) h = std::move(d).value();
  }
  if (h) WalkExtents(*h, primary.Size(), out.notes);

  // Data scrub: classify every chunk of the data region against the table
  // the journal committed. An untrusted table (none, torn, or left
  // session-OPEN by a crash) yields an all-unsummed report — degraded
  // coverage is reported, never a false corruption verdict.
  if (opts.data) {
    std::optional<ncformat::ChunkSumMap> loaded;
    if (rep.has_commit) {
      PNC_ASSIGN_OR_RETURN(
          loaded, ncformat::ReadCommittedSums(*journal, rep.committed,
                                              rep.journal_prefix));
    }
    const std::uint64_t db = h         ? ncformat::SumsDataBegin(*h)
                             : loaded ? loaded->data_begin()
                                      : 0;
    if (loaded && loaded->data_begin() != db) {
      loaded.reset();
      out.notes.push_back(
          "chunk-sum table geometry disagrees with the header (stale table?)");
    }
    const bool trusted = loaded.has_value();
    ncformat::ChunkSumMap map =
        trusted ? *std::move(loaded) : ncformat::ChunkSumMap();
    if (map.chunk_size() == 0) {
      map.Clear();
      map.SetGeometry(ncformat::SumChunkSize(), db);
    }
    const auto raw = [&primary](std::uint64_t off, pnc::ByteSpan b) {
      return primary.Read(off, b);
    };
    auto sr = ncformat::ScrubData(map, trusted, primary.Size(), raw);
    if (!sr.ok()) return sr.status();
    out.scrub = std::move(sr).value();

    // Rebuild: recompute every chunk from the current bytes and commit the
    // table closed — the caller vouches for the data; after this the
    // current bytes are the integrity baseline. The commit re-references
    // the committed header, or, for a file without a journal (or with
    // nothing committed), starts a fresh journal from the primary's header
    // and record count.
    if (opts.repair && h) {
      PNC_ASSIGN_OR_RETURN(
          map, ncformat::RecomputeSums(map.chunk_size(), db, primary.Size(),
                                       raw));
      if (!journal) {
        auto jf = fs.Create(jpath, /*exclusive=*/false);
        if (!jf.ok()) return jf.status();
        journal.emplace(std::move(jf).value(), &clock);
      }
      const std::vector<std::byte>& header = rep.committed_header;
      ncformat::CommitState state =
          rep.has_commit
              ? rep.committed
              : ncformat::PrimaryState(header, h->numrecs, /*open=*/false);
      PNC_RETURN_IF_ERROR(ncformat::Commit(*journal, header, h->numrecs, &map,
                                           /*open=*/false, state));
      out.sums_rebuilt = true;
      if (out.state == FileState::kTornRecoverable) {  // a damaged journal
        out.state = FileState::kClean;
        out.repaired = true;
      }
    }
  }
  return out;
}

}  // namespace nctools
