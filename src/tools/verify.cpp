#include "tools/verify.hpp"

#include <algorithm>

#include "format/commit_pfs.hpp"
#include "format/header.hpp"
#include "simmpi/clock.hpp"

namespace nctools {

namespace {

using ncformat::FileState;
using ncformat::Header;

/// Stand-in journal for files that never had one: AnalyzeCommit sees an
/// empty store and takes its no-journal classification path.
class NullCommitIo final : public ncformat::CommitIo {
 public:
  pnc::Status Read(std::uint64_t, pnc::ByteSpan) override {
    return pnc::Status(pnc::Err::kIo, "no journal");
  }
  pnc::Status Write(std::uint64_t, pnc::ConstByteSpan) override {
    return pnc::Status(pnc::Err::kIo, "no journal");
  }
  pnc::Status Sync() override { return pnc::Status::Ok(); }
  std::uint64_t Size() override { return 0; }
};

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

/// First byte of the data region as the integrity layer anchors it: the
/// lowest variable begin offset (alignment hints can push it past the
/// encoded header size). 0 when no variables exist.
std::uint64_t MinVarBegin(const Header& h) {
  std::uint64_t db = 0;
  bool first = true;
  for (const auto& v : h.vars) {
    if (first || v.begin < db) db = v.begin;
    first = false;
  }
  return first ? 0 : db;
}

}  // namespace

pnc::Result<VerifyResult> VerifyFile(pfs::FileSystem& fs,
                                     const std::string& path,
                                     const VerifyOptions& opts) {
  VerifyResult out;
  simmpi::VirtualClock clock;

  auto pf = fs.Open(path);
  if (!pf.ok()) return pf.status();
  ncformat::PfsCommitIo primary(std::move(pf).value(), &clock);

  ncformat::VerifyReport rep;
  const std::string jpath = ncformat::JournalPath(path);
  if (fs.Exists(jpath)) {
    auto jf = fs.Open(jpath);
    if (!jf.ok()) return jf.status();
    ncformat::PfsCommitIo journal(std::move(jf).value(), &clock);
    auto r = ncformat::AnalyzeCommit(journal, primary);
    if (!r.ok()) return r.status();
    rep = std::move(r).value();
  } else {
    NullCommitIo none;
    auto r = ncformat::AnalyzeCommit(none, primary);
    if (!r.ok()) return r.status();
    rep = std::move(r).value();
  }

  out.state = rep.state;
  out.has_journal = rep.has_journal;
  out.detail = rep.detail;

  if (opts.repair && rep.state == FileState::kTornRecoverable) {
    PNC_RETURN_IF_ERROR(ncformat::RepairFromReport(rep, primary));
    out.repaired = true;
    out.state = FileState::kClean;
  }

  // Extent walk over whichever header survives: the primary for clean (or
  // just-repaired) files, the reconstructed committed image for torn ones.
  std::optional<Header> h;
  if (out.state == FileState::kTornRecoverable &&
      !rep.committed_header.empty()) {
    auto d = Header::Decode(rep.committed_header);
    if (d.ok()) h = std::move(d).value();
  } else if (out.state == FileState::kClean) {
    std::vector<std::byte> bytes(
        std::min<std::uint64_t>(primary.Size(), 64 * 1024));
    if (primary.Read(0, bytes).ok()) {
      auto d = Header::Decode(bytes);
      if (!d.ok() && d.status().code() == pnc::Err::kTrunc &&
          bytes.size() < primary.Size()) {
        bytes.resize(primary.Size());
        if (primary.Read(0, bytes).ok()) d = Header::Decode(bytes);
      }
      if (d.ok()) h = std::move(d).value();
    }
  }
  if (h) WalkExtents(*h, primary.Size(), out.notes);

  // Data scrub: classify every chunk of the data region against the .ncsum
  // sidecar. An untrusted sidecar (missing, torn, or left session-open by a
  // crash) yields an all-unsummed report — degraded coverage is reported,
  // never a false corruption verdict.
  if (opts.data) {
    const std::string spath = ncformat::SumsPath(path);
    std::optional<ncformat::PfsCommitIo> sio;
    ncformat::LoadedSums loaded;
    if (fs.Exists(spath)) {
      auto sf = fs.Open(spath);
      if (!sf.ok()) return sf.status();
      sio.emplace(std::move(sf).value(), &clock);
      auto l = ncformat::LoadSums(*sio);
      if (!l.ok()) return l.status();
      loaded = std::move(l).value();
    }
    const std::uint64_t db = h ? MinVarBegin(*h) : loaded.map.data_begin();
    if (loaded.trusted && h && loaded.map.data_begin() != db) {
      loaded.trusted = false;
      out.notes.push_back(
          "sum sidecar geometry disagrees with the header (stale sidecar?)");
    }
    if (!loaded.trusted || loaded.map.chunk_size() == 0) {
      loaded.map.Clear();
      loaded.map.SetGeometry(ncformat::SumChunkSize(), db);
    }
    const auto raw = [&primary](std::uint64_t off, pnc::ByteSpan b) {
      return primary.Read(off, b);
    };
    auto sr = ncformat::ScrubData(loaded.map, loaded.trusted, primary.Size(),
                                  raw);
    if (!sr.ok()) return sr.status();
    out.scrub = std::move(sr).value();

    // Rebuild: recompute every chunk from the current bytes and commit the
    // table closed — the caller vouches for the data; after this the
    // current bytes are the integrity baseline.
    if (opts.repair && h) {
      if (!sio) {
        auto sf = fs.Create(spath, /*exclusive=*/false);
        if (!sf.ok()) return sf.status();
        sio.emplace(std::move(sf).value(), &clock);
      }
      ncformat::SumsState state;
      PNC_RETURN_IF_ERROR(ncformat::RebuildSums(
          *sio, loaded.map.chunk_size(), db, primary.Size(), raw, &state));
      out.sums_rebuilt = true;
    }
  }
  return out;
}

}  // namespace nctools
