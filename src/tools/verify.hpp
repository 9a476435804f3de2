// ncverify — fsck-style crash-consistency check/repair for classic netCDF
// files written through the commit journal (format/commit.hpp).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "format/commit.hpp"
#include "pfs/pfs.hpp"

namespace nctools {

struct VerifyOptions {
  bool repair = false;  ///< roll a torn primary back to the committed state,
                        ///< catch a trailing record count up (and, with
                        ///< `data`, commit a rebuilt sum table)
  bool data = false;    ///< scrub the data region against the committed
                        ///< chunk-sum table
};

struct VerifyResult {
  ncformat::FileState state = ncformat::FileState::kCorrupt;
  bool has_journal = false;
  bool repaired = false;   ///< a repair was performed (state is post-repair)
  std::string detail;      ///< classification rationale
  std::vector<std::string> notes;  ///< extent-walk observations (non-fatal)
  /// Data scrub outcome (set only with opts.data): every chunk of the data
  /// region classified clean / corrupt / unsummed against the committed
  /// chunk-sum table.
  std::optional<ncformat::ScrubReport> scrub;
  bool sums_rebuilt = false;  ///< --repair --data committed a recomputed table
};

/// Attach the on-disk dataset `path` to `fs` as a reader needs it: the
/// primary and, when `<path>.nccommit` exists beside it, the commit journal.
/// The journal holds the record count a Sync committed, which the primary's
/// own field only catches up with at Close, so a reader without it would
/// see a file that was synced but never closed at its last Close.
pnc::Status AttachDiskDataset(pfs::FileSystem& fs, const std::string& path);

/// Classify `path` against its sidecar commit journal: kClean (primary
/// matches the committed state, its record count at or below the
/// journal's, or no journal and the header decodes), kTornRecoverable (a
/// crash tore the header or record count but the committed state is
/// reconstructible), or kCorrupt. With `opts.repair`, a torn file is
/// rewritten in place to the committed state, and a clean one whose record
/// count trails the journal's (Synced since its last Close) gets the
/// journal's count. After
/// classification the variable extents declared by the surviving header are
/// walked against the file size; anomalies that are legal under pfs
/// zero-fill semantics (e.g. unwritten tails) are reported as notes.
pnc::Result<VerifyResult> VerifyFile(pfs::FileSystem& fs,
                                     const std::string& path,
                                     const VerifyOptions& opts = {});

}  // namespace nctools
