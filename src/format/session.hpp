// One commit session per open dataset, shared by both libraries.
//
// The serial and the parallel library keep serial netCDF's define and data
// modes and its file format; only who performs the header I/O differs (in
// parallel the root does it and broadcasts the result, paper §4.1–4.2.1).
// So what a commit writes is decided here, once, and each library supplies
// a CommitPath: the I/O path the session drives.
//
// A session owns the journal (commit.hpp), the commit in force, the
// chunk-sum map (sums.hpp), the record count of the last commit and whether
// the primary's numrecs field trails it. It runs open recovery, and every
// header commit, Sync and Close goes through one pure function, PlanCommit,
// which decides the writes from a few facts about the session and one
// property of its path:
//
//   data sync   make every data write durable before anything that makes it
//               reachable commits;
//   resolve     turn the dirty chunks into table entries;
//   journal     one journal commit, session-OPEN (no table) or closing;
//   header      rewrite the primary header (synced when journaled);
//   patch       write the primary's numrecs field (WritePrimaryNumrecs).
//
// A created dataset's first header commit is its header alone: there is no
// earlier state for the journal to protect, so the primary becomes the
// commit in force (PrimaryState), as it is after an open whose journal
// holds no valid slot. The first journal commit then writes the journal
// from offset 0.
//
// The parallel path is root-performed: every process takes the data sync,
// the record-count agreement and the dirty-chunk gather; the root alone
// resolves, commits and patches, and its status is agreed. The serial path
// takes the same steps in one process.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "format/commit.hpp"
#include "format/header.hpp"
#include "format/sums.hpp"
#include "util/status.hpp"

namespace ncformat {

/// Where in a session a commit happens. Abort runs the kClose commit.
enum class CommitPoint { kOpen, kHeader, kSync, kClose };

/// What PlanCommit decides from.
struct CommitFacts {
  bool writable = false;
  bool journaled = false;     ///< the dataset has a journal
  bool sums = false;          ///< the chunk-sum map is armed
  bool grew = false;          ///< the record count moved since the last commit
  bool primary_lags = false;  ///< the primary's numrecs field trails it
  /// A created dataset before its first header commit: no earlier state on
  /// disk to protect. Its only data, the serial library's fill values,
  /// shares the header's write-back and sync.
  bool fresh = false;
  /// A property of the I/O path: data writes wait in a user-space
  /// write-back buffer, so every Sync and Close writes it back and syncs it,
  /// read-only sessions included, whether or not it commits anything.
  bool write_back = false;
};

/// The writes of one commit, in the order a session makes them.
struct CommitPlan {
  bool data_sync = false;
  bool resolve = false;
  bool journal = false;
  bool open = false;  ///< the journal commit keeps the session-OPEN flag
  bool header = false;
  bool patch = false;

  [[nodiscard]] bool writes() const {
    return resolve || journal || header || patch;
  }
};

/// The one decision of what an open, a header commit, a Sync or a Close
/// writes (see the file comment).
[[nodiscard]] CommitPlan PlanCommit(CommitPoint at, const CommitFacts& f);

/// One library's I/O path, as a session drives it. As a CommitIo it is the
/// primary on the data path: header reads, the dirty-chunk read-back and
/// the numrecs patch (Sync syncs the root's own writes).
class CommitPath : public CommitIo {
 public:
  /// CommitFacts::write_back.
  [[nodiscard]] virtual bool write_back() const = 0;
  /// This process performs the metadata I/O: the serial library's only
  /// process, the parallel library's root. Only it holds the journal.
  [[nodiscard]] virtual bool root() const { return true; }

  // ---- the root's storage ----
  [[nodiscard]] virtual bool JournalExists() = 0;
  /// The journal; `create` creates it empty (truncating a stale one).
  virtual pnc::Result<std::unique_ptr<CommitIo>> OpenJournal(bool create) = 0;
  /// The primary as recovery reads and repairs it: unbuffered, straight
  /// through the fault-injected path.
  virtual pnc::Result<std::unique_ptr<CommitIo>> OpenRawPrimary() = 0;
  /// Rewrite the primary header in place; the session syncs it.
  virtual pnc::Status WriteHeader(pnc::ConstByteSpan bytes) = 0;

  // ---- steps every process takes; one process has nothing to agree ----
  /// Make every process's data writes durable.
  virtual pnc::Status SyncData() = 0;
  /// The largest `v` of any process, on every process.
  virtual pnc::Status MaxAcross(std::uint64_t&) { return pnc::Status::Ok(); }
  /// The root's value / bytes on every process.
  virtual pnc::Status ShareValue(int&) { return pnc::Status::Ok(); }
  virtual pnc::Status Share(std::vector<std::byte>&) {
    return pnc::Status::Ok();
  }
  virtual pnc::Status Barrier() { return pnc::Status::Ok(); }
  /// Every process's dirty chunks, merged into the root's `sums`.
  virtual pnc::Status GatherDirty(ChunkSumMap&) { return pnc::Status::Ok(); }
};

class CommitSession {
 public:
  /// `path` must outlive the session.
  CommitSession(CommitPath& path, bool writable)
      : path_(path), writable_(writable) {}

  /// A fresh dataset: the root creates the journal empty; the first header
  /// commit writes the primary header alone, and the first journal commit
  /// the magic. Sums are armed per PNC_SUMS, geometry at the first
  /// LayoutSums.
  pnc::Status Create();
  /// Open recovery, then the committed header (read by the root and shared,
  /// §4.2.1), then the sums: a read-only session verifies against a trusted
  /// table, a writable one makes its session-OPEN commit before any data
  /// write can land, starting a journal if the file has none. `what` names
  /// a failure on processes other than the root.
  pnc::Result<Header> Open(const std::string& what);
  /// EndDef: the sum geometry follows the (possibly moved) data region of
  /// `h`. When it moved and `had_data`, the root re-sums every existing
  /// byte at the next flush.
  void LayoutSums(const Header& h, bool had_data);
  /// A header commit (kHeader), Sync (kSync) or Close (kClose) of `h`. Sync
  /// and Close first agree on the record count, the largest any process
  /// holds, and leave it in `h.numrecs`.
  pnc::Status Commit(CommitPoint at, Header& h);
  /// Drop the journal handle: an aborted create removes the files.
  void Release() { journal_.reset(); }

  [[nodiscard]] bool sums_on() const { return sums_on_; }
  [[nodiscard]] ChunkSumMap& sums() { return sums_; }

 private:
  /// The root's status on every process: its own on the root, the code
  /// and `what` elsewhere.
  pnc::Status Shared(pnc::Status st, const char* what);
  pnc::Status Recover(bool& torn, std::vector<std::byte>& committed,
                      std::vector<std::byte>& prefix);
  pnc::Status OpenSums(const Header& h, bool torn, pnc::ConstByteSpan prefix,
                       std::vector<std::byte>& table);
  pnc::Status RootCommit(const CommitPlan& p, const Header& h);
  [[nodiscard]] CommitFacts Facts(bool grew) const;

  CommitPath& path_;
  bool writable_;
  bool journaled_ = false;  ///< the same on every process
  std::unique_ptr<CommitIo> journal_;  ///< root only
  /// Root only: the commit in force, PrimaryState while the journal holds
  /// no valid slot; empty before a created dataset's first header commit.
  std::optional<CommitState> state_;
  bool fresh_ = false;  ///< CommitFacts::fresh, the same on every process
  // The map every process keeps: the geometry and the chunks its own writes
  // dirtied; on the root also the committed entries, which it alone
  // resolves the gathered chunks against. A read-only parallel session
  // gives every process the whole trusted table.
  ChunkSumMap sums_;
  bool sums_on_ = false;  ///< the same on every process
  // The record count of the last commit and whether the primary's numrecs
  // field trails it (a Sync commits the count to the journal slot alone;
  // Close and header commits catch the field up). Both the same on every
  // process.
  std::uint64_t committed_numrecs_ = 0;
  bool primary_lags_ = false;
};

}  // namespace ncformat
