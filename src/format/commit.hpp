// Atomic commit protocol: header, record count and chunk-sum table.
//
// A netCDF writer mutates two tiny metadata regions in place: the header
// (offset 0) and the record count (`numrecs`, offset 4). A crash mid-write
// tears either one, and every open path then trusts the torn bytes. The
// data region's chunk checksums (sums.hpp) must persist together with the
// record count they describe. This module commits all of it through one
// write-ordered sidecar journal, `<path>.nccommit`:
//
//   offset   0  magic "NCJL02\0\0"
//   offset   8  commit slot A (48 bytes)
//   offset  56  commit slot B (48 bytes)
//   offset 104  shadow header (header_len bytes)
//   then        chunk-sum table (table_len bytes; sums.hpp EncodeTable)
//
//   slot := seq u64 | header_len u64 | numrecs u64 | table_len u64
//           | header_crc u32 | table_crc u32 | flags u32 | rec_crc u32
//                                                    (all big-endian)
//
// A slot is valid when its rec_crc holds; the valid slot with the highest
// seq is the commit in force. `header_crc` is computed with the numrecs
// field zeroed, so the slot's `numrecs` is the authoritative record count.
// `flags` bit 0 is the session-OPEN marker: a writable session commits it
// set before any data write lands and clears it only in its closing commit.
// Only that closing commit carries the chunk-sum table; every OPEN commit
// has table_len 0, so a session that crashes after its open leaves no
// table to trust, only "unsummed".
//
// The primary header is the first commit in force. Creating a dataset only
// creates (truncates) the journal, and its first header commit (EndDef)
// writes the primary header alone and syncs it: with no earlier state to
// return to, there is nothing for a shadow to protect. From then on, and
// after any open whose journal holds no valid slot, the commit in force is
// the primary (PrimaryState: seq 0, no table). An empty or short journal,
// like one whose slots are zero, reads as "present, nothing committed".
//
// A commit takes one of two shapes. pfs tears a write as a prefix, and the
// tear argument for each shape is:
//
//   header commit (the header changed): write [shadow | table], sync, write
//     the new slot in the alternate A/B position, sync; the caller then
//     rewrites the primary header. A tear before the slot lands leaves the
//     previous commit in force: its header body is still in the primary
//     (every header commit syncs the primary before returning), and its
//     table — overwritten — fails table_crc and reads as unsummed. With
//     sums on, header commits only happen in writable sessions, whose
//     previous commit is already OPEN and carries no table, so no trusted
//     table is lost.
//   data commit (same header, new numrecs/table/flags): one write from
//     offset 8 through the table end, [slot A | slot B | shadow | table]
//     (no table for an OPEN commit: then just the slots and the shadow),
//     with the new slot in the alternate position and every other byte as
//     committed, then one sync. That is all a Sync writes: the slot is the
//     only place its record count goes. A tear inside the new slot leaves
//     the old slot and its table intact (nothing after the tear was
//     written, and the bytes before it are unchanged). A tear after the
//     new slot leaves the new numrecs in force with a table that fails
//     table_crc: unsummed, never wrong. The shadow bytes rewritten in
//     between differ from the committed ones at most in the numrecs field,
//     which header_crc skips.
//
// A commit over the primary (seq 0) takes the same shapes, except that its
// write starts at offset 0 and carries the magic, with both slots zeroed
// but the new one (slot A) in a data commit. The journal held no valid
// slot, so a torn prefix holds none either, or holds the new slot: the
// primary or the new commit is in force, never a hybrid.
//
// The primary's own numrecs field is written only by a header commit (the
// caller rewrites the whole primary header), by a closing commit (the
// caller then patches the field, WritePrimaryNumrecs) and by a repair. So
// between a Sync and the next Close or header commit the field trails the
// slot's count, and a closed file is a plain netCDF file again.
//
// A commit that restates the commit in force (the same header_len,
// header_crc, numrecs and flags, with no table on either side) writes
// nothing. That commit is already synced, and its header is already in the
// primary, so "a Sync that returns OK survives a reopen" needs no new
// write. With sums on, an OPEN commit carries no table, so there is nothing
// to refresh either: an idle Sync (no record grew) makes its data durable
// and commits nothing new. A caller that rewrites the primary after such a
// commit writes the bytes already there, which no tear can change.
//
// Recovery (open / ncverify): take the commit in force. If the primary's
// header prefix matches `header_crc` and its numrecs field is at or below
// the slot's, the file is clean: a trailing count is the normal state after
// a Sync (or a crash inside the closing patch), and the committed header
// carries the slot's count. A primary count above the slot's is a state the
// protocol never produces, so it is treated as torn. Otherwise the
// committed header is reconstructed from whichever of shadow/primary
// matches the CRC, with the slot's numrecs patched in — all-old or all-new,
// never a hybrid. With no valid slot the primary is in force: the file is
// clean when its header decodes, and otherwise crashed before its first
// commit.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "format/header.hpp"
#include "format/sums.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"

namespace ncformat {

/// Minimal storage interface the protocol drives. Implementations must route
/// through the fault-injected path (pfs Try*), typically with bounded retry;
/// `Read` zero-fills past EOF (pfs semantics).
class CommitIo {
 public:
  virtual ~CommitIo() = default;
  virtual pnc::Status Read(std::uint64_t offset, pnc::ByteSpan out) = 0;
  virtual pnc::Status Write(std::uint64_t offset, pnc::ConstByteSpan data) = 0;
  virtual pnc::Status Sync() = 0;
  virtual std::uint64_t Size() = 0;
};

constexpr std::uint64_t kJournalMagicLen = 8;
constexpr std::uint64_t kJournalSlotSize = 48;
constexpr std::uint64_t kJournalSlotOffset[2] = {8, 56};
constexpr std::uint64_t kJournalShadowOffset =
    kJournalMagicLen + 2 * kJournalSlotSize;  // 104
constexpr std::uint32_t kCommitFlagOpen = 1u;

/// The sidecar journal's path for a dataset path.
[[nodiscard]] std::string JournalPath(const std::string& path);

/// CRC32 over an encoded header with the 4-byte numrecs field (offset 4)
/// treated as zero.
[[nodiscard]] std::uint32_t HeaderCrc(pnc::ConstByteSpan header);

/// First byte of the data region as the chunk-sum table anchors it: the
/// lowest variable begin offset (alignment hints can push it past the
/// encoded header). 0 when no variables exist.
[[nodiscard]] std::uint64_t SumsDataBegin(const Header& h);

/// A decoded, CRC-valid commit slot.
struct CommitState {
  std::uint64_t seq = 0;
  std::uint64_t header_len = 0;
  std::uint64_t numrecs = 0;
  std::uint64_t table_len = 0;
  std::uint32_t header_crc = 0;
  std::uint32_t table_crc = 0;
  std::uint32_t flags = 0;
  int slot = 0;  ///< which slot (0 = A, 1 = B) held this commit

  [[nodiscard]] std::uint64_t table_offset() const {
    return kJournalShadowOffset + header_len;
  }
};

/// The primary as the commit in force: seq 0, `header` with `numrecs`
/// records, no table, session-OPEN when `open`. It holds no slot; the
/// first journal commit over it goes into slot A.
[[nodiscard]] CommitState PrimaryState(pnc::ConstByteSpan header,
                                       std::uint64_t numrecs, bool open);

/// How much of the journal a reader fetches in its first request. The
/// slots, the shadow and a small table all fit, so an open reads the
/// journal once, not once per piece.
constexpr std::uint64_t kJournalProbeBytes = 8 * 1024;

/// Parse the journal. nullopt = journal present but no committed state yet
/// (including an empty journal, or one whose first commit never landed in
/// full). kNotNc if a full-length prefix lacks the magic (not a journal).
/// Reads the first kJournalProbeBytes in one request; `prefix`, if given,
/// receives them.
[[nodiscard]] pnc::Result<std::optional<CommitState>> ReadCommitState(
    CommitIo& journal, std::vector<std::byte>* prefix = nullptr);

/// Durably commit `header` (its numrecs field is ignored) and the record
/// count `numrecs`. With `sums` given, an `open` commit sets the
/// session-OPEN flag and carries no table; a closing one (`!open`) carries
/// the encoded table. `state` is the commit in force (PrimaryState when
/// the journal holds no valid slot) and becomes the new one once the
/// commit point is durable. A data commit when `state` committed the same
/// header, else a header commit (see the file comment); a commit over the
/// primary starts at offset 0 and lays down the magic too. A restatement
/// of `state` with no table on either side writes nothing and leaves
/// `state` as it was.
[[nodiscard]] pnc::Status Commit(CommitIo& journal, pnc::ConstByteSpan header,
                                 std::uint64_t numrecs,
                                 const ChunkSumMap* sums, bool open,
                                 CommitState& state);

/// The trusted chunk-sum table committed with `s`, or nullopt when there
/// is none to trust: the commit carries no table (sums off, or an OPEN
/// commit), or the table fails table_crc on every one of `reread_attempts`
/// reads (a transient read-side flip must not silently disable
/// verification, so a mismatch is re-read before degrading). No trusted
/// table means every chunk is "unsummed": verification quietly off, never a
/// false corruption verdict. Only I/O errors are returned as bad status.
/// The first attempt uses `prefix` (the journal's first bytes, as
/// ReadCommitState read them) when it covers the table; re-reads go to
/// `journal`.
[[nodiscard]] pnc::Result<std::optional<ChunkSumMap>> ReadCommittedSums(
    CommitIo& journal, const CommitState& s, pnc::ConstByteSpan prefix = {},
    int reread_attempts = 4);

/// Verification verdict for one dataset + journal pair.
enum class FileState {
  kClean,            ///< primary matches the committed state, its count at
                     ///< or below the slot's (or no valid slot, or no
                     ///< journal, and the primary decodes)
  kTornRecoverable,  ///< primary torn/stale, committed state reconstructible;
                     ///< or the journal's magic is damaged, so what it
                     ///< committed is lost and the primary is in force
  kCorrupt,          ///< no committed state matches anything on disk
};

struct VerifyReport {
  FileState state = FileState::kCorrupt;
  bool has_journal = false;
  bool has_commit = false;
  std::string detail;
  CommitState committed;
  /// The committed header bytes (slot numrecs patched in): reconstructed
  /// when torn, the primary's own bytes when clean (with no valid slot, or
  /// no journal, the primary's header as it decodes), so an open need not
  /// read them again. Empty when kCorrupt.
  std::vector<std::byte> committed_header;
  /// Torn only in numrecs (bytes [4, 8)): the primary's header body matches
  /// the committed image, so its data region and sums are exact.
  bool numrecs_only = false;
  /// Clean, but the primary's numrecs field trails the slot's: the file was
  /// Synced since its last header commit or Close. A writable session's
  /// Close (or a repair) catches the field up.
  bool numrecs_lag = false;
  /// The journal's first bytes as read (ReadCommitState), for
  /// ReadCommittedSums.
  std::vector<std::byte> journal_prefix;
};

/// Classify the primary file against its journal and reconstruct the
/// committed header if recovery is needed. Pure analysis: writes nothing.
/// A null `journal` means the file has none (a legacy or externally
/// produced file); an existing but empty journal is passed as itself.
[[nodiscard]] pnc::Result<VerifyReport> AnalyzeCommit(CommitIo* journal,
                                                      CommitIo& primary);

/// Roll the primary back/forward to the committed state in `report`
/// (rewrites the header prefix and syncs). For kClean, catches a trailing
/// numrecs field up (WritePrimaryNumrecs) and is otherwise a no-op; so is
/// a damaged journal's report (no commit to roll to); fails for kCorrupt.
[[nodiscard]] pnc::Status RepairFromReport(const VerifyReport& report,
                                           CommitIo& primary);

/// Write `numrecs` into the primary's 4-byte numrecs field (offset 4) and
/// sync it: the one primary write a closing commit makes after its journal
/// commit, and the in-place update of a file without a journal.
[[nodiscard]] pnc::Status WritePrimaryNumrecs(CommitIo& primary,
                                              std::uint64_t numrecs);

}  // namespace ncformat
