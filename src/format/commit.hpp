// Atomic header/numrecs commit protocol (crash consistency).
//
// A netCDF writer mutates two tiny metadata regions in place: the header
// (offset 0) and the record count (`numrecs`, offset 4). A crash mid-write
// tears either one, and every open path then trusts the torn bytes. This
// module makes both updates atomic with a write-ordered sidecar journal,
// `<path>.nccommit`:
//
//   offset  0  magic "NCJL01\0\0"
//   offset  8  commit slot A (32 bytes)
//   offset 40  commit slot B (32 bytes)
//   offset 72  shadow header bytes
//
//   slot := seq u64 | header_len u64 | numrecs u64 | header_crc u32
//           | rec_crc u32                        (all big-endian)
//
// Dataset creation only creates (truncates) the journal; nothing is written
// until the first header commit, whose shadow write carries the magic and
// two zeroed slots from offset 0. An empty or short journal therefore reads
// as "present, nothing committed", exactly like one whose slots are zero.
//
// Header commit: write the shadow header, sync, then write one 32-byte slot
// (alternating A/B so the previous commit survives a torn slot write), sync,
// and only then update the primary file in place. Numrecs commit: the data
// writes land and sync first, then a new slot re-referencing the unchanged
// shadow carries the grown count, then the primary's 4-byte numrecs field.
// The commit point is the slot write — a single small write whose CRC makes
// tearing detectable. `header_crc` is computed with the numrecs field zeroed
// so numrecs-only commits do not invalidate it; the slot's `numrecs` is the
// authoritative record count.
//
// Recovery (open / ncverify): pick the valid slot with the highest seq. If
// the primary's header prefix matches `header_crc` and its numrecs field
// matches the slot, the file is clean. Otherwise the committed header is
// reconstructed from whichever of shadow/primary matches the CRC, with the
// slot's numrecs patched in — all-old or all-new, never a hybrid.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "format/header.hpp"
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
constexpr std::uint64_t kJournalSlotSize = 32;
constexpr std::uint64_t kJournalSlotOffset[2] = {8, 40};
constexpr std::uint64_t kJournalShadowOffset =
    kJournalMagicLen + 2 * kJournalSlotSize;  // 72

/// The sidecar journal's path for a dataset path.
[[nodiscard]] std::string JournalPath(const std::string& path);

/// CRC32 over an encoded header with the 4-byte numrecs field (offset 4)
/// treated as zero.
[[nodiscard]] std::uint32_t HeaderCrc(pnc::ConstByteSpan header);

/// A decoded, CRC-valid commit slot.
struct CommitState {
  std::uint64_t seq = 0;
  std::uint64_t header_len = 0;
  std::uint64_t numrecs = 0;
  std::uint32_t header_crc = 0;
  int slot = 0;  ///< which slot (0 = A, 1 = B) held this commit
};

/// Parse the journal. nullopt = journal present but no committed state yet
/// (including an empty journal, or one whose first commit never landed in
/// full). kNotNc if a full-length prefix lacks the magic (not a journal).
[[nodiscard]] pnc::Result<std::optional<CommitState>> ReadCommitState(
    CommitIo& journal);

/// Durably commit a full header image: shadow write, sync, slot write (the
/// commit point), sync. The caller updates the primary file afterwards.
/// `prev` is the current committed state (slot alternation + seq); `out`
/// receives the new state. Without `prev` the shadow write starts at offset
/// 0 and lays down the magic and both zeroed slots too.
[[nodiscard]] pnc::Status CommitHeaderToJournal(
    CommitIo& journal, pnc::ConstByteSpan header, std::uint64_t numrecs,
    const std::optional<CommitState>& prev, CommitState* out);

/// Durably commit a new record count against the already-committed header.
/// The caller must have synced the record data writes first ("record-count
/// grows only after data writes land") and updates the primary's numrecs
/// field afterwards.
[[nodiscard]] pnc::Status CommitNumrecsToJournal(CommitIo& journal,
                                                 const CommitState& cur,
                                                 std::uint64_t numrecs,
                                                 CommitState* out);

/// Verification verdict for one dataset + journal pair.
enum class FileState {
  kClean,            ///< primary matches the committed state (or no journal
                     ///< and the primary decodes)
  kTornRecoverable,  ///< primary torn/stale, committed state reconstructible
  kCorrupt,          ///< no committed state matches anything on disk
};

struct VerifyReport {
  FileState state = FileState::kCorrupt;
  bool has_journal = false;
  bool has_commit = false;
  std::string detail;
  CommitState committed;
  /// The committed header bytes (slot numrecs patched in). Empty when there
  /// is nothing to restore from.
  std::vector<std::byte> committed_header;
};

/// Classify the primary file against its journal and reconstruct the
/// committed header if recovery is needed. Pure analysis: writes nothing.
/// A null `journal` means the file has none (a legacy or externally
/// produced file); an existing but empty journal is passed as itself.
[[nodiscard]] pnc::Result<VerifyReport> AnalyzeCommit(CommitIo* journal,
                                                      CommitIo& primary);

/// Roll the primary back/forward to the committed state in `report`
/// (rewrites the header prefix and syncs). No-op for kClean; fails for
/// kCorrupt.
[[nodiscard]] pnc::Status RepairFromReport(const VerifyReport& report,
                                           CommitIo& primary);

}  // namespace ncformat
