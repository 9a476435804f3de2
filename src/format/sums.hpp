// End-to-end data integrity: per-chunk CRC32 map over the data region.
//
// The commit journal (commit.hpp) CRC-protects the header and numrecs, but
// the data region has no integrity story: a pfs bit flip sails through
// mpiio, pnetcdf, and the C API undetected. This module closes that hole
// with a chunked checksum map persisted in a `<path>.ncsum` sidecar:
//
//   offset  0  magic "NCSM01\0\0"
//   offset  8  commit slot (32 bytes)
//   offset 40  sum table bytes (the shadow region the slot commits)
//
//   slot  := seq u64 | table_len u64 | table_crc u32 | flags u32
//            | pad u32 (zero) | rec_crc u32             (all big-endian)
//   table := chunk_size u64 | data_begin u64 | entry_count u64
//            | entry_count x { chunk u64 | len u32 | crc u32 }
//
// Chunk i covers file bytes [data_begin + i*chunk_size, .. + chunk_size);
// an entry's `len` is the summed extent within the chunk (the tail chunk is
// shorter than chunk_size). The table is sparse: only summed chunks appear.
//
// Commit discipline mirrors the header journal: write the table, sync,
// then write the single CRC'd slot (the commit point), sync. A torn update
// fails the slot or table CRC and simply degrades every chunk to
// "unsummed" — a torn sidecar can never claim valid sums. `flags` bit 0 is
// the OPEN marker: a writable session commits it set before mutating data,
// and clears it only in the final flush at Close. A crash mid-session
// therefore leaves the sidecar open, and later readers distrust the (now
// possibly stale) sums instead of flagging freshly written data as corrupt.
//
// Verify-on-read (VerifyReadRange) recomputes the CRC of every committed,
// non-dirty chunk a physical read touches, re-reading neighbouring bytes
// through the caller-supplied raw-read callback. A mismatch is retried
// (healing transient read-side flips) before surfacing kDataCorrupt; the
// sticky at-rest case keeps mismatching and is reported, never returned
// silently. All of this is armed-only: with PNC_SUMS=0 no sidecar is
// created, no verification runs, and runs are bit-identical to a build
// without this module.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "format/commit.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"

namespace ncformat {

/// The sidecar path for a dataset path.
[[nodiscard]] std::string SumsPath(const std::string& path);

/// PNC_SUMS gate (default on; "0" disables the whole subsystem).
[[nodiscard]] bool SumsEnabled();

/// Chunk size: PNC_SUM_CHUNK bytes, default 64 KiB, clamped to
/// [4 KiB, 16 MiB]. 64 KiB keeps the sidecar tiny (16 B per 64 KiB of
/// data, 0.02%) while bounding the heal re-read amplification of a
/// one-byte access to one chunk.
[[nodiscard]] std::uint64_t SumChunkSize();

constexpr std::uint64_t kSumsMagicLen = 8;
constexpr std::uint64_t kSumsSlotOffset = 8;
constexpr std::uint64_t kSumsSlotSize = 32;
constexpr std::uint64_t kSumsTableOffset = kSumsSlotOffset + kSumsSlotSize;
constexpr std::uint32_t kSumsFlagOpen = 1u;

/// One committed chunk checksum: `len` bytes from the chunk start.
struct ChunkSum {
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  friend bool operator==(const ChunkSum&, const ChunkSum&) = default;
};

/// The in-memory chunk map one session (rank) maintains: committed entries
/// plus the set of chunks this rank has dirtied since the last flush.
/// Dirty chunks are exempt from verification (their committed sum is
/// stale by construction) and are exactly the set a flush must recompute.
class ChunkSumMap {
 public:
  void SetGeometry(std::uint64_t chunk_size, std::uint64_t data_begin);
  [[nodiscard]] std::uint64_t chunk_size() const { return chunk_size_; }
  [[nodiscard]] std::uint64_t data_begin() const { return data_begin_; }

  /// File offset of chunk `c`'s first byte.
  [[nodiscard]] std::uint64_t ChunkStart(std::uint64_t c) const {
    return data_begin_ + c * chunk_size_;
  }
  /// Chunk index covering file offset `off` (must be >= data_begin).
  [[nodiscard]] std::uint64_t ChunkOf(std::uint64_t off) const {
    return (off - data_begin_) / chunk_size_;
  }

  [[nodiscard]] bool Lookup(std::uint64_t chunk, ChunkSum* out) const;
  void Set(std::uint64_t chunk, ChunkSum sum);
  [[nodiscard]] const std::map<std::uint64_t, ChunkSum>& entries() const {
    return entries_;
  }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  /// Drop all entries and dirty marks (used when the data region moves
  /// under a relayout — every old sum is meaningless at the new offsets).
  void Clear();

  /// Mark every chunk overlapping file bytes [offset, offset+len) dirty.
  /// Bytes below data_begin (header writes) are ignored.
  void MarkDirtyRange(std::uint64_t offset, std::uint64_t len);
  [[nodiscard]] bool IsDirty(std::uint64_t chunk) const {
    return dirty_.count(chunk) != 0;
  }
  [[nodiscard]] const std::set<std::uint64_t>& dirty() const { return dirty_; }
  void MarkDirtyChunk(std::uint64_t chunk) { dirty_.insert(chunk); }
  void ClearDirty() { dirty_.clear(); }

  /// Serialize / parse the table region (geometry + sparse entries).
  [[nodiscard]] std::vector<std::byte> EncodeTable() const;
  [[nodiscard]] static pnc::Result<ChunkSumMap> DecodeTable(
      pnc::ConstByteSpan table);

 private:
  std::uint64_t chunk_size_ = 0;
  std::uint64_t data_begin_ = 0;
  std::map<std::uint64_t, ChunkSum> entries_;
  std::set<std::uint64_t> dirty_;
};

/// The committed slot state a writer threads through successive commits.
struct SumsState {
  std::uint64_t seq = 0;
  bool open = false;
};

/// (Re)initialize a sidecar: magic + zeroed slot. Called at dataset
/// creation so a stale sidecar from a previous file at the same path can
/// never be replayed.
[[nodiscard]] pnc::Status FormatSums(CommitIo& io);

/// Durably commit the map: table write, sync, slot write (the commit
/// point), sync. `open` set leaves the session-open marker in place.
[[nodiscard]] pnc::Status CommitSums(CommitIo& io, const ChunkSumMap& map,
                                     bool open, SumsState* state);

/// A loaded sidecar. `trusted` is false when the sidecar is missing,
/// torn, or was left open by a crashed session — the map is then empty
/// and every chunk is "unsummed" (verification quietly off, never a
/// false corruption verdict).
struct LoadedSums {
  ChunkSumMap map;
  SumsState state;
  bool trusted = false;
};

/// Parse the sidecar. A CRC-invalid slot/table is re-read up to
/// `reread_attempts` times (a transient read-side flip of the sidecar
/// itself must not silently disable verification) before degrading to
/// untrusted. Only I/O errors are returned as bad status.
[[nodiscard]] pnc::Result<LoadedSums> LoadSums(CommitIo& io,
                                               int reread_attempts = 4);

/// Raw byte reader for verification re-reads: must bypass verification
/// (no recursion) but retain the caller's retry/cost discipline.
using RawRead =
    std::function<pnc::Status(std::uint64_t offset, pnc::ByteSpan out)>;

/// Verification telemetry, accumulated across calls by the owner.
struct VerifyStats {
  std::uint64_t chunks_verified = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t healed_retries = 0;
};

/// Verify the freshly read buffer `data` (file bytes [offset,
/// offset+len)) against every committed, non-dirty chunk it overlaps.
/// Chunk bytes outside the buffer are fetched through `raw`. On CRC
/// mismatch the whole chunk is re-read up to `heal_attempts` times; a
/// clean re-read is spliced back into `data` (the read healed), a chunk
/// still mismatching returns kDataCorrupt. `t_ns` timestamps the
/// flight-recorder event on the corrupt path. Counters are recorded via
/// PNC_OBSERVE; `stats` (optional) additionally accumulates them for the
/// caller.
[[nodiscard]] pnc::Status VerifyReadRange(const ChunkSumMap& map,
                                          std::uint64_t offset,
                                          pnc::ByteSpan data,
                                          std::uint64_t file_size,
                                          const RawRead& raw,
                                          int heal_attempts, double t_ns,
                                          VerifyStats* stats);

/// Offline scrub verdict for one chunk-sized piece of the data region.
enum class ChunkVerdict {
  kClean,    ///< committed sum present and matches the bytes
  kCorrupt,  ///< committed sum present and does NOT match
  kUnsummed, ///< no trustworthy sum covers this chunk
};

struct ScrubReport {
  bool trusted = false;  ///< sidecar had a committed, closed, valid table
  std::uint64_t clean = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t unsummed = 0;
  /// Chunk indices that failed verification (capped at 64 for reporting).
  std::vector<std::uint64_t> corrupt_chunks;
};

/// Walk [map.data_begin, file_size) chunk by chunk, recompute every CRC
/// through `raw`, and classify. `map` is typically LoadSums().map; an
/// untrusted load yields an all-unsummed report.
[[nodiscard]] pnc::Result<ScrubReport> ScrubData(const ChunkSumMap& map,
                                                 bool trusted,
                                                 std::uint64_t file_size,
                                                 const RawRead& raw);

/// Rebuild the map from the current file bytes: recompute every chunk of
/// [data_begin, file_size) and commit the result closed (open=0). The
/// caller vouches for the data (e.g. it still passes compare-level ground
/// truth); after this the current bytes are the integrity baseline.
[[nodiscard]] pnc::Status RebuildSums(CommitIo& io, std::uint64_t chunk_size,
                                      std::uint64_t data_begin,
                                      std::uint64_t file_size,
                                      const RawRead& raw, SumsState* state);

}  // namespace ncformat
