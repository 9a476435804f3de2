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
// A commit is one write of [slot | table] at offset 8 (from offset 0, with
// the magic, while the sidecar has never been committed), then one sync.
// The table is rewritten in place, so no ordering between it and the slot
// could protect the previous commit anyway: a torn slot fails its rec_crc,
// and a torn table — or a slot beside a table it does not describe — fails
// table_crc. Either way every chunk degrades to "unsummed"; a torn sidecar
// can never claim valid sums. Dataset creation only creates (truncates) the
// sidecar; an empty one loads as untrusted until the first commit.
//
// `flags` bit 0 is the OPEN marker: a writable session commits it set
// before mutating data, and clears it only in the final flush at Close. A
// crash mid-session therefore leaves the sidecar open, and later readers
// distrust the (now possibly stale) sums instead of flagging freshly
// written data as corrupt.
//
// Sums come from the bytes being written, not from the file. Each data
// write that lands in full records one (offset, length, CRC) fragment per
// chunk it touches (ChunkSumMap::RecordWrite), computed while the bytes are
// in memory; a failed or partial write marks its chunks with no fragment.
// At Sync/Close, ResolveDirty combines (pnc::Crc32Combine) the fragments of
// every dirty chunk that they tile — after its committed prefix entry, if
// any — and reads back only the chunks they do not: overlaps, holes,
// fragment-less marks, bytes from an earlier session. The parallel flush
// gathers the ranks' fragments (EncodeDirty/MergeDirty) to the root, which
// resolves and commits. Fault-free, the committed table is exactly what a
// read-back would produce; under a write-path flip it still describes the
// intended bytes, so the flip surfaces on the next verified read.
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

/// Raw byte reader for verification re-reads and flush fallback reads:
/// must bypass verification (no recursion) but retain the caller's
/// retry/cost discipline.
using RawRead =
    std::function<pnc::Status(std::uint64_t offset, pnc::ByteSpan out)>;

/// One checksummed piece of a chunk written this session: `len` bytes at
/// `off` from the chunk start, with their CRC as they left memory.
struct Fragment {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
};

/// What a session knows about a chunk it has written since the last flush.
/// `needs_read` marks bytes that changed without a fragment (a failed or
/// partial write, data moved by a relayout): the chunk can then only be
/// summed from the file.
struct DirtyChunk {
  std::vector<Fragment> frags;
  bool needs_read = false;
};

/// The in-memory chunk map one session (rank) maintains: committed entries
/// plus the chunks this rank has dirtied since the last flush, each with
/// the fragments its writes recorded. Dirty chunks are exempt from
/// verification (their committed sum is stale by construction) and are
/// exactly the set a flush must resolve.
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

  /// Record a write that landed in full: [offset, offset + bytes.size())
  /// is checksummed per chunk right here, while the bytes are in memory.
  /// `discarded` is a store that keeps no bytes (reads return zeros), so
  /// the fragment is the CRC of zeros. Bytes below data_begin (header
  /// writes) are ignored.
  void RecordWrite(std::uint64_t offset, pnc::ConstByteSpan bytes,
                   bool discarded = false);
  /// Mark every chunk overlapping [offset, offset+len) as changed without
  /// a fragment (a failed or partial write, moved data): the flush reads
  /// those chunks back.
  void MarkDirtyRange(std::uint64_t offset, std::uint64_t len);
  [[nodiscard]] bool IsDirty(std::uint64_t chunk) const {
    return dirty_.count(chunk) != 0;
  }
  [[nodiscard]] const std::map<std::uint64_t, DirtyChunk>& dirty() const {
    return dirty_;
  }
  void ClearDirty() { dirty_.clear(); }

  /// The dirty chunks as a flat blob (fragments pre-combined), and its
  /// inverse, which adds a blob's chunks to this map's dirty set. The
  /// parallel flush gathers the ranks' blobs to the root this way.
  [[nodiscard]] std::vector<std::byte> EncodeDirty() const;
  void MergeDirty(pnc::ConstByteSpan blob);

  /// Turn every dirty chunk into a committed entry covering its bytes up
  /// to `file_size`, then clear the dirty set. A chunk whose fragments,
  /// optionally after its committed prefix entry, tile
  /// [start, start + min(chunk_size, file_size - start)) exactly is summed
  /// by combining their CRCs; any other dirty chunk (holes, overlaps,
  /// fragment-less marks, bytes from an earlier session) is read back
  /// through `raw`. Chunks at or past EOF keep their entries. On a read
  /// error the dirty set is left as it was.
  [[nodiscard]] pnc::Status ResolveDirty(std::uint64_t file_size,
                                         const RawRead& raw);

  /// Serialize / parse the table region (geometry + sparse entries).
  [[nodiscard]] std::vector<std::byte> EncodeTable() const;
  [[nodiscard]] static pnc::Result<ChunkSumMap> DecodeTable(
      pnc::ConstByteSpan table);

 private:
  std::uint64_t chunk_size_ = 0;
  std::uint64_t data_begin_ = 0;
  std::map<std::uint64_t, ChunkSum> entries_;
  std::map<std::uint64_t, DirtyChunk> dirty_;
};

/// The committed slot state a writer threads through successive commits.
struct SumsState {
  std::uint64_t seq = 0;
  bool open = false;
};

/// Durably commit the map: one [slot | table] write (led by the magic when
/// `state->seq` is 0), then one sync. `open` set leaves the session-open
/// marker in place.
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
