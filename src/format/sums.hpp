// End-to-end data integrity: per-chunk CRC32 map over the data region.
//
// The commit journal (commit.hpp) CRC-protects the header and numrecs, but
// the data region needs its own integrity story: a pfs bit flip would
// otherwise sail through mpiio, pnetcdf, and the C API undetected. This
// module keeps a chunked checksum map, and the journal's closing commit
// carries its encoded table, right after the shadow header:
//
//   table := chunk_size u64 | data_begin u64 | entry_count u64
//            | entry_count x { chunk u64 | len u32 | crc u32 }
//                                                    (all big-endian)
//
// Chunk i covers file bytes [data_begin + i*chunk_size, .. + chunk_size);
// an entry's `len` is the summed extent within the chunk (the tail chunk is
// shorter than chunk_size). The table is sparse: only summed chunks appear.
// The commit slot carries table_len and table_crc: a torn table, or a slot
// beside a table it does not describe, fails table_crc and every chunk
// degrades to "unsummed". A writable session's commits before its closing
// one carry the slot's OPEN flag and no table, so a crash mid-session
// leaves later readers no (possibly stale) sums to trust instead of
// flagging freshly written data as corrupt.
//
// Sums come from the bytes being written, not from the file. Each data
// write that lands in full records one (offset, length, CRC) fragment per
// chunk it touches (ChunkSumMap::RecordWrite), computed while the bytes are
// in memory; a failed or partial write marks its chunks with no fragment.
// At Sync/Close, ResolveDirty combines (pnc::Crc32Combine) the fragments of
// every dirty chunk that they tile — after its committed prefix entry, if
// any — and reads back only the chunks they do not: overlaps, holes,
// fragment-less marks, bytes from an earlier session. The parallel commit
// gathers the ranks' fragments (EncodeDirty/MergeDirty) to the root, which
// resolves them and commits the table. Fault-free, the committed table is
// exactly what a read-back would produce; under a write-path flip it still
// describes the intended bytes, so the flip surfaces on the next verified
// read.
//
// Verify-on-read (VerifiedRead) recomputes the CRC of every committed,
// non-dirty chunk a physical read touches. The chunk grid starts at
// data_begin while reads start on stripe or block boundaries, so a read
// usually begins and ends inside a chunk; VerifiedRead widens it to the
// boundary chunks' summed extents and fetches that cover in the one request
// the read makes anyway. A mismatch is retried (healing transient
// read-side flips) before surfacing kDataCorrupt; the sticky at-rest case
// keeps mismatching and is reported, never returned silently. All of this
// is armed-only: with PNC_SUMS=0 commits carry no table, no verification
// runs, and the primary file is bit-identical to one written with sums on.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/status.hpp"

namespace ncformat {

/// PNC_SUMS gate (default on; "0" disables the whole subsystem).
[[nodiscard]] bool SumsEnabled();

/// Chunk size: PNC_SUM_CHUNK bytes, default 64 KiB, clamped to
/// [4 KiB, 16 MiB]. 64 KiB keeps the table tiny (16 B per 64 KiB of
/// data, 0.02%) while bounding the heal re-read amplification of a
/// one-byte access to one chunk.
[[nodiscard]] std::uint64_t SumChunkSize();

/// One committed chunk checksum: `len` bytes from the chunk start.
struct ChunkSum {
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  friend bool operator==(const ChunkSum&, const ChunkSum&) = default;
};

/// Raw byte reader for verified reads and flush fallback reads: must
/// bypass verification (no recursion) but retain the caller's retry/cost
/// discipline.
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

/// Read file bytes [offset, offset + out.size()) into `out` through `raw`,
/// checked against every committed, non-dirty chunk they overlap whose
/// summed extent lies within `file_size`. The read is one request for the
/// cover: the range widened to the summed extents of its first and last
/// verifiable chunks (never below data_begin, never past a summed end), so
/// every checked chunk comes from that one request. A chunk that mismatches
/// is re-read whole up to `heal_attempts` times; a clean re-read heals it,
/// a chunk still mismatching returns kDataCorrupt, with a flight-recorder
/// event stamped `t_ns` (the read's issue time). Counters are recorded via
/// PNC_OBSERVE. With nothing to verify the cover is the range itself.
[[nodiscard]] pnc::Status VerifiedRead(const ChunkSumMap& map,
                                       std::uint64_t offset,
                                       pnc::ByteSpan out,
                                       std::uint64_t file_size,
                                       const RawRead& raw, int heal_attempts,
                                       double t_ns);

/// Offline scrub verdict for one chunk-sized piece of the data region.
enum class ChunkVerdict {
  kClean,    ///< committed sum present and matches the bytes
  kCorrupt,  ///< committed sum present and does NOT match
  kUnsummed, ///< no trustworthy sum covers this chunk
};

struct ScrubReport {
  bool trusted = false;  ///< the journal held a committed, closed, valid table
  std::uint64_t clean = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t unsummed = 0;
  /// Chunk indices that failed verification (capped at 64 for reporting).
  std::vector<std::uint64_t> corrupt_chunks;
};

/// Walk [map.data_begin, file_size) chunk by chunk, recompute every CRC
/// through `raw`, and classify. `map` is typically the committed one; an
/// untrusted table (ReadCommittedSums) yields an all-unsummed report.
[[nodiscard]] pnc::Result<ScrubReport> ScrubData(const ChunkSumMap& map,
                                                 bool trusted,
                                                 std::uint64_t file_size,
                                                 const RawRead& raw);

/// Sum every chunk of [data_begin, file_size) from the current bytes: the
/// table a flush of the whole region would commit. `ncverify --repair
/// --data` commits it closed as the new integrity baseline — the caller
/// vouches for the data.
[[nodiscard]] pnc::Result<ChunkSumMap> RecomputeSums(std::uint64_t chunk_size,
                                                     std::uint64_t data_begin,
                                                     std::uint64_t file_size,
                                                     const RawRead& raw);

}  // namespace ncformat
