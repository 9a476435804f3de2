#include "format/sums.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "iostat/observe.hpp"
#include "util/crc32.hpp"
#include "util/env.hpp"

namespace ncformat {

namespace {

constexpr char kSumsMagic[kSumsMagicLen] = {'N', 'C', 'S', 'M',
                                            '0', '1', '\0', '\0'};

void PutU32(std::byte* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    p[i] = static_cast<std::byte>((v >> (24 - 8 * i)) & 0xFF);
}
void PutU64(std::byte* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    p[i] = static_cast<std::byte>((v >> (56 - 8 * i)) & 0xFF);
}
std::uint32_t GetU32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | std::to_integer<std::uint32_t>(p[i]);
  return v;
}
std::uint64_t GetU64(const std::byte* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | std::to_integer<std::uint64_t>(p[i]);
  return v;
}

/// The raw slot contents (before trust decisions).
struct Slot {
  std::uint64_t seq = 0;
  std::uint64_t table_len = 0;
  std::uint32_t table_crc = 0;
  std::uint32_t flags = 0;
};

std::array<std::byte, kSumsSlotSize> EncodeSlot(const Slot& s) {
  std::array<std::byte, kSumsSlotSize> b{};
  PutU64(b.data(), s.seq);
  PutU64(b.data() + 8, s.table_len);
  PutU32(b.data() + 16, s.table_crc);
  PutU32(b.data() + 20, s.flags);
  PutU32(b.data() + 24, 0);
  PutU32(b.data() + 28, pnc::Crc32(pnc::ConstByteSpan(b.data(), 28)));
  return b;
}

/// nullopt = slot torn or never written.
std::optional<Slot> DecodeSlot(pnc::ConstByteSpan b) {
  if (b.size() < kSumsSlotSize) return std::nullopt;
  if (GetU32(b.data() + 28) != pnc::Crc32(b.first(28))) return std::nullopt;
  Slot s;
  s.seq = GetU64(b.data());
  s.table_len = GetU64(b.data() + 8);
  s.table_crc = GetU32(b.data() + 16);
  s.flags = GetU32(b.data() + 20);
  if (s.seq == 0) return std::nullopt;  // formatted, never committed
  return s;
}

}  // namespace

std::string SumsPath(const std::string& path) { return path + ".ncsum"; }

bool SumsEnabled() { return pnc::util::EnvInt("PNC_SUMS", 1) != 0; }

std::uint64_t SumChunkSize() {
  using pnc::operator""_KiB;
  using pnc::operator""_MiB;
  const std::int64_t v =
      pnc::util::EnvInt("PNC_SUM_CHUNK", static_cast<std::int64_t>(64_KiB));
  return std::clamp<std::uint64_t>(
      v <= 0 ? 64_KiB : static_cast<std::uint64_t>(v), 4_KiB, 16_MiB);
}

// ------------------------------------------------------------- ChunkSumMap

void ChunkSumMap::SetGeometry(std::uint64_t chunk_size,
                              std::uint64_t data_begin) {
  chunk_size_ = chunk_size;
  data_begin_ = data_begin;
}

bool ChunkSumMap::Lookup(std::uint64_t chunk, ChunkSum* out) const {
  auto it = entries_.find(chunk);
  if (it == entries_.end()) return false;
  *out = it->second;
  return true;
}

void ChunkSumMap::Set(std::uint64_t chunk, ChunkSum sum) {
  entries_[chunk] = sum;
}

void ChunkSumMap::Clear() {
  entries_.clear();
  dirty_.clear();
}

void ChunkSumMap::MarkDirtyRange(std::uint64_t offset, std::uint64_t len) {
  if (chunk_size_ == 0 || len == 0) return;
  const std::uint64_t end = offset + len;
  if (end <= data_begin_) return;  // header-region write
  const std::uint64_t begin = std::max(offset, data_begin_);
  for (std::uint64_t c = ChunkOf(begin); c <= ChunkOf(end - 1); ++c)
    dirty_.insert(c);
}

std::vector<std::byte> ChunkSumMap::EncodeTable() const {
  std::vector<std::byte> b(24 + 16 * entries_.size());
  PutU64(b.data(), chunk_size_);
  PutU64(b.data() + 8, data_begin_);
  PutU64(b.data() + 16, entries_.size());
  std::size_t off = 24;
  for (const auto& [chunk, sum] : entries_) {
    PutU64(b.data() + off, chunk);
    PutU32(b.data() + off + 8, sum.len);
    PutU32(b.data() + off + 12, sum.crc);
    off += 16;
  }
  return b;
}

pnc::Result<ChunkSumMap> ChunkSumMap::DecodeTable(pnc::ConstByteSpan table) {
  if (table.size() < 24)
    return pnc::Status(pnc::Err::kNotNc, "sum table truncated");
  ChunkSumMap m;
  m.chunk_size_ = GetU64(table.data());
  m.data_begin_ = GetU64(table.data() + 8);
  const std::uint64_t n = GetU64(table.data() + 16);
  if (m.chunk_size_ == 0 || table.size() < 24 + 16 * n)
    return pnc::Status(pnc::Err::kNotNc, "sum table malformed");
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::byte* p = table.data() + 24 + 16 * i;
    ChunkSum s;
    s.len = GetU32(p + 8);
    s.crc = GetU32(p + 12);
    m.entries_[GetU64(p)] = s;
  }
  return m;
}

// ----------------------------------------------------------- sidecar I/O

pnc::Status FormatSums(CommitIo& io) {
  std::vector<std::byte> prefix(kSumsTableOffset, std::byte{0});
  std::memcpy(prefix.data(), kSumsMagic, kSumsMagicLen);
  if (auto st = io.Write(0, prefix); !st.ok()) return st;
  return io.Sync();
}

pnc::Status CommitSums(CommitIo& io, const ChunkSumMap& map, bool open,
                       SumsState* state) {
  const std::vector<std::byte> table = map.EncodeTable();
  if (auto st = io.Write(kSumsTableOffset, table); !st.ok()) return st;
  if (auto st = io.Sync(); !st.ok()) return st;
  Slot s;
  s.seq = state->seq + 1;
  s.table_len = table.size();
  s.table_crc = pnc::Crc32(table);
  s.flags = open ? kSumsFlagOpen : 0;
  const auto slot = EncodeSlot(s);
  if (auto st = io.Write(kSumsSlotOffset, slot); !st.ok()) return st;
  if (auto st = io.Sync(); !st.ok()) return st;
  state->seq = s.seq;
  state->open = open;
  return pnc::Status::Ok();
}

pnc::Result<LoadedSums> LoadSums(CommitIo& io, int reread_attempts) {
  LoadedSums out;
  if (io.Size() < kSumsTableOffset) return out;  // absent / never formatted
  // A CRC failure may be a transient flip of the *sidecar read itself*;
  // re-read before giving up, so a flaky medium degrades to untrusted only
  // when the damage is persistent.
  for (int attempt = 0; attempt < std::max(1, reread_attempts); ++attempt) {
    std::array<std::byte, kSumsTableOffset> head{};
    if (auto st = io.Read(0, head); !st.ok()) return st;
    if (std::memcmp(head.data(), kSumsMagic, kSumsMagicLen) != 0)
      continue;  // not a sidecar — or a flipped magic read; retry
    const auto slot =
        DecodeSlot(pnc::ConstByteSpan(head.data() + kSumsSlotOffset,
                                      kSumsSlotSize));
    if (!slot.has_value()) continue;  // torn or never committed
    std::vector<std::byte> table(slot->table_len);
    if (auto st = io.Read(kSumsTableOffset, table); !st.ok()) return st;
    if (pnc::Crc32(table) != slot->table_crc) continue;  // torn table
    auto m = ChunkSumMap::DecodeTable(table);
    if (!m.ok()) continue;
    out.map = std::move(m).value();
    out.state.seq = slot->seq;
    out.state.open = (slot->flags & kSumsFlagOpen) != 0;
    // An open sidecar is a crashed writable session: its sums may be
    // stale against data written after the last flush. Load the map (the
    // geometry is still right) but never trust it for verification.
    out.trusted = !out.state.open;
    return out;
  }
  return LoadedSums{};  // persistent damage: every chunk unsummed
}

// ------------------------------------------------------- verify-on-read

namespace {

/// Assemble the summed extent of chunk `c` into `buf`: overlap bytes come
/// from the caller's freshly read `data`, the remainder through `raw`.
pnc::Status AssembleChunk(const ChunkSumMap& map, std::uint64_t c,
                          std::uint64_t clen, std::uint64_t offset,
                          pnc::ByteSpan data, const RawRead& raw,
                          pnc::ByteSpan buf) {
  const std::uint64_t cstart = map.ChunkStart(c);
  const std::uint64_t cend = cstart + clen;
  const std::uint64_t ov_begin = std::max(cstart, offset);
  const std::uint64_t ov_end = std::min(cend, offset + data.size());
  if (ov_begin > cstart) {
    if (auto st = raw(cstart, buf.first(ov_begin - cstart)); !st.ok())
      return st;
  }
  if (ov_end > ov_begin)
    std::memcpy(buf.data() + (ov_begin - cstart), data.data() +
                (ov_begin - offset), ov_end - ov_begin);
  if (cend > ov_end) {
    if (auto st = raw(ov_end, buf.subspan(ov_end - cstart)); !st.ok())
      return st;
  }
  return pnc::Status::Ok();
}

}  // namespace

pnc::Status VerifyReadRange(const ChunkSumMap& map, std::uint64_t offset,
                            pnc::ByteSpan data, std::uint64_t file_size,
                            const RawRead& raw, int heal_attempts,
                            double t_ns, VerifyStats* stats) {
  if (map.chunk_size() == 0 || map.empty() || data.empty())
    return pnc::Status::Ok();
  const std::uint64_t end = offset + data.size();
  if (end <= map.data_begin()) return pnc::Status::Ok();
  const std::uint64_t begin = std::max(offset, map.data_begin());
  std::vector<std::byte> chunk;
  for (std::uint64_t c = map.ChunkOf(begin); c <= map.ChunkOf(end - 1); ++c) {
    ChunkSum sum;
    if (!map.Lookup(c, &sum) || map.IsDirty(c)) continue;
    const std::uint64_t cstart = map.ChunkStart(c);
    // The summed extent must still exist in full; a shorter file means the
    // sum covers bytes that are gone (treat as unsummed, not corrupt).
    if (cstart + sum.len > file_size) continue;
    if (cstart + sum.len <= offset || cstart >= end)
      continue;  // accessed bytes lie beyond the summed extent
    chunk.resize(sum.len);
    if (auto st = AssembleChunk(map, c, sum.len, offset, data, raw,
                                pnc::ByteSpan(chunk));
        !st.ok())
      return st;
    PNC_OBSERVE(kSumVerify);
    if (stats != nullptr) ++stats->chunks_verified;
    if (pnc::Crc32(chunk) == sum.crc) continue;
    PNC_OBSERVE(kSumMismatch);
    if (stats != nullptr) ++stats->mismatches;
    // Mismatch: re-read the whole chunk. A transient read-side flip (of
    // the original read *or* of the assembly reads above) heals here; an
    // at-rest flip keeps mismatching and surfaces as kDataCorrupt.
    bool healed = false;
    for (int a = 0; a < heal_attempts && !healed; ++a) {
      if (auto st = raw(cstart, pnc::ByteSpan(chunk)); !st.ok()) return st;
      if (pnc::Crc32(chunk) != sum.crc) continue;
      const std::uint64_t ov_begin = std::max(cstart, offset);
      const std::uint64_t ov_end = std::min(cstart + sum.len, end);
      if (ov_end > ov_begin)
        std::memcpy(data.data() + (ov_begin - offset),
                    chunk.data() + (ov_begin - cstart), ov_end - ov_begin);
      PNC_OBSERVE(kSumHealed);
      if (stats != nullptr) ++stats->healed_retries;
      healed = true;
    }
    if (!healed) {
      PNC_OBSERVE(kDataCorrupt, .t_ns = t_ns, .off = c,
                  .n = static_cast<std::uint64_t>(heal_attempts));
      return pnc::Status(pnc::Err::kDataCorrupt,
                         "chunk " + std::to_string(c) +
                             " checksum mismatch persisted across " +
                             std::to_string(heal_attempts) + " re-reads");
    }
  }
  return pnc::Status::Ok();
}

// --------------------------------------------------------- offline scrub

pnc::Result<ScrubReport> ScrubData(const ChunkSumMap& map, bool trusted,
                                   std::uint64_t file_size,
                                   const RawRead& raw) {
  ScrubReport rep;
  rep.trusted = trusted;
  if (map.chunk_size() == 0 || file_size <= map.data_begin()) return rep;
  const std::uint64_t nchunks =
      (file_size - map.data_begin() + map.chunk_size() - 1) / map.chunk_size();
  std::vector<std::byte> chunk;
  for (std::uint64_t c = 0; c < nchunks; ++c) {
    const std::uint64_t cstart = map.ChunkStart(c);
    const std::uint64_t clen = std::min(map.chunk_size(), file_size - cstart);
    ChunkSum sum;
    if (!trusted || !map.Lookup(c, &sum) || sum.len > clen) {
      ++rep.unsummed;
      continue;
    }
    chunk.resize(sum.len);
    if (auto st = raw(cstart, pnc::ByteSpan(chunk)); !st.ok()) return st;
    if (pnc::Crc32(chunk) == sum.crc) {
      ++rep.clean;
    } else {
      ++rep.corrupt;
      if (rep.corrupt_chunks.size() < 64) rep.corrupt_chunks.push_back(c);
    }
  }
  return rep;
}

pnc::Status RebuildSums(CommitIo& io, std::uint64_t chunk_size,
                        std::uint64_t data_begin, std::uint64_t file_size,
                        const RawRead& raw, SumsState* state) {
  ChunkSumMap map;
  map.SetGeometry(chunk_size, data_begin);
  std::vector<std::byte> chunk;
  for (std::uint64_t cstart = data_begin; cstart < file_size;
       cstart += chunk_size) {
    const std::uint64_t clen = std::min(chunk_size, file_size - cstart);
    chunk.resize(clen);
    if (auto st = raw(cstart, pnc::ByteSpan(chunk)); !st.ok()) return st;
    map.Set(map.ChunkOf(cstart),
            {static_cast<std::uint32_t>(clen), pnc::Crc32(chunk)});
  }
  if (auto st = FormatSums(io); !st.ok()) return st;
  SumsState fresh;
  if (auto st = CommitSums(io, map, /*open=*/false, &fresh); !st.ok())
    return st;
  *state = fresh;
  return pnc::Status::Ok();
}

}  // namespace ncformat
