#include "format/sums.hpp"

#include <algorithm>
#include <cstring>

#include "iostat/observe.hpp"
#include "util/crc32.hpp"
#include "util/env.hpp"

namespace ncformat {

namespace {

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

}  // namespace

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

namespace {

/// Append `f` to a chunk's fragments, joining it to the previous one when
/// it continues it (the common case: one writer streaming through a chunk).
void AddFragment(DirtyChunk& d, const Fragment& f) {
  if (d.needs_read) return;  // the chunk is read back anyway
  if (!d.frags.empty()) {
    Fragment& last = d.frags.back();
    if (last.off + last.len == f.off) {
      last.crc = pnc::Crc32Combine(last.crc, f.crc, f.len);
      last.len += f.len;
      return;
    }
  }
  d.frags.push_back(f);
}

/// Sort fragments by offset and join every pair that abuts. Overlapping
/// fragments stay separate, so the tiling check still sees them.
void Coalesce(std::vector<Fragment>& frags) {
  std::sort(frags.begin(), frags.end(),
            [](const Fragment& a, const Fragment& b) { return a.off < b.off; });
  DirtyChunk out;
  for (const Fragment& f : frags) AddFragment(out, f);
  frags = std::move(out.frags);
}

}  // namespace

void ChunkSumMap::RecordWrite(std::uint64_t offset, pnc::ConstByteSpan bytes,
                              bool discarded) {
  if (chunk_size_ == 0 || bytes.empty()) return;
  const std::uint64_t end = offset + bytes.size();
  if (end <= data_begin_) return;  // header-region write
  for (std::uint64_t pos = std::max(offset, data_begin_); pos < end;) {
    const std::uint64_t c = ChunkOf(pos);
    const std::uint64_t cstart = ChunkStart(c);
    const std::uint64_t n = std::min(end, cstart + chunk_size_) - pos;
    const std::uint32_t crc =
        discarded ? pnc::Crc32OfZeros(n)
                  : pnc::Crc32(bytes.subspan(pos - offset, n));
    AddFragment(dirty_[c], {static_cast<std::uint32_t>(pos - cstart),
                            static_cast<std::uint32_t>(n), crc});
    pos += n;
  }
}

void ChunkSumMap::MarkDirtyRange(std::uint64_t offset, std::uint64_t len) {
  if (chunk_size_ == 0 || len == 0) return;
  const std::uint64_t end = offset + len;
  if (end <= data_begin_) return;  // header-region write
  const std::uint64_t begin = std::max(offset, data_begin_);
  for (std::uint64_t c = ChunkOf(begin); c <= ChunkOf(end - 1); ++c) {
    DirtyChunk& d = dirty_[c];
    d.needs_read = true;
    d.frags.clear();
  }
}

std::vector<std::byte> ChunkSumMap::EncodeDirty() const {
  // Per chunk: chunk u64 | needs_read u32 | n u32 | n x {off, len, crc} u32.
  // The blob never leaves the process, so fields are in host byte order.
  std::vector<std::byte> b;
  for (const auto& [c, d] : dirty_) {
    std::vector<Fragment> frags = d.frags;
    Coalesce(frags);
    const std::uint32_t head[] = {static_cast<std::uint32_t>(d.needs_read),
                                  static_cast<std::uint32_t>(frags.size())};
    const std::size_t at = b.size();
    b.resize(at + 8 + sizeof head + frags.size() * sizeof(Fragment));
    std::memcpy(b.data() + at, &c, 8);
    std::memcpy(b.data() + at + 8, head, sizeof head);
    if (!frags.empty())
      std::memcpy(b.data() + at + 8 + sizeof head, frags.data(),
                  frags.size() * sizeof(Fragment));
  }
  return b;
}

void ChunkSumMap::MergeDirty(pnc::ConstByteSpan blob) {
  std::size_t k = 0;
  while (k + 16 <= blob.size()) {
    std::uint64_t c = 0;
    std::uint32_t head[2] = {0, 0};
    std::memcpy(&c, blob.data() + k, 8);
    std::memcpy(head, blob.data() + k + 8, sizeof head);
    k += 16;
    DirtyChunk& d = dirty_[c];
    if (head[0] != 0) {
      d.needs_read = true;
      d.frags.clear();
    }
    for (std::uint32_t i = 0;
         i < head[1] && k + sizeof(Fragment) <= blob.size();
         ++i, k += sizeof(Fragment)) {
      Fragment f;
      std::memcpy(&f, blob.data() + k, sizeof f);
      if (!d.needs_read) d.frags.push_back(f);
    }
  }
}

pnc::Status ChunkSumMap::ResolveDirty(std::uint64_t file_size,
                                      const RawRead& raw) {
  using pnc::operator""_MiB;
  if (chunk_size_ == 0) {  // no geometry yet: nothing was recorded
    dirty_.clear();
    return pnc::Status::Ok();
  }
  // Pass 1: combine every chunk whose fragments tile its extent; queue the
  // rest for a read.
  std::vector<std::pair<std::uint64_t, ChunkSum>> resolved;
  std::vector<std::uint64_t> reads;
  for (auto& [c, d] : dirty_) {
    const std::uint64_t cstart = ChunkStart(c);
    if (cstart >= file_size) continue;  // nothing to sum (yet)
    const std::uint64_t clen = std::min(chunk_size_, file_size - cstart);
    if (d.needs_read || d.frags.empty()) {
      reads.push_back(c);
      continue;
    }
    Coalesce(d.frags);
    std::uint64_t pos = 0;
    std::uint32_t crc = 0;
    ChunkSum prefix;
    if (d.frags.front().off != 0 && Lookup(c, &prefix) &&
        prefix.len == d.frags.front().off) {
      pos = prefix.len;  // appending after bytes summed at an earlier flush
      crc = prefix.crc;
    }
    bool tiled = true;
    for (const Fragment& f : d.frags) {
      tiled = f.off == pos;  // else a hole or an overlap
      if (!tiled) break;
      crc = pnc::Crc32Combine(crc, f.crc, f.len);
      pos += f.len;
    }
    if (tiled && pos == clen)
      resolved.emplace_back(c, ChunkSum{static_cast<std::uint32_t>(clen), crc});
    else
      reads.push_back(c);
  }
  // Pass 2: read the rest, runs of adjacent chunks (up to 4 MiB) at a time.
  const std::size_t max_run = std::max<std::uint64_t>(1, 4_MiB / chunk_size_);
  std::vector<std::byte> buf;
  for (std::size_t k = 0; k < reads.size();) {
    std::size_t e = k + 1;
    while (e < reads.size() && e - k < max_run && reads[e] == reads[e - 1] + 1)
      ++e;
    const std::uint64_t rstart = ChunkStart(reads[k]);
    const std::uint64_t rlen = std::min<std::uint64_t>(
        (reads[e - 1] - reads[k] + 1) * chunk_size_, file_size - rstart);
    buf.resize(rlen);
    PNC_RETURN_IF_ERROR(raw(rstart, pnc::ByteSpan(buf)));
    for (std::size_t j = k; j < e; ++j) {
      const std::uint64_t off = (reads[j] - reads[k]) * chunk_size_;
      const std::uint64_t clen = std::min(chunk_size_, rlen - off);
      resolved.emplace_back(
          reads[j],
          ChunkSum{static_cast<std::uint32_t>(clen),
                   pnc::Crc32(pnc::ConstByteSpan(buf.data() + off, clen))});
    }
    k = e;
  }
  for (const auto& [c, sum] : resolved) entries_[c] = sum;
  dirty_.clear();
  return pnc::Status::Ok();
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

// ------------------------------------------------------- verify-on-read

namespace {

/// Whether a read of [begin, end) can check chunk `c` against its committed
/// sum (returned in `sum`): the chunk is committed, not dirty, its summed
/// extent still exists in full, and that extent overlaps the range. A file
/// shorter than the extent means the sum covers bytes that are gone (treat
/// as unsummed, not corrupt).
bool Verifiable(const ChunkSumMap& map, std::uint64_t c, std::uint64_t begin,
                std::uint64_t end, std::uint64_t file_size, ChunkSum* sum) {
  if (!map.Lookup(c, sum) || map.IsDirty(c)) return false;
  const std::uint64_t cstart = map.ChunkStart(c);
  return cstart + sum->len <= file_size && cstart + sum->len > begin &&
         cstart < end;
}

}  // namespace

pnc::Status VerifiedRead(const ChunkSumMap& map, std::uint64_t offset,
                         pnc::ByteSpan out, std::uint64_t file_size,
                         const RawRead& raw, int heal_attempts, double t_ns) {
  const std::uint64_t end = offset + out.size();
  if (map.chunk_size() == 0 || map.empty() || out.empty() ||
      end <= map.data_begin())
    return raw(offset, out);
  const std::uint64_t first = map.ChunkOf(std::max(offset, map.data_begin()));
  const std::uint64_t last = map.ChunkOf(end - 1);

  // The cover: the range widened to the summed extents of its verifiable
  // boundary chunks, so one request fetches every byte the checked CRCs
  // span. Interior chunks lie inside the range already.
  std::uint64_t lo = offset, hi = end;
  ChunkSum sum;
  if (Verifiable(map, first, offset, end, file_size, &sum))
    lo = std::min(lo, map.ChunkStart(first));
  if (Verifiable(map, last, offset, end, file_size, &sum))
    hi = std::max(hi, map.ChunkStart(last) + sum.len);
  std::vector<std::byte> staging;
  pnc::ByteSpan cover = out;
  if (lo != offset || hi != end) {
    staging.resize(hi - lo);
    cover = pnc::ByteSpan(staging);
  }
  PNC_RETURN_IF_ERROR(raw(lo, cover));

  for (std::uint64_t c = first; c <= last; ++c) {
    if (!Verifiable(map, c, offset, end, file_size, &sum)) continue;
    const std::uint64_t cstart = map.ChunkStart(c);
    const pnc::ByteSpan bytes = cover.subspan(cstart - lo, sum.len);
    PNC_OBSERVE(kSumVerify);
    if (pnc::Crc32(bytes) == sum.crc) continue;
    PNC_OBSERVE(kSumMismatch);
    // Mismatch: re-read the whole chunk in place. A transient read-side
    // flip heals here, wherever in the cover it landed; an at-rest flip
    // keeps mismatching and surfaces as kDataCorrupt.
    bool healed = false;
    for (int a = 0; a < heal_attempts && !healed; ++a) {
      PNC_RETURN_IF_ERROR(raw(cstart, bytes));
      healed = pnc::Crc32(bytes) == sum.crc;
    }
    if (!healed) {
      PNC_OBSERVE(kDataCorrupt, .t_ns = t_ns, .off = c,
                  .n = static_cast<std::uint64_t>(heal_attempts));
      return pnc::Status(pnc::Err::kDataCorrupt,
                         "chunk " + std::to_string(c) +
                             " checksum mismatch persisted across " +
                             std::to_string(heal_attempts) + " re-reads");
    }
    PNC_OBSERVE(kSumHealed);
  }
  if (!staging.empty())
    std::memcpy(out.data(), staging.data() + (offset - lo), out.size());
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

pnc::Result<ChunkSumMap> RecomputeSums(std::uint64_t chunk_size,
                                       std::uint64_t data_begin,
                                       std::uint64_t file_size,
                                       const RawRead& raw) {
  ChunkSumMap map;
  map.SetGeometry(chunk_size, data_begin);
  std::vector<std::byte> chunk;
  for (std::uint64_t cstart = data_begin; cstart < file_size;
       cstart += chunk_size) {
    const std::uint64_t clen = std::min(chunk_size, file_size - cstart);
    chunk.resize(clen);
    PNC_RETURN_IF_ERROR(raw(cstart, pnc::ByteSpan(chunk)));
    map.Set(map.ChunkOf(cstart),
            {static_cast<std::uint32_t>(clen), pnc::Crc32(chunk)});
  }
  return map;
}

}  // namespace ncformat
