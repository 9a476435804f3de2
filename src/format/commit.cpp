#include "format/commit.hpp"

#include <algorithm>
#include <cstring>

#include "iostat/observe.hpp"
#include "util/crc32.hpp"
#include "util/xdr.hpp"

namespace ncformat {

namespace {

constexpr std::byte kMagic[kJournalMagicLen] = {
    std::byte{'N'}, std::byte{'C'}, std::byte{'J'}, std::byte{'L'},
    std::byte{'0'}, std::byte{'2'}, std::byte{0},   std::byte{0}};

void PutU32(std::byte* p, std::uint32_t v) {
  const std::uint32_t big = pnc::xdr::ToBig(v);
  std::memcpy(p, &big, 4);
}
void PutU64(std::byte* p, std::uint64_t v) {
  const std::uint64_t big = pnc::xdr::ToBig(v);
  std::memcpy(p, &big, 8);
}
std::uint32_t GetU32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return pnc::xdr::FromBig(v);
}
std::uint64_t GetU64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return pnc::xdr::FromBig(v);
}

constexpr std::size_t kSlotCrcAt = kJournalSlotSize - 4;

/// Encode a slot into `b`: rec_crc covers the bytes before it.
void EncodeSlot(const CommitState& s, std::byte* b) {
  PutU64(b, s.seq);
  PutU64(b + 8, s.header_len);
  PutU64(b + 16, s.numrecs);
  PutU64(b + 24, s.table_len);
  PutU32(b + 32, s.header_crc);
  PutU32(b + 36, s.table_crc);
  PutU32(b + 40, s.flags);
  PutU32(b + kSlotCrcAt, pnc::Crc32(pnc::ConstByteSpan(b, kSlotCrcAt)));
}

/// Decode a slot if its CRC holds and it is non-empty (seq 0 = never used).
std::optional<CommitState> DecodeSlot(pnc::ConstByteSpan b, int slot) {
  if (b.size() < kJournalSlotSize) return std::nullopt;
  if (GetU32(b.data() + kSlotCrcAt) != pnc::Crc32(b.first(kSlotCrcAt)))
    return std::nullopt;
  CommitState s;
  s.seq = GetU64(b.data());
  s.header_len = GetU64(b.data() + 8);
  s.numrecs = GetU64(b.data() + 16);
  s.table_len = GetU64(b.data() + 24);
  s.header_crc = GetU32(b.data() + 32);
  s.table_crc = GetU32(b.data() + 36);
  s.flags = GetU32(b.data() + 40);
  s.slot = slot;
  if (s.seq == 0 || s.header_len == 0) return std::nullopt;
  return s;
}

/// Patch a header image's 4-byte numrecs field (offset 4).
void PatchNumrecs(std::vector<std::byte>& header, std::uint64_t numrecs) {
  if (header.size() >= 8)
    PutU32(header.data() + 4, static_cast<std::uint32_t>(numrecs));
}

/// The primary's header, decoded from its first 64 KiB, or from the whole
/// file when the header runs past them. Only an I/O error is a bad status.
struct PrimaryHeader {
  pnc::Status decoded;
  std::vector<std::byte> bytes;  ///< exactly the header, when it decodes
};

pnc::Result<PrimaryHeader> ReadPrimaryHeader(CommitIo& primary) {
  constexpr std::uint64_t kProbe = 64 * 1024;
  PrimaryHeader out;
  const std::uint64_t size = primary.Size();
  out.bytes.resize(std::min(size, kProbe));
  PNC_RETURN_IF_ERROR(primary.Read(0, out.bytes));
  auto h = Header::Decode(out.bytes);
  if (!h.ok() && h.status().code() == pnc::Err::kTrunc && size > kProbe) {
    out.bytes.resize(size);
    PNC_RETURN_IF_ERROR(primary.Read(0, out.bytes));
    h = Header::Decode(out.bytes);
  }
  out.decoded = h.status();
  out.bytes.resize(h.ok() ? h.value().EncodedSize() : 0);
  return out;
}

}  // namespace

std::string JournalPath(const std::string& path) { return path + ".nccommit"; }

std::uint32_t HeaderCrc(pnc::ConstByteSpan header) {
  // numrecs (bytes [4, 8)) is committed through the slot, not the image:
  // zero it so a numrecs-only commit leaves the header CRC valid.
  std::uint32_t crc = 0;
  if (header.size() <= 4) return pnc::Crc32(header);
  crc = pnc::Crc32(header.first(4));
  static constexpr std::byte kZero[4] = {};
  const std::size_t z = std::min<std::size_t>(4, header.size() - 4);
  crc = pnc::Crc32(pnc::ConstByteSpan(kZero, z), crc);
  if (header.size() > 8) crc = pnc::Crc32(header.subspan(8), crc);
  return crc;
}

std::uint64_t SumsDataBegin(const Header& h) {
  std::uint64_t db = 0;
  bool first = true;
  for (const auto& v : h.vars) {
    if (first || v.begin < db) db = v.begin;
    first = false;
  }
  return first ? 0 : db;
}

pnc::Result<std::optional<CommitState>> ReadCommitState(
    CommitIo& journal, std::vector<std::byte>* prefix) {
  // Shorter than magic + slots: created, but the first commit's prefix
  // write has not landed (in full). Nothing can have committed yet.
  const std::uint64_t size = journal.Size();
  if (size < kJournalShadowOffset) return std::optional<CommitState>();
  std::vector<std::byte> head(std::min(size, kJournalProbeBytes));
  PNC_RETURN_IF_ERROR(journal.Read(0, head));
  if (std::memcmp(head.data(), kMagic, kJournalMagicLen) != 0)
    return pnc::Status(pnc::Err::kNotNc, "bad commit journal magic");
  std::optional<CommitState> best;
  for (int slot = 0; slot < 2; ++slot) {
    auto s = DecodeSlot(
        pnc::ConstByteSpan(head.data() + kJournalSlotOffset[slot],
                           kJournalSlotSize),
        slot);
    if (s && (!best || s->seq > best->seq)) best = s;
  }
  if (prefix != nullptr) *prefix = std::move(head);
  return best;
}

CommitState PrimaryState(pnc::ConstByteSpan header, std::uint64_t numrecs,
                         bool open) {
  CommitState s;
  s.header_len = header.size();
  s.numrecs = numrecs;
  s.header_crc = HeaderCrc(header);
  s.flags = open ? kCommitFlagOpen : 0;
  s.slot = 1;  // so the first journal commit lands in slot A
  return s;
}

pnc::Status Commit(CommitIo& journal, pnc::ConstByteSpan header,
                   std::uint64_t numrecs, const ChunkSumMap* sums, bool open,
                   CommitState& state) {
  const CommitState prev = state;
  // Only a closing commit carries the table: an OPEN one is never trusted,
  // so it commits none (table_len 0).
  const std::vector<std::byte> table = sums != nullptr && !open
                                           ? sums->EncodeTable()
                                           : std::vector<std::byte>();
  CommitState next;
  next.seq = prev.seq + 1;
  next.slot = 1 - prev.slot;
  next.header_len = header.size();
  next.numrecs = numrecs;
  next.header_crc = HeaderCrc(header);
  next.table_len = table.size();
  next.table_crc = pnc::Crc32(table);
  next.flags = sums != nullptr && open ? kCommitFlagOpen : 0;

  const bool data_commit = prev.header_len == next.header_len &&
                           prev.header_crc == next.header_crc;
  // A restatement of the commit in force writes nothing: that commit is
  // already durable, and with no table on either side there is nothing to
  // refresh (see the file comment).
  if (data_commit && prev.numrecs == next.numrecs &&
      prev.flags == next.flags && prev.table_len == 0 && table.empty())
    return pnc::Status::Ok();

  // The image from `at` through the table end: the magic (over the
  // primary only), the slots (data commits only), the shadow and the
  // table.
  const bool over_primary = prev.seq == 0;
  const std::uint64_t at = over_primary  ? 0
                           : data_commit ? kJournalSlotOffset[0]
                                         : kJournalShadowOffset;
  std::vector<std::byte> image(kJournalShadowOffset - at + header.size() +
                               table.size());
  std::byte* shadow = image.data() + (kJournalShadowOffset - at);
  std::memcpy(shadow, header.data(), header.size());
  if (!table.empty())
    std::memcpy(shadow + header.size(), table.data(), table.size());
  if (over_primary) std::memcpy(image.data(), kMagic, kJournalMagicLen);

  if (data_commit) {
    // The commit point is the new slot inside this one write; the other
    // slot (zeroed over the primary), the shadow and everything before the
    // tear point keep their committed meaning (see the file comment).
    if (!over_primary)
      EncodeSlot(prev, image.data() + (kJournalSlotOffset[prev.slot] - at));
    EncodeSlot(next, image.data() + (kJournalSlotOffset[next.slot] - at));
    PNC_RETURN_IF_ERROR(journal.Write(at, image));
    PNC_RETURN_IF_ERROR(journal.Sync());
  } else {
    // Shadow and table first; they are worthless until the slot commits,
    // so tearing them is harmless. Over the primary the write also carries
    // the magic and both zeroed slots: a torn prefix still holds no valid
    // slot.
    PNC_RETURN_IF_ERROR(journal.Write(at, image));
    PNC_RETURN_IF_ERROR(journal.Sync());
    std::byte slot[kJournalSlotSize] = {};
    EncodeSlot(next, slot);
    PNC_RETURN_IF_ERROR(journal.Write(kJournalSlotOffset[next.slot],
                                      pnc::ConstByteSpan(slot)));
    PNC_RETURN_IF_ERROR(journal.Sync());
  }
  state = next;
  return pnc::Status::Ok();
}

pnc::Result<std::optional<ChunkSumMap>> ReadCommittedSums(
    CommitIo& journal, const CommitState& s, pnc::ConstByteSpan prefix,
    int reread_attempts) {
  // An OPEN commit (a session that may have crashed after it) carries no
  // table; neither does one committed without sums.
  if (s.table_len == 0 || (s.flags & kCommitFlagOpen) != 0)
    return std::optional<ChunkSumMap>();
  std::vector<std::byte> table(s.table_len);
  for (int attempt = 0; attempt < std::max(1, reread_attempts); ++attempt) {
    if (attempt == 0 && prefix.size() >= s.table_offset() + s.table_len) {
      const auto at = prefix.subspan(s.table_offset(), s.table_len);
      std::copy(at.begin(), at.end(), table.begin());
    } else {
      PNC_RETURN_IF_ERROR(journal.Read(s.table_offset(), table));
    }
    if (pnc::Crc32(table) != s.table_crc) continue;  // torn, or a read flip
    auto m = ChunkSumMap::DecodeTable(table);
    if (m.ok()) return std::optional<ChunkSumMap>(std::move(m).value());
  }
  return std::optional<ChunkSumMap>();  // persistent damage: all unsummed
}

pnc::Result<VerifyReport> AnalyzeCommit(CommitIo* journal, CommitIo& primary) {
  VerifyReport r;

  std::optional<CommitState> state;
  bool damaged = false;  ///< a journal whose magic is damaged
  if (journal) {
    auto read = ReadCommitState(*journal, &r.journal_prefix);
    if (read.ok()) {
      state = std::move(read).value();
    } else if (read.status().code() == pnc::Err::kNotNc) {
      damaged = true;
    } else {
      return read.status();  // a read failure is not a verdict
    }
  }
  r.has_journal = journal != nullptr;
  // No valid slot, or no journal at all: the primary is in force, and the
  // file is clean when its header decodes. A journal with nothing
  // committed belongs to a dataset whose first EndDef is its only commit
  // so far, or that crashed before that EndDef's header landed; a missing
  // one, to a legacy or externally produced file. A damaged magic loses
  // whatever the journal committed, so that file is torn, never clean: it
  // opens from the primary with no trusted table, and a writable session's
  // first commit lays the journal down again from offset 0.
  if (!state) {
    PNC_ASSIGN_OR_RETURN(PrimaryHeader ph, ReadPrimaryHeader(primary));
    const bool decodes = ph.decoded.ok();
    r.state = !decodes  ? FileState::kCorrupt
              : damaged ? FileState::kTornRecoverable
                        : FileState::kClean;
    if (damaged) {
      r.detail = "journal magic damaged";
    } else if (r.has_journal) {
      r.detail = decodes ? "journal empty; header decodes"
                         : "no committed state (crashed before first commit)";
    } else {
      r.detail = decodes ? "no journal; header decodes"
                         : "no journal; header does not decode: " +
                               ph.decoded.message();
    }
    r.committed_header = std::move(ph.bytes);
    return r;
  }

  const CommitState s = *state;
  r.has_commit = true;
  r.committed = s;

  // Does the primary already hold the committed image? Its count may trail
  // the slot's: a Sync commits the count to the slot alone.
  std::vector<std::byte> prim(s.header_len);
  PNC_RETURN_IF_ERROR(primary.Read(0, prim));
  const bool prim_crc_ok = HeaderCrc(prim) == s.header_crc;
  const std::uint32_t slot_numrecs = static_cast<std::uint32_t>(s.numrecs);
  const std::uint32_t prim_numrecs =
      prim.size() >= 8 ? GetU32(prim.data() + 4) : 0;
  if (prim_crc_ok && prim.size() >= 8 && prim_numrecs <= slot_numrecs) {
    r.numrecs_lag = prim_numrecs < slot_numrecs;
    PatchNumrecs(prim, s.numrecs);
    r.committed_header = std::move(prim);
    r.state = FileState::kClean;
    r.detail = "primary matches committed state (seq " +
               std::to_string(s.seq) + ")";
    if (r.numrecs_lag)
      r.detail += "; its record count " + std::to_string(prim_numrecs) +
                  " trails the slot's " + std::to_string(s.numrecs) +
                  " until Close";
    return r;
  }

  // Reconstruct the committed header: prefer the shadow (a commit that never
  // reached the primary), else the primary body with the committed numrecs
  // patched back (a torn numrecs update, or a torn next shadow write).
  std::vector<std::byte> shadow(s.header_len);
  if (r.journal_prefix.size() >= kJournalShadowOffset + s.header_len) {
    std::copy_n(r.journal_prefix.begin() + kJournalShadowOffset,
                s.header_len, shadow.begin());
  } else {
    PNC_RETURN_IF_ERROR(journal->Read(kJournalShadowOffset, shadow));
  }
  r.numrecs_only = prim_crc_ok;
  if (HeaderCrc(shadow) == s.header_crc) {
    PatchNumrecs(shadow, s.numrecs);
    r.committed_header = std::move(shadow);
    r.state = FileState::kTornRecoverable;
    r.detail = prim_crc_ok
                   ? "torn numrecs; committed count in slot (seq " +
                         std::to_string(s.seq) + ")"
                   : "primary torn; committed header in shadow (seq " +
                         std::to_string(s.seq) + ")";
    PNC_IOSTAT_EVENT_DUMP_HARD("crash-recovery");
    return r;
  }
  if (prim_crc_ok) {
    PatchNumrecs(prim, s.numrecs);
    r.committed_header = std::move(prim);
    r.state = FileState::kTornRecoverable;
    r.detail = "shadow torn by a later uncommitted write; primary body "
               "intact, committed numrecs patched (seq " +
               std::to_string(s.seq) + ")";
    PNC_IOSTAT_EVENT_DUMP_HARD("crash-recovery");
    return r;
  }

  r.state = FileState::kCorrupt;
  r.detail = "neither primary nor shadow matches the committed CRC (seq " +
             std::to_string(s.seq) + ")";
  PNC_IOSTAT_EVENT_DUMP_HARD("crash-recovery");
  return r;
}

pnc::Status RepairFromReport(const VerifyReport& report, CommitIo& primary) {
  switch (report.state) {
    case FileState::kClean:
      return report.numrecs_lag
                 ? WritePrimaryNumrecs(primary, report.committed.numrecs)
                 : pnc::Status::Ok();
    case FileState::kTornRecoverable:
      // Without a commit (a damaged journal) the primary is what is in
      // force; there is nothing to roll it to.
      if (!report.has_commit) return pnc::Status::Ok();
      PNC_RETURN_IF_ERROR(
          primary.Write(0, pnc::ConstByteSpan(report.committed_header)));
      return primary.Sync();
    case FileState::kCorrupt:
    default:
      return pnc::Status(pnc::Err::kIo,
                         "unrecoverable: " + report.detail);
  }
}

pnc::Status WritePrimaryNumrecs(CommitIo& primary, std::uint64_t numrecs) {
  std::byte buf[4];
  PutU32(buf, static_cast<std::uint32_t>(numrecs));
  PNC_RETURN_IF_ERROR(primary.Write(4, pnc::ConstByteSpan(buf, 4)));
  PNC_OBSERVE(kHeaderWrite, .len = 4);
  return primary.Sync();
}

}  // namespace ncformat
