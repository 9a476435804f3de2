#include "format/commit.hpp"

#include <cstring>

#include "iostat/observe.hpp"
#include "util/crc32.hpp"
#include "util/xdr.hpp"

namespace ncformat {

namespace {

constexpr std::byte kMagic[kJournalMagicLen] = {
    std::byte{'N'}, std::byte{'C'}, std::byte{'J'}, std::byte{'L'},
    std::byte{'0'}, std::byte{'1'}, std::byte{0},   std::byte{0}};

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

/// Encode a slot: rec_crc covers the first 28 bytes.
std::vector<std::byte> EncodeSlot(const CommitState& s) {
  std::vector<std::byte> b(kJournalSlotSize);
  PutU64(b.data(), s.seq);
  PutU64(b.data() + 8, s.header_len);
  PutU64(b.data() + 16, s.numrecs);
  PutU32(b.data() + 24, s.header_crc);
  PutU32(b.data() + 28, pnc::Crc32(pnc::ConstByteSpan(b.data(), 28)));
  return b;
}

/// Decode a slot if its CRC holds and it is non-empty (seq 0 = never used).
std::optional<CommitState> DecodeSlot(pnc::ConstByteSpan b, int slot) {
  if (b.size() < kJournalSlotSize) return std::nullopt;
  if (GetU32(b.data() + 28) != pnc::Crc32(b.first(28))) return std::nullopt;
  CommitState s;
  s.seq = GetU64(b.data());
  s.header_len = GetU64(b.data() + 8);
  s.numrecs = GetU64(b.data() + 16);
  s.header_crc = GetU32(b.data() + 24);
  s.slot = slot;
  if (s.seq == 0 || s.header_len == 0) return std::nullopt;
  return s;
}

/// Patch a header image's 4-byte numrecs field (offset 4).
void PatchNumrecs(std::vector<std::byte>& header, std::uint64_t numrecs) {
  if (header.size() >= 8)
    PutU32(header.data() + 4, static_cast<std::uint32_t>(numrecs));
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

pnc::Result<std::optional<CommitState>> ReadCommitState(CommitIo& journal) {
  // Shorter than magic + slots: created, but the first commit's prefix
  // write has not landed (in full). Nothing can have committed yet.
  if (journal.Size() < kJournalShadowOffset)
    return std::optional<CommitState>();
  std::vector<std::byte> head(kJournalShadowOffset);
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
  return best;
}

pnc::Status CommitHeaderToJournal(CommitIo& journal, pnc::ConstByteSpan header,
                                  std::uint64_t numrecs,
                                  const std::optional<CommitState>& prev,
                                  CommitState* out) {
  CommitState next;
  next.seq = prev ? prev->seq + 1 : 1;
  next.slot = prev ? 1 - prev->slot : 0;
  next.header_len = header.size();
  next.numrecs = numrecs;
  next.header_crc = HeaderCrc(header);

  // Shadow first; it is worthless until the slot commits, so tearing it is
  // harmless (the previous commit's slot no longer references these bytes —
  // its committed image lives in the primary by now). The first commit into
  // a fresh journal writes the magic and both zeroed slots with it, from
  // offset 0: a torn prefix still holds no valid slot.
  if (prev) {
    PNC_RETURN_IF_ERROR(journal.Write(kJournalShadowOffset, header));
  } else {
    std::vector<std::byte> image(kJournalShadowOffset + header.size());
    std::memcpy(image.data(), kMagic, kJournalMagicLen);
    std::memcpy(image.data() + kJournalShadowOffset, header.data(),
                header.size());
    PNC_RETURN_IF_ERROR(journal.Write(0, image));
  }
  PNC_RETURN_IF_ERROR(journal.Sync());
  // The commit point: one small slot write, CRC-sealed.
  PNC_RETURN_IF_ERROR(
      journal.Write(kJournalSlotOffset[next.slot], EncodeSlot(next)));
  PNC_RETURN_IF_ERROR(journal.Sync());
  if (out) *out = next;
  return pnc::Status::Ok();
}

pnc::Status CommitNumrecsToJournal(CommitIo& journal, const CommitState& cur,
                                   std::uint64_t numrecs, CommitState* out) {
  CommitState next = cur;
  next.seq = cur.seq + 1;
  next.slot = 1 - cur.slot;
  next.numrecs = numrecs;
  PNC_RETURN_IF_ERROR(
      journal.Write(kJournalSlotOffset[next.slot], EncodeSlot(next)));
  PNC_RETURN_IF_ERROR(journal.Sync());
  if (out) *out = next;
  return pnc::Status::Ok();
}

pnc::Result<VerifyReport> AnalyzeCommit(CommitIo* journal, CommitIo& primary) {
  VerifyReport r;

  pnc::Result<std::optional<CommitState>> state =
      pnc::Status(pnc::Err::kNotNc, "no commit journal");
  if (journal) state = ReadCommitState(*journal);
  if (!state.ok()) {
    // No journal at all: a legacy / externally produced file. Classify by
    // whether the primary decodes.
    r.has_journal = false;
    std::vector<std::byte> probe(
        std::min<std::uint64_t>(primary.Size(), 64 * 1024));
    PNC_RETURN_IF_ERROR(primary.Read(0, probe));
    auto h = Header::Decode(probe);
    if (!h.ok() && h.status().code() == pnc::Err::kTrunc &&
        probe.size() < primary.Size()) {
      probe.resize(primary.Size());
      PNC_RETURN_IF_ERROR(primary.Read(0, probe));
      h = Header::Decode(probe);
    }
    r.state = h.ok() ? FileState::kClean : FileState::kCorrupt;
    r.detail = h.ok() ? "no journal; header decodes"
                      : "no journal; header does not decode: " +
                            h.status().message();
    return r;
  }
  r.has_journal = true;

  if (!state.value()) {
    // Journal created but nothing ever committed: a file that crashed
    // before its first enddef. There is no old state to return to.
    std::vector<std::byte> probe(
        std::min<std::uint64_t>(primary.Size(), 64 * 1024));
    PNC_RETURN_IF_ERROR(primary.Read(0, probe));
    const bool decodes = Header::Decode(probe).ok();
    r.state = decodes ? FileState::kClean : FileState::kCorrupt;
    r.detail = decodes ? "journal empty; header decodes"
                       : "no committed state (crashed before first commit)";
    return r;
  }

  const CommitState s = *state.value();
  r.has_commit = true;
  r.committed = s;

  // Does the primary already hold the committed image?
  std::vector<std::byte> prim(s.header_len);
  PNC_RETURN_IF_ERROR(primary.Read(0, prim));
  const bool prim_crc_ok = HeaderCrc(prim) == s.header_crc;
  const bool prim_numrecs_ok =
      prim.size() >= 8 &&
      GetU32(prim.data() + 4) == static_cast<std::uint32_t>(s.numrecs);
  if (prim_crc_ok && prim_numrecs_ok) {
    r.state = FileState::kClean;
    r.detail = "primary matches committed state (seq " +
               std::to_string(s.seq) + ")";
    return r;
  }

  // Reconstruct the committed header: prefer the shadow (a commit that never
  // reached the primary), else the primary body with the committed numrecs
  // patched back (a torn numrecs update, or a torn next shadow write).
  std::vector<std::byte> shadow(s.header_len);
  PNC_RETURN_IF_ERROR(journal->Read(kJournalShadowOffset, shadow));
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
      return pnc::Status::Ok();
    case FileState::kTornRecoverable:
      PNC_RETURN_IF_ERROR(
          primary.Write(0, pnc::ConstByteSpan(report.committed_header)));
      return primary.Sync();
    case FileState::kCorrupt:
    default:
      return pnc::Status(pnc::Err::kIo,
                         "unrecoverable: " + report.detail);
  }
}

}  // namespace ncformat
