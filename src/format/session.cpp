#include "format/session.hpp"

#include "format/header_io.hpp"
#include "iostat/observe.hpp"

namespace ncformat {

CommitPlan PlanCommit(CommitPoint at, const CommitFacts& f) {
  CommitPlan p;
  switch (at) {
    case CommitPoint::kOpen:
      // A writable session with sums marks itself OPEN before any data
      // write can land, so a crash leaves no table to trust.
      p.journal = p.open = f.writable && f.sums && f.journaled;
      return p;
    case CommitPoint::kHeader:
      // Data first, metadata last: the data that the header makes
      // reachable, then the journal commit, then the primary. A fresh
      // dataset's primary header is its first commit.
      p.data_sync = p.journal = p.open = f.journaled && !f.fresh;
      p.header = true;
      return p;
    case CommitPoint::kSync:
    case CommitPoint::kClose:
      break;
  }
  const bool closing = at == CommitPoint::kClose;
  // A writable session commits a grown record count, and with sums every
  // Sync and Close commits (a Sync's OPEN restatement writes nothing).
  const bool commit = f.writable && (f.grew || f.sums);
  // The slot is where a journaled Sync commits the count; Close catches the
  // primary's field up. Without a journal the field is the only place the
  // count goes, so every commit that grew it patches.
  p.patch = f.writable && (f.grew || f.primary_lags) &&
            (closing || !f.journaled);
  p.resolve = commit && f.sums;
  p.journal = f.journaled && (commit || p.patch);
  p.open = !closing;
  // Data before the count and sums that describe it. A Sync makes the data
  // durable regardless. A Close without a write-back buffer to empty syncs
  // it when it writes anything, and otherwise leaves it to the file close.
  p.data_sync = f.write_back || !closing || p.writes();
  return p;
}

CommitFacts CommitSession::Facts(bool grew) const {
  return {.writable = writable_,
          .journaled = journaled_,
          .sums = sums_on_,
          .grew = grew,
          .primary_lags = primary_lags_,
          .fresh = fresh_,
          .write_back = path_.write_back()};
}

pnc::Status CommitSession::Shared(pnc::Status st, const char* what) {
  int err = st.raw();
  PNC_RETURN_IF_ERROR(path_.ShareValue(err));
  if (err == 0) return pnc::Status::Ok();
  return path_.root() ? st : pnc::Status(static_cast<pnc::Err>(err), what);
}

pnc::Status CommitSession::Create() {
  pnc::Status st = pnc::Status::Ok();
  if (path_.root()) {
    auto j = path_.OpenJournal(/*create=*/true);
    if (j.ok()) {
      journal_ = std::move(j).value();
    } else {
      st = j.status();
    }
  }
  PNC_RETURN_IF_ERROR(Shared(st, "commit journal create"));
  journaled_ = fresh_ = true;
  sums_on_ = SumsEnabled();
  return pnc::Status::Ok();
}

/// The root's crash recovery before anything trusts the on-disk header:
/// when the primary does not match the committed state, roll it back or
/// forward (in place when writable; in memory only, `torn`, when not).
pnc::Status CommitSession::Recover(bool& torn,
                                   std::vector<std::byte>& committed,
                                   std::vector<std::byte>& prefix) {
  PNC_ASSIGN_OR_RETURN(journal_, path_.OpenJournal(/*create=*/false));
  PNC_ASSIGN_OR_RETURN(std::unique_ptr<CommitIo> primary,
                       path_.OpenRawPrimary());
  PNC_ASSIGN_OR_RETURN(VerifyReport r, AnalyzeCommit(journal_.get(), *primary));
  if (r.has_commit) state_ = r.committed;
  primary_lags_ = r.numrecs_lag;
  if (r.state == FileState::kCorrupt && r.has_commit)
    return pnc::Status(pnc::Err::kNotNc, "unrecoverable: " + r.detail);
  if (r.state == FileState::kTornRecoverable) {
    if (writable_) {
      PNC_RETURN_IF_ERROR(RepairFromReport(r, *primary));
    } else {
      torn = !r.numrecs_only;
    }
  }
  committed = std::move(r.committed_header);
  prefix = std::move(r.journal_prefix);
  return pnc::Status::Ok();
}

pnc::Result<Header> CommitSession::Open(const std::string& what) {
  pnc::Status st = pnc::Status::Ok();
  // 0: no journal; 1: a journal; 2: a journal, and the primary's numrecs
  // field trails the committed count, which a writable Close catches up.
  int journaled = 0;
  bool torn = false;  ///< header body recovered in memory only
  std::vector<std::byte> committed, prefix;
  if (path_.root() && path_.JournalExists()) {
    journaled = 1;
    st = Recover(torn, committed, prefix);
    if (primary_lags_) journaled = 2;
  }
  PNC_RETURN_IF_ERROR(Shared(st, what.c_str()));
  PNC_RETURN_IF_ERROR(path_.ShareValue(journaled));
  journaled_ = journaled != 0;
  primary_lags_ = journaled == 2;

  // The root fetches the header (recovery already read the committed one)
  // and shares it; every process then holds the same copy.
  Header h;
  std::vector<std::byte> bytes;
  if (path_.root()) {
    auto r = committed.empty()
                 ? ReadHeader(path_.Size(),
                              [this](std::uint64_t off, pnc::ByteSpan out) {
                                PNC_OBSERVE(kHeaderRead, .len = out.size());
                                return path_.Read(off, out);
                              })
                 : Header::Decode(committed);
    if (r.ok()) {
      h = std::move(r).value();
      h.Encode(bytes);
      // No valid slot, or no journal yet: the primary is the commit in
      // force.
      if (!state_) state_ = PrimaryState(bytes, h.numrecs, /*open=*/false);
    } else {
      st = r.status();
    }
  }
  PNC_RETURN_IF_ERROR(Shared(st, what.c_str()));
  PNC_RETURN_IF_ERROR(path_.Share(bytes));
  if (!path_.root()) {
    PNC_ASSIGN_OR_RETURN(h, Header::Decode(bytes));
  }
  committed_numrecs_ = h.numrecs;

  // The sums. The table rides the journal, so there is nothing to do
  // without one unless this session starts it.
  if (!SumsEnabled() || (!journaled_ && !writable_)) return h;
  std::vector<std::byte> table;
  if (path_.root()) st = OpenSums(h, torn, prefix, table);
  PNC_RETURN_IF_ERROR(Shared(st, "chunk-sum table open"));
  journaled_ = true;
  PNC_RETURN_IF_ERROR(path_.Share(table));
  if (table.empty()) return h;
  if (!path_.root()) {
    PNC_ASSIGN_OR_RETURN(sums_, ChunkSumMap::DecodeTable(table));
  }
  sums_on_ = true;
  return h;
}

/// The root's sums decision at open. It reads the committed table and
/// decides trust; a writable session then makes its OPEN commit. `table`
/// returns what the other processes need: the geometry for a writable
/// session, the whole trusted table for a read-only one, which verifies;
/// empty, the sums stay off (read-only with nothing trustworthy, or a torn
/// header body whose in-memory repair does not match the bytes on disk).
pnc::Status CommitSession::OpenSums(const Header& h, bool torn,
                                    pnc::ConstByteSpan prefix,
                                    std::vector<std::byte>& table) {
  if (!journal_) {
    PNC_ASSIGN_OR_RETURN(journal_, path_.OpenJournal(/*create=*/true));
  }
  if (torn) return pnc::Status::Ok();
  PNC_ASSIGN_OR_RETURN(std::optional<ChunkSumMap> loaded,
                       ReadCommittedSums(*journal_, *state_, prefix));
  const std::uint64_t db = SumsDataBegin(h);
  // A table whose recorded geometry disagrees with the live header is
  // discarded rather than risking false corruption verdicts.
  const bool trusted = loaded && loaded->data_begin() == db;
  if (!writable_ && !trusted) return pnc::Status::Ok();
  if (trusted) {
    sums_ = *std::move(loaded);
  } else {
    sums_.Clear();
    sums_.SetGeometry(SumChunkSize(), db);
  }
  sums_on_ = journaled_ = true;
  PNC_RETURN_IF_ERROR(
      RootCommit(PlanCommit(CommitPoint::kOpen, Facts(/*grew=*/false)), h));
  ChunkSumMap geometry;
  geometry.SetGeometry(sums_.chunk_size(), sums_.data_begin());
  table = (writable_ ? geometry : sums_).EncodeTable();
  return pnc::Status::Ok();
}

void CommitSession::LayoutSums(const Header& h, bool had_data) {
  if (!sums_on_) return;
  const std::uint64_t db = SumsDataBegin(h);
  if (sums_.chunk_size() != 0 && sums_.data_begin() == db) return;
  const std::uint64_t cs =
      sums_.chunk_size() != 0 ? sums_.chunk_size() : SumChunkSize();
  sums_.Clear();
  sums_.SetGeometry(cs, db);
  if (!had_data || !path_.root()) return;
  const std::uint64_t fsize = path_.Size();
  if (fsize > db) sums_.MarkDirtyRange(db, fsize - db);
}

pnc::Status CommitSession::Commit(CommitPoint at, Header& h) {
  if (at != CommitPoint::kHeader) {
    std::uint64_t most = h.numrecs;
    PNC_RETURN_IF_ERROR(path_.MaxAcross(most));
    h.numrecs = most;
  }
  const bool grew = h.numrecs != committed_numrecs_;
  const CommitPlan p = PlanCommit(at, Facts(grew));
  if (p.data_sync) PNC_RETURN_IF_ERROR(path_.SyncData());
  if (!p.writes()) return pnc::Status::Ok();
  if (p.resolve) PNC_RETURN_IF_ERROR(path_.GatherDirty(sums_));
  const pnc::Status st =
      path_.root() ? RootCommit(p, h) : pnc::Status::Ok();
  // Every process returns the root's verdict, and the rendezvous is
  // reached by everyone or no one.
  PNC_RETURN_IF_ERROR(Shared(st, p.header ? "header write failed"
                                          : "commit failed"));
  PNC_RETURN_IF_ERROR(path_.Barrier());
  if (p.resolve) sums_.ClearDirty();
  fresh_ = false;
  committed_numrecs_ = h.numrecs;
  primary_lags_ = !p.header && !p.patch && (primary_lags_ || grew);
  return pnc::Status::Ok();
}

/// The root's half of a commit: resolve the dirty chunks (combining the
/// fragments that tile a chunk, reading back only the chunks they do not),
/// commit through the journal, rewrite the primary header, patch its
/// numrecs field.
pnc::Status CommitSession::RootCommit(const CommitPlan& p, const Header& h) {
  if (p.resolve) {
    PNC_RETURN_IF_ERROR(sums_.ResolveDirty(
        path_.Size(), [this](std::uint64_t off, pnc::ByteSpan out) {
          return path_.Read(off, out);
        }));
  }
  std::vector<std::byte> bytes;
  if (p.journal || p.header) h.Encode(bytes);
  if (p.journal) {
    PNC_RETURN_IF_ERROR(ncformat::Commit(*journal_, bytes, h.numrecs,
                                         sums_on_ ? &sums_ : nullptr, p.open,
                                         *state_));
  }
  if (p.header) {
    PNC_RETURN_IF_ERROR(path_.WriteHeader(bytes));
    // Durable before the next commit may overwrite the shadow it relies
    // on, or, with no journal commit, as the commit in force.
    if (journaled_) PNC_RETURN_IF_ERROR(path_.Sync());
    if (!p.journal) state_ = PrimaryState(bytes, h.numrecs, sums_on_);
    PNC_OBSERVE(kHeaderWrite, .len = bytes.size());
  }
  if (p.patch) PNC_RETURN_IF_ERROR(WritePrimaryNumrecs(path_, h.numrecs));
  return pnc::Status::Ok();
}

}  // namespace ncformat
