#include "iostat/events.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "iostat/json_cursor.hpp"
#include "iostat/schemas.hpp"
#include "util/env.hpp"
#include "util/json.hpp"
#include "util/turn.hpp"

namespace iostat {

using pnc::json::AppendF;

namespace {

/// Request context of the calling rank.
struct ReqCtx {
  std::uint64_t id = 0;
  char detail[24] = {};
};
const pnc::turn::RankLocal<ReqCtx> req_ctx;

/// Per-rank monotonic request counters. Kept outside the rank's context so
/// IDs stay monotonic per *rank* even across successive simmpi runs (each
/// run makes fresh rank contexts).
std::atomic<std::uint64_t> g_next_req[kMaxRanks];

void CopyDetail(char (&dst)[24], const char* src) {
  if (src == nullptr) {
    dst[0] = '\0';
    return;
  }
  std::size_t i = 0;
  for (; i + 1 < sizeof(dst) && src[i] != '\0'; ++i) dst[i] = src[i];
  dst[i] = '\0';
}

}  // namespace

const char* EvName(Ev e) {
  switch (e) {
    case Ev::kApiBegin: return "api_begin";
    case Ev::kCollBegin: return "coll_begin";
    case Ev::kCollEnd: return "coll_end";
    case Ev::kXchgBegin: return "xchg_begin";
    case Ev::kXchgEnd: return "xchg_end";
    case Ev::kIoBegin: return "io_begin";
    case Ev::kIoEnd: return "io_end";
    case Ev::kXchgSend: return "xchg_send";
    case Ev::kAggPiece: return "agg_piece";
    case Ev::kPfsServer: return "pfs_server";
    case Ev::kPfsFault: return "pfs_fault";
    case Ev::kRetry: return "retry";
    case Ev::kIndep: return "indep";
    case Ev::kRankCrash: return "rank_crash";
    case Ev::kRankStraggle: return "rank_straggle";
    case Ev::kMsgDrop: return "msg_drop";
    case Ev::kAgreement: return "agreement";
    case Ev::kDataCorrupt: return "data_corrupt";
    case Ev::kRmwWait: return "rmw_wait";
  }
  return "unknown";
}

bool EvFromName(std::string_view name, Ev* out) {
  for (std::uint16_t k = 1;
       k <= static_cast<std::uint16_t>(Ev::kRmwWait); ++k) {
    const Ev e = static_cast<Ev>(k);
    if (name == EvName(e)) {
      *out = e;
      return true;
    }
  }
  return false;
}

std::size_t FlightCapacityFromEnv() {
  const std::int64_t n = pnc::util::EnvInt("PNC_FLIGHT_EVENTS", 4096);
  return static_cast<std::size_t>(
      std::clamp<std::int64_t>(n, 64, std::int64_t{1} << 20));
}

FlightRecorder::FlightRecorder() : cap_(FlightCapacityFromEnv()) {}

FlightRecorder& FlightRecorder::Get() {
  static FlightRecorder* g = new FlightRecorder();  // leaked, like Registry
  return *g;
}

FlightRecorder::Rec* FlightRecorder::RingOf(RankRing& slot) {
  Rec* ring = slot.ring.load(std::memory_order_acquire);
  if (ring != nullptr) return ring;
  // Rings are lazily allocated so idle rank slots cost nothing (kMaxRanks
  // eager rings would be hundreds of MB). Losing the CAS race is fine.
  Rec* fresh = new Rec[cap_];
  Rec* expected = nullptr;
  if (slot.ring.compare_exchange_strong(expected, fresh,
                                        std::memory_order_acq_rel))
    return fresh;
  delete[] fresh;
  return expected;
}

void FlightRecorder::Record(Ev kind, double t_ns, double d_ns,
                            std::uint64_t a0, std::uint64_t a1,
                            const char* detail) {
  const int rank = Registry::rank();
  RankRing& slot = slots_[rank];
  Rec* ring = RingOf(slot);
  const std::uint64_t seq =
      slot.head.fetch_add(1, std::memory_order_relaxed) + 1;
  Rec& rec = ring[(seq - 1) % cap_];
  // Invalidate, fill, then publish the sequence with release ordering so a
  // concurrent dump either sees a whole record or skips it.
  rec.seq.store(0, std::memory_order_relaxed);
  rec.t_ns = t_ns;
  rec.d_ns = d_ns;
  const ReqCtx& req = *req_ctx;
  rec.req = req.id;
  rec.a0 = a0;
  rec.a1 = a1;
  rec.kind = kind;
  rec.rank = static_cast<std::uint16_t>(rank);
  CopyDetail(rec.detail, detail == nullptr ? req.detail : detail);
  rec.seq.store(seq, std::memory_order_release);
}

std::vector<Event> FlightRecorder::CollectRank(int rank) const {
  std::vector<Event> out;
  if (rank < 0 || rank >= kMaxRanks) return out;
  const RankRing& slot = slots_[rank];
  const Rec* ring = slot.ring.load(std::memory_order_acquire);
  if (ring == nullptr) return out;
  const std::uint64_t head = slot.head.load(std::memory_order_acquire);
  const std::uint64_t n = std::min<std::uint64_t>(head, cap_);
  out.reserve(n);
  for (std::uint64_t s = head - n + 1; s <= head; ++s) {
    const Rec& rec = ring[(s - 1) % cap_];
    if (rec.seq.load(std::memory_order_acquire) != s) continue;
    Event e;
    e.t_ns = rec.t_ns;
    e.d_ns = rec.d_ns;
    e.req = rec.req;
    e.a0 = rec.a0;
    e.a1 = rec.a1;
    e.seq = s;
    e.kind = rec.kind;
    e.rank = rec.rank;
    std::memcpy(e.detail, rec.detail, sizeof(e.detail));
    e.detail[sizeof(e.detail) - 1] = '\0';
    // A writer may have overwritten the slot mid-copy; keep only records
    // whose sequence is still intact (best-effort flight recording).
    if (rec.seq.load(std::memory_order_acquire) != s) continue;
    out.push_back(e);
  }
  return out;
}

std::vector<std::vector<Event>> FlightRecorder::Collect() const {
  const int n = Registry::Get().nranks();
  std::vector<std::vector<Event>> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) out.push_back(CollectRank(r));
  return out;
}

std::uint64_t FlightRecorder::RecordedCount(int rank) const {
  if (rank < 0 || rank >= kMaxRanks) return 0;
  return slots_[rank].head.load(std::memory_order_relaxed);
}

void FlightRecorder::Reset() {
  for (auto& slot : slots_) {
    slot.head.store(0, std::memory_order_relaxed);
    Rec* ring = slot.ring.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (std::size_t i = 0; i < cap_; ++i)
      ring[i].seq.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t CurrentRequestId() { return req_ctx->id; }

ReqScope::ReqScope(const char* api, std::string_view var, double t_ns,
                   std::uint64_t bytes, std::uint64_t is_write) {
  ReqCtx& req = *req_ctx;
  saved_id_ = req.id;
  std::memcpy(saved_detail_, req.detail, sizeof(saved_detail_));
  if (!SinkOn(kSinkRing)) return;
  const int rank = Registry::rank();
  req.id = g_next_req[rank].fetch_add(1, std::memory_order_relaxed) + 1;
  // detail = "api:var", truncated to the fixed record width.
  char buf[24];
  std::size_t i = 0;
  for (; i + 1 < sizeof(buf) && api[i] != '\0'; ++i) buf[i] = api[i];
  if (!var.empty() && i + 2 < sizeof(buf)) {
    buf[i++] = ':';
    for (std::size_t j = 0; i + 1 < sizeof(buf) && j < var.size(); ++j)
      buf[i++] = var[j];
  }
  buf[i] = '\0';
  std::memcpy(req.detail, buf, sizeof(buf));
  FlightRecorder::Get().Record(Ev::kApiBegin, t_ns, 0.0, bytes, is_write,
                               req.detail);
}

ReqScope::~ReqScope() {
  ReqCtx& req = *req_ctx;
  req.id = saved_id_;
  std::memcpy(req.detail, saved_detail_, sizeof(saved_detail_));
}

// ------------------------------------------------------------- dump / parse

std::string EventsToJson(const char* reason) {
  const FlightRecorder& fr = FlightRecorder::Get();
  const int nranks = Registry::Get().nranks();
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":\"";
  out += schemas::kEvents;
  out += "\",\"reason\":\"";
  pnc::json::AppendEscaped(out, reason == nullptr ? "" : reason);
  AppendF(out, "\",\"capacity\":%zu,\"nranks\":%d,\"ranks\":[",
          fr.capacity(), nranks);
  for (int r = 0; r < nranks; ++r) {
    const std::vector<Event> tail = fr.CollectRank(r);
    const std::uint64_t recorded = fr.RecordedCount(r);
    const std::uint64_t dropped =
        recorded > tail.size() ? recorded - tail.size() : 0;
    AppendF(out,
            "%s{\"rank\":%d,\"recorded\":%" PRIu64 ",\"dropped\":%" PRIu64
            ",\"events\":[",
            r == 0 ? "" : ",", r, recorded, dropped);
    for (std::size_t i = 0; i < tail.size(); ++i) {
      const Event& e = tail[i];
      AppendF(out,
              "%s{\"seq\":%" PRIu64 ",\"kind\":\"%s\",\"t_ns\":%.3f,"
              "\"d_ns\":%.3f,\"req\":%" PRIu64 ",\"a0\":%" PRIu64
              ",\"a1\":%" PRIu64 ",\"detail\":\"",
              i == 0 ? "" : ",", e.seq, EvName(e.kind), e.t_ns, e.d_ns, e.req,
              e.a0, e.a1);
      pnc::json::AppendEscaped(out, e.detail);
      out += "\"}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

namespace {

void WriteDump(const std::string& json, bool always_stderr) {
  const char* path = std::getenv("PNC_FLIGHT_DUMP");
  bool wrote_stderr = false;
  if (always_stderr) {
    std::fwrite(json.data(), 1, json.size(), stderr);
    std::fputc('\n', stderr);
    std::fflush(stderr);
    wrote_stderr = true;
  }
  if (path == nullptr || *path == '\0') return;
  if (std::strcmp(path, "-") == 0) {
    if (!wrote_stderr) {
      std::fwrite(json.data(), 1, json.size(), stderr);
      std::fputc('\n', stderr);
      std::fflush(stderr);
    }
    return;
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;  // diagnostics must never fail the I/O path
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

}  // namespace

void DumpEvents(const char* reason) {
  WriteDump(EventsToJson(reason), /*always_stderr=*/true);
}

void DumpEventsOnHardFault(const char* reason) {
  const char* path = std::getenv("PNC_FLIGHT_DUMP");
  if (path == nullptr || *path == '\0') return;
  WriteDump(EventsToJson(reason), /*always_stderr=*/false);
}

pnc::Result<EventDump> ParseEventsJson(std::string_view text) {
  using jsoncur::Cursor;
  Cursor cur{text.data(), text.data() + text.size()};
  const auto fail = [](const char* what) {
    return pnc::Status(pnc::Err::kNotNc, std::string("pnc-events: ") + what);
  };
  if (!jsoncur::SeekObjectWithMarker(cur, schemas::kEvents))
    return fail("schema marker not found");

  EventDump dump;
  if (!cur.Eat('{')) return fail("expected object");
  if (cur.Eat('}')) return dump;
  do {
    std::string key;
    if (!cur.ParseString(&key) || !cur.Eat(':')) return fail("bad member");
    if (key == "reason") {
      if (!cur.ParseString(&dump.reason)) return fail("bad reason");
    } else if (key == "capacity") {
      double v = 0;
      if (!cur.ParseNumber(&v)) return fail("bad capacity");
      dump.capacity = static_cast<std::size_t>(v);
    } else if (key == "ranks") {
      if (!cur.Eat('[')) return fail("bad ranks");
      if (!cur.Eat(']')) {
        do {
          EventDump::RankTail tail;
          if (!cur.Eat('{')) return fail("bad rank object");
          if (!cur.Eat('}')) {
            do {
              std::string k2;
              if (!cur.ParseString(&k2) || !cur.Eat(':'))
                return fail("bad rank member");
              if (k2 == "rank") {
                double v = 0;
                if (!cur.ParseNumber(&v)) return fail("bad rank");
                tail.rank = static_cast<int>(v);
              } else if (k2 == "recorded") {
                if (!cur.ParseU64(&tail.recorded)) return fail("bad recorded");
              } else if (k2 == "dropped") {
                if (!cur.ParseU64(&tail.dropped)) return fail("bad dropped");
              } else if (k2 == "events") {
                if (!cur.Eat('[')) return fail("bad events");
                if (!cur.Eat(']')) {
                  do {
                    Event e;
                    if (!cur.Eat('{')) return fail("bad event object");
                    if (!cur.Eat('}')) {
                      do {
                        std::string k3;
                        if (!cur.ParseString(&k3) || !cur.Eat(':'))
                          return fail("bad event member");
                        if (k3 == "kind") {
                          std::string name;
                          if (!cur.ParseString(&name))
                            return fail("bad kind");
                          if (!EvFromName(name, &e.kind))
                            return fail("unknown event kind");
                        } else if (k3 == "detail") {
                          std::string d;
                          if (!cur.ParseString(&d)) return fail("bad detail");
                          CopyDetail(e.detail, d.c_str());
                        } else {
                          double v = 0;
                          if (!cur.ParseNumber(&v)) return fail("bad value");
                          if (k3 == "seq")
                            e.seq = static_cast<std::uint64_t>(v);
                          else if (k3 == "t_ns")
                            e.t_ns = v;
                          else if (k3 == "d_ns")
                            e.d_ns = v;
                          else if (k3 == "req")
                            e.req = static_cast<std::uint64_t>(v);
                          else if (k3 == "a0")
                            e.a0 = static_cast<std::uint64_t>(v);
                          else if (k3 == "a1")
                            e.a1 = static_cast<std::uint64_t>(v);
                        }
                      } while (cur.Eat(','));
                      if (!cur.Eat('}')) return fail("unterminated event");
                    }
                    e.rank = static_cast<std::uint16_t>(tail.rank);
                    tail.events.push_back(e);
                  } while (cur.Eat(','));
                  if (!cur.Eat(']')) return fail("unterminated events");
                }
              } else {
                if (!cur.SkipValue()) return fail("bad rank value");
              }
            } while (cur.Eat(','));
            if (!cur.Eat('}')) return fail("unterminated rank");
          }
          dump.ranks.push_back(std::move(tail));
        } while (cur.Eat(','));
        if (!cur.Eat(']')) return fail("unterminated ranks");
      }
    } else {
      if (!cur.SkipValue()) return fail("bad value");
    }
  } while (cur.Eat(','));
  if (!cur.Eat('}')) return fail("unterminated object");
  return dump;
}

}  // namespace iostat
