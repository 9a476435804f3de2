// One observation path for all instrumentation.
//
// Every production layer says what happened with one call carrying one
// typed record, e.g.
//   PNC_OBSERVE(kPfsGrant, .t_ns = begin, .end_ns = done, ...);
// and this header decides what the record feeds. Observe() folds it, in
// order, into the counters (iostat.hpp), the flight ring (events.hpp; the
// a0/a1 packing lives here) and the access-pattern profiler (pattern.hpp),
// whose server × time cells also back `ncstat --timeline`.
//
// Cost: -DPNC_IOSTAT=OFF expands PNC_OBSERVE to an unevaluated sizeof. At
// runtime the one gate is SinkMask (iostat.hpp): with every sink off an
// observation is one load and a branch. The sinks are forced inline,
// so in optimized builds, with the kind a constant at each call site, their
// switches fold to the calls that kind needs, a sink that is off costs one
// bit test, and the record is never built in memory. Recording never
// advances a virtual clock.
//
// Production trees include only this header; the lifecycle macros they use
// (PNC_IOSTAT_REQ_SCOPE, _CURRENT_REQ, _BIND_RANK, _AUTO_REPORT,
// _EVENT_DUMP*) come in through it.
#pragma once

#include <cstdint>
#include <span>

#include "iostat/events.hpp"
#include "iostat/iostat.hpp"
#include "iostat/pattern.hpp"
#include "util/bytes.hpp"

namespace iostat {

/// What happened, and the Obs fields each kind reads.
enum class ObsKind : std::uint8_t {
  // pfs
  kPfsRequest,    ///< request reached the servers: len, is_write, n = servers
  kPfsGrant,      ///< a server served its share: t_ns..end_ns, off = request
                  ///< offset, len, server, depth, wait_ns, is_write, flag =
                  ///< it arrived before a request the server already served
  kPfsSync,       ///< zero-length flush at server 0: t_ns..end_ns, wait_ns,
                  ///< flag = as kPfsGrant's
  kPfsFault,      ///< injected fault: t_ns, is_write, detail = fault class
  kPfsRetry,      ///< a client layer retried a pfs request
  // mpiio
  kIndep,         ///< independent-path call: t_ns, len, is_write
  kSieve,         ///< sieve window or pass-through segment: off, len = wanted,
                  ///< n = bytes at the file, is_write, flag = sieved
  kRmwWait,       ///< a sieved write took the file's read-modify-write lock:
                  ///< t_ns = asked, end_ns = granted, off, len = window
  kXfer,          ///< a retried transfer moved bytes: len, is_write
  kIoRetry,       ///< data transfer retried: t_ns, n = attempt, wait_ns =
                  ///< backoff, is_write
  kSyncRetry,     ///< sync retried: t_ns, n = attempt, wait_ns = backoff
  kCollBegin,     ///< collective entered: t_ns, len, is_write
  kTwoPhase,      ///< payload into two-phase I/O: len, extents = fragments
  kXchgBegin,     ///< exchange phase begins: t_ns, off = window
  kXchgSend,      ///< exchange message posted: t_ns, off = window, peer
  kXchgEnd,       ///< exchange phase ends: t_ns..end_ns, off = window
  kIoBegin,       ///< I/O phase begins (the rank's issue cost plus its
                  ///< waits on the I/O channel): t_ns, off = window
  kAggPiece,      ///< aggregator adopted a piece: t_ns, off = window, peer,
                  ///< req = the source's request ID
  kAggWindow,     ///< aggregator moved one window at the file: len
  kIoEnd,         ///< aggregator I/O phase ends: t_ns..end_ns, off = window
  kIoOverlap,     ///< I/O-channel time one collective hid behind its
                  ///< exchanges: wait_ns = the time no rank waited for
  kCollEnd,       ///< collective left: t_ns, is_write, flag = ok
  // format, netcdf, pnetcdf
  kNcData,        ///< data call: len, is_write, flag = collective, detail =
                  ///< variable, extents (parallel API only)
  kHeaderRead,    ///< header bytes read: len
  kHeaderWrite,   ///< header bytes written: len
  kModeSwitch,    ///< define/data/independent mode transition
  kReqsCoalesced, ///< nonblocking requests merged by WaitAll: n
  kSumVerify,     ///< a read recomputed one chunk CRC
  kSumMismatch,   ///< a chunk CRC mismatched (before healing)
  kSumHealed,     ///< a chunk re-read healed a mismatch
  kDataCorrupt,   ///< a mismatch survived healing: t_ns, off = chunk,
                  ///< n = heal attempts
  // simmpi
  kMessage,       ///< point-to-point message delivered: len
  kCollective,    ///< collective entry call
  kStraggle,      ///< straggler-delayed send: t_ns, len, peer
  kMsgDrop,       ///< send lost in transit: t_ns, len, peer
  kRankCrash,     ///< rank died to an armed fault policy: t_ns, off = op
  kAgreement,     ///< fault-tolerant agreement done: t_ns, n = survivors,
                  ///< wait_ns, flag = a rank died
};

/// One observation. Designated initializers must follow this field order.
struct Obs {
  ObsKind kind;
  double t_ns = 0;          ///< virtual time it happened (interval begin)
  double end_ns = 0;        ///< interval end
  std::uint64_t off = 0;    ///< file offset, or the index the kind names
  std::uint64_t len = 0;    ///< payload bytes
  std::uint64_t n = 0;      ///< a count
  int server = 0;           ///< pfs server
  int peer = 0;             ///< the other rank
  std::uint64_t depth = 0;  ///< server queue depth at the grant
  double wait_ns = 0;       ///< queue wait, retry backoff or agreement wait
  std::uint64_t req = 0;    ///< a peer's request ID
  bool is_write = false;
  bool flag = false;        ///< the kind's yes/no verdict
  const char* detail = nullptr;  ///< short label (nullptr: the request's)
  std::span<const pnc::Extent> extents = {};
};

/// Counters and the ring keep times in whole ns.
inline std::uint64_t Ns(double ns) { return static_cast<std::uint64_t>(ns); }

[[gnu::always_inline]] inline void CountSink(const Obs& o) {
  const auto add = [](Ctr c, std::uint64_t v) { Registry::Get().Add(c, v); };
  const auto max = [](Ctr c, std::uint64_t v) { Registry::Get().Max(c, v); };
  const bool w = o.is_write;
  switch (o.kind) {
    case ObsKind::kPfsRequest:
      add(w ? Ctr::kPfsWriteOps : Ctr::kPfsReadOps, 1);
      add(w ? Ctr::kPfsBytesWritten : Ctr::kPfsBytesRead, o.len);
      max(Ctr::kPfsServers, o.n);
      break;
    case ObsKind::kPfsGrant:
      add(Ctr::kPfsQueueWaitNs, Ns(o.wait_ns));
      add(Ctr::kPfsBusyNs, Ns(o.end_ns - o.t_ns));
      max(Ctr::kPfsHorizonNs, Ns(o.end_ns));
      max(Ctr::kPfsQueueDepthMax, o.depth);
      if (o.flag) add(Ctr::kPfsGrantInversions, 1);
      break;
    case ObsKind::kPfsSync:
      add(Ctr::kPfsQueueWaitNs, Ns(o.wait_ns));
      if (o.flag) add(Ctr::kPfsGrantInversions, 1);
      break;
    case ObsKind::kPfsFault: add(Ctr::kPfsFaultsInjected, 1); break;
    case ObsKind::kPfsRetry: add(Ctr::kPfsRetries, 1); break;
    case ObsKind::kIndep:
      add(w ? Ctr::kMpiioIndepWrites : Ctr::kMpiioIndepReads, 1);
      break;
    case ObsKind::kSieve:
      add(Ctr::kMpiioSieveBytesWanted, o.len);
      add(Ctr::kMpiioSieveBytesFile, o.n);
      break;
    case ObsKind::kRmwWait:
      add(Ctr::kMpiioRmwWaitNs, Ns(o.end_ns - o.t_ns));
      break;
    case ObsKind::kXfer:
      add(w ? Ctr::kMpiioBytesWritten : Ctr::kMpiioBytesRead, o.len);
      break;
    case ObsKind::kIoRetry: add(Ctr::kMpiioRetries, 1); break;
    case ObsKind::kCollBegin:
      add(w ? Ctr::kMpiioCollWrites : Ctr::kMpiioCollReads, 1);
      break;
    case ObsKind::kTwoPhase: add(Ctr::kMpiioCollPayloadBytes, o.len); break;
    case ObsKind::kXchgSend: add(Ctr::kMpiioExchangeMsgs, 1); break;
    case ObsKind::kXchgEnd:
      add(Ctr::kMpiioExchangeNs, Ns(o.end_ns - o.t_ns));
      break;
    case ObsKind::kAggWindow: add(Ctr::kMpiioAggBytes, o.len); break;
    case ObsKind::kIoEnd:
      add(Ctr::kMpiioIoPhaseNs, Ns(o.end_ns - o.t_ns));
      break;
    case ObsKind::kIoOverlap:
      add(Ctr::kMpiioIoOverlapNs, Ns(o.wait_ns));
      break;
    case ObsKind::kNcData:
      add(Ctr::kNcDataCalls, 1);
      add(w ? Ctr::kNcDataBytesWritten : Ctr::kNcDataBytesRead, o.len);
      break;
    case ObsKind::kHeaderRead: add(Ctr::kNcHeaderBytesRead, o.len); break;
    case ObsKind::kHeaderWrite: add(Ctr::kNcHeaderBytesWritten, o.len); break;
    case ObsKind::kModeSwitch: add(Ctr::kNcModeSwitches, 1); break;
    case ObsKind::kReqsCoalesced: add(Ctr::kNcReqsCoalesced, o.n); break;
    case ObsKind::kSumVerify: add(Ctr::kNcSumChunksVerified, 1); break;
    case ObsKind::kSumMismatch: add(Ctr::kNcSumMismatch, 1); break;
    case ObsKind::kSumHealed: add(Ctr::kNcSumHealedRetries, 1); break;
    case ObsKind::kMessage:
      add(Ctr::kMpiMessages, 1);
      add(Ctr::kMpiMessageBytes, o.len);
      break;
    case ObsKind::kCollective: add(Ctr::kMpiCollectives, 1); break;
    default: break;
  }
}

[[gnu::always_inline]] inline void RingSink(const Obs& o) {
  const auto rec = [&o](Ev ev, double t, double d, std::uint64_t a0,
                        std::uint64_t a1) {
    FlightRecorder::Get().Record(ev, t, d, a0, a1, o.detail);
  };
  const auto peer = static_cast<std::uint64_t>(o.peer);
  switch (o.kind) {
    case ObsKind::kPfsGrant:
      FlightRecorder::Get().Record(
          Ev::kPfsServer, o.t_ns, o.end_ns - o.t_ns,
          (o.len << 8) | (static_cast<std::uint64_t>(o.server) & 0xff),
          Ns(o.wait_ns), o.is_write ? "w" : "r");
      break;
    case ObsKind::kPfsSync:
      FlightRecorder::Get().Record(Ev::kPfsServer, o.t_ns, o.end_ns - o.t_ns,
                                   0, Ns(o.wait_ns), "s");
      break;
    case ObsKind::kPfsFault:
      rec(Ev::kPfsFault, o.t_ns, 0, o.is_write, 0);
      break;
    case ObsKind::kIndep: rec(Ev::kIndep, o.t_ns, 0, o.len, o.is_write); break;
    case ObsKind::kRmwWait:
      rec(Ev::kRmwWait, o.t_ns, o.end_ns - o.t_ns, o.off, o.len);
      break;
    case ObsKind::kIoRetry:
      rec(Ev::kRetry, o.t_ns, o.wait_ns, o.is_write, o.n);
      break;
    case ObsKind::kSyncRetry: rec(Ev::kRetry, o.t_ns, o.wait_ns, 1, o.n); break;
    case ObsKind::kCollBegin:
      rec(Ev::kCollBegin, o.t_ns, 0, o.len, o.is_write);
      break;
    case ObsKind::kXchgBegin: rec(Ev::kXchgBegin, o.t_ns, 0, o.off, 0); break;
    case ObsKind::kXchgSend: rec(Ev::kXchgSend, o.t_ns, 0, o.off, peer); break;
    case ObsKind::kXchgEnd: rec(Ev::kXchgEnd, o.end_ns, 0, o.off, 0); break;
    case ObsKind::kIoBegin: rec(Ev::kIoBegin, o.t_ns, 0, o.off, 0); break;
    case ObsKind::kAggPiece:
      rec(Ev::kAggPiece, o.t_ns, 0, (o.off << 32) | peer, o.req);
      break;
    case ObsKind::kIoEnd: rec(Ev::kIoEnd, o.end_ns, 0, o.off, 0); break;
    case ObsKind::kCollEnd:
      rec(Ev::kCollEnd, o.t_ns, 0, o.flag, o.is_write);
      break;
    case ObsKind::kDataCorrupt:
      rec(Ev::kDataCorrupt, o.t_ns, 0, o.off, o.n);
      break;
    case ObsKind::kStraggle:
      rec(Ev::kRankStraggle, o.t_ns, 0, o.len, peer);
      break;
    case ObsKind::kMsgDrop: rec(Ev::kMsgDrop, o.t_ns, 0, o.len, peer); break;
    case ObsKind::kRankCrash: rec(Ev::kRankCrash, o.t_ns, 0, o.off, 0); break;
    case ObsKind::kAgreement:
      rec(Ev::kAgreement, o.t_ns, o.wait_ns, o.n, o.flag);
      break;
    default: break;
  }
}

[[gnu::always_inline]] inline void PatternSink(const Obs& o) {
  switch (o.kind) {
    case ObsKind::kPfsGrant:
      PatternRegistry::Get().RecordPfsGrant(o.server, o.off, o.len, o.t_ns,
                                            o.end_ns, o.depth, o.wait_ns);
      break;
    case ObsKind::kSieve:
      PatternRegistry::Get().RecordSieveWindow(o.is_write, o.len, o.n, o.off,
                                               o.flag);
      break;
    case ObsKind::kTwoPhase:
      PatternRegistry::Get().RecordTwophasePre(o.extents);
      break;
    case ObsKind::kAggWindow:
      PatternRegistry::Get().RecordAggWindow(o.len);
      break;
    case ObsKind::kNcData:
      PatternRegistry::Get().RecordAccess(o.detail == nullptr ? "" : o.detail,
                                          o.is_write, o.flag, o.extents);
      break;
    default: break;
  }
}

/// Fold `o` into the sinks whose bits are set in `sinks`.
[[gnu::always_inline]] inline void Observe(unsigned sinks, const Obs& o) {
  if (sinks & kSinkCounters) CountSink(o);
  if (sinks & kSinkRing) RingSink(o);
  if (sinks & kSinkPattern) PatternSink(o);
}

}  // namespace iostat

#if PNC_IOSTAT_ENABLED

/// Record that `what` (a bare ObsKind enumerator) happened, with the fields
/// it carries as designated initializers, e.g.
///   PNC_OBSERVE(kHeaderWrite, .len = bytes.size());
#define PNC_OBSERVE(what, ...)                                            \
  do {                                                                    \
    if (const unsigned pnc_obs_sinks_ = ::iostat::SinkMask())             \
      ::iostat::Observe(pnc_obs_sinks_,                                   \
                        ::iostat::Obs{.kind = ::iostat::ObsKind::what,    \
                                      __VA_ARGS__});                      \
  } while (0)

#else  // compiled out: nothing evaluated, no iostat symbols referenced

#define PNC_OBSERVE(what, ...) \
  ((void)sizeof(::iostat::Obs{.kind = ::iostat::ObsKind::what, __VA_ARGS__}))

#endif  // PNC_IOSTAT_ENABLED
