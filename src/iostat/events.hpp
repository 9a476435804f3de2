// Causal request tracing and the always-on flight recorder.
//
// Two pieces, layered on the iostat registry's rank binding:
//
//  * Request context: a per-rank monotonic request ID is minted at the
//    netCDF / PnetCDF API boundary (ReqScope, installed via the
//    PNC_IOSTAT_REQ_SCOPE macro) together with a short "api:variable"
//    detail string. Both live in the rank's context (util/turn.hpp), so
//    they follow the rank across the others' turns and every event any
//    lower layer records while that API call is on the stack — mpiio
//    two-phase exchange and aggregator I/O, pfs per-server service, faults,
//    retries — attributes back to the originating call without any
//    parameter threading. Cross-rank hops (two-phase exchange messages)
//    carry the sender's request ID explicitly in the message header; the
//    aggregator records an AggPiece event linking its own context to the
//    source rank's request.
//
//  * Flight recorder: a bounded, always-on, per-rank ring of fixed-size
//    event records. Writers are lock-free (one relaxed fetch_add to claim a
//    slot, plain stores, one release store of the sequence number); the
//    ring keeps the most recent `capacity` events per rank and counts what
//    it overwrote. The tail is dumped in the stable `pnc-events-v1` JSON
//    schema by the simmpi hang watchdog, by pfs hard-fault paths and
//    crash-point recovery (both gated on PNC_FLIGHT_DUMP so routine
//    fault-injection tests stay quiet), and on demand via ncstat
//    --blackbox.
//
// The ring is one sink of PNC_OBSERVE: observe.hpp turns each observation
// into the event kind and a0/a1 payload documented below.
// Cost discipline matches iostat.hpp: -DPNC_IOSTAT=OFF compiles every macro
// to nothing; at runtime a disabled ring is one relaxed atomic load and a
// branch, an enabled event is ~a slot claim plus a few stores (~10 ns).
// Events never advance any virtual clock — timestamps are sampled by the
// caller and passed in, so enabling/disabling tracing cannot change
// simulated results.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "iostat/iostat.hpp"
#include "util/status.hpp"

namespace iostat {

/// Event kinds. The wire names (EvName) are the stable pnc-events-v1
/// schema vocabulary — append new kinds at the end, never reorder.
enum class Ev : std::uint16_t {
  kApiBegin = 1,  ///< request minted: a0=payload bytes, a1=is_write,
                  ///< detail="api:variable"
  kCollBegin,     ///< collective op entered: a0=payload bytes, a1=is_write
  kCollEnd,       ///< collective op left (post clock sync): a0=ok(1)/failed(0)
  kXchgBegin,     ///< two-phase exchange phase begins: a0=window
  kXchgEnd,       ///< two-phase exchange phase ends: a0=window
  kIoBegin,       ///< two-phase I/O phase begins (issue cost plus waits
                  ///< on the aggregator's I/O channel): a0=window
  kIoEnd,         ///< two-phase I/O phase ends: a0=window
  kXchgSend,      ///< exchange message posted: a0=window, a1=dest rank
  kAggPiece,      ///< aggregator adopted a piece: a0=(window<<32)|src rank,
                  ///< a1=source rank's request ID
  kPfsServer,     ///< one server serviced a request: t=service start,
                  ///< d=service ns, a0=(bytes<<8)|server, a1=queue-wait ns,
                  ///< detail="r"/"w"/"s"
  kPfsFault,      ///< injected fault surfaced: a0=is_write,
                  ///< detail="transient"/"permanent"/"crash"/"short"
  kRetry,         ///< transient-fault retry consumed: a0=is_write, a1=attempt
  kIndep,         ///< independent-path transfer: a0=bytes, a1=is_write
  kRankCrash,     ///< rank died to an armed RankFaultPolicy: a0=op index;
                  ///< req = the dead rank's last in-flight request ID
  kRankStraggle,  ///< straggler-delayed send: a0=bytes, a1=dest world rank
  kMsgDrop,       ///< send vanished in transit: a0=bytes, a1=dest world rank
  kAgreement,     ///< fault-tolerant agreement round done: d=wait ns,
                  ///< a0=survivor count, a1=any_dead
  kDataCorrupt,   ///< chunk checksum mismatch survived heal retries:
                  ///< a0=chunk index, a1=heal attempts; req = the read
                  ///< that surfaced kDataCorrupt
  kRmwWait,       ///< a sieved write took the file's read-modify-write
                  ///< lock: t=asked, d=wait ns, a0=window offset,
                  ///< a1=window bytes
};

/// Stable wire name for an event kind (e.g. "pfs_server").
const char* EvName(Ev e);
/// Inverse of EvName; false if `name` is not a known kind.
bool EvFromName(std::string_view name, Ev* out);

/// One fixed-size flight-recorder record (the copyable, inspection-side
/// form; the ring stores these with an atomic sequence word).
struct Event {
  double t_ns = 0;            ///< virtual timestamp (kind-specific anchor)
  double d_ns = 0;            ///< duration, when the kind carries one
  std::uint64_t req = 0;      ///< originating request ID (0 = none bound)
  std::uint64_t a0 = 0;       ///< kind-specific payload (see Ev comments)
  std::uint64_t a1 = 0;       ///< kind-specific payload
  std::uint64_t seq = 0;      ///< per-rank 1-based recording sequence
  Ev kind = Ev::kApiBegin;
  std::uint16_t rank = 0;
  char detail[24] = {};       ///< NUL-terminated, truncated context string
};

/// The per-rank ring buffers. One process-wide instance (like Registry);
/// rank slots are addressed through the same rank binding.
class FlightRecorder {
 public:
  static FlightRecorder& Get();

  /// Events each rank's ring retains (PNC_FLIGHT_EVENTS, default 4096).
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  /// Record one event on the calling rank's ring. `detail` may be
  /// nullptr to inherit the current request's detail string. Lock-free.
  void Record(Ev kind, double t_ns, double d_ns, std::uint64_t a0,
              std::uint64_t a1, const char* detail);

  /// Snapshot one rank's retained tail, oldest first. Best-effort while
  /// writers are live: records seen mid-write are dropped, not torn.
  [[nodiscard]] std::vector<Event> CollectRank(int rank) const;
  /// Snapshot every rank seen by the registry (index = rank).
  [[nodiscard]] std::vector<std::vector<Event>> Collect() const;
  /// Events recorded on `rank` since the last Reset (>= retained tail).
  [[nodiscard]] std::uint64_t RecordedCount(int rank) const;

  /// Drop every retained event (rings stay allocated). Benchmarks and
  /// tests call this between configurations; Registry::Reset forwards.
  void Reset();

 private:
  FlightRecorder();

  struct Rec {
    std::atomic<std::uint64_t> seq{0};  ///< 0 = empty, else Event::seq
    double t_ns;
    double d_ns;
    std::uint64_t req;
    std::uint64_t a0;
    std::uint64_t a1;
    Ev kind;
    std::uint16_t rank;
    char detail[24];
  };
  struct RankRing {
    std::atomic<Rec*> ring{nullptr};       ///< lazily allocated, leaked
    std::atomic<std::uint64_t> head{0};    ///< next sequence to claim
  };

  Rec* RingOf(RankRing& slot);

  RankRing slots_[kMaxRanks];
  std::size_t cap_;
};

/// Ring capacity from PNC_FLIGHT_EVENTS: 4096 when unset or malformed (a
/// malformed value warns once), clamped into [64, 2^20].
std::size_t FlightCapacityFromEnv();

// ---- request context (one per rank, pnc::turn::RankLocal) ----

/// The request ID bound to the calling rank, 0 if none.
std::uint64_t CurrentRequestId();

/// RAII request scope: mints the next request ID for this rank, binds it
/// (and an "api:variable" detail) to the rank, and records an ApiBegin
/// event. Restores the previous binding on destruction, so nested API
/// calls (e.g. a header commit inside a data call) attribute correctly.
class ReqScope {
 public:
  ReqScope(const char* api, std::string_view var, double t_ns,
           std::uint64_t bytes, std::uint64_t is_write);
  ~ReqScope();
  ReqScope(const ReqScope&) = delete;
  ReqScope& operator=(const ReqScope&) = delete;

 private:
  std::uint64_t saved_id_;
  char saved_detail_[24];
};

// ---- pnc-events-v1 dump / parse ----

/// Serialize every rank's retained tail as one pnc-events-v1 JSON object.
std::string EventsToJson(const char* reason);

/// Write the pnc-events-v1 dump to stderr, and additionally to the file
/// named by PNC_FLIGHT_DUMP if set ("-" means stderr only). Used by the
/// hang watchdog immediately before abort.
void DumpEvents(const char* reason);

/// Write the dump only when PNC_FLIGHT_DUMP names a destination — the
/// quiet variant for paths that fire routinely under fault-injection
/// tests (pfs hard faults, crash-point recovery).
void DumpEventsOnHardFault(const char* reason);

/// A parsed pnc-events-v1 dump.
struct EventDump {
  std::string reason;
  std::size_t capacity = 0;
  struct RankTail {
    int rank = 0;
    std::uint64_t recorded = 0;  ///< events recorded since reset
    std::uint64_t dropped = 0;   ///< recorded - retained (ring overwrote)
    std::vector<Event> events;   ///< oldest first
  };
  std::vector<RankTail> ranks;
};

/// Parse a pnc-events-v1 dump (scans forward to the schema marker, so the
/// object may be embedded in surrounding output).
pnc::Result<EventDump> ParseEventsJson(std::string_view text);

}  // namespace iostat

// ------------------------------------------------------- lifecycle macros
// Request context and dumps. Events themselves are recorded through
// PNC_OBSERVE (observe.hpp). Timestamps are always sampled by the caller
// from its virtual clock — recording never advances simulated time.
#if PNC_IOSTAT_ENABLED

/// Mint a request ID for this API call and bind it (plus "api:var" detail)
/// to the calling rank for the lifetime of the enclosing scope.
#define PNC_IOSTAT_REQ_SCOPE(api, var, t_ns, bytes, is_write)       \
  ::iostat::ReqScope pnc_iostat_req_scope_(                         \
      (api), (var), (t_ns), static_cast<std::uint64_t>(bytes),      \
      static_cast<std::uint64_t>(is_write))

/// The request ID bound to the calling rank (0 when none / disabled).
#define PNC_IOSTAT_CURRENT_REQ() ::iostat::CurrentRequestId()

/// Dump the flight-recorder tail (stderr + PNC_FLIGHT_DUMP). Watchdog use.
#define PNC_IOSTAT_EVENT_DUMP(reason) ::iostat::DumpEvents(reason)

/// Dump only when PNC_FLIGHT_DUMP is set (hard faults, crash recovery).
#define PNC_IOSTAT_EVENT_DUMP_HARD(reason) \
  ::iostat::DumpEventsOnHardFault(reason)

#else  // compiled out: zero cost, no iostat symbols referenced

#define PNC_IOSTAT_REQ_SCOPE(api, var, t_ns, bytes, is_write)          \
  ((void)sizeof(api), (void)sizeof(var), (void)sizeof(t_ns),           \
   (void)sizeof(bytes), (void)sizeof(is_write))
#define PNC_IOSTAT_CURRENT_REQ() (std::uint64_t{0})
#define PNC_IOSTAT_EVENT_DUMP(reason) ((void)sizeof(reason))
#define PNC_IOSTAT_EVENT_DUMP_HARD(reason) ((void)sizeof(reason))

#endif  // PNC_IOSTAT_ENABLED
