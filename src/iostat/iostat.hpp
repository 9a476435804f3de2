// Cross-layer I/O statistics (the observability subsystem).
//
// The paper's argument (§4–§5) is entirely about *where* I/O time goes —
// header vs data bytes, independent vs collective paths, two-phase exchange
// vs file access. This module makes those quantities observable: a
// process-wide registry of per-rank counters, populated from the
// observations every layer (pfs, mpiio, netcdf/pnetcdf, simmpi) makes
// through PNC_OBSERVE (observe.hpp) and reduced into an iostat::Report
// (min/max/sum/mean across ranks) at the end of a run.
//
// Layering: iostat sits at the very bottom of the dependency graph (it links
// only pnc_util), so every other layer can record into it without cycles.
// Ranks are fibers on one thread (simmpi), so "per rank" is a slot index
// held in the rank's context (pnc::turn::RankLocal, util/turn.hpp) and
// bound by the simmpi runtime when each rank starts; serial code records as
// rank 0.
//
// Cost discipline:
//   * Compile-time: building with -DPNC_IOSTAT_DISABLED (CMake option
//     PNC_IOSTAT=OFF) expands every PNC_* instrumentation macro to nothing.
//   * Runtime: the counter sink is ON by default and disabled with
//     PNC_IOSTAT=0 in the environment. One mask (SinkMask) holds the gate of
//     every sink; a disabled observation is one load and a branch.
//
// Threading: the registries are not thread-safe. The simulator runs every
// rank on one host thread (simmpi), so they are used from one thread at a
// time and need no lock. The stall watchdog's dump is the one reader on
// another thread; it reads only nranks() (max_rank_, atomic) and the flight
// ring (events.hpp).
//
// Production layers include only iostat/observe.hpp and use only its macros
// — a grep lint (tests/CMakeLists.txt) rejects any other reference to this
// module in those trees.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#if defined(PNC_IOSTAT_DISABLED)
#define PNC_IOSTAT_ENABLED 0
#else
#define PNC_IOSTAT_ENABLED 1
#endif

namespace iostat {

/// Counter taxonomy, grouped by layer. Names (CtrName) are the stable JSON
/// schema keys — append new counters at the end of a group, never reorder.
enum class Ctr : unsigned {
  // --- pfs: the simulated striped file system ---
  kPfsReadOps = 0,        ///< read requests served (incl. zero-length)
  kPfsWriteOps,           ///< write requests served (incl. sync round trips)
  kPfsBytesRead,          ///< payload bytes actually transferred by reads
  kPfsBytesWritten,       ///< payload bytes actually transferred by writes
  kPfsFaultsInjected,     ///< failed Try* attempts (transient/permanent/crash)
  kPfsRetries,            ///< retries recorded by client layers
  kPfsQueueWaitNs,        ///< ns requests spent queued at servers (sum)
  kPfsBusyNs,             ///< ns of server service time granted (sum)
  kPfsHorizonNs,          ///< latest server-schedule completion (max gauge)
  kPfsServers,            ///< servers in the pool (max gauge)
  kPfsQueueDepthMax,      ///< deepest server queue observed (max gauge)
  kPfsGrantInversions,    ///< grants whose arrival precedes one already
                          ///< granted on the same server (0: exact order)

  // --- mpiio: the MPI-IO subset ---
  kMpiioIndepReads,       ///< ReadAt calls entering the independent path
  kMpiioIndepWrites,      ///< WriteAt calls entering the independent path
  kMpiioCollReads,        ///< ReadAtAll calls (per rank)
  kMpiioCollWrites,       ///< WriteAtAll calls (per rank)
  kMpiioBytesRead,        ///< bytes moved from storage by this layer
  kMpiioBytesWritten,     ///< bytes moved to storage by this layer
  kMpiioSieveBytesWanted, ///< useful payload bytes through SievedTransfer
  kMpiioSieveBytesFile,   ///< bytes SievedTransfer moved at the file (>= wanted)
  kMpiioCollPayloadBytes, ///< payload bytes routed through two-phase I/O
  kMpiioAggBytes,         ///< bytes aggregators moved at the file
  kMpiioExchangeMsgs,     ///< two-phase exchange messages (excl. self)
  kMpiioExchangeNs,       ///< two-phase exchange-phase virtual time
  kMpiioIoPhaseNs,        ///< two-phase aggregator I/O-phase virtual time
  kMpiioRetries,          ///< transient-fault retries of mpiio's transfers
  kMpiioIoOverlapNs,      ///< two-phase I/O-channel time hidden behind
                          ///< the exchanges (channel busy, rank not waiting)
  kMpiioRmwWaitNs,        ///< virtual time sieved writes waited for a
                          ///< file's read-modify-write lock

  // --- netcdf/pnetcdf: the library layer (serial + parallel share keys) ---
  kNcDataCalls,           ///< data-access API calls reaching the I/O engine
  kNcHeaderBytesRead,     ///< file-header bytes read (incl. numrecs probes)
  kNcHeaderBytesWritten,  ///< file-header bytes written (incl. numrecs)
  kNcDataBytesRead,       ///< variable-data bytes requested by callers
  kNcDataBytesWritten,    ///< variable-data bytes supplied by callers
  kNcModeSwitches,        ///< EndDef/Redef/BeginIndepData/EndIndepData
  kNcReqsCoalesced,       ///< nonblocking requests merged by WaitAll
  kNcSumChunksVerified,   ///< data chunks whose CRC a read recomputed
  kNcSumMismatch,         ///< chunk CRC mismatches observed (pre-heal)
  kNcSumHealedRetries,    ///< chunk re-reads that healed a mismatch

  // --- simmpi: the in-process message layer ---
  kMpiMessages,           ///< point-to-point messages delivered
  kMpiMessageBytes,       ///< point-to-point payload bytes
  kMpiCollectives,        ///< collective entry calls (composites count parts)

  kCount
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Ctr::kCount);

/// Stable "layer.name" key for the JSON schema (e.g. "pfs.bytes_written").
const char* CtrName(Ctr c);

/// Most rank slots a process can address; BindRank clamps beyond this.
inline constexpr int kMaxRanks = 1024;

/// The sinks an observation (observe.hpp) can feed, as bits of SinkMask.
enum Sink : unsigned {
  kSinkCounters = 1u << 0,  ///< per-rank counters (PNC_IOSTAT, default on)
  kSinkRing = 1u << 1,      ///< flight-recorder ring (PNC_FLIGHT, default on)
  kSinkPattern = 1u << 2,   ///< access-pattern profiler (PNC_IOSTAT_PATTERN,
                            ///< default on)
};

/// Enabled sinks as read from the environment. PNC_IOSTAT=0 turns every
/// sink off; each sink's own variable then turns it on or off.
unsigned SinksFromEnv();

/// The one runtime gate of all instrumentation: the mask of enabled sinks,
/// read from the environment on first use. SetSink flips sinks at runtime.
inline unsigned& SinkMask() {
  static unsigned mask = SinksFromEnv();
  return mask;
}
inline bool SinkOn(unsigned sink) { return (SinkMask() & sink) != 0; }
inline void SetSink(unsigned sink, bool on) {
  if (on)
    SinkMask() |= sink;
  else
    SinkMask() &= ~sink;
}

class Registry {
 public:
  /// The process-wide registry.
  static Registry& Get();

  // ---- per-rank binding ----
  /// Bind the calling rank to a rank slot. The simmpi runtime binds every
  /// rank it starts; unbound threads (serial code, main) are rank 0.
  static void BindRank(int rank);
  [[nodiscard]] static int rank();

  // ---- recording (the counter sink of observe.hpp) ----
  void Add(Ctr c, std::uint64_t n);
  /// Raise counter `c` to at least `n` (a high-water gauge, e.g. the deepest
  /// server queue seen).
  void Max(Ctr c, std::uint64_t n);

  // ---- inspection ----
  /// Ranks observed so far (max bound rank + 1; at least 1).
  [[nodiscard]] int nranks() const;
  [[nodiscard]] std::uint64_t Value(int rank, Ctr c) const;

  /// Zero every counter, drop every recorded event and pattern cell, and
  /// forget bound ranks (slots stay allocated). Benchmarks call this between
  /// configurations.
  void Reset();

  /// If PNC_IOSTAT_REPORT names a file (or "-" for stdout), write the JSON
  /// report there. Called by Dataset::Close on rank 0 — after the collective
  /// close barrier, so every rank's counters are final ("produced
  /// collectively at Close"). Harmless no-op otherwise.
  void AutoReportAtClose();

 private:
  Registry();

  struct RankSlot {
    std::uint64_t c[kNumCounters] = {};
  };

  std::unique_ptr<RankSlot[]> slots_;
  /// Atomic because the stall watchdog's dump reads nranks() from its own
  /// thread while the stalled rank may still bind.
  std::atomic<int> max_rank_{0};
};

}  // namespace iostat

// ------------------------------------------------------- lifecycle macros
// Recording goes through PNC_OBSERVE (observe.hpp); these two bind ranks and
// emit the report.
#if PNC_IOSTAT_ENABLED

/// Bind the calling rank to counter slot `r` (simmpi runtime only).
#define PNC_IOSTAT_BIND_RANK(r) ::iostat::Registry::BindRank(r)

/// Emit the JSON report if PNC_IOSTAT_REPORT requests one (Close hook).
#define PNC_IOSTAT_AUTO_REPORT() ::iostat::Registry::Get().AutoReportAtClose()

#else  // compiled out: zero cost, no iostat symbols referenced

#define PNC_IOSTAT_BIND_RANK(r) ((void)sizeof(r))
#define PNC_IOSTAT_AUTO_REPORT() ((void)0)

#endif  // PNC_IOSTAT_ENABLED
