// Critical-path analysis over flight-recorder events.
//
// The two-phase collective path emits paired phase arrival/departure events
// on every rank (CollBegin/End, XchgBegin/End, IoBegin/End) plus per-server
// service events from pfs. This module aligns those per-rank streams into
// collective *ops* and decomposes each op's virtual wall time, per rank,
// into three named segments:
//
//   straggler-wait = time the rank spent not exchanging and not doing file
//                    I/O (arriving late, or blocked on the final clock
//                    sync waiting for slower ranks);
//   exchange       = time inside the two-phase exchange windows;
//   file-io        = time inside the two-phase I/O phase: the rank's issue
//                    cost plus its waits on the aggregator's I/O channel
//                    (transfers the channel runs while the rank exchanges
//                    are hidden, and counted as mpiio.io_overlap_ns).
//
// The three segments tile each rank's [op begin, depart] interval exactly.
// Departures are clock-synced at the end of the collective, but the sync
// allreduce itself costs per-rank time (tree roles differ), so departs can
// trail the op end by that skew — the analyzer attributes ~100% (and, by
// the acceptance test, >= 95%) of (nranks x wall) to named (rank, phase)
// segments. The per-op `attributed_frac` reports that invariant so
// consumers (ncstat --critpath, the trace-label ctest) can assert it.
//
// Ops are aligned across ranks by tail position (k-th most recent), since
// a bounded ring may have dropped different amounts of history per rank.
#pragma once

#include <string>
#include <vector>

#include "iostat/events.hpp"

namespace iostat {

struct CritPath {
  struct RankSeg {
    int rank = 0;
    std::uint64_t req = 0;      ///< request ID driving this rank's op
    std::string detail;         ///< "api:variable" of that request
    double arrive_ns = 0;       ///< CollBegin timestamp
    double depart_ns = 0;       ///< CollEnd timestamp (post clock sync)
    double wait_ns = 0;         ///< straggler wait within [op begin, depart]
    double exchange_ns = 0;
    double io_ns = 0;
  };
  struct ServerSeg {
    int server = 0;
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
    double queue_ns = 0;        ///< summed queue wait behind earlier work
    double service_ns = 0;      ///< summed service time
  };
  struct Op {
    std::size_t index = 0;      ///< tail-aligned position (0 = oldest kept)
    bool is_write = false;
    bool ok = true;             ///< every rank's CollEnd reported success
    double begin_ns = 0;        ///< min CollBegin across ranks
    double end_ns = 0;          ///< max CollEnd across ranks
    std::vector<RankSeg> ranks;
    std::vector<ServerSeg> servers;  ///< pfs service inside the op window

    [[nodiscard]] double wall_ns() const { return end_ns - begin_ns; }
    /// Sum of the named per-rank segments (wait + exchange + io).
    [[nodiscard]] double attributed_ns() const;
    /// attributed_ns / (nranks * wall_ns); 1.0 when fully decomposed.
    [[nodiscard]] double attributed_frac() const;
  };
  std::vector<Op> ops;
};

/// Decompose the collective ops found in a per-rank event snapshot
/// (FlightRecorder::Collect() order: index == rank, oldest event first).
CritPath AnalyzeCritPath(const std::vector<std::vector<Event>>& ranks);

/// Same, over a parsed pnc-events-v1 dump (ncstat --critpath=FILE).
CritPath AnalyzeCritPath(const EventDump& dump);

/// Human-readable rendering (ncstat --critpath).
std::string PrettyPrintCritPath(const CritPath& cp);

}  // namespace iostat
