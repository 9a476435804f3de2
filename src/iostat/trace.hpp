// Chrome trace-event (chrome://tracing / Perfetto) export of the flight
// recorder's retained tail (PNC_FLIGHT_EVENTS events per rank). Events are
// keyed by virtual time (simmpi::VirtualClock nanoseconds), so the exported
// timeline shows the simulated schedule, not wall time.
#pragma once

#include <string>

#include "iostat/iostat.hpp"
#include "iostat/timeline.hpp"
#include "util/status.hpp"

namespace iostat {

/// Encode the ring's retained events as trace-event JSON:
///   {"traceEvents":[{"name":"exchange"|"io","cat":"mpiio","ph":"X",
///                    "ts":..,"dur":..,"pid":0,"tid":<rank>}, ...],
///    "displayTimeUnit":"ms"}
/// Each two-phase exchange or aggregator-I/O phase is an "X" slice drawn
/// from its matched Begin/End events; API requests, exchange flows and pfs
/// service follow as overlays. One "M" thread_name metadata event per rank
/// gives each rank a named track ("rank 0", "rank 1", ...). Timestamps are
/// microseconds (trace-event convention), converted from virtual
/// nanoseconds.
///
/// When a timeline snapshot is supplied (and present), its buckets become
/// additional Chrome counter ("ph":"C") tracks under the pfs process
/// (pid 1): per-server bandwidth ("tl mbps s<N>") and the global rate
/// tracks ("tl <track name>"). One sample per bucket, at the bucket's start time.
std::string ToChromeTrace(const TimelineSummary* timeline = nullptr);

/// ToChromeTrace() written to `path`. Fails only on file-system errors.
pnc::Status WriteChromeTrace(const std::string& path,
                             const TimelineSummary* timeline = nullptr);

}  // namespace iostat
