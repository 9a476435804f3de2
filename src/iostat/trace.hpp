// Chrome trace-event (chrome://tracing / Perfetto) export of the flight
// recorder's retained tail (PNC_FLIGHT_EVENTS events per rank). Events are
// keyed by virtual time (simmpi::VirtualClock nanoseconds), so the exported
// timeline shows the simulated schedule, not wall time.
#pragma once

#include <string>

#include "iostat/iostat.hpp"
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
std::string ToChromeTrace();

/// ToChromeTrace() written to `path`. Fails only on file-system errors.
pnc::Status WriteChromeTrace(const std::string& path);

}  // namespace iostat
