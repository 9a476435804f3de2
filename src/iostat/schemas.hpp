// Stable wire-schema names, in one place.
//
// Every serializer writes these markers and every parser seeks them; keeping
// the literals here means a version bump cannot silently diverge between the
// writer and the parser of the same schema (the pair moves together or not
// at all). Parsers scan for the quoted marker before committing to a full
// parse, so the constants double as the embedded-object search keys.
#pragma once

namespace iostat::schemas {

/// Counter/derived-metric report (iostat::ToJson / ParseReportJson).
inline constexpr const char* kIostat = "pnc-iostat-v1";
/// Access-pattern profiler section (PatternToJson / ParsePatternValue).
inline constexpr const char* kPattern = "pnc-pattern-v1";
/// Flight-recorder dump (EventsToJson / ParseEventsJson).
inline constexpr const char* kEvents = "pnc-events-v1";
/// One benchmark record line (bench::Recorder / benchlib ParseRecordLine).
inline constexpr const char* kBench = "pnc-bench-v1";
/// One suite header line (ncbench / benchlib ParseHeaderLine).
inline constexpr const char* kBenchSuite = "pnc-bench-suite-v1";

}  // namespace iostat::schemas
