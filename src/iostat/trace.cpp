#include "iostat/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "iostat/events.hpp"
#include "util/json.hpp"

namespace iostat {

using pnc::json::AppendF;

namespace {

/// Flow-arrow binding ID linking a two-phase exchange send on the source
/// rank to the aggregator piece it lands in: (src rank, window, dst rank)
/// is unique within one collective and identical on both ends.
std::uint64_t FlowId(std::uint64_t src_rank, std::uint64_t window,
                     std::uint64_t dst_rank) {
  return (src_rank << 40) ^ (window << 20) ^ dst_rank;
}

}  // namespace

std::string ToChromeTrace() {
  const int nranks = Registry::Get().nranks();
  const std::vector<std::vector<Event>> events =
      FlightRecorder::Get().Collect();

  std::string out;
  out.reserve(4096);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (int r = 0; r < nranks; ++r) {
    AppendF(out,
            "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
            "\"args\":{\"name\":\"rank %d\"}}",
            first ? "" : ",", r, r);
    first = false;
  }
  // Two-phase phases as slices: each exchange / aggregator-I/O phase spans
  // its matched Begin/End ring events (same window). A phase whose Begin
  // the ring already overwrote is not drawn.
  for (std::size_t r = 0; r < events.size(); ++r) {
    const Event* open_xchg = nullptr;
    const Event* open_io = nullptr;
    for (const Event& e : events[r]) {
      const Event** open = nullptr;
      const char* name = nullptr;
      switch (e.kind) {
        case Ev::kXchgBegin: open_xchg = &e; continue;
        case Ev::kIoBegin: open_io = &e; continue;
        case Ev::kXchgEnd: open = &open_xchg; name = "exchange"; break;
        case Ev::kIoEnd: open = &open_io; name = "io"; break;
        default: continue;
      }
      const Event* begin = std::exchange(*open, nullptr);
      if (begin == nullptr || begin->a0 != e.a0) continue;
      // Trace-event timestamps are microseconds; events carry virtual ns.
      AppendF(out,
              "%s{\"name\":\"%s\",\"cat\":\"mpiio\",\"ph\":\"X\","
              "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%zu}",
              first ? "" : ",", name, begin->t_ns / 1000.0,
              (e.t_ns - begin->t_ns) / 1000.0, r);
      first = false;
    }
  }

  // Flight-recorder overlays: causal flow arrows for the two-phase
  // exchange (request-ID linked send -> aggregator piece), per-request
  // instants at the API boundary, and pfs per-server service tracks
  // (pid 1, one row per server).
  int max_server = -1;
  // Service begin/end edges harvested from kPfsServer events, turned into
  // per-server queue-depth Chrome counter ("ph":"C") tracks after the main
  // pass.
  struct CounterEdge {
    double ts_us;
    int server;
    int depth_delta;
  };
  std::vector<CounterEdge> edges;
  for (std::size_t r = 0; r < events.size(); ++r) {
    const std::uint64_t self = static_cast<std::uint64_t>(r);
    for (const Event& e : events[r]) {
      const double ts_us = e.t_ns / 1000.0;
      switch (e.kind) {
        case Ev::kApiBegin:
          AppendF(out, "%s{\"name\":\"", first ? "" : ",");
          pnc::json::AppendEscaped(out, e.detail);
          AppendF(out,
                  "\",\"cat\":\"req\",\"ph\":\"i\",\"s\":\"t\","
                  "\"ts\":%.3f,\"pid\":0,\"tid\":%zu,"
                  "\"args\":{\"req\":%" PRIu64 ",\"bytes\":%" PRIu64 "}}",
                  ts_us, r, e.req, e.a0);
          first = false;
          break;
        case Ev::kXchgSend:
          // Flow start on the sender (a0=window, a1=dest aggregator rank).
          AppendF(out,
                  "%s{\"name\":\"req\",\"cat\":\"flow\",\"ph\":\"s\","
                  "\"id\":%" PRIu64 ",\"ts\":%.3f,\"pid\":0,\"tid\":%zu,"
                  "\"args\":{\"req\":%" PRIu64 "}}",
                  first ? "" : ",", FlowId(self, e.a0, e.a1), ts_us, r,
                  e.req);
          first = false;
          break;
        case Ev::kAggPiece:
          // Flow finish on the aggregator (a0=(window<<32)|src rank,
          // a1=source request ID).
          AppendF(out,
                  "%s{\"name\":\"req\",\"cat\":\"flow\",\"ph\":\"f\","
                  "\"bp\":\"e\",\"id\":%" PRIu64 ",\"ts\":%.3f,\"pid\":0,"
                  "\"tid\":%zu,\"args\":{\"src_req\":%" PRIu64 "}}",
                  first ? "" : ",",
                  FlowId(e.a0 & 0xffffffffULL, e.a0 >> 32, self), ts_us, r,
                  e.a1);
          first = false;
          break;
        case Ev::kRmwWait:
          // The wait for a file's read-modify-write lock, as a slice.
          AppendF(out,
                  "%s{\"name\":\"rmw_wait\",\"cat\":\"mpiio\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%zu,"
                  "\"args\":{\"off\":%" PRIu64 ",\"bytes\":%" PRIu64 "}}",
                  first ? "" : ",", ts_us, e.d_ns / 1000.0, r, e.a0, e.a1);
          first = false;
          break;
        case Ev::kPfsServer: {
          const int server = static_cast<int>(e.a0 & 0xff);
          if (server > max_server) max_server = server;
          // Zero-length flushes ('s') observe the queue without occupying
          // it; everything else feeds the counter tracks below.
          if (e.detail[0] != 's') {
            edges.push_back({e.t_ns / 1000.0, server, +1});
            edges.push_back({(e.t_ns + e.d_ns) / 1000.0, server, -1});
          }
          AppendF(out,
                  "%s{\"name\":\"serve\",\"cat\":\"pfs\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"req\":%" PRIu64 ",\"rank\":%d,"
                  "\"bytes\":%" PRIu64 ",\"queue_ns\":%" PRIu64 "}}",
                  first ? "" : ",", ts_us, e.d_ns / 1000.0, server, e.req,
                  static_cast<int>(e.rank), e.a0 >> 8, e.a1);
          first = false;
          break;
        }
        default:
          break;
      }
    }
  }
  // Counter tracks: queue depth per server, as Chrome "ph":"C" events (a
  // sample per service begin/end). Ends sort before begins at equal
  // timestamps so back-to-back grants do not spike.
  std::stable_sort(edges.begin(), edges.end(),
                   [](const CounterEdge& a, const CounterEdge& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.depth_delta < b.depth_delta;
                   });
  std::map<int, std::int64_t> depth_by_server;
  for (const CounterEdge& e : edges) {
    const std::int64_t depth = depth_by_server[e.server] += e.depth_delta;
    AppendF(out,
            "%s{\"name\":\"queue depth s%d\",\"cat\":\"pfs\",\"ph\":\"C\","
            "\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"depth\":%" PRId64
            "}}",
            first ? "" : ",", e.server, e.ts_us, e.server, depth);
    first = false;
  }
  for (int s = 0; s <= max_server; ++s) {
    AppendF(out,
            "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
            "\"args\":{\"name\":\"pfs server %d\"}}",
            first ? "" : ",", s, s);
    first = false;
  }

  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

pnc::Status WriteChromeTrace(const std::string& path) {
  const std::string json = ToChromeTrace();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    return pnc::Status(pnc::Err::kIo, "cannot open trace file: " + path);
  const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  const int rc = std::fclose(f);
  if (n != json.size() || rc != 0)
    return pnc::Status(pnc::Err::kIo, "short write to trace file: " + path);
  return pnc::Status::Ok();
}

}  // namespace iostat
