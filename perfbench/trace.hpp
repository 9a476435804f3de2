// Outside-in tracing for pncbench.
//
// Spans are recorded by the benchmark around its own calls into the library's
// public functions; nothing inside src/ is instrumented for this. Each span
// carries its name, rank, job id, parent span, and both clocks: the rank's
// virtual clock (simmpi/pfs cost model) and the host steady clock. Spans stay
// in memory and are written out once, when the run ends.
//
// Every rank thread records into its own RankTrace, so recording takes no
// lock. A RankTrace is also where per-step virtual durations land; those are
// end-to-end samples and are kept whether or not spans are on.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "simmpi/clock.hpp"

namespace perfbench {

inline std::int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU ns used so far by every thread of the process, ended ones included.
inline std::int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct SpanRec {
  std::uint32_t job = 0;
  std::int32_t rank = 0;     ///< -1 for the main thread's phase span
  std::uint32_t id = 0;      ///< unique within (job, phase, rank)
  std::uint32_t parent = 0;  ///< 0 = the phase span
  const char* name = "";     ///< static string "layer.call"
  double vb = 0, ve = 0;     ///< virtual ns
  std::int64_t hb = 0, he = 0;  ///< host ns (steady clock)
};

struct RankTrace {
  std::vector<SpanRec> spans;
  std::vector<double> steps;  ///< virtual ns of each write step on this rank
  std::uint32_t next_id = 1;
};

/// Records one rank's calls for one phase of a job. `clock` may be null
/// (serial code before a dataset exists): the span then has no virtual
/// extent.
class Recorder {
 public:
  Recorder(RankTrace& t, const simmpi::VirtualClock* clock, bool tracing,
           std::uint32_t job, int rank)
      : t_(t), clock_(clock), tracing_(tracing), job_(job), rank_(rank) {}

  /// Follow `c` until Detach, which keeps its last reading.
  void Attach(const simmpi::VirtualClock& c) { clock_ = &c; }
  void Detach() {
    last_ = vnow();
    clock_ = nullptr;
  }
  [[nodiscard]] double vnow() const { return clock_ ? clock_->now() : last_; }
  std::vector<double>& steps() { return t_.steps; }

  /// Open the rank's root span; API spans become its children.
  void BeginRank() {
    if (!tracing_) return;
    root_ = Open("rank", 0);
  }
  void EndRank() {
    if (tracing_ && root_ != kNone) Close(root_);
  }

  /// Run `f` inside a span named `name` (a static string).
  template <class F>
  auto operator()(const char* name, F&& f) -> decltype(f()) {
    if (!tracing_) return f();
    const std::size_t i = Open(name, root_ == kNone ? 0 : t_.spans[root_].id);
    auto r = f();
    Close(i);
    return r;
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  std::size_t Open(const char* name, std::uint32_t parent) {
    SpanRec s;
    s.job = job_;
    s.rank = rank_;
    s.id = t_.next_id++;
    s.parent = parent;
    s.name = name;
    s.vb = vnow();
    s.hb = HostNs();
    t_.spans.push_back(s);
    return t_.spans.size() - 1;
  }
  void Close(std::size_t i) {
    t_.spans[i].ve = vnow();
    t_.spans[i].he = HostNs();
  }

  RankTrace& t_;
  const simmpi::VirtualClock* clock_;
  double last_ = 0.0;
  bool tracing_;
  std::uint32_t job_;
  int rank_;
  std::size_t root_ = kNone;
};

/// Points a Recorder at a serial dataset's clock for as long as the
/// dataset lives: declare it right after the dataset.
class ClockScope {
 public:
  ClockScope(Recorder& rec, const simmpi::VirtualClock& c) : rec_(rec) {
    rec_.Attach(c);
  }
  ~ClockScope() { rec_.Detach(); }
  ClockScope(const ClockScope&) = delete;
  ClockScope& operator=(const ClockScope&) = delete;

 private:
  Recorder& rec_;
};

/// Outside-in version of a per-rank time ledger: the rank's top-level API
/// spans must tile its virtual timeline exactly, from the rank span's begin
/// to `rank_end_ns` (simmpi::RunResult::rank_times_ns), with no virtual time
/// spent between two calls. Returns an empty string when they do.
inline std::string CheckTiling(const RankTrace& t, double rank_end_ns) {
  if (t.spans.empty()) return "no spans";
  const SpanRec& root = t.spans.front();
  if (root.vb != 0.0) return "rank span does not start at virtual time 0";
  double at = root.vb;
  for (std::size_t i = 1; i < t.spans.size(); ++i) {
    const SpanRec& s = t.spans[i];
    if (s.parent != root.id) continue;
    if (s.vb != at) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "rank %d: %s starts at %.17g, not %.17g",
                    s.rank, s.name, s.vb, at);
      return buf;
    }
    at = s.ve;
  }
  if (at != rank_end_ns || root.ve != rank_end_ns) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "rank %d: spans end at %.17g, rank clock at %.17g",
                  root.rank, at, rank_end_ns);
    return buf;
  }
  return "";
}

}  // namespace perfbench
