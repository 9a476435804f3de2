// pncbench: the measuring half of the repository benchmark.
//
//   pncbench meta
//       One JSON line describing the build (type, iostat, sanitizer).
//   pncbench run --workload W --seed N --seconds S --trace 0|1
//                [--first-job K] [--spans PATH]
//       Set up W from seed N several times, then run its jobs one at a time
//       (a closed loop with one client) until S seconds have passed and a
//       cycle of jobs is complete. Prints one JSON line per set-up, per job
//       phase, per finished job and at the end. With --trace 1, odd cycles record spans; the
//       spans are written to PATH when the run ends.
//   pncbench selftest
//       The benchmark's own tests (span tiling, seed determinism).
//
// perfbench/run.py builds this program, runs it with a clean environment,
// and turns its lines into the benchmark's metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "iostat/iostat.hpp"
#include "simmpi/runtime.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
int SelfTest();
}

namespace {

using perfbench::CpuNs;
using perfbench::HostNs;
using perfbench::Phase;

constexpr int kSetupReps = 15;

/// The package never asks for sanitizers; this catches them coming in
/// through CMAKE_CXX_FLAGS.
bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__)
  return true;
#else
  return false;
#endif
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One JSON line per job phase: what it moved, its clocks, the counters
/// iostat::BuildReport exported for it, and its spans folded per call name.
std::string PhaseJson(int job, bool traced, const Phase& ph) {
  std::string o = "{\"t\":\"phase\",\"job\":" + std::to_string(job) +
                  ",\"kind\":" + JsonStr(ph.kind) +
                  ",\"traced\":" + (traced ? "true" : "false") +
                  ",\"ok\":" + (ph.ok ? "true" : "false") +
                  ",\"err\":" + JsonStr(ph.err) +
                  ",\"bytes\":" + std::to_string(ph.bytes) +
                  ",\"vns\":" + Num(ph.vns) +
                  ",\"host_ns\":" + std::to_string(ph.host_ns) +
                  ",\"skew_vns\":" + Num(ph.skew_vns) +
                  ",\"tiling\":" + JsonStr(ph.tiling) +
                  ",\"rss_mb\":" + Num(PeakRssMb());

  o += ",\"steps\":[";
  bool first = true;
  for (const auto& r : ph.ranks)
    for (const double s : r.steps) {
      if (!first) o += ",";
      first = false;
      o += Num(s);
    }
  o += "]";

  o += ",\"ctr\":{";
  for (std::size_t i = 0; i < iostat::kNumCounters; ++i) {
    const auto c = static_cast<iostat::Ctr>(i);
    o += JsonStr(iostat::CtrName(c)) + ":" + std::to_string(ph.rep[c].sum) +
         ",";
  }
  o += "\"pfs.queue_depth_max\":" +
       std::to_string(ph.rep[iostat::Ctr::kPfsQueueDepthMax].max) +
       ",\"mpiio.sieve_amp\":" + Num(ph.rep.sieve_amplification) +
       ",\"pfs.busy_frac\":" + Num(ph.rep.pfs_busy_frac) + "}";

  // Spans folded per name: virtual and host ns summed over a rank's calls,
  // averaged over ranks. Self time of the rank span is the benchmark's own
  // work between calls (generation, comparison).
  std::map<std::string, std::pair<double, double>> per_name;
  double self_host = 0;
  for (const auto& r : ph.ranks) {
    if (r.spans.empty()) continue;
    const auto& root = r.spans.front();
    double children_host = 0;
    for (std::size_t i = 1; i < r.spans.size(); ++i) {
      const auto& s = r.spans[i];
      auto& acc = per_name[s.name];
      acc.first += s.ve - s.vb;
      acc.second += static_cast<double>(s.he - s.hb);
      if (s.parent == root.id) children_host += static_cast<double>(s.he - s.hb);
    }
    self_host += static_cast<double>(root.he - root.hb) - children_host;
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, ph.ranks.size()));
  o += ",\"self_host_ns\":" + Num(self_host / n) + ",\"spans\":{";
  first = true;
  for (const auto& [name, acc] : per_name) {
    if (!first) o += ",";
    first = false;
    o += JsonStr(name) + ":[" + Num(acc.first / n) + "," + Num(acc.second / n) +
         "]";
  }
  return o + "}}";
}

/// Spans of every traced phase, one TSV line each. The phase itself is the
/// span with rank -1 and id 0 that every rank span points to.
class SpanLog {
 public:
  void Add(const Phase& ph) {
    if (ph.ranks.empty() || ph.ranks.front().spans.empty()) return;
    perfbench::SpanRec top;
    top.job = ph.ranks.front().spans.front().job;
    top.rank = -1;
    top.name = ph.kind == "write" ? "phase.write"
               : ph.kind == "read" ? "phase.read"
                                   : "phase.base";
    for (const auto& r : ph.ranks)
      if (!r.spans.empty()) top.ve = std::max(top.ve, r.spans.front().ve);
    top.hb = ph.host_begin;
    top.he = ph.host_begin + ph.host_ns;
    spans_.push_back(top);
    for (const auto& r : ph.ranks)
      spans_.insert(spans_.end(), r.spans.begin(), r.spans.end());
  }

  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "job\trank\tid\tparent\tname\tvbegin_ns\tvend_ns\t"
                    "hbegin_ns\thend_ns\n");
    for (const auto& s : spans_)
      std::fprintf(f, "%u\t%d\t%u\t%u\t%s\t%.17g\t%.17g\t%lld\t%lld\n", s.job,
                   s.rank, s.id, s.parent, s.name, s.vb, s.ve,
                   static_cast<long long>(s.hb), static_cast<long long>(s.he));
    return std::fclose(f) == 0;
  }

 private:
  std::vector<perfbench::SpanRec> spans_;
};

struct Opts {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int first_job = 0;
  std::string spans;
};

int CmdRun(const Opts& o) {
  if (!perfbench::MakeWorkload(o.workload)) {
    std::fprintf(stderr, "pncbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }

  // Set-up, from scratch each time: generate every input from the seed,
  // then create the file system and the dataset. It is timed in CPU time
  // of all threads, which other tenants of a shared host barely move (wall
  // time doubles when they keep every core busy). Apart from it, launch
  // the rank count once with an empty body (the simulator's fixed per-job
  // cost). The last set-up is the one the jobs use.
  std::unique_ptr<perfbench::Workload> w;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w.reset();
    const std::int64_t c0 = CpuNs();
    w = perfbench::MakeWorkload(o.workload);
    w->Setup(o.seed);
    const std::string err = w->CreateDataset();
    const std::int64_t c1 = CpuNs();
    if (!err.empty()) {
      std::fprintf(stderr, "pncbench: set-up failed: %s\n", err.c_str());
      return 1;
    }
    const std::int64_t l0 = HostNs();
    simmpi::Run(w->nprocs(), [](simmpi::Comm&) {});
    const std::int64_t l1 = HostNs();
    std::printf("{\"t\":\"setup\",\"setup_cpu_ns\":%lld,\"launch_ns\":%lld}\n",
                static_cast<long long>(c1 - c0),
                static_cast<long long>(l1 - l0));
    std::fflush(stdout);
  }

  SpanLog log;
  const int cl = w->cycle_len();
  const std::int64_t t0 = HostNs();
  for (int k = o.first_job;; ++k) {
    const int c = k / cl;
    if (k % cl == 0 && k > o.first_job) {
      const double elapsed = static_cast<double>(HostNs() - t0) * 1e-9;
      const int cycles = c - o.first_job / cl;
      if (elapsed >= o.seconds && (!o.trace || cycles >= 2)) break;
    }
    const bool traced = o.trace && c % 2 == 1;
    for (const Phase& ph : w->Job(k, traced)) {
      std::printf("%s\n", PhaseJson(k, traced, ph).c_str());
      std::fflush(stdout);
      if (traced) log.Add(ph);
    }
    std::printf("{\"t\":\"done\",\"job\":%d}\n", k);
    std::fflush(stdout);
  }
  if (!o.spans.empty() && !log.Write(o.spans)) {
    std::fprintf(stderr, "pncbench: cannot write %s\n", o.spans.c_str());
    return 1;
  }
  std::printf("{\"t\":\"end\",\"rss_mb\":%s}\n", Num(PeakRssMb()).c_str());
  return 0;
}

/// The operator's shell must not change what is measured: every PNC_* knob
/// is refused.
bool CleanEnvironment() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "PNC_", 4) == 0) {
      std::fprintf(stderr, "pncbench: refusing to run with %s set\n", *e);
      clean = false;
    }
  return clean;
}

int Usage() {
  std::fprintf(stderr,
               "usage: pncbench meta | selftest | run --workload W --seed N "
               "--seconds S --trace 0|1 [--first-job K] [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "meta") {
    std::printf("{\"build_type\":%s,\"iostat\":%s,\"sanitize\":%s}\n",
                JsonStr(PERFBENCH_BUILD_TYPE).c_str(),
                PNC_IOSTAT_ENABLED ? "true" : "false",
                SanitizedBuild() ? "true" : "false");
    return 0;
  }
  if (!CleanEnvironment()) return 2;
  if (cmd == "selftest") return perfbench::SelfTest();
  if (cmd != "run") return Usage();

  Opts o;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o.seconds = std::atof(v.c_str());
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--first-job") o.first_job = std::atoi(v.c_str());
    else if (k == "--spans") o.spans = v;
    else return Usage();
  }
  if (o.workload.empty() || (argc % 2) != 0) return Usage();
  return CmdRun(o);
}
