// ncstat — inspect the cross-layer I/O statistics subsystem (iostat).
//
// Modes:
//   ncstat --report=FILE   pretty-print every iostat report found in FILE:
//                          a PNC_IOSTAT_REPORT dump, or a BENCH_*.json file
//                          whose records embed an "iostat" object per line
//                          ("-" reads stdin)
//   ncstat --run           run a synthetic collective workload through the
//                          full pnetcdf -> mpiio -> pfs stack and print the
//                          per-layer breakdown
//   ncstat --diff A B      compare two BENCH_*.json results files record by
//                          record ((bench, config) identity, same engine as
//                          `ncbench --check`); --tolerance=PCT loosens the
//                          per-metric gate (default 0 = exact)
//   ncstat --blackbox=FILE pretty-print a pnc-events-v1 flight-recorder dump
//                          (a hang-watchdog abort, a PNC_FLIGHT_DUMP file,
//                          or "-" for stdin)
//   ncstat --critpath=FILE critical-path analysis of a pnc-events-v1 dump:
//                          per-op straggler-wait / exchange / file-io
//                          decomposition per rank and per pfs server
//   ncstat --advise=FILE   run the rule-based tuning advisor over every
//                          iostat report found in FILE (needs the embedded
//                          pnc-pattern-v1 section for pattern rules)
//   ncstat --heatmap=FILE  render the pnc-pattern-v1 server x virtual-time
//                          utilization grid of every report in FILE
//   ncstat --timeline=FILE render the pnc-timeline-v1 bucketed rate
//                          timelines (per-server bandwidth / queue depth,
//                          global rate tracks) of every report in FILE as
//                          sparklines
//   ncstat --trend=FILE    cross-run trend over a bench history log
//                          (`ncbench --history=PATH`): per-metric
//                          trajectories across runs, drift beyond
//                          --tolerance=PCT in the harmful direction flagged
//                          and reflected in exit code 1
//
// Workload options (with --run):
//   --procs=N                  ranks (default 4)
//   --size=MB                  total payload in MiB (default 8)
//   --pattern=contig|strided|random
//                              file access pattern (default contig)
//   --mode=coll|indep          collective or independent data calls
//                              (default coll)
//   --op=write|read            measured operation (default write; read runs
//                              a populating write first and resets counters)
//   --json=PATH                also dump the report JSON ("-" = stdout)
//   --trace=PATH               write a Chrome trace timeline of the flight
//                              recorder's retained tail (PNC_FLIGHT_EVENTS
//                              events per rank)
//   --blackbox=PATH            dump the flight recorder (pnc-events-v1)
//   --critpath                 print the critical-path decomposition of the
//                              workload's collective ops
//   --advise                   print ranked tuning recommendations for the
//                              workload just run
//   --heatmap                  print the pfs server x time utilization grid
//   --timeline                 record and print the bucketed rate timelines
//                              (enables PNC_IOSTAT_TIMELINE for the run)
//
// Exit status: 0 success, 1 --diff found differences, 2 usage/IO/parse
// error. See src/tools/cli.hpp and docs/API.md for the contract shared with
// ncverify and ncbench.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "iostat/advise.hpp"
#include "iostat/critpath.hpp"
#include "iostat/events.hpp"
#include "iostat/iostat.hpp"
#include "iostat/pattern.hpp"
#include "iostat/report.hpp"
#include "iostat/timeline.hpp"
#include "iostat/trace.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"
#include "tools/benchlib/baseline.hpp"
#include "tools/benchlib/records.hpp"
#include "tools/benchlib/trend.hpp"
#include "tools/cli.hpp"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ncstat --report=FILE\n"
               "       ncstat --run [--procs=N] [--size=MB]\n"
               "              [--pattern=contig|strided|random]\n"
               "              [--mode=coll|indep] [--op=write|read]\n"
               "              [--json=PATH] [--trace=PATH]\n"
               "              [--blackbox=PATH] [--critpath]\n"
               "              [--advise] [--heatmap]\n"
               "              [--timeline]\n"
               "       ncstat --diff A B [--tolerance=PCT]\n"
               "       ncstat --blackbox=FILE\n"
               "       ncstat --critpath=FILE\n"
               "       ncstat --advise=FILE\n"
               "       ncstat --heatmap=FILE\n"
               "       ncstat --timeline=FILE\n"
               "       ncstat --trend=FILE [--tolerance=PCT]\n");
  return nctools::kExitError;
}

/// Slurp `path` ("-" = stdin) into `out`; false + message on failure.
bool ReadAll(const std::string& path, std::string* out) {
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    *out = ss.str();
    return true;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "ncstat: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

int BlackboxMode(const std::string& path) {
  std::string text;
  if (!ReadAll(path, &text)) return nctools::kExitError;
  auto parsed = iostat::ParseEventsJson(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "ncstat: %s: %s\n", path.c_str(),
                 parsed.status().message().c_str());
    return nctools::kExitError;
  }
  const iostat::EventDump& d = parsed.value();
  std::printf("flight recorder dump: reason \"%s\", ring capacity %zu, "
              "%zu rank(s)\n",
              d.reason.c_str(), d.capacity, d.ranks.size());
  for (const auto& tail : d.ranks) {
    std::printf("rank %d: %llu recorded, %llu dropped, %zu retained\n",
                tail.rank, static_cast<unsigned long long>(tail.recorded),
                static_cast<unsigned long long>(tail.dropped),
                tail.events.size());
    for (const iostat::Event& e : tail.events) {
      std::printf("  #%llu %-10s t=%.0f ns",
                  static_cast<unsigned long long>(e.seq),
                  iostat::EvName(e.kind), e.t_ns);
      if (e.d_ns > 0) std::printf(" dur=%.0f ns", e.d_ns);
      if (e.req != 0)
        std::printf(" req=%llu", static_cast<unsigned long long>(e.req));
      std::printf(" a0=%llu a1=%llu",
                  static_cast<unsigned long long>(e.a0),
                  static_cast<unsigned long long>(e.a1));
      if (e.detail[0] != '\0') std::printf(" [%s]", e.detail);
      std::printf("\n");
    }
  }
  // Post-mortem: a rank_crash event carries the dead rank's in-flight
  // request ID (a0 is the simmpi op index it died at). Resolve the ID
  // against the api_begin in the same tail so the dump names the API call
  // the rank died inside, not just a number.
  for (const auto& tail : d.ranks) {
    for (const iostat::Event& e : tail.events) {
      if (e.kind != iostat::Ev::kRankCrash) continue;
      std::printf("rank %d crashed at op %llu", tail.rank,
                  static_cast<unsigned long long>(e.a0));
      if (e.req == 0) {
        std::printf(" with no request in flight\n");
        continue;
      }
      const iostat::Event* origin = nullptr;
      for (const iostat::Event& o : tail.events)
        if (o.kind == iostat::Ev::kApiBegin && o.req == e.req) origin = &o;
      if (origin != nullptr)
        std::printf(" inside req=%llu [%s] (began t=%.0f ns)\n",
                    static_cast<unsigned long long>(e.req), origin->detail,
                    origin->t_ns);
      else
        std::printf(" inside req=%llu (origin evicted from the ring)\n",
                    static_cast<unsigned long long>(e.req));
    }
  }
  return nctools::kExitOk;
}

int CritPathFileMode(const std::string& path) {
  std::string text;
  if (!ReadAll(path, &text)) return nctools::kExitError;
  auto parsed = iostat::ParseEventsJson(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "ncstat: %s: %s\n", path.c_str(),
                 parsed.status().message().c_str());
    return nctools::kExitError;
  }
  const iostat::CritPath cp = iostat::AnalyzeCritPath(parsed.value());
  if (cp.ops.empty()) {
    std::fprintf(stderr,
                 "ncstat: no complete collective ops in the dump (need "
                 "coll_begin/coll_end pairs on every rank)\n");
    return nctools::kExitError;
  }
  std::fputs(iostat::PrettyPrintCritPath(cp).c_str(), stdout);
  return nctools::kExitOk;
}

int DiffMode(const std::string& a, const std::string& b, double tolerance) {
  auto base = benchlib::LoadResults(a);
  if (!base.ok()) {
    std::fprintf(stderr, "ncstat: %s: %s\n", a.c_str(),
                 base.status().message().c_str());
    return nctools::kExitError;
  }
  auto cur = benchlib::LoadResults(b);
  if (!cur.ok()) {
    std::fprintf(stderr, "ncstat: %s: %s\n", b.c_str(),
                 cur.status().message().c_str());
    return nctools::kExitError;
  }
  if (base.value().records.empty() && cur.value().records.empty()) {
    std::fprintf(stderr, "ncstat: no pnc-bench-v1 records in %s or %s\n",
                 a.c_str(), b.c_str());
    return nctools::kExitError;
  }
  const benchlib::CompareResult res =
      benchlib::Compare(base.value(), cur.value(), tolerance);
  std::fputs(benchlib::RenderDeltaTable(res).c_str(), stdout);
  return res.ExitCode();
}

int ReportMode(const std::string& path) {
  std::string text;
  if (!ReadAll(path, &text)) return nctools::kExitError;

  // One report per line (PNC_IOSTAT_REPORT dumps and bench records are both
  // line-oriented); fall back to scanning the whole buffer once.
  std::vector<iostat::Report> reports;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    auto r = iostat::ParseReportJson(line);
    if (r.ok()) reports.push_back(r.value());
  }
  if (reports.empty()) {
    auto r = iostat::ParseReportJson(text);
    if (r.ok()) reports.push_back(r.value());
  }
  if (reports.empty()) {
    std::fprintf(stderr, "ncstat: no pnc-iostat-v1 report found in %s\n",
                 path.c_str());
    return nctools::kExitError;
  }
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (reports.size() > 1)
      std::printf("%s--- record %zu of %zu ---\n", i ? "\n" : "", i + 1,
                  reports.size());
    std::fputs(iostat::PrettyPrint(reports[i]).c_str(), stdout);
  }
  return nctools::kExitOk;
}

/// `--advise=FILE` / `--heatmap=FILE`: run the tuning advisor and/or render
/// the server x time heatmap over every iostat report found in FILE (same
/// line-oriented discovery as --report). Reports without an embedded
/// pnc-pattern-v1 section still get counter-based advice; the heatmap then
/// reports that no pattern data was recorded.
int AdviseFileMode(const std::string& path, bool do_advise, bool do_heatmap) {
  std::string text;
  if (!ReadAll(path, &text)) return nctools::kExitError;
  std::vector<iostat::Report> reports;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    auto r = iostat::ParseReportJson(line);
    if (r.ok()) reports.push_back(r.value());
  }
  if (reports.empty()) {
    auto r = iostat::ParseReportJson(text);
    if (r.ok()) reports.push_back(r.value());
  }
  if (reports.empty()) {
    std::fprintf(stderr, "ncstat: no pnc-iostat-v1 report found in %s\n",
                 path.c_str());
    return nctools::kExitError;
  }
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (reports.size() > 1)
      std::printf("%s--- record %zu of %zu ---\n", i ? "\n" : "", i + 1,
                  reports.size());
    if (do_heatmap)
      std::fputs(iostat::RenderHeatmap(reports[i].pattern).c_str(), stdout);
    if (do_advise)
      std::fputs(iostat::PrettyPrintAdvice(iostat::Advise(reports[i])).c_str(),
                 stdout);
  }
  return nctools::kExitOk;
}

/// `--timeline=FILE`: render the embedded pnc-timeline-v1 section of every
/// iostat report found in FILE as sparkline timelines.
int TimelineFileMode(const std::string& path) {
  std::string text;
  if (!ReadAll(path, &text)) return nctools::kExitError;
  std::vector<iostat::Report> reports;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    auto r = iostat::ParseReportJson(line);
    if (r.ok()) reports.push_back(r.value());
  }
  if (reports.empty()) {
    auto r = iostat::ParseReportJson(text);
    if (r.ok()) reports.push_back(r.value());
  }
  if (reports.empty()) {
    std::fprintf(stderr, "ncstat: no pnc-iostat-v1 report found in %s\n",
                 path.c_str());
    return nctools::kExitError;
  }
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (reports.size() > 1)
      std::printf("%s--- record %zu of %zu ---\n", i ? "\n" : "", i + 1,
                  reports.size());
    std::fputs(iostat::RenderTimeline(reports[i].timeline).c_str(), stdout);
  }
  return nctools::kExitOk;
}

/// `--trend=FILE`: per-metric trajectories across the runs of a bench
/// history log. Exit 1 when any metric drifted beyond tolerance in the
/// harmful direction.
int TrendMode(const std::string& path, double tolerance) {
  auto runs = benchlib::LoadHistory(path);
  if (!runs.ok()) {
    std::fprintf(stderr, "ncstat: %s: %s\n", path.c_str(),
                 runs.status().message().c_str());
    return nctools::kExitError;
  }
  if (runs.value().empty()) {
    std::fprintf(stderr, "ncstat: no bench runs found in %s\n", path.c_str());
    return nctools::kExitError;
  }
  const benchlib::TrendReport rep =
      benchlib::BuildTrend(runs.value(), tolerance);
  std::fputs(benchlib::RenderTrend(rep).c_str(), stdout);
  return rep.Passed() ? nctools::kExitOk : nctools::kExitCondition;
}

int RunMode(nctools::Cli& cli) {
  const int procs =
      std::max(1, std::atoi(cli.Value("--procs", "4").c_str()));
  const std::uint64_t mb = static_cast<std::uint64_t>(
      std::max(1, std::atoi(cli.Value("--size", "8").c_str())));
  const std::string pattern = cli.Value("--pattern", "contig");
  const std::string mode = cli.Value("--mode", "coll");
  const std::string op = cli.Value("--op", "write");
  const std::string json = cli.Value("--json", "");
  const std::string trace = cli.Value("--trace", "");
  const std::string blackbox = cli.Value("--blackbox", "");
  const bool critpath = cli.Has("--critpath");
  const bool advise = cli.Flag("--advise");
  const bool heatmap = cli.Flag("--heatmap");
  const bool timeline = cli.Flag("--timeline");
  if ((pattern != "contig" && pattern != "strided" && pattern != "random") ||
      (mode != "coll" && mode != "indep") ||
      (op != "write" && op != "read"))
    return Usage();
  const bool indep = mode == "indep";
  if (timeline) iostat::SetSink(iostat::kSinkTimeline, true);

  const std::uint64_t total_elems = (mb << 20) / 8;
  const std::uint64_t per =
      total_elems / static_cast<std::uint64_t>(procs);
  const bool is_read = op == "read";
  std::string fail_why;

  pfs::FileSystem fs;
  simmpi::Run(procs, [&](simmpi::Comm& comm) {
    auto dsr =
        pnetcdf::Dataset::Create(comm, fs, "ncstat.nc", simmpi::NullInfo());
    if (!dsr.ok()) {
      if (comm.rank() == 0) fail_why = dsr.status().message();
      return;
    }
    auto ds = std::move(dsr).value();
    std::uint64_t start[2], count[2];
    int v;
    if (pattern == "contig" || pattern == "random") {
      // u(total): each rank one contiguous slice. "random" revisits that
      // slice as 16 equal chunks in a permuted order so consecutive calls
      // have changing gaps (classified random by the pattern profiler).
      const int xd = ds.DefDim("x", total_elems).value();
      v = ds.DefVar("u", ncformat::NcType::kDouble, {xd}).value();
      start[0] = per * static_cast<std::uint64_t>(comm.rank());
      count[0] = per;
    } else {
      // m(rows, procs): each rank one column — fully interleaved at the
      // file, the pattern that exercises sieving and two-phase exchange.
      const int rd = ds.DefDim("row", per).value();
      const int cd =
          ds.DefDim("col", static_cast<std::uint64_t>(procs)).value();
      v = ds.DefVar("m", ncformat::NcType::kDouble, {rd, cd}).value();
      start[0] = 0;
      start[1] = static_cast<std::uint64_t>(comm.rank());
      count[0] = per;
      count[1] = 1;
    }
    if (pnc::Status es = ds.EndDef(); !es.ok()) {
      if (comm.rank() == 0) fail_why = es.message();
      return;
    }
    std::vector<double> mine(per, 1.0);
    const std::size_t nd = pattern == "strided" ? 2 : 1;
    // One pass over the rank's region with the selected pattern and mode.
    // "random" issues 16 chunk accesses at permuted slots ((j*5+3) mod 16,
    // gcd(5,16)=1 covers every slot); every rank makes the same number of
    // calls so collective data ops stay aligned across ranks.
    auto do_op = [&](bool wr) -> pnc::Status {
      pnc::Status st = pnc::Status::Ok();
      if (indep) st = ds.BeginIndepData();
      if (st.ok() && pattern == "random") {
        const std::uint64_t chunk = std::max<std::uint64_t>(1, per / 16);
        for (int j = 0; j < 16 && st.ok(); ++j) {
          const std::uint64_t slot = static_cast<std::uint64_t>(j * 5 + 3) % 16;
          std::uint64_t s0 = start[0] + slot * chunk;
          std::uint64_t c0 = slot == 15 ? per - 15 * chunk : chunk;
          if (s0 >= start[0] + per) {  // tiny --size degenerates gracefully
            s0 = start[0];
            c0 = 1;
          }
          const std::span<const std::uint64_t> s(&s0, 1), c(&c0, 1);
          const std::span<double> buf(mine.data(), c0);
          if (wr)
            st = indep ? ds.PutVara<double>(v, s, c, buf)
                       : ds.PutVaraAll<double>(v, s, c, buf);
          else
            st = indep ? ds.GetVara<double>(v, s, c, buf)
                       : ds.GetVaraAll<double>(v, s, c, buf);
        }
      } else if (st.ok()) {
        const std::span<const std::uint64_t> sp(start, nd), cp(count, nd);
        if (wr)
          st = indep ? ds.PutVara<double>(v, sp, cp, mine)
                     : ds.PutVaraAll<double>(v, sp, cp, mine);
        else
          st = indep ? ds.GetVara<double>(v, sp, cp, mine)
                     : ds.GetVaraAll<double>(v, sp, cp, mine);
      }
      if (indep) {
        const pnc::Status es = ds.EndIndepData();
        if (st.ok()) st = es;
      }
      return st;
    };
    pnc::Status st = do_op(/*wr=*/true);
    if (is_read && st.ok()) {
      // Drop the populating write from the report: read stats only.
      comm.Barrier();
      if (comm.rank() == 0) iostat::Registry::Get().Reset();
      comm.Barrier();
      iostat::Registry::BindRank(comm.rank());
      st = do_op(/*wr=*/false);
    }
    if (!st.ok() && comm.rank() == 0) fail_why = st.message();
    (void)ds.Close();
  });
  if (!fail_why.empty()) {
    std::fprintf(stderr, "ncstat: workload failed: %s\n", fail_why.c_str());
    return nctools::kExitError;
  }

  const iostat::Report rep = iostat::BuildReport();
  std::printf("ncstat: %s %s %s, %d ranks, %llu MiB total\n", mode.c_str(),
              pattern.c_str(), op.c_str(), procs,
              static_cast<unsigned long long>(mb));
  std::fputs(iostat::PrettyPrint(rep).c_str(), stdout);
  if (heatmap) std::fputs(iostat::RenderHeatmap(rep.pattern).c_str(), stdout);
  if (timeline)
    std::fputs(iostat::RenderTimeline(rep.timeline).c_str(), stdout);
  if (advise)
    std::fputs(iostat::PrettyPrintAdvice(iostat::Advise(rep)).c_str(), stdout);

  if (!json.empty()) {
    const std::string out = iostat::ToJson(rep) + "\n";
    if (json == "-") {
      std::fwrite(out.data(), 1, out.size(), stdout);
    } else if (FILE* f = std::fopen(json.c_str(), "w")) {
      std::fwrite(out.data(), 1, out.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "ncstat: cannot write %s\n", json.c_str());
      return nctools::kExitError;
    }
  }
  if (!trace.empty()) {
    const pnc::Status ts = iostat::WriteChromeTrace(trace, &rep.timeline);
    if (!ts.ok()) {
      std::fprintf(stderr, "ncstat: %s\n", ts.message().c_str());
      return nctools::kExitError;
    }
  }
  if (!blackbox.empty()) {
    const std::string out = iostat::EventsToJson("ncstat-run") + "\n";
    if (blackbox == "-") {
      std::fwrite(out.data(), 1, out.size(), stdout);
    } else if (FILE* f = std::fopen(blackbox.c_str(), "w")) {
      std::fwrite(out.data(), 1, out.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "ncstat: cannot write %s\n", blackbox.c_str());
      return nctools::kExitError;
    }
  }
  if (critpath) {
    const iostat::CritPath cp =
        iostat::AnalyzeCritPath(iostat::FlightRecorder::Get().Collect());
    if (cp.ops.empty()) {
      std::fprintf(stderr,
                   "ncstat: no collective ops recorded (flight recorder "
                   "disabled? check PNC_IOSTAT / PNC_FLIGHT)\n");
      return nctools::kExitError;
    }
    std::fputs(iostat::PrettyPrintCritPath(cp).c_str(), stdout);
  }
  return nctools::kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  nctools::Cli cli(argc, argv);
  const std::string report = cli.Value("--report", "");
  const bool run = cli.Flag("--run");
  if (cli.Flag("--diff")) {
    const std::string tol_s = cli.Value("--tolerance", "0");
    char* tol_end = nullptr;
    const double tolerance = std::strtod(tol_s.c_str(), &tol_end);
    if (run || !report.empty() || !cli.Unknown().empty() ||
        cli.positionals().size() != 2 || tol_end == tol_s.c_str() ||
        *tol_end != '\0' || tolerance < 0)
      return Usage();
    return DiffMode(cli.positionals()[0], cli.positionals()[1], tolerance);
  }
  if (run) {
    // Mark the workload options as recognized, then reject typos before
    // spending time on the workload itself.
    for (const char* k :
         {"--procs", "--size", "--pattern", "--mode", "--op", "--json",
          "--trace", "--blackbox", "--critpath", "--advise", "--heatmap",
          "--timeline"})
      (void)cli.Has(k);
    if (!cli.Unknown().empty() || !cli.positionals().empty()) return Usage();
    return RunMode(cli);
  }
  const std::string blackbox = cli.Value("--blackbox", "");
  const std::string critpath = cli.Value("--critpath", "");
  if (!blackbox.empty()) {
    if (!report.empty() || !critpath.empty() || !cli.Unknown().empty() ||
        !cli.positionals().empty())
      return Usage();
    return BlackboxMode(blackbox);
  }
  if (!critpath.empty()) {
    if (!report.empty() || !cli.Unknown().empty() ||
        !cli.positionals().empty())
      return Usage();
    return CritPathFileMode(critpath);
  }
  const std::string advise = cli.Value("--advise", "");
  const std::string heatmap = cli.Value("--heatmap", "");
  if (!advise.empty() || !heatmap.empty()) {
    // --advise=FILE and --heatmap=FILE combine only when they name the
    // same dump; each record then gets its heatmap above its advice.
    if (!report.empty() || !cli.Unknown().empty() ||
        !cli.positionals().empty() ||
        (!advise.empty() && !heatmap.empty() && advise != heatmap))
      return Usage();
    return AdviseFileMode(advise.empty() ? heatmap : advise, !advise.empty(),
                          !heatmap.empty());
  }
  const std::string timeline = cli.Value("--timeline", "");
  if (!timeline.empty()) {
    if (!report.empty() || !cli.Unknown().empty() ||
        !cli.positionals().empty())
      return Usage();
    return TimelineFileMode(timeline);
  }
  const std::string trend = cli.Value("--trend", "");
  if (!trend.empty()) {
    const std::string tol_s = cli.Value("--tolerance", "0");
    char* tol_end = nullptr;
    const double tolerance = std::strtod(tol_s.c_str(), &tol_end);
    if (!report.empty() || !cli.Unknown().empty() ||
        !cli.positionals().empty() || tol_end == tol_s.c_str() ||
        *tol_end != '\0' || tolerance < 0)
      return Usage();
    return TrendMode(trend, tolerance);
  }
  if (report.empty() || !cli.Unknown().empty() || !cli.positionals().empty())
    return Usage();
  return ReportMode(report);
}
