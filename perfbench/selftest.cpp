// The benchmark's own tests, on scaled-down copies of its workloads:
//
//  * span tiling — on every rank of every traced parallel phase, the
//    top-level API spans tile the rank's virtual time exactly, from 0 to
//    simmpi::RunResult::rank_times_ns;
//  * seed determinism — one seed yields identical inputs and identical
//    pfs.bytes_written, nc.header_bytes_written and mpi.collectives across
//    two runs; a second seed changes the data and the partition order but
//    not the per-job byte totals.
//
// Run through `python3 perfbench/run.py --selftest`.
#include <cstdio>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {
namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

struct Small {
  const char* name;
  std::unique_ptr<Workload> (*make)();
};

const Small kSmall[] = {
    {"lbl_rw",
     [] { return MakeLbl({.nprocs = 4, .z = 32, .y = 32, .x = 16}); }},
    {"flash_ckpt",
     [] {
       return MakeFlash({.nprocs = 4, .nxb = 4, .blocks_per_proc = 4,
                         .nvar = 6, .verify_vars = 2});
     }},
    {"record_append",
     [] {
       return MakeAppend(
           {.nprocs = 2, .nvars = 3, .lat = 8, .lon = 16, .steps = 5});
     }},
};

/// Every phase of one full cycle.
std::vector<Phase> Cycle(Workload& w, int c, bool tracing) {
  std::vector<Phase> out;
  for (int j = 0; j < w.cycle_len(); ++j)
    for (auto& ph : w.Job(c * w.cycle_len() + j, tracing))
      out.push_back(std::move(ph));
  return out;
}

std::uint64_t Ctr(const Phase& ph, iostat::Ctr c) { return ph.rep[c].sum; }

void Tiling(const Small& s) {
  auto w = s.make();
  w->Setup(7);
  const auto phases = Cycle(*w, 0, /*tracing=*/true);
  bool ok = !phases.empty();
  std::string why;
  for (const auto& ph : phases) {
    if (!ph.ok) {
      ok = false;
      why = ph.kind + ": " + ph.err;
    } else if (ph.ranks.size() > 1) {
      const bool traced = !ph.ranks.front().spans.empty();
      if (!traced || !ph.tiling.empty()) {
        ok = false;
        why = ph.kind + ": " + (traced ? ph.tiling : "no spans");
      }
    }
  }
  Check(ok, std::string(s.name) + ": top-level API spans tile each rank's "
                                  "virtual time" +
                (why.empty() ? "" : " (" + why + ")"));
}

void Determinism(const Small& s) {
  auto a = s.make(), b = s.make(), c = s.make();
  a->Setup(5);
  b->Setup(5);
  c->Setup(6);
  Check(a->InputHash() == b->InputHash(),
        std::string(s.name) + ": one seed yields identical inputs");
  Check(a->InputHash() != c->InputHash(),
        std::string(s.name) + ": a second seed changes the inputs");
  const std::string err = a->CreateDataset();
  Check(err.empty(), std::string(s.name) + ": set-up creates the dataset" +
                         (err.empty() ? "" : " (" + err + ")"));

  const auto pa = Cycle(*a, 0, false), pb = Cycle(*b, 0, false),
             pc = Cycle(*c, 0, false);
  bool all_ok = pa.size() == pb.size() && pa.size() == pc.size();
  for (const auto* ps : {&pa, &pb, &pc})
    for (const auto& ph : *ps) all_ok = all_ok && ph.ok;
  Check(all_ok, std::string(s.name) + ": every job of a cycle succeeds");
  if (!all_ok) return;

  bool same = true, totals = true;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (const auto ctr :
         {iostat::Ctr::kPfsBytesWritten, iostat::Ctr::kNcHeaderBytesWritten,
          iostat::Ctr::kMpiCollectives})
      same = same && Ctr(pa[i], ctr) == Ctr(pb[i], ctr);
    // The data bytes each phase's callers moved, as counted by the library.
    for (const auto ctr :
         {iostat::Ctr::kNcDataBytesWritten, iostat::Ctr::kNcDataBytesRead})
      totals = totals && Ctr(pa[i], ctr) == Ctr(pc[i], ctr);
    totals = totals && pa[i].kind == pc[i].kind;
  }
  Check(same, std::string(s.name) +
                  ": pfs.bytes_written, nc.header_bytes_written and "
                  "mpi.collectives repeat exactly");
  Check(totals, std::string(s.name) +
                    ": a second seed keeps each phase's nc data byte totals");
}

}  // namespace

int SelfTest() {
  for (const auto& s : kSmall) {
    Tiling(s);
    Determinism(s);
  }
  // Seeds reorder Figure 5's partitions within a cycle.
  auto a = kSmall[0].make(), b = kSmall[0].make();
  a->Setup(5);
  b->Setup(6);
  bool differs = false;
  for (int c = 0; c < 4; ++c)
    differs = differs || a->CycleOrder(c) != b->CycleOrder(c);
  Check(differs, "lbl_rw: a second seed changes the partition order");
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
