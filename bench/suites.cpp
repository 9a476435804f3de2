// Named suites for ncbench. Entry args are exactly what the standalone
// drivers accept; the suite layer only adds orchestration.
//
// Determinism note (why `smoke` looks the way it does): the pfs cost model
// serves concurrent requests FCFS in *real-time* arrival order, so any
// config where more than one rank thread touches the file system
// concurrently can shift virtual completion times by scheduling noise (see
// EXPERIMENTS.md "Notes on variance"). The smoke suite therefore pins every
// entry to a single-writer shape — one process, or `--hints=cb_nodes=1` so
// exactly one two-phase aggregator performs file I/O — which makes every
// recorded metric (bandwidths included) an exact, byte-stable function of
// the virtual-time model. That is what lets the committed baseline be
// compared at zero tolerance.
#include "bench/registry.hpp"

namespace bench {

namespace {

const char* kDet = "--hints=cb_nodes=1";

std::vector<Suite> BuildSuites() {
  std::vector<Suite> s;
  s.push_back(
      {"smoke",
       "fast deterministic regression suite (single-writer configs; backs "
       "bench/baselines/smoke.json)",
       {
           {"fig6_scalability",
            {"--size=64mb", "--op=write", "--procs=1,4", kDet}},
           {"fig7_flashio",
            {"--file=checkpoint", "--block=8", "--procs=4", "--lib=pnetcdf",
             kDet}},
           {"ablation_collective", {"--mode=collective", kDet}},
           {"ablation_twophase", {"--cb=enable", kDet}},
           {"ablation_sieving", {"--op=read"}},
           {"ablation_header", {"--lib=pnetcdf"}},
           {"ablation_servers", {kDet}},
           {"ablation_nonblocking", {kDet}},
       }});
  s.push_back(
      {"chaos",
       "rank-fault schedules x pfs faults: failure-semantics invariants "
       "(backs bench/baselines/chaos.json)",
       {
           {"chaos_matrix", {"--procs=4", kDet}},
       }});
  s.push_back(
      {"advise",
       "I/O tuning advisor closed loop: mistuned workload -> recommendations "
       "-> advised rerun (backs bench/baselines/advise.json)",
       {
           {"advise", {"--procs=4", kDet}},
       }});
  s.push_back({"fig6",
               "full Figure 6 serial-vs-parallel scalability sweep",
               {{"fig6_scalability", {}}}});
  s.push_back({"fig7",
               "full Figure 7 FLASH I/O sweep, PnetCDF vs hdf5lite",
               {{"fig7_flashio", {}}}});
  s.push_back({"ablations",
               "all design-choice ablations at their default sweeps",
               {
                   {"ablation_collective", {}},
                   {"ablation_twophase", {}},
                   {"ablation_sieving", {}},
                   {"ablation_header", {}},
                   {"ablation_servers", {}},
                   {"ablation_nonblocking", {}},
               }});
  s.push_back({"full",
               "everything: figures, ablations, read-back, microbenches",
               {
                   {"fig6_scalability", {}},
                   {"fig7_flashio", {}},
                   {"ablation_collective", {}},
                   {"ablation_twophase", {}},
                   {"ablation_sieving", {}},
                   {"ablation_header", {}},
                   {"ablation_servers", {}},
                   {"ablation_nonblocking", {}},
                   {"future_readback", {}},
                   {"micro_datatype", {}},
                   {"micro_header", {}},
               }});
  return s;
}

}  // namespace

const std::vector<Suite>& Suites() {
  static const std::vector<Suite> kSuites = BuildSuites();
  return kSuites;
}

const Suite* FindSuite(const std::string& name) {
  for (const auto& s : Suites())
    if (name == s.name) return &s;
  return nullptr;
}

}  // namespace bench
