// Named suites for ncbench. Entry args are exactly what the standalone
// drivers accept; the suite layer only adds orchestration.
//
// Determinism note: simmpi grants pfs requests in virtual-time order
// (simmpi/sched.hpp), so every recorded metric (bandwidths included) is an
// exact, byte-stable function of the virtual-time model, with as many
// two-phase aggregators as the configuration asks for. That is what lets
// the committed baselines be compared at zero tolerance.
#include "bench/registry.hpp"

namespace bench {

namespace {

std::vector<Suite> BuildSuites() {
  std::vector<Suite> s;
  s.push_back(
      {"smoke",
       "fast deterministic regression suite (backs "
       "bench/baselines/smoke.json)",
       {
           {"fig6_scalability",
            {"--size=64mb", "--op=write", "--procs=1,4"}},
           {"fig7_flashio",
            {"--file=checkpoint", "--block=8", "--procs=4",
             "--lib=pnetcdf"}},
           {"ablation_collective", {"--mode=collective"}},
           {"ablation_twophase", {"--cb=enable"}},
           {"ablation_sieving", {"--op=read"}},
           {"ablation_header", {"--lib=pnetcdf"}},
           {"ablation_servers", {}},
           {"ablation_nonblocking", {}},
       }});
  s.push_back(
      {"chaos",
       "rank-fault schedules x pfs faults: failure-semantics invariants "
       "(backs bench/baselines/chaos.json)",
       {
           {"chaos_matrix", {"--procs=4"}},
       }});
  s.push_back(
      {"advise",
       "I/O tuning advisor closed loop: mistuned workload -> recommendations "
       "-> advised rerun (backs bench/baselines/advise.json)",
       {
           {"advise", {"--procs=4"}},
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
