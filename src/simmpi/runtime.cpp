#include "simmpi/runtime.hpp"

#include <exception>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "iostat/observe.hpp"

namespace simmpi {

RunResult Run(int nprocs, const std::function<void(Comm&)>& body,
              const CostModel& cost) {
  return Run(nprocs, body, cost, RankFaultPolicy{});
}

RunResult Run(int nprocs, const std::function<void(Comm&)>& body,
              const CostModel& cost, const RankFaultPolicy& faults) {
  if (nprocs <= 0) throw std::invalid_argument("nprocs must be positive");

  auto state = std::make_shared<detail::SharedState>(nprocs, cost);
  if (faults.Any()) state->ArmRankFaults(faults);
  std::vector<int> members(nprocs);
  std::iota(members.begin(), members.end(), 0);

  std::vector<std::exception_ptr> errors(nprocs);
  std::vector<std::thread> threads;
  threads.reserve(nprocs);
  for (int r = 0; r < nprocs; ++r) {
    threads.emplace_back([&, r] {
      PNC_IOSTAT_BIND_RANK(r);
      Comm comm = detail::MakeComm(state, members, r);
      try {
        body(comm);
      } catch (const RankCrash&) {
        // Scripted death, already flagged in shared state; not an error.
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);

  RunResult result;
  result.rank_times_ns.reserve(nprocs);
  for (int r = 0; r < nprocs; ++r) {
    const double t = state->clocks[r].now();
    result.rank_times_ns.push_back(t);
    result.max_time_ns = std::max(result.max_time_ns, t);
    if (state->RankDeadWorld(r)) result.crashed_ranks.push_back(r);
  }
  if (state->rfault.armed) result.fault_counters = state->rfault.counters;
  return result;
}

}  // namespace simmpi
