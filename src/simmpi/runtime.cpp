#include "simmpi/runtime.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "iostat/observe.hpp"
#include "util/turn.hpp"

namespace simmpi {

namespace {

/// A rank thread's pnc::turn hook: its pfs requests and lock waits are
/// scheduling points of the world's scheduler.
class Turn final : public pnc::turn::Hook {
 public:
  Turn(detail::SharedState& state, int rank) : state_(state), rank_(rank) {}
  void Request(double t) override { state_.sched.Yield(rank_, t); }
  void Park(const std::string& what) override {
    state_.waits[rank_].parked_on = what;
    state_.sched.Block(rank_);
    state_.waits[rank_].parked_on.clear();
  }
  void Wake(double t_ns) override {
    state_.sched.Wake(rank_, std::max(t_ns, state_.clocks[rank_].now()));
  }

 private:
  detail::SharedState& state_;
  int rank_;
};

}  // namespace

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
      Turn turn(*state, r);
      pnc::turn::t_hook = &turn;
      state->sched.Enter(r);
      {
        Comm comm = detail::MakeComm(state, members, r);
        try {
          body(comm);
        } catch (const RankCrash&) {
          // Scripted death, already flagged in shared state; not an error.
        } catch (...) {
          errors[r] = std::current_exception();
        }
      }
      state->sched.Exit(r);
      pnc::turn::t_hook = nullptr;
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
