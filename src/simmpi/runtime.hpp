// SPMD launcher: runs an MPI-style program body on N ranks, each a fiber on
// the calling thread.
#pragma once

#include <functional>
#include <vector>

#include "simmpi/clock.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/rankfault.hpp"

namespace simmpi {

struct RunResult {
  /// Per-rank virtual completion times (ns).
  std::vector<double> rank_times_ns;
  /// max over ranks — the virtual makespan of the program.
  double max_time_ns = 0.0;
  /// World ranks that died to an armed RankFaultPolicy (ascending).
  std::vector<int> crashed_ranks;
  /// Injection counters (all zero when no policy was armed).
  RankFaultCounters fault_counters;
};

/// Launch `nprocs` ranks, each executing `body(world_comm)` on its own
/// fiber of the calling thread, and return once all have finished. The
/// ranks take turns, least virtual time first (sched.hpp), so a run's
/// virtual times do not depend on the host. An exception thrown by a rank
/// ends that rank only; the first one, by rank, is re-thrown in the caller
/// after all ranks have finished. Each call creates a fresh world (fresh mailboxes
/// and clocks); state does not leak between runs.
RunResult Run(int nprocs, const std::function<void(Comm&)>& body,
              const CostModel& cost = CostModel{});

/// As above, with a rank-fault schedule armed for the world. Scripted
/// RankCrash exits are absorbed (reported via RunResult::crashed_ranks, not
/// re-thrown); every other exception still re-throws after the join.
RunResult Run(int nprocs, const std::function<void(Comm&)>& body,
              const CostModel& cost, const RankFaultPolicy& faults);

}  // namespace simmpi
