// The turn scheduler: the rank threads of one simmpi::Run take turns, and
// the turn goes to the ready rank with the least (virtual time, rank).
//
// pfs serves each server FCFS, so the order in which requests reach it sets
// their completion times; racing threads would make that order depend on
// the OS. A rank gives up the turn only at a scheduling point: a pfs request
// at time t (keyed t), or a wait that parks it — a Recv with no matching
// message, an AgreeFT round not yet complete, a pfs read-modify-write lock
// held by another rank — after which it is keyed by the time it resumes at.
// A running rank only makes keys at or after the one it was picked at, so a
// pfs request is granted once no rank can still issue an earlier one, and
// every run of a program makes the same choices on any host. DESIGN.md §7
// "Turn scheduler" states the limits.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "simmpi/clock.hpp"

namespace simmpi::detail {

class Scheduler {
 public:
  /// `on_hang(what, running)` reports a deadlock (running == -1) or a
  /// turn stalled in rank `running`, and must not return. `hang_timeout_ms`
  /// <= 0 turns both reports off (a deadlocked run then waits forever).
  Scheduler(int nranks, const std::vector<VirtualClock>& clocks,
            double hang_timeout_ms,
            std::function<void(const char* what, int running)> on_hang);

  /// A rank thread's first turn: every rank starts ready at its clock.
  void Enter(int rank);
  /// The rank's thread is done; the turn moves on.
  void Exit(int rank);
  /// Scheduling point of a pfs request at `key`.
  void Yield(int rank, double key);
  /// Park the running rank until Wake. Callers re-check their condition
  /// when Block returns, as with a condition variable.
  void Block(int rank);
  /// Make a parked rank ready to resume at `key`. Called by the running
  /// rank; a rank that is not parked is left as it is.
  void Wake(int rank, double key);

 private:
  enum class State : std::uint8_t { kReady, kRunning, kBlocked, kDone };
  struct Slot {
    State state = State::kReady;
    std::condition_variable cv;
  };

  /// Hand the turn to the least ready rank (the caller has already left
  /// kRunning). Caller holds mu_.
  void PassLocked();
  /// Wait until `rank` holds the turn. Caller holds `lk`.
  void AwaitTurnLocked(int rank, std::unique_lock<std::mutex>& lk);
  void MakeReadyLocked(int rank, double key);

  const std::vector<VirtualClock>& clocks_;
  const double hang_timeout_ms_;
  const std::function<void(const char*, int)> on_hang_;
  std::mutex mu_;
  std::vector<Slot> slots_;
  std::set<std::pair<double, int>> ready_;  ///< (key, rank)
  int running_ = -1;
  int done_ = 0;
  std::uint64_t points_ = 0;  ///< scheduling points passed, for the stall check
};

}  // namespace simmpi::detail
