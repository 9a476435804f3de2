// The turn scheduler: the ranks of one simmpi::Run are fibers on the
// calling thread that take turns, and the turn goes to the ready rank with
// the least (virtual time, rank).
//
// pfs serves each server FCFS, so the order in which requests reach it sets
// their completion times; ranks racing on host threads would make that
// order depend on the OS. A rank gives up the turn only at a scheduling
// point: a pfs request at time t (keyed t), or a wait that parks it — a Recv
// with no matching message, an AgreeFT round not yet complete, a pfs
// read-modify-write lock held by another rank — after which it is keyed by
// the time it resumes at. A running rank only makes keys at or after the one
// it was picked at, so a pfs request is granted once no rank can still issue
// an earlier one, and every run of a program makes the same choices on any
// host. Giving up the turn is a user-space switch straight into the next
// rank's fiber: no host thread is parked or woken, and nothing here is
// locked. DESIGN.md §7 "Turn scheduler" states the limits.
#pragma once

#include <ucontext.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "simmpi/clock.hpp"
#include "util/turn.hpp"

namespace simmpi::detail {

class Scheduler {
 public:
  /// `on_hang(what, running)` reports a deadlock (running == -1: no rank
  /// can run) or a turn stalled in rank `running`, and must not return. A
  /// deadlock is reported at once; a stall once a rank has kept the turn
  /// for `hang_timeout_ms` of host time, checked only when it is > 0.
  Scheduler(int nranks, const std::vector<VirtualClock>& clocks,
            double hang_timeout_ms,
            std::function<void(const char* what, int running)> on_hang);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Run `rank_main(rank)` for every rank, each on its own fiber, and
  /// return once all have returned. Every rank starts ready at its clock.
  /// `rank_main` must not throw: an exception cannot cross a fiber's
  /// boundary. Call once.
  void Run(const std::function<void(int rank)>& rank_main);

  /// Scheduling point of a pfs request at `key`.
  void Yield(int rank, double key);
  /// Park the running rank until Wake. Callers re-check their condition
  /// when Block returns, as with a condition variable.
  void Block(int rank);
  /// Make a parked rank ready to resume at `key`. Called by the running
  /// rank; a rank that is not parked is left as it is.
  void Wake(int rank, double key);

  /// The wait a rank parked through its hook names ("" if none).
  const std::string& parked_on(int rank) const {
    return fibers_[static_cast<std::size_t>(rank)].parked_on;
  }

 private:
  static constexpr int kHost = -1;  ///< the thread that called Run
  enum class State : std::uint8_t { kReady, kRunning, kBlocked, kDone };

  /// A rank: its fiber and its hook, through which pfs reaches Yield,
  /// Block and Wake.
  struct Fiber final : pnc::turn::Hook {
    Scheduler* sched = nullptr;
    int rank = 0;
    State state = State::kReady;
    ucontext_t uc{};
    void* mapping = nullptr;  ///< guard page + stack, or null
    std::string parked_on;
    std::optional<pnc::turn::RankContext> ctx;  ///< live while the fiber is

    void Request(double t) override { sched->Yield(rank, t); }
    void Park(const std::string& what) override;
    void Wake(double t_ns) override;
  };

  static void Entry(unsigned hi, unsigned lo);
  /// The body of rank `running_`'s fiber; never returns.
  void FiberMain() noexcept;
  /// Hand the turn to the least ready rank, or to the host once every rank
  /// is done (the caller has already left kRunning).
  void Pass();
  void MakeReady(int rank, double key);
  void CountPoint() {
    points_.store(points_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  }
  ucontext_t& ContextOf(int who);

  const std::vector<VirtualClock>& clocks_;
  const double hang_timeout_ms_;
  const std::function<void(const char*, int)> on_hang_;
  std::vector<Fiber> fibers_;
  ucontext_t host_{};
  pnc::turn::RankContext* host_ctx_ = nullptr;  ///< installed before Run
  const std::function<void(int)>* rank_main_ = nullptr;
  std::set<std::pair<double, int>> ready_;  ///< (key, rank)
  int done_ = 0;
  // Read by the stall watchdog's thread; written only by the running rank.
  std::atomic<int> running_{kHost};
  std::atomic<std::uint64_t> points_{0};  ///< scheduling points passed
#if defined(PNC_SANITIZE_BUILD)
  const void* host_stack_ = nullptr;  ///< ASan's view of the host stack
  std::size_t host_stack_size_ = 0;
#endif
};

}  // namespace simmpi::detail
