#include "simmpi/sched.hpp"

#include <chrono>

namespace simmpi::detail {

Scheduler::Scheduler(
    int nranks, const std::vector<VirtualClock>& clocks,
    double hang_timeout_ms,
    std::function<void(const char* what, int running)> on_hang)
    : clocks_(clocks),
      hang_timeout_ms_(hang_timeout_ms),
      on_hang_(std::move(on_hang)),
      slots_(static_cast<std::size_t>(nranks)) {
  for (int r = 0; r < nranks; ++r) ready_.insert({clocks_[r].now(), r});
  std::lock_guard<std::mutex> lk(mu_);
  PassLocked();
}

void Scheduler::MakeReadyLocked(int rank, double key) {
  slots_[rank].state = State::kReady;
  ready_.insert({key, rank});
}

void Scheduler::PassLocked() {
  ++points_;
  if (ready_.empty()) {
    running_ = -1;
    if (done_ < static_cast<int>(slots_.size()) && hang_timeout_ms_ > 0)
      on_hang_("deadlock: no rank can run", -1);
    return;
  }
  const int next = ready_.begin()->second;
  ready_.erase(ready_.begin());
  slots_[next].state = State::kRunning;
  running_ = next;
  slots_[next].cv.notify_one();
}

void Scheduler::AwaitTurnLocked(int rank, std::unique_lock<std::mutex>& lk) {
  Slot& s = slots_[rank];
  if (hang_timeout_ms_ <= 0) {
    s.cv.wait(lk, [&] { return running_ == rank; });
    return;
  }
  const auto timeout =
      std::chrono::duration<double, std::milli>(hang_timeout_ms_);
  std::uint64_t seen = points_;
  while (!s.cv.wait_for(lk, timeout, [&] { return running_ == rank; })) {
    if (points_ == seen)
      on_hang_("stall: a rank kept the turn without a scheduling point",
               running_);
    seen = points_;
  }
}

void Scheduler::Enter(int rank) {
  std::unique_lock<std::mutex> lk(mu_);
  AwaitTurnLocked(rank, lk);
}

void Scheduler::Exit(int rank) {
  std::lock_guard<std::mutex> lk(mu_);
  slots_[rank].state = State::kDone;
  ++done_;
  PassLocked();
}

void Scheduler::Yield(int rank, double key) {
  std::unique_lock<std::mutex> lk(mu_);
  MakeReadyLocked(rank, key);
  PassLocked();
  AwaitTurnLocked(rank, lk);
}

void Scheduler::Block(int rank) {
  std::unique_lock<std::mutex> lk(mu_);
  slots_[rank].state = State::kBlocked;
  PassLocked();
  AwaitTurnLocked(rank, lk);
}

void Scheduler::Wake(int rank, double key) {
  std::lock_guard<std::mutex> lk(mu_);
  if (slots_[rank].state == State::kBlocked) MakeReadyLocked(rank, key);
}

}  // namespace simmpi::detail
