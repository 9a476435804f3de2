#include "simmpi/sched.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <new>
#include <thread>

#if defined(PNC_SANITIZE_BUILD)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace simmpi::detail {

namespace {

/// A rank's stack: a thread's default size, committed page by page on
/// first touch, with a PROT_NONE guard page below it.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;

std::size_t PageBytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

void UnmapStack(void* mapping) {
#if defined(PNC_SANITIZE_BUILD)
  // A rank's last frames never return, so their redzones stay poisoned.
  // ASan's swapcontext hook clears a stack's shadow only up to 4 MiB, so
  // clear it here, before the next mapping at this address.
  __asan_unpoison_memory_region(mapping, PageBytes() + kStackBytes);
#endif
  munmap(mapping, PageBytes() + kStackBytes);
}

/// The stall check of one Run: a thread that looks every `timeout_ms` of
/// host time and reports a stall when no scheduling point passed since its
/// last look. Only a rank that keeps the turn can starve the others now
/// that they share one thread, so nothing else needs watching.
class StallWatchdog {
 public:
  StallWatchdog(double timeout_ms, const std::atomic<std::uint64_t>& points,
                const std::atomic<int>& running,
                const std::function<void(const char*, int)>& on_hang) {
    if (timeout_ms <= 0) return;
    thread_ = std::thread([this, timeout_ms, &points, &running, &on_hang] {
      const std::chrono::duration<double, std::milli> period(timeout_ms);
      std::unique_lock<std::mutex> lk(mu_);
      std::uint64_t seen = points.load(std::memory_order_relaxed);
      while (!cv_.wait_for(lk, period, [this] { return stop_; })) {
        const std::uint64_t now = points.load(std::memory_order_relaxed);
        if (now == seen)
          on_hang("stall: a rank kept the turn without a scheduling point",
                  running.load(std::memory_order_relaxed));
        seen = now;
      }
    });
  }
  ~StallWatchdog() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

Scheduler::Scheduler(
    int nranks, const std::vector<VirtualClock>& clocks,
    double hang_timeout_ms,
    std::function<void(const char* what, int running)> on_hang)
    : clocks_(clocks),
      hang_timeout_ms_(hang_timeout_ms),
      on_hang_(std::move(on_hang)),
      fibers_(static_cast<std::size_t>(nranks)) {}

Scheduler::~Scheduler() {
  for (Fiber& f : fibers_)
    if (f.mapping != nullptr) UnmapStack(f.mapping);
}

void Scheduler::Fiber::Park(const std::string& what) {
  parked_on = what;
  sched->Block(rank);
  parked_on.clear();
}

void Scheduler::Fiber::Wake(double t_ns) {
  sched->Wake(rank, std::max(t_ns, sched->clocks_[rank].now()));
}

void Scheduler::Run(const std::function<void(int rank)>& rank_main) {
  rank_main_ = &rank_main;
  const std::size_t page = PageBytes();
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  for (std::size_t i = 0; i < fibers_.size(); ++i) {
    Fiber& f = fibers_[i];
    f.sched = this;
    f.rank = static_cast<int>(i);
    f.mapping = mmap(nullptr, page + kStackBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                     -1, 0);
    if (f.mapping == MAP_FAILED) {
      f.mapping = nullptr;
      throw std::bad_alloc();
    }
    if (mprotect(f.mapping, page, PROT_NONE) != 0) throw std::bad_alloc();
    getcontext(&f.uc);
    f.uc.uc_stack.ss_sp = static_cast<char*>(f.mapping) + page;
    f.uc.uc_stack.ss_size = kStackBytes;
    f.uc.uc_link = nullptr;
    makecontext(&f.uc, reinterpret_cast<void (*)()>(&Entry), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self));
    f.ctx.emplace(&f);
    ready_.insert({clocks_[i].now(), f.rank});
  }
  host_ctx_ = pnc::turn::Installed();
  {
    const StallWatchdog watchdog(hang_timeout_ms_, points_, running_,
                                 on_hang_);
    Pass();  // back here once the last rank is done
  }
  for (Fiber& f : fibers_) {
    UnmapStack(f.mapping);
    f.mapping = nullptr;
  }
}

void Scheduler::Entry(unsigned hi, unsigned lo) {
  auto* self =
      reinterpret_cast<Scheduler*>(static_cast<std::uintptr_t>(hi) << 32 | lo);
#if defined(PNC_SANITIZE_BUILD)
  // Before any call: ASan must know it is on this fiber's stack.
  const void* from = nullptr;
  std::size_t from_size = 0;
  __sanitizer_finish_switch_fiber(nullptr, &from, &from_size);
  if (self->host_stack_ == nullptr) {  // the host enters the first fiber
    self->host_stack_ = from;
    self->host_stack_size_ = from_size;
  }
#endif
  self->FiberMain();
}

// noexcept: the rank body's catch in runtime.cpp already keeps every
// exception on its own fiber, and one that escaped anyway would terminate
// here instead of unwinding into a stack that never called us.
void Scheduler::FiberMain() noexcept {
  const int rank = running_.load(std::memory_order_relaxed);
  Fiber& f = fibers_[static_cast<std::size_t>(rank)];
  (*rank_main_)(rank);
  f.ctx.reset();  // the rank's RankLocal copies, as a thread's would go
  pnc::turn::Install(host_ctx_);
  f.state = State::kDone;
  ++done_;
  Pass();
  std::abort();  // a done rank is never resumed
}

ucontext_t& Scheduler::ContextOf(int who) {
  return who == kHost ? host_ : fibers_[static_cast<std::size_t>(who)].uc;
}

void Scheduler::MakeReady(int rank, double key) {
  fibers_[static_cast<std::size_t>(rank)].state = State::kReady;
  ready_.insert({key, rank});
}

void Scheduler::Pass() {
  CountPoint();
  const int from = running_.load(std::memory_order_relaxed);
  int next = kHost;
  if (!ready_.empty()) {
    next = ready_.begin()->second;
    ready_.erase(ready_.begin());
    fibers_[static_cast<std::size_t>(next)].state = State::kRunning;
  } else if (done_ < static_cast<int>(fibers_.size())) {
    // Only a running rank wakes a parked one, and none is left.
    on_hang_("deadlock: no rank can run", -1);
  }
  if (next == from) return;
  running_.store(next, std::memory_order_relaxed);
  pnc::turn::Install(next == kHost ? host_ctx_
                                   : &*fibers_[static_cast<std::size_t>(next)].ctx);
#if defined(PNC_SANITIZE_BUILD)
  const bool exiting = from != kHost &&
                       fibers_[static_cast<std::size_t>(from)].state == State::kDone;
  void* fake_stack = nullptr;
  if (next == kHost) {
    __sanitizer_start_switch_fiber(exiting ? nullptr : &fake_stack,
                                   host_stack_, host_stack_size_);
  } else {
    __sanitizer_start_switch_fiber(
        exiting ? nullptr : &fake_stack,
        static_cast<char*>(fibers_[static_cast<std::size_t>(next)].mapping) +
            PageBytes(),
        kStackBytes);
  }
#endif
  swapcontext(&ContextOf(from), &ContextOf(next));
#if defined(PNC_SANITIZE_BUILD)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

void Scheduler::Yield(int rank, double key) {
  // Still the least ready rank: keep the turn, as a pass would give it back.
  if (ready_.empty() || std::make_pair(key, rank) < *ready_.begin()) {
    CountPoint();
    return;
  }
  MakeReady(rank, key);
  Pass();
}

void Scheduler::Block(int rank) {
  fibers_[static_cast<std::size_t>(rank)].state = State::kBlocked;
  Pass();
}

void Scheduler::Wake(int rank, double key) {
  if (fibers_[static_cast<std::size_t>(rank)].state == State::kBlocked)
    MakeReady(rank, key);
}

}  // namespace simmpi::detail
