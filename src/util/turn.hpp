// What "the calling rank" means to code that does not link simmpi.
//
// The simmpi runtime runs every rank of a Run as a fiber on the calling
// thread and lets one rank run at a time, the one with the least virtual
// time (simmpi/sched.hpp). So a thread_local cannot tell ranks apart: every
// rank runs on the same thread. Code below simmpi (the simulated file
// system, the I/O statistics, the ncmpi handle tables) reaches the running
// rank through its RankContext instead. The scheduler gives each rank one
// and installs it on every resume; it holds the rank's scheduling hook and
// its copy of every RankLocal variable, and is destroyed when the rank's
// fiber ends. A caller with no runtime (a serial tool, a test's own thread)
// gets its thread's context: no hook, so it is never gated, and one copy of
// each RankLocal per thread, as a thread_local would give.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace pnc::turn {

class Hook {
 public:
  /// A request issued at virtual time `start_ns` to a shared server:
  /// returns once no other rank can still issue an earlier one.
  virtual void Request(double start_ns) = 0;
  /// Park the calling rank, the one this hook belongs to; returns once
  /// another rank has called Wake. `what` names the wait for the hang
  /// watchdog's dump.
  virtual void Park(const std::string& what) = 0;
  /// Make this hook's parked rank resume at max(its clock, `t_ns`). Called
  /// by the rank holding the turn, with its own clock as `t_ns`, so the
  /// woken rank never issues a request before its waker could.
  virtual void Wake(double t_ns) = 0;

 protected:
  ~Hook() = default;
};

/// One rank's state: its hook (null outside a runtime) and its copies of
/// the RankLocal variables, made on first use and destroyed with it.
class RankContext {
 public:
  explicit RankContext(Hook* hook = nullptr) : hook_(hook) {}
  RankContext(const RankContext&) = delete;
  RankContext& operator=(const RankContext&) = delete;

  Hook* hook() const { return hook_; }

  /// This context's copy of the RankLocal numbered `id`.
  template <typename T>
  T& Get(std::size_t id) {
    if (id >= values_.size()) values_.resize(id + 1);
    auto& v = values_[id];
    if (!v) v = std::make_unique<Value<T>>();
    return static_cast<Value<T>&>(*v).value;
  }

 private:
  struct Box {
    virtual ~Box() = default;
  };
  template <typename T>
  struct Value final : Box {
    T value{};
  };

  Hook* hook_;
  std::vector<std::unique_ptr<Box>> values_;  ///< indexed by RankLocal id
};

namespace detail {
inline thread_local RankContext* t_installed = nullptr;
inline std::size_t NextRankLocalId() {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

/// Make `ctx` the calling thread's current rank (null: none). The
/// scheduler calls it on every switch.
inline void Install(RankContext* ctx) { detail::t_installed = ctx; }
/// The installed rank context; null outside a simmpi rank.
inline RankContext* Installed() { return detail::t_installed; }

/// The calling rank's context, or outside a runtime the calling thread's.
inline RankContext& Current() {
  if (RankContext* ctx = detail::t_installed) return *ctx;
  thread_local RankContext own;
  return own;
}

/// The calling rank's hook; null outside a simmpi rank.
inline Hook* CurrentHook() {
  RankContext* ctx = detail::t_installed;
  return ctx != nullptr ? ctx->hook() : nullptr;
}

/// A variable with one value-initialised copy per rank (per thread outside
/// a runtime). Declare it at namespace scope, like the thread_local it
/// replaces.
template <typename T>
class RankLocal {
 public:
  RankLocal() : id_(detail::NextRankLocalId()) {}
  RankLocal(const RankLocal&) = delete;
  RankLocal& operator=(const RankLocal&) = delete;

  T& operator*() const { return Current().Get<T>(id_); }
  T* operator->() const { return &**this; }

 private:
  const std::size_t id_;
};

/// Scheduling point of a server request (no-op without a runtime).
inline void Request(double start_ns) {
  if (Hook* hook = CurrentHook()) hook->Request(start_ns);
}

}  // namespace pnc::turn
