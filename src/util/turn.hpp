// Turn taking between simulated rank threads.
//
// The simmpi runtime runs each rank on its own thread but lets one rank run
// at a time, the one with the least virtual time (simmpi/sched.hpp). The
// simulated file system does not link simmpi; it reaches that scheduler
// through this hook, a thread-local pointer that simmpi::Run installs on
// each rank thread. A caller with no runtime (a serial tool, a test's own
// thread) sees a null hook and is never gated.
#pragma once

#include <string>

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

/// The calling thread's hook; null outside a simmpi rank thread.
inline thread_local Hook* t_hook = nullptr;

/// Scheduling point of a server request (no-op without a runtime).
inline void Request(double start_ns) {
  if (t_hook != nullptr) t_hook->Request(start_ns);
}

}  // namespace pnc::turn
