// Virtual time accounting.
//
// The reproduction environment has a single CPU core, so wall-clock time
// cannot exhibit 16-way parallel I/O overlap. Instead every rank carries a
// VirtualClock advanced by an explicit cost model (LogGP-style messaging
// costs, per-byte memory copy costs, and the PFS service model in src/pfs).
// Collectives synchronize clocks exactly where real MPI ranks would block,
// so "aggregate bandwidth" computed from virtual time behaves like the
// paper's measured rates: it saturates when the fixed pool of I/O servers
// saturates and it punishes many small noncontiguous requests.
#pragma once

#include <algorithm>
#include <cstdint>

namespace simmpi {

/// Tunable costs, in nanoseconds. Defaults are loosely calibrated to a
/// 2003-era SP-2-class machine (see bench/platforms.hpp for the presets used
/// by the paper-figure benchmarks).
struct CostModel {
  // Messaging (LogGP alpha/beta).
  double msg_latency_ns = 20'000.0;  ///< per message (~20 us MPI latency)
  double msg_ns_per_byte = 2.0;      ///< ~500 MB/s per-link bandwidth
  // Local work.
  double mem_copy_ns_per_byte = 0.35; ///< pack/unpack, sieving copies
  double sw_overhead_ns = 2'000.0;    ///< per library call bookkeeping
  // Hang watchdog: while on, a deadlock (no rank can run, e.g. a
  // mismatched collective) dumps every rank's wait state to stderr and
  // aborts at once, and so does a rank that keeps the turn this long (REAL
  // time, not virtual) without reaching a scheduling point (sched.hpp). 0
  // disables. The PNC_HANG_TIMEOUT_MS environment variable, when set,
  // overrides this value.
  double hang_timeout_ms = 30'000.0;

  [[nodiscard]] double MessageCost(std::uint64_t bytes) const {
    return msg_latency_ns + msg_ns_per_byte * static_cast<double>(bytes);
  }
  [[nodiscard]] double CopyCost(std::uint64_t bytes) const {
    return mem_copy_ns_per_byte * static_cast<double>(bytes);
  }
};

/// Monotonic per-rank virtual clock (nanoseconds as double for headroom).
class VirtualClock {
 public:
  [[nodiscard]] double now() const { return now_ns_; }

  void Advance(double ns) { now_ns_ += std::max(0.0, ns); }
  void AdvanceTo(double t) { now_ns_ = std::max(now_ns_, t); }
  void Reset() { now_ns_ = 0.0; }

 private:
  double now_ns_ = 0.0;
};

}  // namespace simmpi
