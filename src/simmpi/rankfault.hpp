// Deterministic rank-fault injection for the in-process MPI.
//
// pfs/fault.hpp scripts *storage* failures; this module scripts *process*
// failures — the other half of the failure model a parallel netCDF library
// must survive (an MPI job where one rank dies mid-collective must not hang
// the survivors, and must leave the file in a state ncverify accepts):
//
//   * rank crashes — a scripted rank throws RankCrash at a deterministic
//     point (its Nth communication op, or the first op at/after a virtual
//     time). The crash marks the rank dead in shared state and wakes every
//     blocked peer; fault-tolerant calls observe the death instead of
//     hanging. After the throw, every Comm op on the dead rank becomes an
//     inert no-op so destructors can unwind through collective calls.
//   * stragglers — a scripted rank's message costs are multiplied by a
//     delay factor, so it arrives late to every exchange. Purely virtual
//     time: nothing sleeps.
//   * message drops — a scripted (rank, send index) pair, or a seeded
//     per-send probability, makes a send vanish in transit. There is no
//     retransmission layer: an undropped-for hang is exactly what the
//     watchdog exists to catch, and chaos schedules pair a drop with the
//     sender's crash to model "died mid-send".
//
// All schedules are deterministic: scripted indices are exact (per-rank op
// and send counters are touched only by the owning rank), probabilistic
// drops derive from (seed, rank, send index) — never from a global RNG that
// the order of the ranks' turns could perturb. Armed vs. not armed is the master
// switch: with no policy armed, the fault paths in comm.cpp are never
// entered and behavior is bit-identical to a fault-free build.
#pragma once

#include <cstdint>
#include <vector>

namespace simmpi {

/// Declarative rank-fault schedule. Default-constructed = no faults.
struct RankFaultPolicy {
  static constexpr std::uint64_t kNever = ~0ULL;

  std::uint64_t seed = 0xC7A05FA17ULL;

  /// A scripted crash. The rank dies at its `at_op`-th communication op
  /// (Send/Recv/agreement entry, counted per rank from 0), or at the first
  /// op at/after `at_time_ns` on its virtual clock — whichever is armed and
  /// reached first.
  struct Crash {
    int rank = -1;
    std::uint64_t at_op = kNever;
    double at_time_ns = -1.0;  ///< < 0 = off
  };
  std::vector<Crash> crashes;

  /// A scripted straggler: every message this rank sends costs
  /// `send_delay_factor` times the modeled message cost.
  struct Straggle {
    int rank = -1;
    double send_delay_factor = 1.0;
  };
  std::vector<Straggle> stragglers;

  /// A scripted drop: this rank's `send_index`-th send (counted per rank
  /// from 0) vanishes in transit.
  struct Drop {
    int rank = -1;
    std::uint64_t send_index = kNever;
  };
  std::vector<Drop> drops;
  /// Seeded per-send drop probability (derived from seed, rank, and send
  /// index, so it is exact run-to-run regardless of the order of turns).
  double drop_prob = 0.0;

  [[nodiscard]] bool Any() const {
    return !crashes.empty() || !stragglers.empty() || !drops.empty() ||
           drop_prob > 0;
  }
};

/// Counters for every injected rank-fault event (reported via RunResult).
struct RankFaultCounters {
  std::uint64_t crashes = 0;
  std::uint64_t straggled_sends = 0;
  std::uint64_t dropped_messages = 0;
  std::uint64_t agreements = 0;         ///< AgreeFT rounds finalized
  std::uint64_t agreements_failed = 0;  ///< rounds that observed a death
};

/// Thrown exactly once on the dying rank, at the injection point. The
/// runtime absorbs it (the crash is scripted, not an error); user code
/// should let it propagate.
struct RankCrash {
  int world_rank = 0;
};

/// The agreed outcome of one fault-tolerant agreement round (Comm::AgreeFT).
/// By construction every survivor receives a bitwise-identical outcome for
/// the same round — the fold and the survivor set are computed once, in one
/// critical section, when the last live participant arrives.
struct AgreeOutcome {
  std::int64_t min_value = 0;  ///< min over all live participants' values
  bool any_dead = false;       ///< some member of the comm is dead
  std::vector<int> alive;      ///< live comm-relative ranks, ascending
  int live_ctx = 0;  ///< fresh context for Comm::LiveSubsetFT (any_dead only)
};

}  // namespace simmpi
