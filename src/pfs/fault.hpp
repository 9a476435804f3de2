// Fault injection for the simulated parallel file system.
//
// The paper's testbeds run GPFS over dedicated I/O server nodes, where
// transient server errors, short reads/writes, and occasional corruption are
// part of the contract an MPI-IO implementation must absorb (ROMIO retries
// interrupted POSIX calls; collective I/O must surface a failure identically
// on every rank). This module lets tests and benchmarks script such failures
// deterministically:
//
//   * transient errors  — fail once, succeed when retried (pnc::Err::
//     kIoTransient); injected by op index, by seeded probability, or by
//     per-server outage windows in virtual time;
//   * permanent errors  — fail every attempt (pnc::Err::kIo);
//   * short reads/writes — transfer only a prefix of the request, reported
//     truthfully so callers resume from the transferred count (POSIX
//     semantics); never silently torn;
//   * bit-flip corruption — reads return data with one flipped bit (silent:
//     status is OK, which is exactly what makes it dangerous).
//
// All randomness derives from the policy seed via util/rng.hpp, so a fault
// schedule is reproducible run-to-run. Every injected event is counted and
// surfaced through pfs::Stats.
//
// A faulted *write* stores nothing at all: the visible file content after a
// failed write is either the old bytes or the new bytes, never a garbage
// mixture. (A short write stores a prefix, but reports the count, so the
// caller knows exactly how far it got.)
//
// Crash points are the exception that proves the rule: a crash (simulated
// power loss) tears the in-flight write at an arbitrary byte boundary —
// exactly the hazard the netCDF commit protocol must survive — and freezes
// the whole file system: every later fault-injectable op on this incarnation
// fails until the next SetPolicy() call, which models a reboot. The harness
// path keeps working after a crash so tests can inspect the frozen image.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "util/rng.hpp"

namespace pfs {

/// Declarative fault schedule. Default-constructed = no faults.
struct FaultPolicy {
  static constexpr std::uint64_t kNever = ~0ULL;

  std::uint64_t seed = 0x5EEDF417ULL;

  // --- transient errors (retry may succeed) ---
  /// Every op whose global index appears here fails transiently. Note that a
  /// retry is a *new* op with the next index, so `{5}` fails exactly once.
  std::vector<std::uint64_t> transient_ops;
  /// Op index i fails transiently iff i % n == n - 1 (0 = off). A retry is
  /// the next op index, so with n >= 2 the retry always succeeds.
  std::uint64_t transient_every_nth = 0;
  /// Seeded per-op probability of a transient failure.
  double transient_read_prob = 0.0;
  double transient_write_prob = 0.0;

  /// A server outage window in virtual time: every op whose primary server
  /// is `server` and whose issue time falls in [begin_ns, end_ns) fails
  /// transiently. Retry-with-backoff walks the clock past the window.
  struct Outage {
    int server = 0;
    double begin_ns = 0.0;
    double end_ns = 0.0;
  };
  std::vector<Outage> outages;

  // --- permanent errors (no retry helps) ---
  std::vector<std::uint64_t> permanent_ops;
  /// All ops with index >= this fail permanently (kNever = off).
  std::uint64_t permanent_from = kNever;

  // --- short transfers (ok status, partial byte count) ---
  double short_read_prob = 0.0;
  double short_write_prob = 0.0;

  // --- silent corruption ---
  /// Seeded per-read probability that one bit of the returned data flips.
  /// Transient: the stored bytes stay intact, so a re-read heals.
  double bitflip_read_prob = 0.0;
  /// Seeded per-write probability that one bit of the *stored* payload
  /// flips: the write reports success, but the medium keeps the flipped
  /// byte. Every later read of that byte sees the corruption.
  double bitflip_write_prob = 0.0;
  /// Seeded per-read probability of at-rest decay: one bit inside the
  /// accessed range flips on the medium itself (persisted), and the read
  /// returns the corrupted bytes. Unlike bitflip_read_prob, a retry
  /// re-reads the same damage — only a checksum can tell.
  double corrupt_at_rest = 0.0;

  // --- crash points (simulated power loss) ---
  /// Scripted crash: the op with this index crashes the file system. If it
  /// is a write, `crash_write_bytes` of its payload land first (a torn
  /// prefix); then the image freezes and every later op fails (kNever = off).
  std::uint64_t crash_op = kNever;
  /// Bytes of the crashing write stored before the power fails (clamped to
  /// the request size). 0 = the write vanishes entirely.
  std::uint64_t crash_write_bytes = 0;
  /// Byte-granular sweep trigger: crash the instant cumulative Try-written
  /// bytes (counted since the policy was armed) reach this threshold. The
  /// in-flight write is torn at exactly the threshold; when the threshold
  /// lands between writes, the next op of any kind dies with nothing stored.
  /// Sweeping this value over [0, total] hits every byte boundary of a
  /// commit sequence (kNever = off).
  std::uint64_t crash_after_write_bytes = kNever;

  [[nodiscard]] bool Any() const {
    return !transient_ops.empty() || transient_every_nth != 0 ||
           transient_read_prob > 0 || transient_write_prob > 0 ||
           !outages.empty() || !permanent_ops.empty() ||
           permanent_from != kNever || short_read_prob > 0 ||
           short_write_prob > 0 || bitflip_read_prob > 0 ||
           bitflip_write_prob > 0 || corrupt_at_rest > 0 ||
           crash_op != kNever || crash_after_write_bytes != kNever;
  }
};

/// Counters for every injected event (merged into pfs::Stats).
struct FaultCounters {
  std::uint64_t transient_faults = 0;
  std::uint64_t permanent_faults = 0;
  std::uint64_t short_reads = 0;
  std::uint64_t short_writes = 0;
  std::uint64_t bitflips = 0;        ///< transient read-side flips
  std::uint64_t write_bitflips = 0;  ///< flips persisted by a write
  std::uint64_t at_rest_corruptions = 0;  ///< flips decayed on the medium
  std::uint64_t crashes = 0;  ///< ops refused because the image is frozen
  std::uint64_t faultable_ops = 0;  ///< ops that consulted the injector
};

/// What the injector decided for one op.
struct FaultDecision {
  enum class Kind {
    kOk, kTransient, kPermanent, kShort, kBitFlip, kAtRest, kCrash
  };
  Kind kind = Kind::kOk;
  std::uint64_t short_bytes = 0;  ///< kShort: bytes to actually transfer
  std::uint64_t flip_byte = 0;    ///< kBitFlip/kAtRest: byte index within
                                  ///< the request
  unsigned flip_bit = 0;          ///< kBitFlip/kAtRest: bit in that byte
  std::uint64_t torn_bytes = 0;   ///< kCrash on a write: prefix that lands
};

/// Seeded, thread-safe decision engine shared by all files of a FileSystem.
/// One global op counter orders all fault-injectable operations, so a
/// schedule written as op indices is exact even under concurrent ranks
/// (simmpi ranks take turns, so they reach it one at a time anyway).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPolicy policy = {});

  /// Decide the fate of one I/O op. `server` is the op's primary server
  /// (first stripe touched), `now_ns` its issue time on the virtual clock.
  FaultDecision Decide(bool is_write, std::uint64_t len, int server,
                       double now_ns);

  /// Record a bit flip actually applied (kept separate from Decide so the
  /// decision and the data mutation stay in one critical section each).
  void CountBitflip();
  /// Record a persisted write-side flip actually applied.
  void CountWriteBitflip();
  /// Record an at-rest decay actually applied.
  void CountAtRestCorruption();

  /// Replaces the schedule and reboots: the crashed state and the cumulative
  /// written-byte counter are cleared along with the op counter.
  void SetPolicy(const FaultPolicy& policy);
  [[nodiscard]] FaultPolicy policy() const;
  [[nodiscard]] FaultCounters counters() const;
  void ResetCounters();

  /// True once a crash point fired; stays true until SetPolicy (reboot).
  [[nodiscard]] bool crashed() const;

 private:
  mutable std::mutex mu_;
  FaultPolicy policy_;
  pnc::SplitMix64 rng_;
  std::uint64_t next_op_ = 0;
  std::uint64_t written_bytes_ = 0;  ///< cumulative Try-written since arming
  bool crashed_ = false;
  FaultCounters counters_;
};

}  // namespace pfs
