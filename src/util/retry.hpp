// The bounded retry-with-backoff loops of the fault-injected pfs Try* path.
// Their one caller is ncformat::PfsIo (format/pfs_io.hpp), through which
// mpiio, the serial netCDF BufferedFile and the commit journal move bytes.
//
// Policy (identical everywhere, per DESIGN.md §6):
//   * short transfers resume from the reported count without consuming
//     retry budget — progress was made;
//   * a transient error (pnc::Err::kIoTransient) waits an exponentially
//     growing backoff charged to the caller's virtual clock, up to
//     `max_attempts` times; an exhausted budget converts the error to a
//     permanent pnc::Err::kIo;
//   * permanent errors are returned immediately;
//   * a zero-byte "success" is reported as kIo instead of looping forever.
//
// The budget is configurable per process via PNC_RETRY_MAX and
// PNC_RETRY_BACKOFF_NS (parsed through util/env.hpp, so malformed values
// warn once and fall back), and the initial backoff carries a deterministic
// per-rank jitter so many ranks hitting the same transient fault (e.g. a
// server outage window) do not retry in lockstep. Rank 0 keeps a jitter
// factor of exactly 1.0, so serial paths and root-performed commits are
// bit-identical to the historical loops.
#pragma once

#include <cstdint>
#include <utility>

#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace pnc::util {

struct RetryPolicy {
  int max_attempts = 4;
  double backoff_ns = 1e6;  ///< initial backoff; doubles per retry
};

/// Resolve the effective retry budget for one rank: caller defaults (e.g.
/// mpiio hints), overridden by PNC_RETRY_MAX / PNC_RETRY_BACKOFF_NS when
/// set, then the deterministic per-rank jitter factor in [1.0, 1.25)
/// applied to the backoff (identity for rank 0).
inline RetryPolicy ResolveRetryPolicy(int rank, int def_max = 4,
                                      double def_backoff_ns = 1e6) {
  RetryPolicy pol;
  pol.max_attempts =
      static_cast<int>(EnvInt("PNC_RETRY_MAX", def_max));
  if (pol.max_attempts < 0) pol.max_attempts = 0;
  pol.backoff_ns = EnvDouble("PNC_RETRY_BACKOFF_NS", def_backoff_ns);
  if (pol.backoff_ns < 0) pol.backoff_ns = 0;
  if (rank > 0) {
    pnc::SplitMix64 rng(0x9E3779B97F4A7C15ULL ^
                        static_cast<std::uint64_t>(rank));
    pol.backoff_ns *= 1.0 + 0.25 * rng.NextDouble();
  }
  return pol;
}

/// Drive `attempt(done)` (which must return a pfs::IoResult-shaped value:
/// .status, .transferred, .done_ns) until `len` bytes have moved or the
/// budget is spent. `clock` is advanced to each attempt's completion and by
/// each backoff wait; `on_retry(attempt_no, backoff_ns)` fires before each
/// backoff so callers can count/trace/record the retry.
template <typename Clock, typename AttemptFn, typename OnRetryFn>
pnc::Status RetryWithBackoff(const RetryPolicy& pol, Clock& clock,
                             std::uint64_t len, AttemptFn&& attempt,
                             OnRetryFn&& on_retry) {
  std::uint64_t done = 0;
  int attempts = 0;
  double backoff = pol.backoff_ns;
  while (done < len) {
    const auto r = attempt(done);
    clock.AdvanceTo(r.done_ns);
    if (r.status.ok()) {
      if (r.transferred == 0)
        return pnc::Status(pnc::Err::kIo, "no progress");
      done += r.transferred;
      continue;
    }
    if (r.status.code() != pnc::Err::kIoTransient) return r.status;
    if (attempts >= pol.max_attempts)
      return pnc::Status(pnc::Err::kIo, "transient I/O retries exhausted");
    ++attempts;
    on_retry(attempts, backoff);
    clock.Advance(backoff);
    backoff *= 2;
  }
  return pnc::Status::Ok();
}

/// The same policy for a sync barrier (a zero-length faultable op with no
/// notion of partial progress).
template <typename Clock, typename AttemptFn, typename OnRetryFn>
pnc::Status RetrySyncWithBackoff(const RetryPolicy& pol, Clock& clock,
                                 AttemptFn&& attempt, OnRetryFn&& on_retry) {
  int attempts = 0;
  double backoff = pol.backoff_ns;
  for (;;) {
    const auto r = attempt();
    clock.AdvanceTo(r.done_ns);
    if (r.status.ok()) return pnc::Status::Ok();
    if (r.status.code() != pnc::Err::kIoTransient) return r.status;
    if (attempts >= pol.max_attempts)
      return pnc::Status(pnc::Err::kIo, "transient I/O retries exhausted");
    ++attempts;
    on_retry(attempts, backoff);
    clock.Advance(backoff);
    backoff *= 2;
  }
}

}  // namespace pnc::util
