// MPI-IO hint handling (ROMIO-compatible keys).
//
// Paper §4.1: "Traditional MPI-IO hints tune the MPI-IO implementation to
// the specific platform and expected low-level access pattern, such as
// enabling or disabling certain algorithms or adjusting internal buffer
// sizes and policies." These are the keys this implementation honors.
#pragma once

#include <algorithm>
#include <cstdint>

#include "simmpi/info.hpp"

namespace mpiio {

struct Hints {
  // Collective buffering (two-phase I/O).
  std::uint64_t cb_buffer_size = 4ULL << 20;  ///< aggregator window size
  int cb_nodes = 0;           ///< number of aggregators; 0 = auto
  bool cb_read = true;        ///< romio_cb_read
  bool cb_write = true;       ///< romio_cb_write

  // Data sieving (independent noncontiguous access).
  bool ds_read = true;   ///< romio_ds_read
  bool ds_write = true;  ///< romio_ds_write
  std::uint64_t ind_rd_buffer_size = 4ULL << 20;
  std::uint64_t ind_wr_buffer_size = 512ULL << 10;

  // Fault handling (ROMIO retries interrupted POSIX transfers; we extend the
  // idea to the PFS's transient errors). A transient failure is retried up to
  // `retry_max` times with exponential backoff starting at
  // `retry_backoff_ns` virtual nanoseconds; when the budget is exhausted the
  // transient error is reported as a permanent pnc::Err::kIo.
  int retry_max = 4;                 ///< pnc_retry_max
  double retry_backoff_ns = 1e6;     ///< pnc_retry_backoff_ns

  // Documented clamp bounds. Buffer-size hints are clamped into
  // [kMinBufferSize, kMaxBufferSize] — zero and negative values count as
  // below-minimum (a negative value must never wrap into a huge unsigned
  // size), and anything past 2 GiB is treated as a typo rather than an
  // allocation request. Retry counts clamp into [0, kMaxRetries]; backoffs
  // clamp at zero.
  static constexpr std::uint64_t kMinBufferSize = 4096;
  static constexpr std::uint64_t kMaxBufferSize = 2ULL << 30;
  static constexpr int kMaxRetries = 1000;

  /// Parse from an Info object; unknown keys are ignored (and remain
  /// available to higher layers), per the MPI hint contract.
  static Hints Parse(const simmpi::Info& info, int comm_size,
                     int num_io_servers) {
    Hints h;
    const auto buffer_size = [&info](const char* key, std::uint64_t def) {
      const std::int64_t v = info.GetInt(key, static_cast<std::int64_t>(def));
      if (v < static_cast<std::int64_t>(kMinBufferSize)) return kMinBufferSize;
      if (v > static_cast<std::int64_t>(kMaxBufferSize)) return kMaxBufferSize;
      return static_cast<std::uint64_t>(v);
    };
    h.cb_buffer_size = buffer_size("cb_buffer_size", h.cb_buffer_size);
    // ROMIO defaults cb_nodes to the number of distinct hosts; the closest
    // analogue here is one aggregator per I/O server, capped by comm size.
    h.cb_nodes = static_cast<int>(info.GetInt(
        "cb_nodes", std::min(comm_size, std::max(1, num_io_servers))));
    h.cb_nodes = std::clamp(h.cb_nodes, 1, comm_size);
    h.cb_read = info.GetFlag("romio_cb_read", h.cb_read);
    h.cb_write = info.GetFlag("romio_cb_write", h.cb_write);
    h.ds_read = info.GetFlag("romio_ds_read", h.ds_read);
    h.ds_write = info.GetFlag("romio_ds_write", h.ds_write);
    h.ind_rd_buffer_size =
        buffer_size("ind_rd_buffer_size", h.ind_rd_buffer_size);
    h.ind_wr_buffer_size =
        buffer_size("ind_wr_buffer_size", h.ind_wr_buffer_size);
    h.retry_max = std::clamp(
        static_cast<int>(info.GetInt("pnc_retry_max", h.retry_max)), 0,
        kMaxRetries);
    h.retry_backoff_ns = static_cast<double>(info.GetInt(
        "pnc_retry_backoff_ns", static_cast<std::int64_t>(h.retry_backoff_ns)));
    if (h.retry_backoff_ns < 0) h.retry_backoff_ns = 0;
    return h;
  }
};

}  // namespace mpiio
