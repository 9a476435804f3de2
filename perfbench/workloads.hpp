// The benchmark's three workloads, their seeded inputs, and one job phase
// each. perfbench/pncbench.cpp drives them; perfbench/selftest.cpp runs
// scaled-down copies.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "iostat/report.hpp"
#include "trace.hpp"

namespace perfbench {

/// One phase of a job: a simmpi::Run (or a serial section) and what it
/// measured. `kind` is "write", "read" or "base".
struct Phase {
  std::string kind;
  bool ok = true;
  std::string err;
  std::uint64_t bytes = 0;   ///< payload of the timed region
  double vns = 0;            ///< virtual ns of the timed region
  std::int64_t host_begin = 0;  ///< host clock when the phase started
  std::int64_t host_ns = 0;     ///< host ns of the whole phase
  double skew_vns = 0;       ///< spread of RunResult::rank_times_ns
  std::vector<RankTrace> ranks;
  std::string tiling;        ///< "" = tiled (or not traced)
  iostat::Report rep;

  void Fail(const std::string& why) {
    if (ok) err = why;
    ok = false;
  }
};

/// A workload: seeded inputs made once per set-up, then jobs in a fixed
/// cycle. Jobs run one at a time, each on a fresh simulated file system,
/// and every phase of a job starts with idle servers (FileSystem::ResetTime).
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Ranks per parallel phase.
  [[nodiscard]] virtual int nprocs() const = 0;
  /// Jobs per cycle; a run always ends on a cycle boundary.
  [[nodiscard]] virtual int cycle_len() const = 0;
  /// Generate every input from `seed`.
  virtual void Setup(std::uint64_t seed) = 0;
  /// A job's set-up before its first write: a fresh file system on the
  /// workload's preset, and its dataset created, defined and closed at
  /// nprocs() ranks. Returns "" or what failed.
  [[nodiscard]] virtual std::string CreateDataset() const = 0;
  /// Run job `k` (0-based, counted from the start of the run).
  virtual std::vector<Phase> Job(int k, bool tracing) = 0;
  /// Hash of the generated inputs (determinism check).
  [[nodiscard]] virtual std::uint64_t InputHash() const = 0;
  /// Seed-dependent order of cycle `c` (determinism check): lbl_rw's
  /// partitions, flash_ckpt's unknown-to-variable layout.
  [[nodiscard]] virtual std::vector<int> CycleOrder(int c) const = 0;
};

/// Sizes of each workload. The defaults are the benchmark's; the self-test
/// shrinks them.
struct LblParams {
  int nprocs = 16;
  std::uint64_t z = 256, y = 256, x = 128;  ///< tt(Z,Y,X) doubles: 64 MiB
};
struct FlashParams {
  int nprocs = 64;
  int nxb = 8;                ///< 8^3 interior cells per block
  int blocks_per_proc = 80;
  int nvar = 24;
  int verify_vars = 3;        ///< unknowns read back per PnetCDF job
};
struct AppendParams {
  int nprocs = 4;
  int nvars = 8;
  std::uint64_t lat = 32, lon = 64;
  int steps = 200;
};

std::unique_ptr<Workload> MakeLbl(const LblParams& p);
std::unique_ptr<Workload> MakeFlash(const FlashParams& p);
std::unique_ptr<Workload> MakeAppend(const AppendParams& p);

/// The benchmark's workload by name; null when unknown.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench
