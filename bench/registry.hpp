// Bench registry: every bench/bench_*.cpp exposes its driver as a
// registered Run(const bench::Args&, bench::Recorder&) entry point instead
// of an orphan main(), so one CLI (ncbench) can run named suites in-process
// and the per-bench executables share a single standalone driver
// (bench/standalone_main.cpp). A grep lint (tests/bench_registry_lint.cmake)
// enforces that no bench file defines its own main and that every one
// registers here.
#pragma once

#include <string>
#include <vector>

#include "bench/bench_common.hpp"

namespace bench {

struct BenchDef {
  const char* name;     ///< stable id, also the "bench" field of records
  const char* summary;  ///< one line for --list / usage output
  /// Accepted --key flags beyond the driver-level ones (--json, --trace,
  /// --hints).
  /// A trailing '*' is a prefix wildcard (e.g. "benchmark_*").
  std::vector<std::string> flags;
  int (*run)(const Args&, Recorder&);
};

/// All benches registered in this binary, in registration order.
const std::vector<const BenchDef*>& AllBenches();

/// nullptr when no bench of that name is linked in.
const BenchDef* FindBench(const std::string& name);

/// Called by BENCH_REGISTER at static-init time.
bool RegisterBench(const BenchDef& def);

/// Shared run path for standalone drivers and ncbench: rejects unknown
/// flags with a usage message (exit 2), runs the bench, and propagates a
/// Recorder append failure as exit 2. Returns the process exit code.
int RunBench(const BenchDef& def, const Args& args, Recorder& rec);

/// One bench invocation inside a suite.
struct SuiteEntry {
  const char* bench;
  std::vector<std::string> args;
};

/// A named suite ncbench can run as a whole. Every suite is deterministic
/// by construction (simmpi grants pfs requests in virtual-time order), so
/// the consolidated output of `smoke` is byte-stable run to run and backs
/// the committed regression baseline (bench/baselines/smoke.json).
struct Suite {
  const char* name;
  const char* summary;
  std::vector<SuiteEntry> entries;
};

const std::vector<Suite>& Suites();
const Suite* FindSuite(const std::string& name);

}  // namespace bench

/// Registers `def` (a namespace-scope const bench::BenchDef) at static-init.
#define BENCH_REGISTER(def)                          \
  static const bool bench_registered_at_##__LINE__ = \
      ::bench::RegisterBench(def);
