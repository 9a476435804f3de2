// Shared helpers for the paper-figure benchmark drivers.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "iostat/iostat.hpp"
#include "iostat/report.hpp"
#include "iostat/schemas.hpp"
#include "iostat/trace.hpp"
#include "simmpi/info.hpp"
#include "util/json.hpp"

namespace bench {

/// Tiny --key=value argument parser.
///
/// Flag acceptance is declared, not inferred: every bench lists the keys it
/// understands in its BenchDef (bench/registry.hpp) and the drivers call
/// UnknownFlags() before running, so a typo'd flag (`--proc=8`) is a usage
/// error instead of a silently ignored no-op running the wrong config.
class Args {
 public:
  Args() = default;
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }
  explicit Args(std::vector<std::string> args) : args_(std::move(args)) {}

  [[nodiscard]] std::string Get(const std::string& key,
                                const std::string& def) const {
    const std::string prefix = "--" + key + "=";
    for (const auto& a : args_)
      if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
    return def;
  }
  [[nodiscard]] bool Has(const std::string& flag) const {
    for (const auto& a : args_)
      if (a == "--" + flag) return true;
    return false;
  }

  /// Arguments not covered by `allowed`: anything that is not "--key" or
  /// "--key=value" with `key` in the list. An entry ending in '*' is a
  /// prefix wildcard (e.g. "benchmark_*" admits google-benchmark flags).
  [[nodiscard]] std::vector<std::string> UnknownFlags(
      const std::vector<std::string>& allowed) const {
    std::vector<std::string> unknown;
    for (const auto& a : args_) {
      if (a.rfind("--", 0) != 0) {
        unknown.push_back(a);
        continue;
      }
      const std::string key = a.substr(2, a.find('=') - 2);
      bool ok = false;
      for (const auto& pat : allowed) {
        if (!pat.empty() && pat.back() == '*'
                ? key.rfind(pat.substr(0, pat.size() - 1), 0) == 0
                : key == pat) {
          ok = true;
          break;
        }
      }
      if (!ok) unknown.push_back(a);
    }
    return unknown;
  }

  /// The raw argument strings (for passthrough, e.g. to google-benchmark).
  [[nodiscard]] const std::vector<std::string>& raw() const { return args_; }

 private:
  std::vector<std::string> args_;
};

/// Merge `--hints=key=value[,key=value...]` into `info`. Benches call this
/// after setting their own hints, so a suite- or CLI-level override (e.g.
/// `--hints=cb_nodes=1` for a single-aggregator run, or a deliberately
/// degraded `cb_buffer_size` to demo the regression gate) wins.
inline void ApplyHintOverrides(const Args& args, simmpi::Info& info) {
  const std::string s = args.Get("hints", "");
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string kv = s.substr(pos, comma - pos);
    const std::size_t eq = kv.find('=');
    if (eq != std::string::npos && eq > 0)
      info.Set(kv.substr(0, eq), kv.substr(eq + 1));
    pos = comma + 1;
  }
}

/// The seven array partitions of Figure 5, encoded as axis bitmasks
/// (bit 0 = Z, bit 1 = Y, bit 2 = X).
struct Partition {
  const char* name;
  unsigned mask;
};
inline constexpr Partition kPartitions[] = {
    {"Z", 1u},  {"Y", 2u},  {"X", 4u},  {"ZY", 3u},
    {"ZX", 5u}, {"YX", 6u}, {"ZYX", 7u},
};

/// Factor `nprocs` across the set axes of `mask` (powers of two), returning
/// per-axis process counts for a 3-D decomposition.
inline void Decompose(int nprocs, unsigned mask, int factors[3]) {
  factors[0] = factors[1] = factors[2] = 1;
  std::vector<int> axes;
  for (int d = 0; d < 3; ++d)
    if (mask & (1u << d)) axes.push_back(d);
  int rem = nprocs;
  std::size_t i = 0;
  while (rem > 1) {
    factors[axes[i % axes.size()]] *= 2;
    rem /= 2;
    ++i;
  }
}

/// Parse a comma-separated process-count list ("1,4,16"); keeps `def` when
/// the flag is absent or yields no positive entries.
inline std::vector<int> ProcsList(const Args& args, std::vector<int> def) {
  const std::string s = args.Get("procs", "");
  if (s.empty()) return def;
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const int v = std::atoi(s.c_str() + pos);
    if (v > 0) out.push_back(v);
    pos = s.find(',', pos);
    if (pos == std::string::npos) break;
    ++pos;
  }
  return out.empty() ? def : out;
}

/// MB/s from bytes and virtual nanoseconds.
inline double MBps(std::uint64_t bytes, double ns) {
  return ns <= 0 ? 0.0 : static_cast<double>(bytes) / ns * 1e3;
}

/// A table cell: `v` with `digits` decimals, or "-" for a side that a
/// filter (--mode, --cb) skipped.
inline std::string Cell(std::optional<double> v, int digits) {
  if (!v) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", digits, *v);
  return buf;
}

/// The speedup cell "N.NNx" of `num` / `den`, or "-" unless both sides ran.
inline std::string SpeedupCell(std::optional<double> num,
                               std::optional<double> den) {
  if (!num || !den || *den <= 0) return "-";
  return Cell(*num / *den, 2) + "x";
}

/// Tiny JSON-object builder for the config/metrics halves of a bench record.
class JsonObj {
 public:
  JsonObj& Str(const char* key, const std::string& v) {
    return Raw(key, "\"" + pnc::json::Escape(v) + "\"");
  }
  JsonObj& Int(const char* key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObj& Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return Raw(key, buf);
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObj& Raw(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += value;
    return *this;
  }
  std::string body_;
};

/// Machine-readable results channel shared by every bench driver: with
/// --json=PATH (or "-" for stdout) each configuration appends one line
///
///   {"schema":"pnc-bench-v1","bench":...,"config":{...},"metrics":{...},
///    "iostat":{..."schema":"pnc-iostat-v1"...}}
///
/// The embedded iostat report is the cross-rank reduction for exactly that
/// configuration (the registry is reset at BeginConfig), so `ncstat --report`
/// can inspect any line of a BENCH_*.json file directly.
///
/// A single bench run (the Args constructor) starts PATH empty, so the file
/// holds that run's records only; a suite writes its header line first and
/// its per-entry Recorders append after it.
///
/// The drivers construct the Recorder and pass it into the bench's Run()
/// entry point; a failed write is sticky (io_failed()) and turned into a
/// nonzero exit by bench::RunBench, so a suite run cannot "succeed" while
/// silently dropping its output.
///
/// With --trace=PATH (any bench; also honored in ncbench suite mode) span
/// recording is switched on and EndConfig rewrites PATH with a Chrome
/// trace-event timeline of the configuration that just finished, so the file
/// holds the most recent configuration of the run.
class Recorder {
 public:
  Recorder(const Args& args, const char* bench_name)
      : bench_(bench_name),
        path_(args.Get("json", "")),
        trace_path_(args.Get("trace", "")) {
    if (!enabled() || path_ == "-") return;
    FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr || std::fclose(f) != 0) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      io_failed_ = true;
    }
  }
  Recorder(std::string path, std::string bench_name,
           std::string trace_path = "")
      : bench_(std::move(bench_name)),
        path_(std::move(path)),
        trace_path_(std::move(trace_path)) {}

  [[nodiscard]] bool enabled() const { return !path_.empty(); }
  [[nodiscard]] bool tracing() const { return !trace_path_.empty(); }
  [[nodiscard]] bool io_failed() const { return io_failed_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Start a configuration: zero every counter and drop accumulated events
  /// so the emitted report/trace covers only this run.
  void BeginConfig() const {
    if (enabled() || tracing()) iostat::Registry::Get().Reset();
  }

  /// Finish a configuration: append its record line and rewrite the trace.
  /// Returns false (and latches io_failed()) when either cannot be written.
  bool EndConfig(const JsonObj& config, const JsonObj& metrics) {
    iostat::Report rep;
    if (enabled() || tracing()) rep = iostat::BuildReport();
    if (enabled()) {
      // `meta` stamps each record with the suite schema this writer targets
      // and the build configuration that produced the numbers, so a trend
      // reader can refuse to compare a sanitizer build against a release
      // one. Readers of pnc-bench-v1 skip unknown keys, so old parsers
      // still accept stamped lines.
      const std::string meta =
          std::string("{\"suite_schema\":\"") + iostat::schemas::kBenchSuite +
          "\",\"iostat\":" + (PNC_IOSTAT_ENABLED ? "true" : "false") +
          ",\"sanitize\":" +
#if defined(PNC_SANITIZE_BUILD)
          "true"
#else
          "false"
#endif
          + std::string("}");
      std::string line =
          std::string("{\"schema\":\"") + iostat::schemas::kBench +
          "\",\"bench\":\"" + bench_ + "\",\"meta\":" + meta +
          ",\"config\":" + config.str() + ",\"metrics\":" + metrics.str() +
          ",\"iostat\":" + iostat::ToJson(rep) + "}\n";
      if (path_ == "-") {
        std::fwrite(line.data(), 1, line.size(), stdout);
        std::fflush(stdout);
      } else {
        FILE* f = std::fopen(path_.c_str(), "a");
        if (f == nullptr) {
          std::fprintf(stderr, "bench: cannot append to %s\n", path_.c_str());
          io_failed_ = true;
          return false;
        }
        const bool wrote =
            std::fwrite(line.data(), 1, line.size(), f) == line.size();
        const bool closed = std::fclose(f) == 0;
        if (!wrote || !closed) {
          std::fprintf(stderr, "bench: short write to %s\n", path_.c_str());
          io_failed_ = true;
          return false;
        }
      }
    }
    if (tracing()) {
      const pnc::Status ts = iostat::WriteChromeTrace(trace_path_);
      if (!ts.ok()) {
        std::fprintf(stderr, "bench: %s\n", ts.message().c_str());
        io_failed_ = true;
        return false;
      }
    }
    return true;
  }

 private:
  std::string bench_;
  std::string path_;
  std::string trace_path_;
  bool io_failed_ = false;
};

}  // namespace bench
