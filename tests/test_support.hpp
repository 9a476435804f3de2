// Shared helpers for robustness / fault-injection tests.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "format/commit.hpp"
#include "format/commit_pfs.hpp"
#include "netcdf/dataset.hpp"
#include "pfs/pfs.hpp"

namespace pnc_test {

/// RAII environment override; restores the previous value on scope exit.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = ::getenv(name)) old_ = old;
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~EnvGuard() {
    if (old_)
      ::setenv(name_, old_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// One-line reproduction recipe for a fault/crash schedule, for use in
/// failure messages (SCOPED_TRACE / assertion <<): a failing seeded or swept
/// case can be re-run directly from the log line.
inline std::string DescribePolicy(const pfs::FaultPolicy& p) {
  std::string s = "FaultPolicy{seed=0x";
  char hex[32];
  std::snprintf(hex, sizeof hex, "%llX",
                static_cast<unsigned long long>(p.seed));
  s += hex;
  if (p.crash_op != pfs::FaultPolicy::kNever)
    s += " crash_op=" + std::to_string(p.crash_op) +
         " crash_write_bytes=" + std::to_string(p.crash_write_bytes);
  if (p.crash_after_write_bytes != pfs::FaultPolicy::kNever)
    s += " crash_after_write_bytes=" +
         std::to_string(p.crash_after_write_bytes);
  if (!p.transient_ops.empty()) {
    s += " transient_ops={";
    for (std::size_t i = 0; i < p.transient_ops.size(); ++i)
      s += (i ? "," : "") + std::to_string(p.transient_ops[i]);
    s += "}";
  }
  if (!p.permanent_ops.empty()) {
    s += " permanent_ops={";
    for (std::size_t i = 0; i < p.permanent_ops.size(); ++i)
      s += (i ? "," : "") + std::to_string(p.permanent_ops[i]);
    s += "}";
  }
  if (p.permanent_from != pfs::FaultPolicy::kNever)
    s += " permanent_from=" + std::to_string(p.permanent_from);
  for (const auto& o : p.outages)
    s += " outage={server=" + std::to_string(o.server) + " [" +
         std::to_string(o.begin_ns) + "," + std::to_string(o.end_ns) + ")}";
  if (p.transient_every_nth != 0)
    s += " transient_every_nth=" + std::to_string(p.transient_every_nth);
  if (p.transient_read_prob > 0)
    s += " transient_read_prob=" + std::to_string(p.transient_read_prob);
  if (p.transient_write_prob > 0)
    s += " transient_write_prob=" + std::to_string(p.transient_write_prob);
  if (p.short_read_prob > 0)
    s += " short_read_prob=" + std::to_string(p.short_read_prob);
  if (p.short_write_prob > 0)
    s += " short_write_prob=" + std::to_string(p.short_write_prob);
  if (p.bitflip_read_prob > 0)
    s += " bitflip_read_prob=" + std::to_string(p.bitflip_read_prob);
  if (p.bitflip_write_prob > 0)
    s += " bitflip_write_prob=" + std::to_string(p.bitflip_write_prob);
  if (p.corrupt_at_rest > 0)
    s += " corrupt_at_rest=" + std::to_string(p.corrupt_at_rest);
  s += "}";
  return s;
}

/// Remove `path`'s commit-journal sidecar, turning it into a "legacy"
/// dataset: corruption is then unrecoverable and opens must reject it.
inline void DropJournal(pfs::FileSystem& fs, const std::string& path) {
  (void)fs.Remove(ncformat::JournalPath(path));
}

/// Write a small valid dataset (dim x=8, double var "a" of eight 1.0s) and
/// return its total size in bytes.
inline std::uint64_t MakeValidFile(pfs::FileSystem& fs,
                                   const std::string& path) {
  auto ds = netcdf::Dataset::Create(fs, path).value();
  const int x = ds.DefDim("x", 8).value();
  const int v = ds.DefVar("a", ncformat::NcType::kDouble, {x}).value();
  EXPECT_TRUE(ds.EndDef().ok());
  std::vector<double> vals(8, 1.0);
  EXPECT_TRUE(ds.PutVar<double>(v, vals).ok());
  EXPECT_TRUE(ds.Close().ok());
  return fs.Open(path).value().size();
}

/// Overwrite one byte of `path` through the fault-aware pfs write path,
/// asserting that the write actually completed (a corruption helper that
/// silently failed to corrupt would turn the test into a no-op).
inline void CorruptByte(pfs::FileSystem& fs, const std::string& path,
                        std::uint64_t offset, std::byte value) {
  auto f = fs.Open(path).value();
  const pfs::IoResult r =
      f.TryWrite(offset, pnc::ConstByteSpan(&value, 1), 0.0);
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  ASSERT_EQ(r.transferred, 1u);
}

/// Read the current byte at `offset` (harness path, never fault-injected).
inline std::byte ByteAt(pfs::FileSystem& fs, const std::string& path,
                        std::uint64_t offset) {
  auto f = fs.Open(path).value();
  std::byte b{};
  f.HarnessRead(offset, pnc::ByteSpan(&b, 1), 0.0);
  return b;
}

/// The record count in `path`'s primary header as on disk (bytes [4, 8),
/// harness path).
inline std::uint32_t DiskNumrecs(pfs::FileSystem& fs, const std::string& path) {
  std::uint32_t n = 0;
  for (std::uint64_t i = 4; i < 8; ++i)
    n = n << 8 | std::to_integer<std::uint32_t>(ByteAt(fs, path, i));
  return n;
}

/// The commit in force of `path` (the file must have a journal): the
/// journal's slot, or, when the journal holds none, the primary (seq 0),
/// session-OPEN when sums are on, as the session that wrote it holds it.
inline ncformat::CommitState CommittedState(pfs::FileSystem& fs,
                                            const std::string& path) {
  simmpi::VirtualClock clk;
  ncformat::PfsCommitIo journal(fs.Open(ncformat::JournalPath(path)).value(),
                                &clk);
  const auto slot = ncformat::ReadCommitState(journal).value();
  if (slot) return *slot;
  ncformat::PfsCommitIo primary(fs.Open(path).value(), &clk);
  const auto rep = ncformat::AnalyzeCommit(&journal, primary).value();
  const auto h = ncformat::Header::Decode(rep.committed_header);
  EXPECT_TRUE(h.ok()) << path << ": " << rep.detail;
  return ncformat::PrimaryState(rep.committed_header,
                                h.ok() ? h.value().numrecs : 0,
                                ncformat::SumsEnabled());
}

/// The committed, trusted chunk-sum table of `path`, loaded from its
/// journal as a reader would; nullopt when there is none to trust.
inline std::optional<ncformat::ChunkSumMap> CommittedSums(
    pfs::FileSystem& fs, const std::string& path) {
  simmpi::VirtualClock clk;
  ncformat::PfsCommitIo io(fs.Open(ncformat::JournalPath(path)).value(), &clk);
  const auto state = ncformat::ReadCommitState(io).value();
  EXPECT_TRUE(state.has_value()) << path << ": nothing committed";
  if (!state) return std::nullopt;
  return ncformat::ReadCommittedSums(io, *state).value();
}

}  // namespace pnc_test
