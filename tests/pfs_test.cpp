// Tests for the simulated parallel file system: data correctness of the
// stores, namespace operations, and the virtual-time service model.
#include "pfs/pfs.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "util/rng.hpp"

namespace pfs {
namespace {

std::vector<std::byte> Pattern(std::size_t n, std::uint64_t seed) {
  pnc::SplitMix64 rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.Next() & 0xFF);
  return v;
}

TEST(MemStore, WriteReadRoundTrip) {
  MemStore s;
  auto data = Pattern(10000, 1);
  s.Write(123, data);
  EXPECT_EQ(s.size(), 123u + 10000u);
  std::vector<std::byte> out(10000);
  s.Read(123, out);
  EXPECT_EQ(out, data);
}

TEST(MemStore, HolesReadAsZero) {
  MemStore s;
  s.Write(100 << 20, Pattern(16, 2));  // write far out: chunks are sparse
  std::vector<std::byte> out(64, std::byte{0xAA});
  s.Read(0, out);
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
}

TEST(MemStore, CrossChunkBoundary) {
  MemStore s;
  const std::uint64_t off = (4ULL << 20) - 100;  // straddles a 4 MiB chunk
  auto data = Pattern(300, 3);
  s.Write(off, data);
  std::vector<std::byte> out(300);
  s.Read(off, out);
  EXPECT_EQ(out, data);
}

TEST(MemStore, TruncateZeroesTail) {
  MemStore s;
  s.Write(0, Pattern(1000, 4));
  s.Truncate(100);
  EXPECT_EQ(s.size(), 100u);
  std::vector<std::byte> out(1000);
  s.Read(0, out);
  for (std::size_t i = 100; i < 1000; ++i)
    EXPECT_EQ(out[i], std::byte{0}) << i;
}

TEST(FileStore, RealFileRoundTrip) {
  auto r = FileStore::Open("/tmp/pnc_filestore_test.bin", /*truncate=*/true);
  ASSERT_TRUE(r.ok());
  auto store = std::move(r).value();
  auto data = Pattern(5000, 5);
  store->Write(17, data);
  std::vector<std::byte> out(5000);
  store->Read(17, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(store->size(), 5017u);
  store->Truncate(100);
  EXPECT_EQ(store->size(), 100u);
}

TEST(FileSystem, NamespaceSemantics) {
  FileSystem fs;
  EXPECT_FALSE(fs.Exists("a.nc"));
  ASSERT_TRUE(fs.Create("a.nc", /*exclusive=*/true).ok());
  EXPECT_TRUE(fs.Exists("a.nc"));
  EXPECT_FALSE(fs.Create("a.nc", /*exclusive=*/true).ok());  // EEXIST
  EXPECT_TRUE(fs.Create("a.nc", /*exclusive=*/false).ok());  // clobber
  EXPECT_TRUE(fs.Open("a.nc").ok());
  EXPECT_FALSE(fs.Open("missing.nc").ok());
  EXPECT_TRUE(fs.Remove("a.nc").ok());
  EXPECT_FALSE(fs.Exists("a.nc"));
  EXPECT_FALSE(fs.Remove("a.nc").ok());
}

TEST(FileSystem, CreateTruncatesExisting) {
  FileSystem fs;
  auto f = fs.Create("t.nc", false).value();
  f.HarnessWrite(0, Pattern(100, 6), 0.0);
  EXPECT_EQ(f.size(), 100u);
  auto f2 = fs.Create("t.nc", false).value();
  EXPECT_EQ(f2.size(), 0u);
}

TEST(FileSystem, DiscardedFileSizeShrinksLikeAStoredOne) {
  // Under discard_data a file keeps its size but no bytes: Truncate and a
  // clobbering Create shrink it exactly as they shrink a stored file.
  for (const bool discard : {false, true}) {
    SCOPED_TRACE(discard ? "discard_data" : "stored");
    Config cfg;
    cfg.discard_data = discard;
    FileSystem fs(cfg);
    auto f = fs.Create("d.nc", false).value();
    const auto data = Pattern(1 << 20, 3);
    const pfs::IoResult w = f.TryWrite(0, data, 0.0);
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(f.size(), 1u << 20);
    f.Truncate(100);
    EXPECT_EQ(f.size(), 100u);
    auto f2 = fs.Create("d.nc", false).value();
    EXPECT_EQ(f2.size(), 0u);
    EXPECT_EQ(f.size(), 0u);
  }
}

TEST(FileSystem, DiscardedWritesTakeTheFaultPath) {
  // A size-only store sits under the same fault decorator: a write flip is
  // counted like a stored one's, and reads return zeros.
  Config cfg;
  cfg.discard_data = true;
  FileSystem fs(cfg);
  auto f = fs.Create("d.nc", false).value();
  FaultPolicy pol;
  pol.bitflip_write_prob = 1.0;
  fs.SetFaultPolicy(pol);
  const auto data = Pattern(4096, 5);
  ASSERT_TRUE(f.TryWrite(0, data, 0.0).ok());
  EXPECT_EQ(fs.stats().write_bitflips, 1u);
  EXPECT_EQ(f.size(), 4096u);
  fs.SetFaultPolicy(FaultPolicy{});
  std::vector<std::byte> back(16, std::byte{9});
  ASSERT_TRUE(f.TryRead(0, back, 0.0).ok());
  for (const auto b : back) EXPECT_EQ(b, std::byte{0});
}

TEST(FileSystem, StatsAccumulate) {
  FileSystem fs;
  auto f = fs.Create("s.nc", false).value();
  f.HarnessWrite(0, Pattern(1000, 7), 0.0);
  std::vector<std::byte> out(500);
  f.HarnessRead(0, out, 0.0);
  auto st = fs.stats();
  EXPECT_EQ(st.bytes_written, 1000u);
  EXPECT_EQ(st.bytes_read, 500u);
  EXPECT_EQ(st.write_requests, 1u);
  EXPECT_EQ(st.read_requests, 1u);
  fs.ResetStats();
  EXPECT_EQ(fs.stats().bytes_written, 0u);
}

// ---- virtual-time model properties ----

Config FastConfig() {
  Config c;
  c.num_servers = 4;
  c.stripe_size = 1024;
  c.client_read_ns_per_byte = 0.0;
  c.client_write_ns_per_byte = 0.0;
  c.client_request_ns = 0.0;
  c.server_read_ns_per_byte = 1.0;
  c.server_write_ns_per_byte = 1.0;
  c.server_request_ns = 1000.0;
  return c;
}

TEST(TimeModel, PerRequestLatencyDominatesSmallRequests) {
  FileSystem fs(FastConfig());
  auto f = fs.Create("t", false).value();
  // 100 x 16-byte requests to the same server region vs 1 x 1600-byte one.
  double t_small = 0.0;
  for (int i = 0; i < 100; ++i)
    t_small = f.HarnessWrite(static_cast<std::uint64_t>(i) * 16,
                      Pattern(16, 8), t_small);
  fs.ResetTime();
  const double t_big = f.HarnessWrite(0, Pattern(1600, 9), 0.0);
  EXPECT_GT(t_small, 10.0 * t_big);
}

TEST(TimeModel, StripingSpreadsLoadAcrossServers) {
  // A request covering all stripes should finish ~nservers times faster than
  // the same bytes confined to a single server's stripes.
  Config cfg = FastConfig();
  FileSystem fs(cfg);
  auto f = fs.Create("t", false).value();
  const std::uint64_t n = 4 * 1024;  // exactly one stripe per server
  const double striped = f.HarnessWrite(0, Pattern(n, 10), 0.0);
  fs.ResetTime();
  // Four separate writes into stripes 0, 4, 8, 12 — all map to server 0.
  double same_server = 0.0;
  double t = 0.0;
  for (int i = 0; i < 4; ++i) {
    t = f.HarnessWrite(static_cast<std::uint64_t>(i) * 4 * 1024, Pattern(1024, 11), t);
    same_server = t;
  }
  EXPECT_GT(same_server, 2.0 * striped);
}

TEST(TimeModel, ConcurrentClientsContendForServers) {
  // Two clients writing disjoint ranges at the same virtual time: the second
  // completion must reflect queueing behind the first on shared servers.
  Config cfg = FastConfig();
  cfg.num_servers = 1;
  FileSystem fs(cfg);
  auto f = fs.Create("t", false).value();
  const double a = f.HarnessWrite(0, Pattern(1000, 12), 0.0);
  const double b = f.HarnessWrite(10000, Pattern(1000, 13), 0.0);
  EXPECT_GE(b, a + 1000.0);  // serialized on the single server
}

TEST(TimeModel, ReadsAndWritesUseDifferentRates) {
  Config cfg = FastConfig();
  cfg.server_read_ns_per_byte = 1.0;
  cfg.server_write_ns_per_byte = 10.0;
  FileSystem fs(cfg);
  auto f = fs.Create("t", false).value();
  auto data = Pattern(100000, 14);
  const double w = f.HarnessWrite(0, data, 0.0);
  fs.ResetTime();
  std::vector<std::byte> out(100000);
  const double r = f.HarnessRead(0, out, 0.0);
  EXPECT_GT(w, 5.0 * r);
}

TEST(TimeModel, CompletionMonotoneInStartTime) {
  FileSystem fs(FastConfig());
  auto f = fs.Create("t", false).value();
  auto data = Pattern(4096, 15);
  const double t1 = f.HarnessWrite(0, data, 0.0);
  fs.ResetTime();
  const double t2 = f.HarnessWrite(0, data, 5e6);
  EXPECT_GT(t2, t1);
  EXPECT_GE(t2, 5e6);
}

// The FCFS timeline, hand-computed from the default Config (12 servers of
// 256 KiB stripes): a write, a write, a read and a Sync, each issued when
// the one before completed. Every request reaches the servers
// client_request_ns after it is issued; each server serves its share at
// max(arrival, next_free) for server_request_ns plus its bytes at the
// per-byte rate, a partial-stripe write paying for the whole stripe; the
// request completes when its last server, or its client link, is done.
// A zero-length Sync is one round trip at server 0 that reads next_free
// but never extends it.
TEST(TimeModel, FcfsTimelineMatchesHandComputedTimes) {
  const Config cfg;
  FileSystem fs(cfg);
  auto f = fs.Create("t", false).value();
  std::vector<std::byte> buf(300 << 10, std::byte{0x5A});
  const double req = cfg.client_request_ns;
  const double srv = cfg.server_request_ns;
  const auto stripe = static_cast<double>(cfg.stripe_size);

  // 64 KiB at offset 0: one partial stripe on server 0.
  const double w1 =
      f.HarnessWrite(0, pnc::ConstByteSpan(buf.data(), 64 << 10), 0.0);
  EXPECT_EQ(w1, req + srv + cfg.server_write_ns_per_byte * stripe);

  // 300 KiB at 256 KiB: a whole stripe on server 1 and a partial one on
  // server 2, served in parallel on idle servers.
  const double w2 = f.HarnessWrite(
      256 << 10, pnc::ConstByteSpan(buf.data(), 300 << 10), w1);
  EXPECT_EQ(w2, w1 + req + srv + cfg.server_write_ns_per_byte * stripe);

  // 128 KiB read at offset 0, issued 100 us later: server 0 is idle again.
  const double r_start = w2 + 1e5;
  const double r = f.HarnessRead(0, pnc::ByteSpan(buf.data(), 128 << 10),
                                 r_start);
  EXPECT_EQ(r, r_start + req + srv +
                   cfg.server_read_ns_per_byte * static_cast<double>(128 << 10));

  // Sync on an idle server 0: one round trip from its arrival.
  const double s = f.HarnessSync(r);
  EXPECT_EQ(s, r + req + srv);

  // Now queue behind a write: both issued at r, so they arrive together.
  // The write begins at its arrival (server 0 is free since r); the Sync
  // waits for the write to finish, but does not extend the timeline, so a
  // third request arriving at the same time begins where the write ended,
  // not where the Sync did.
  const double arrival = r + req;
  const double w3 =
      f.HarnessWrite(0, pnc::ConstByteSpan(buf.data(), 4096), r);
  const double w3_done = arrival + srv + cfg.server_write_ns_per_byte * stripe;
  EXPECT_EQ(w3, w3_done);
  const double s2 = f.HarnessSync(r);
  EXPECT_EQ(s2, w3_done + srv);
  const double w4 =
      f.HarnessWrite(0, pnc::ConstByteSpan(buf.data(), 4096), r);
  EXPECT_EQ(w4, w3_done + srv + cfg.server_write_ns_per_byte * stripe);
  EXPECT_LT(w4, s2 + srv + cfg.server_write_ns_per_byte * stripe);
}

}  // namespace
}  // namespace pfs
