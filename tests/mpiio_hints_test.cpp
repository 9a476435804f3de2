// Hints::Parse hardening: buffer sizes clamp into the documented
// [kMinBufferSize, kMaxBufferSize] range (negative values must not wrap into
// huge unsigned sizes), retry counts clamp into [0, kMaxRetries], and
// unknown keys pass through untouched for higher layers.
#include <gtest/gtest.h>

#include "mpiio/hints.hpp"
#include "simmpi/info.hpp"

namespace {

using mpiio::Hints;

TEST(HintsParse, DefaultsWithNullInfo) {
  const Hints h = Hints::Parse(simmpi::NullInfo(), 4, 2);
  EXPECT_EQ(h.cb_buffer_size, 4ULL << 20);
  EXPECT_EQ(h.cb_nodes, 2);  // min(comm_size, num_io_servers)
  EXPECT_TRUE(h.cb_read);
  EXPECT_TRUE(h.cb_write);
  EXPECT_TRUE(h.ds_read);
  EXPECT_TRUE(h.ds_write);
  EXPECT_EQ(h.retry_max, 4);
}

TEST(HintsParse, ZeroBufferSizesClampToMinimum) {
  simmpi::Info info;
  info.Set("cb_buffer_size", "0");
  info.Set("ind_rd_buffer_size", "0");
  info.Set("ind_wr_buffer_size", "0");
  const Hints h = Hints::Parse(info, 4, 2);
  EXPECT_EQ(h.cb_buffer_size, Hints::kMinBufferSize);
  EXPECT_EQ(h.ind_rd_buffer_size, Hints::kMinBufferSize);
  EXPECT_EQ(h.ind_wr_buffer_size, Hints::kMinBufferSize);
}

TEST(HintsParse, NegativeBufferSizesClampToMinimumNotWrap) {
  simmpi::Info info;
  info.Set("cb_buffer_size", "-1");
  info.Set("ind_rd_buffer_size", "-4194304");
  info.Set("ind_wr_buffer_size", "-9223372036854775808");  // INT64_MIN
  const Hints h = Hints::Parse(info, 4, 2);
  EXPECT_EQ(h.cb_buffer_size, Hints::kMinBufferSize);
  EXPECT_EQ(h.ind_rd_buffer_size, Hints::kMinBufferSize);
  EXPECT_EQ(h.ind_wr_buffer_size, Hints::kMinBufferSize);
}

TEST(HintsParse, AbsurdBufferSizesClampToMaximum) {
  simmpi::Info info;
  info.Set("cb_buffer_size", "9223372036854775807");  // INT64_MAX
  info.Set("ind_rd_buffer_size", "1099511627776");    // 1 TiB
  const Hints h = Hints::Parse(info, 4, 2);
  EXPECT_EQ(h.cb_buffer_size, Hints::kMaxBufferSize);
  EXPECT_EQ(h.ind_rd_buffer_size, Hints::kMaxBufferSize);
}

TEST(HintsParse, BoundaryBufferSizesPassUnclamped) {
  simmpi::Info info;
  info.Set("cb_buffer_size", std::to_string(Hints::kMinBufferSize));
  info.Set("ind_rd_buffer_size", std::to_string(Hints::kMaxBufferSize));
  info.Set("ind_wr_buffer_size", "65536");
  const Hints h = Hints::Parse(info, 4, 2);
  EXPECT_EQ(h.cb_buffer_size, Hints::kMinBufferSize);
  EXPECT_EQ(h.ind_rd_buffer_size, Hints::kMaxBufferSize);
  EXPECT_EQ(h.ind_wr_buffer_size, 65536u);
}

TEST(HintsParse, NegativeRetrySettingsClampToZero) {
  simmpi::Info info;
  info.Set("pnc_retry_max", "-7");
  info.Set("pnc_retry_backoff_ns", "-1000000");
  const Hints h = Hints::Parse(info, 4, 2);
  EXPECT_EQ(h.retry_max, 0);
  EXPECT_EQ(h.retry_backoff_ns, 0.0);
}

TEST(HintsParse, HugeRetryCountClampsToMaxRetries) {
  simmpi::Info info;
  info.Set("pnc_retry_max", "999999999");
  const Hints h = Hints::Parse(info, 4, 2);
  EXPECT_EQ(h.retry_max, Hints::kMaxRetries);
}

TEST(HintsParse, CbNodesClampsToCommSize) {
  simmpi::Info info;
  info.Set("cb_nodes", "64");
  EXPECT_EQ(Hints::Parse(info, 4, 2).cb_nodes, 4);
  info.Set("cb_nodes", "-3");
  EXPECT_EQ(Hints::Parse(info, 4, 2).cb_nodes, 1);
}

TEST(HintsParse, MalformedIntFallsBackToDefault) {
  simmpi::Info info;
  info.Set("cb_buffer_size", "not-a-number");
  const Hints h = Hints::Parse(info, 4, 2);
  EXPECT_EQ(h.cb_buffer_size, 4ULL << 20);
}

TEST(HintsParse, UnknownKeysPassThroughUntouched) {
  simmpi::Info info;
  info.Set("nc_header_align_size", "1024");     // PnetCDF-level hint
  info.Set("my_custom_future_hint", "whatever");
  info.Set("cb_buffer_size", "8192");
  (void)Hints::Parse(info, 4, 2);
  // Parse must not consume or mutate anything: all keys remain readable.
  EXPECT_EQ(info.entries().size(), 3u);
  EXPECT_EQ(info.Get("nc_header_align_size").value_or(""), "1024");
  EXPECT_EQ(info.Get("my_custom_future_hint").value_or(""), "whatever");
  EXPECT_EQ(info.Get("cb_buffer_size").value_or(""), "8192");
}

TEST(HintsParse, LeftoverTenantHintIsAnUnknownKey) {
  // pnc_tenant once named a pfs QoS class; the servers are plain FCFS now,
  // so a caller that still sets it gets what any unknown key gets: no
  // effect on the parse, and the key left in the Info.
  simmpi::Info info;
  info.Set("pnc_tenant", "climate");
  const Hints h = Hints::Parse(info, 4, 2);
  const Hints d = Hints::Parse(simmpi::NullInfo(), 4, 2);
  EXPECT_EQ(h.cb_buffer_size, d.cb_buffer_size);
  EXPECT_EQ(h.cb_nodes, d.cb_nodes);
  EXPECT_EQ(h.cb_read, d.cb_read);
  EXPECT_EQ(h.cb_write, d.cb_write);
  EXPECT_EQ(h.ds_read, d.ds_read);
  EXPECT_EQ(h.ds_write, d.ds_write);
  EXPECT_EQ(h.ind_rd_buffer_size, d.ind_rd_buffer_size);
  EXPECT_EQ(h.ind_wr_buffer_size, d.ind_wr_buffer_size);
  EXPECT_EQ(h.retry_max, d.retry_max);
  EXPECT_EQ(h.retry_backoff_ns, d.retry_backoff_ns);
  EXPECT_EQ(info.entries().size(), 1u);
  EXPECT_EQ(info.Get("pnc_tenant").value_or(""), "climate");
}

}  // namespace
