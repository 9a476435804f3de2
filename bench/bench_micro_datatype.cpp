// Microbenchmarks (google-benchmark): datatype construction/flattening and
// pack/unpack throughput — the CPU-side costs of the flexible API and the
// file-view machinery — plus the per-event cost of the iostat hooks in both
// runtime states (the disabled path must be a load+branch, nothing more).
#include <benchmark/benchmark.h>

#include <vector>

#include "bench/bench_common.hpp"
#include "bench/microbench.hpp"
#include "bench/registry.hpp"
#include "iostat/observe.hpp"
#include "simmpi/datatype.hpp"

namespace {

using simmpi::Datatype;

void BM_SubarrayConstruct(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t sizes[] = {n, n, n};
  const std::uint64_t sub[] = {n / 2, n / 2, n / 2};
  const std::uint64_t starts[] = {n / 4, n / 4, n / 4};
  for (auto _ : state) {
    auto t = Datatype::Subarray(sizes, sub, starts, simmpi::DoubleType());
    benchmark::DoNotOptimize(t.value().Flatten().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n / 2 * (n / 2)));
}
BENCHMARK(BM_SubarrayConstruct)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_HindexedConstruct(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> lens(n, 64), offs(n);
  for (std::size_t i = 0; i < n; ++i) offs[i] = i * 128;
  for (auto _ : state) {
    auto t = Datatype::Hindexed(lens, offs, simmpi::ByteType());
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HindexedConstruct)->Arg(256)->Arg(4096)->Arg(65536);

void BM_PackSubarray(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t sizes[] = {n, n, n};
  const std::uint64_t sub[] = {n - 8, n - 8, n - 8};
  const std::uint64_t starts[] = {4, 4, 4};
  auto t = Datatype::Subarray(sizes, sub, starts, simmpi::DoubleType()).value();
  std::vector<std::byte> base(n * n * n * 8);
  std::vector<std::byte> out(t.size());
  for (auto _ : state) {
    t.Pack(base.data(), 1, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_PackSubarray)->Arg(16)->Arg(24)->Arg(32);

void BM_UnpackSubarray(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t sizes[] = {n, n, n};
  const std::uint64_t sub[] = {n - 8, n - 8, n - 8};
  const std::uint64_t starts[] = {4, 4, 4};
  auto t = Datatype::Subarray(sizes, sub, starts, simmpi::DoubleType()).value();
  std::vector<std::byte> base(n * n * n * 8);
  std::vector<std::byte> in(t.size());
  for (auto _ : state) {
    t.Unpack(in.data(), 1, base.data());
    benchmark::DoNotOptimize(base.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_UnpackSubarray)->Arg(16)->Arg(24)->Arg(32);

void BM_ContiguousPackIsMemcpySpeed(benchmark::State& state) {
  auto t = Datatype::Contiguous(1 << 20, simmpi::ByteType());
  std::vector<std::byte> base(1 << 20), out(1 << 20);
  for (auto _ : state) {
    t.Pack(base.data(), 1, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) << 20);
}
BENCHMARK(BM_ContiguousPackIsMemcpySpeed);

// The instrumentation hot path for a counter-only observation: Arg(0)
// measures PNC_OBSERVE with the counter sink disabled at runtime (the
// zero-overhead claim: one relaxed load and a predictable branch), Arg(1)
// with it enabled (the sink dispatch plus one relaxed fetch_add on a
// per-rank slot). With PNC_IOSTAT=OFF at configure time both compile to
// nothing.
void BM_IostatCounterAdd(benchmark::State& state) {
#if PNC_IOSTAT_ENABLED
  iostat::SetSink(iostat::kSinkCounters, state.range(0) != 0);
#endif
  for (auto _ : state) {
    PNC_OBSERVE(kPfsRetry);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
#if PNC_IOSTAT_ENABLED
  iostat::SetSink(iostat::kSinkCounters, true);
  iostat::Registry::Get().Reset();
#endif
}
BENCHMARK(BM_IostatCounterAdd)->Arg(0)->Arg(1);

// The flight-recorder hot path for a ring-only observation: Arg(0)
// measures PNC_OBSERVE with the recorder disabled at runtime (one relaxed
// load and a branch), Arg(1) with it enabled (the sink dispatch, one
// fetch_add claiming a ring slot plus a fixed-size record fill — the
// "~10 ns/event" always-on budget). With PNC_IOSTAT=OFF at configure time
// both compile to nothing.
void BM_FlightRecorderEvent(benchmark::State& state) {
#if PNC_IOSTAT_ENABLED
  PNC_IOSTAT_BIND_RANK(0);
  iostat::SetSink(iostat::kSinkRing, state.range(0) != 0);
#endif
  double t = 0.0;
  for (auto _ : state) {
    PNC_OBSERVE(kIoBegin, .t_ns = t, .off = 64);
    t += 1.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
#if PNC_IOSTAT_ENABLED
  iostat::SetSink(iostat::kSinkRing, true);
  iostat::FlightRecorder::Get().Reset();
#endif
}
BENCHMARK(BM_FlightRecorderEvent)->Arg(0)->Arg(1);

int Run(const bench::Args& args, bench::Recorder& rec) {
  return bench::RunMicro(
      args, rec,
      "BM_SubarrayConstruct|BM_HindexedConstruct|BM_PackSubarray|"
      "BM_UnpackSubarray|BM_ContiguousPackIsMemcpySpeed|BM_IostatCounterAdd|"
      "BM_FlightRecorderEvent");
}

const bench::BenchDef kBench{
    "micro_datatype",
    "datatype construct/flatten/pack throughput and iostat hook cost",
    {"benchmark_*"},
    Run};

}  // namespace

BENCH_REGISTER(kBench)
