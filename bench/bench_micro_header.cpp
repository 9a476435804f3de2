// Microbenchmarks (google-benchmark): netCDF classic header encode/decode
// and layout computation as the schema grows — the costs behind open,
// enddef, and the root's header broadcast — plus the CRC-32 kernel that
// checksums every data write for the chunk sums and every commit record.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/microbench.hpp"
#include "bench/registry.hpp"
#include "format/header.hpp"
#include "util/crc32.hpp"

namespace {

using ncformat::Attr;
using ncformat::Header;
using ncformat::NcType;

Header MakeHeader(int nvars) {
  Header h;
  h.dims = {{"time", ncformat::kUnlimitedLen}, {"z", 64}, {"y", 64}, {"x", 64}};
  h.gatts.push_back(Attr::Text("title", "microbenchmark header"));
  for (int v = 0; v < nvars; ++v) {
    ncformat::Var var;
    var.name = "variable_" + std::to_string(v);
    var.type = v % 2 ? NcType::kFloat : NcType::kDouble;
    var.dimids = v % 3 ? std::vector<std::int32_t>{1, 2, 3}
                       : std::vector<std::int32_t>{0, 2, 3};
    var.attrs.push_back(Attr::Text("units", "si"));
    h.vars.push_back(std::move(var));
  }
  (void)h.ComputeLayout();
  return h;
}

void BM_HeaderEncode(benchmark::State& state) {
  Header h = MakeHeader(static_cast<int>(state.range(0)));
  std::vector<std::byte> bytes;
  for (auto _ : state) {
    bytes.clear();
    h.Encode(bytes);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_HeaderEncode)->Arg(8)->Arg(64)->Arg(512);

void BM_HeaderDecode(benchmark::State& state) {
  Header h = MakeHeader(static_cast<int>(state.range(0)));
  std::vector<std::byte> bytes;
  h.Encode(bytes);
  for (auto _ : state) {
    auto r = Header::Decode(bytes);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_HeaderDecode)->Arg(8)->Arg(64)->Arg(512);

void BM_ComputeLayout(benchmark::State& state) {
  Header h = MakeHeader(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.ComputeLayout().ok());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ComputeLayout)->Arg(8)->Arg(64)->Arg(512);

void BM_VarIdLookup(benchmark::State& state) {
  Header h = MakeHeader(static_cast<int>(state.range(0)));
  const std::string last = "variable_" + std::to_string(state.range(0) - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.FindVar(last));
  }
}
BENCHMARK(BM_VarIdLookup)->Arg(8)->Arg(64)->Arg(512);

void BM_Crc32(benchmark::State& state) {
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::byte>(i * 131 + 7);
  for (auto _ : state) benchmark::DoNotOptimize(pnc::Crc32(buf));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(65536)->Arg(4 << 20);

int Run(const bench::Args& args, bench::Recorder& rec) {
  return bench::RunMicro(args, rec,
                         "BM_HeaderEncode|BM_HeaderDecode|BM_ComputeLayout|"
                         "BM_VarIdLookup|BM_Crc32");
}

const bench::BenchDef kBench{
    "micro_header",
    "netCDF header encode/decode/layout and CRC-32 microbenchmarks",
    {"benchmark_*"},
    Run};

}  // namespace

BENCH_REGISTER(kBench)
