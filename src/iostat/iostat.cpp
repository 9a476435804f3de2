#include "iostat/iostat.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "iostat/events.hpp"
#include "iostat/pattern.hpp"
#include "iostat/report.hpp"
#include "util/env.hpp"
#include "util/turn.hpp"

namespace iostat {

namespace {

/// Rank slot bound to the calling rank (0 for serial code).
const pnc::turn::RankLocal<int> bound_rank;

}  // namespace

unsigned SinksFromEnv() {
  using pnc::util::EnvFlag;
  if (!EnvFlag("PNC_IOSTAT", true)) return 0;
  return kSinkCounters | (EnvFlag("PNC_FLIGHT", true) ? kSinkRing : 0u) |
         (EnvFlag("PNC_IOSTAT_PATTERN", true) ? kSinkPattern : 0u);
}

const char* CtrName(Ctr c) {
  switch (c) {
    case Ctr::kPfsReadOps: return "pfs.read_ops";
    case Ctr::kPfsWriteOps: return "pfs.write_ops";
    case Ctr::kPfsBytesRead: return "pfs.bytes_read";
    case Ctr::kPfsBytesWritten: return "pfs.bytes_written";
    case Ctr::kPfsFaultsInjected: return "pfs.faults_injected";
    case Ctr::kPfsRetries: return "pfs.retries";
    case Ctr::kPfsQueueWaitNs: return "pfs.queue_wait_ns";
    case Ctr::kPfsBusyNs: return "pfs.busy_ns";
    case Ctr::kPfsHorizonNs: return "pfs.horizon_ns";
    case Ctr::kPfsServers: return "pfs.servers";
    case Ctr::kPfsQueueDepthMax: return "pfs.queue_depth_max";
    case Ctr::kPfsGrantInversions: return "pfs.grant_inversions";
    case Ctr::kMpiioIndepReads: return "mpiio.indep_reads";
    case Ctr::kMpiioIndepWrites: return "mpiio.indep_writes";
    case Ctr::kMpiioCollReads: return "mpiio.coll_reads";
    case Ctr::kMpiioCollWrites: return "mpiio.coll_writes";
    case Ctr::kMpiioBytesRead: return "mpiio.bytes_read";
    case Ctr::kMpiioBytesWritten: return "mpiio.bytes_written";
    case Ctr::kMpiioSieveBytesWanted: return "mpiio.sieve_bytes_wanted";
    case Ctr::kMpiioSieveBytesFile: return "mpiio.sieve_bytes_file";
    case Ctr::kMpiioCollPayloadBytes: return "mpiio.coll_payload_bytes";
    case Ctr::kMpiioAggBytes: return "mpiio.agg_bytes";
    case Ctr::kMpiioExchangeMsgs: return "mpiio.exchange_msgs";
    case Ctr::kMpiioExchangeNs: return "mpiio.exchange_ns";
    case Ctr::kMpiioIoPhaseNs: return "mpiio.io_phase_ns";
    case Ctr::kMpiioRetries: return "mpiio.retries";
    case Ctr::kMpiioIoOverlapNs: return "mpiio.io_overlap_ns";
    case Ctr::kMpiioRmwWaitNs: return "mpiio.rmw_wait_ns";
    case Ctr::kNcDataCalls: return "nc.data_calls";
    case Ctr::kNcHeaderBytesRead: return "nc.header_bytes_read";
    case Ctr::kNcHeaderBytesWritten: return "nc.header_bytes_written";
    case Ctr::kNcDataBytesRead: return "nc.data_bytes_read";
    case Ctr::kNcDataBytesWritten: return "nc.data_bytes_written";
    case Ctr::kNcModeSwitches: return "nc.mode_switches";
    case Ctr::kNcReqsCoalesced: return "nc.reqs_coalesced";
    case Ctr::kNcSumChunksVerified: return "nc.sum_chunks_verified";
    case Ctr::kNcSumMismatch: return "nc.sum_mismatch";
    case Ctr::kNcSumHealedRetries: return "nc.sum_healed_retries";
    case Ctr::kMpiMessages: return "mpi.messages";
    case Ctr::kMpiMessageBytes: return "mpi.message_bytes";
    case Ctr::kMpiCollectives: return "mpi.collectives";
    case Ctr::kCount: break;
  }
  return "unknown";
}

Registry::Registry() : slots_(new RankSlot[kMaxRanks]) {}

Registry& Registry::Get() {
  // Leaked, so a record made during static destruction still finds it.
  static Registry* g = new Registry();
  return *g;
}

void Registry::BindRank(int rank) {
  rank = std::clamp(rank, 0, kMaxRanks - 1);
  *bound_rank = rank;
  auto& reg = Get();
  if (rank > reg.max_rank_.load(std::memory_order_relaxed))
    reg.max_rank_.store(rank, std::memory_order_relaxed);
}

int Registry::rank() { return *bound_rank; }

void Registry::Add(Ctr c, std::uint64_t n) {
  slots_[*bound_rank].c[static_cast<std::size_t>(c)] += n;
}

void Registry::Max(Ctr c, std::uint64_t n) {
  std::uint64_t& slot = slots_[*bound_rank].c[static_cast<std::size_t>(c)];
  slot = std::max(slot, n);
}

int Registry::nranks() const {
  return max_rank_.load(std::memory_order_relaxed) + 1;
}

std::uint64_t Registry::Value(int rank, Ctr c) const {
  if (rank < 0 || rank >= kMaxRanks) return 0;
  return slots_[rank].c[static_cast<std::size_t>(c)];
}

void Registry::Reset() {
  const int n = nranks();
  for (int r = 0; r < n; ++r)
    slots_[r] = RankSlot{};
  max_rank_.store(0, std::memory_order_relaxed);
  FlightRecorder::Get().Reset();
  PatternRegistry::Get().Reset();
}

void Registry::AutoReportAtClose() {
  const char* path = std::getenv("PNC_IOSTAT_REPORT");
  if (path == nullptr || *path == '\0') return;
  if (!SinkOn(kSinkCounters)) return;
  const Report rep = BuildReport();
  const std::string json = ToJson(rep) + "\n";
  if (std::strcmp(path, "-") == 0) {
    std::fwrite(json.data(), 1, json.size(), stdout);
    std::fflush(stdout);
    return;
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;  // reporting must never fail the I/O path
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

}  // namespace iostat
