#include "pfs/pfs.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "iostat/observe.hpp"

namespace pfs {

// ---------------------------------------------------------------- MemStore

void MemStore::Write(std::uint64_t offset, pnc::ConstByteSpan data) {
  std::uint64_t pos = offset;
  std::size_t consumed = 0;
  while (consumed < data.size()) {
    const std::uint64_t chunk_id = pos / kChunk;
    const std::uint64_t in_chunk = pos % kChunk;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChunk - in_chunk, data.size() - consumed));
    auto& chunk = chunks_[chunk_id];
    if (chunk.empty()) chunk.resize(kChunk);
    std::memcpy(chunk.data() + in_chunk, data.data() + consumed, n);
    pos += n;
    consumed += n;
  }
  size_ = std::max(size_, offset + data.size());
}

void MemStore::Read(std::uint64_t offset, pnc::ByteSpan out) const {
  std::uint64_t pos = offset;
  std::size_t produced = 0;
  while (produced < out.size()) {
    const std::uint64_t chunk_id = pos / kChunk;
    const std::uint64_t in_chunk = pos % kChunk;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChunk - in_chunk, out.size() - produced));
    auto it = chunks_.find(chunk_id);
    if (it == chunks_.end()) {
      std::memset(out.data() + produced, 0, n);
    } else {
      std::memcpy(out.data() + produced, it->second.data() + in_chunk, n);
    }
    pos += n;
    produced += n;
  }
}

void MemStore::Truncate(std::uint64_t new_size) {
  // Drop chunks entirely beyond the new size and zero the tail of the chunk
  // that straddles it, so re-extension reads back zeros.
  const std::uint64_t first_dead = (new_size + kChunk - 1) / kChunk;
  chunks_.erase(chunks_.lower_bound(first_dead), chunks_.end());
  if (new_size % kChunk != 0) {
    auto it = chunks_.find(new_size / kChunk);
    if (it != chunks_.end()) {
      std::memset(it->second.data() + new_size % kChunk, 0,
                  static_cast<std::size_t>(kChunk - new_size % kChunk));
    }
  }
  size_ = new_size;
}

// --------------------------------------------------------------- FileStore

pnc::Result<std::unique_ptr<FileStore>> FileStore::Open(const std::string& path,
                                                        bool truncate) {
  int flags = O_RDWR | O_CREAT | (truncate ? O_TRUNC : 0);
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return pnc::Status(pnc::Err::kIo, "open " + path);
  return std::unique_ptr<FileStore>(new FileStore(fd));
}

FileStore::~FileStore() {
  if (fd_ >= 0) ::close(fd_);
}

void FileStore::Write(std::uint64_t offset, pnc::ConstByteSpan data) {
  std::size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::pwrite(fd_, data.data() + done, data.size() - done,
                         static_cast<off_t>(offset + done));
    if (n <= 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("pwrite failed");
    }
    done += static_cast<std::size_t>(n);
  }
}

void FileStore::Read(std::uint64_t offset, pnc::ByteSpan out) const {
  std::size_t done = 0;
  while (done < out.size()) {
    ssize_t n = ::pread(fd_, out.data() + done, out.size() - done,
                        static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("pread failed");
    }
    if (n == 0) {  // past EOF: holes read as zeros
      std::memset(out.data() + done, 0, out.size() - done);
      return;
    }
    done += static_cast<std::size_t>(n);
  }
}

std::uint64_t FileStore::size() const {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

void FileStore::Truncate(std::uint64_t new_size) {
  (void)::ftruncate(fd_, static_cast<off_t>(new_size));
}

// -------------------------------------------------------------------- File

struct File::Node {
  std::string path;
  std::mutex mu;  ///< serializes data access on this file
  std::mutex rmw_mu;  ///< advisory lock spanning read-modify-write sequences
  std::unique_ptr<ByteStore> store;  ///< always a FaultyByteStore decorator
  FaultyByteStore* faulty = nullptr;  ///< same object, decorated view
  std::uint64_t discarded_size = 0;  ///< logical size under discard_data
};

double File::HarnessRead(std::uint64_t offset, pnc::ByteSpan out,
                         double start_ns) {
  {
    std::lock_guard<std::mutex> lk(node_->mu);
    node_->store->Read(offset, out);
  }
  return fs_->ServeRequest(offset, out.size(), /*is_write=*/false,
                           start_ns, tenant_);
}

double File::HarnessWrite(std::uint64_t offset, pnc::ConstByteSpan data,
                          double start_ns) {
  {
    std::lock_guard<std::mutex> lk(node_->mu);
    if (fs_->cfg_.discard_data) {
      node_->discarded_size =
          std::max(node_->discarded_size, offset + data.size());
    } else {
      node_->store->Write(offset, data);
    }
  }
  return fs_->ServeRequest(offset, data.size(), /*is_write=*/true,
                           start_ns, tenant_);
}

IoResult File::TryRead(std::uint64_t offset, pnc::ByteSpan out,
                       double start_ns) {
  FaultyByteStore::Outcome oc;
  {
    std::lock_guard<std::mutex> lk(node_->mu);
    oc = node_->faulty->FaultedRead(offset, out, fs_->PrimaryServer(offset),
                                    start_ns);
  }
  if (!oc.status.ok()) {
    const bool transient = oc.status.code() == pnc::Err::kIoTransient;
    PNC_OBSERVE(kPfsFault, .t_ns = start_ns, .is_write = false,
                .detail = transient ? "transient"
                                    : (fs_->crashed() ? "crash" : "permanent"));
    if (!transient) PNC_IOSTAT_EVENT_DUMP_HARD("pfs-hard-fault");
  }
  // A failed attempt still costs a (zero-payload) round trip: the request
  // reached the servers before the error came back.
  const double done = fs_->ServeRequest(offset, oc.status.ok() ? oc.transferred
                                                               : 0,
                                        /*is_write=*/false, start_ns, tenant_);
  return {oc.status, oc.transferred, done};
}

IoResult File::TryWrite(std::uint64_t offset, pnc::ConstByteSpan data,
                        double start_ns) {
  FaultyByteStore::Outcome oc;
  {
    std::lock_guard<std::mutex> lk(node_->mu);
    if (fs_->cfg_.discard_data) {
      // No bytes stored in discard mode, but the fault schedule still
      // applies so benchmarks can measure retry overhead at scale.
      const FaultDecision d = fs_->injector_->Decide(
          /*is_write=*/true, data.size(), fs_->PrimaryServer(offset),
          start_ns);
      if (d.kind == FaultDecision::Kind::kTransient) {
        oc = {pnc::Status(pnc::Err::kIoTransient, "injected transient fault"),
              0};
      } else if (d.kind == FaultDecision::Kind::kPermanent) {
        oc = {pnc::Status(pnc::Err::kIo, "injected permanent fault"), 0};
      } else if (d.kind == FaultDecision::Kind::kCrash) {
        node_->discarded_size =
            std::max(node_->discarded_size, offset + d.torn_bytes);
        oc = {pnc::Status(pnc::Err::kIo, "injected crash: image frozen"), 0};
      } else {
        const std::uint64_t n = d.kind == FaultDecision::Kind::kShort
                                    ? d.short_bytes
                                    : data.size();
        node_->discarded_size = std::max(node_->discarded_size, offset + n);
        oc = {pnc::Status::Ok(), n};
      }
    } else {
      oc = node_->faulty->FaultedWrite(offset, data, fs_->PrimaryServer(offset),
                                       start_ns);
    }
  }
  if (!oc.status.ok()) {
    const bool transient = oc.status.code() == pnc::Err::kIoTransient;
    PNC_OBSERVE(kPfsFault, .t_ns = start_ns, .is_write = true,
                .detail = transient ? "transient"
                                    : (fs_->crashed() ? "crash" : "permanent"));
    if (!transient) PNC_IOSTAT_EVENT_DUMP_HARD("pfs-hard-fault");
  }
  const double done = fs_->ServeRequest(offset, oc.status.ok() ? oc.transferred
                                                               : 0,
                                        /*is_write=*/true, start_ns, tenant_);
  return {oc.status, oc.transferred, done};
}

IoResult File::TrySync(double start_ns) {
  const FaultDecision d =
      fs_->injector_->Decide(/*is_write=*/true, 0, /*server=*/0, start_ns);
  const double done =
      fs_->ServeRequest(0, 0, /*is_write=*/true, start_ns, tenant_);
  if (d.kind != FaultDecision::Kind::kOk) {
    const char* kind = "permanent";
    if (d.kind == FaultDecision::Kind::kTransient) kind = "transient";
    else if (d.kind == FaultDecision::Kind::kCrash) kind = "crash";
    else if (d.kind == FaultDecision::Kind::kShort) kind = "short";
    else if (d.kind == FaultDecision::Kind::kBitFlip) kind = "bitflip";
    else if (d.kind == FaultDecision::Kind::kAtRest) kind = "at_rest";
    PNC_OBSERVE(kPfsFault, .t_ns = start_ns, .is_write = true, .detail = kind);
    if (d.kind == FaultDecision::Kind::kPermanent ||
        d.kind == FaultDecision::Kind::kCrash)
      PNC_IOSTAT_EVENT_DUMP_HARD("pfs-hard-fault");
  }
  if (d.kind == FaultDecision::Kind::kTransient)
    return {pnc::Status(pnc::Err::kIoTransient, "injected transient fault"), 0,
            done};
  if (d.kind == FaultDecision::Kind::kPermanent ||
      d.kind == FaultDecision::Kind::kCrash)
    return {pnc::Status(pnc::Err::kIo, d.kind == FaultDecision::Kind::kCrash
                                           ? "injected crash: image frozen"
                                           : "injected permanent fault"),
            0, done};
  return {pnc::Status::Ok(), 0, done};
}

void File::RecordRetry(bool is_write) { fs_->RecordRetry(is_write); }

std::uint64_t File::size() const {
  std::lock_guard<std::mutex> lk(node_->mu);
  return std::max(node_->store->size(), node_->discarded_size);
}

void File::Truncate(std::uint64_t new_size) {
  std::lock_guard<std::mutex> lk(node_->mu);
  node_->store->Truncate(new_size);
}

double File::HarnessSync(double start_ns) {
  // A sync is a zero-payload round trip to the servers.
  return fs_->ServeRequest(0, 0, /*is_write=*/true, start_ns, tenant_);
}

std::unique_lock<std::mutex> File::LockForRmw() {
  return std::unique_lock<std::mutex>(node_->rmw_mu);
}

const std::string& File::path() const { return node_->path; }

// -------------------------------------------------------------- FileSystem

FileSystem::FileSystem(Config cfg)
    : cfg_(cfg),
      injector_(std::make_shared<FaultInjector>(cfg.faults)),
      qos_(cfg.qos) {
  sched_.assign(static_cast<std::size_t>(cfg_.num_servers), ServerSched{});
  tenants_.push_back(TenantClass{});  // index 0: the default tenant
  tenant_ctrs_.emplace_back();
  tenant_flows_.emplace_back();
  tenant_pacers_.emplace_back();
  if (const char* d = std::getenv("PNC_QOS_DISCIPLINE");
      d != nullptr && *d != '\0') {
    if (auto parsed = ParseQosDiscipline(d)) {
      qos_.discipline = *parsed;
    } else {
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true))
        std::fprintf(stderr,
                     "pnc: PNC_QOS_DISCIPLINE=\"%s\" is not fcfs|wfq|edf; "
                     "keeping %s\n",
                     d, QosDisciplineName(qos_.discipline));
    }
  }
}

FileSystem::~FileSystem() = default;

std::unique_ptr<ByteStore> FileSystem::Decorate(
    std::unique_ptr<ByteStore> inner) {
  return std::make_unique<FaultyByteStore>(std::move(inner), injector_);
}

std::shared_ptr<File::Node> FileSystem::MakeNode(
    const std::string& path, std::unique_ptr<ByteStore> decorated) {
  auto node = std::make_shared<File::Node>();
  node->path = path;
  node->faulty = static_cast<FaultyByteStore*>(decorated.get());
  node->store = std::move(decorated);
  return node;
}

pnc::Result<File> FileSystem::Create(const std::string& path, bool exclusive) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = files_.find(path);
  if (it != files_.end()) {
    if (exclusive) return pnc::Status(pnc::Err::kExists, path);
    it->second->store->Truncate(0);
    return File(this, it->second);
  }
  auto node = MakeNode(path, Decorate(std::make_unique<MemStore>()));
  files_[path] = node;
  return File(this, node);
}

pnc::Result<File> FileSystem::CreateOnDisk(const std::string& path,
                                           const std::string& disk_path) {
  auto store = FileStore::Open(disk_path, /*truncate=*/true);
  if (!store.ok()) return store.status();
  std::lock_guard<std::mutex> lk(mu_);
  auto node = MakeNode(path, Decorate(std::move(store).value()));
  files_[path] = node;
  return File(this, node);
}

pnc::Result<File> FileSystem::AttachDisk(const std::string& path,
                                         const std::string& disk_path) {
  auto store = FileStore::Open(disk_path, /*truncate=*/false);
  if (!store.ok()) return store.status();
  std::lock_guard<std::mutex> lk(mu_);
  auto node = MakeNode(path, Decorate(std::move(store).value()));
  files_[path] = node;
  return File(this, node);
}

pnc::Result<File> FileSystem::Open(const std::string& path) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return pnc::Status(pnc::Err::kNotNc, path);
  return File(this, it->second);
}

bool FileSystem::Exists(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  return files_.count(path) > 0;
}

pnc::Status FileSystem::Remove(const std::string& path) {
  std::lock_guard<std::mutex> lk(mu_);
  if (files_.erase(path) == 0) return pnc::Status(pnc::Err::kNotNc, path);
  return pnc::Status::Ok();
}

Stats FileSystem::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lk(mu_);
    s = stats_;
  }
  const FaultCounters fc = injector_->counters();
  s.transient_faults = fc.transient_faults;
  s.permanent_faults = fc.permanent_faults;
  s.short_reads = fc.short_reads;
  s.short_writes = fc.short_writes;
  s.bitflips = fc.bitflips;
  s.write_bitflips = fc.write_bitflips;
  s.at_rest_corruptions = fc.at_rest_corruptions;
  s.crashes = fc.crashes;
  return s;
}

void FileSystem::ResetStats() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stats_ = Stats{};
    for (TenantCounters& tc : tenant_ctrs_) tc = TenantCounters{};
  }
  injector_->ResetCounters();
}

void FileSystem::ResetTenantCounters() {
  std::lock_guard<std::mutex> lk(mu_);
  for (TenantCounters& tc : tenant_ctrs_) tc = TenantCounters{};
}

int FileSystem::RegisterTenant(const TenantClass& cls) {
  if (cls.name.empty()) return 0;  // the default tenant's class is fixed
  TenantClass c = cls;
  c.weight =
      std::clamp(c.weight, TenantClass::kMinWeight, TenantClass::kMaxWeight);
  if (c.deadline_ns < 0.0) c.deadline_ns = 0.0;
  // Flight-recorder details carry "r:<name>"; keep names within the field.
  if (c.name.size() > 20) c.name.resize(20);
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t i = 1; i < tenants_.size(); ++i) {
    if (tenants_[i].name == c.name) {
      tenants_[i] = c;
      return static_cast<int>(i);
    }
  }
  tenants_.push_back(std::move(c));
  tenant_ctrs_.emplace_back();
  tenant_flows_.emplace_back();
  tenant_pacers_.emplace_back();
  return static_cast<int>(tenants_.size()) - 1;
}

int FileSystem::FindTenant(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t i = 1; i < tenants_.size(); ++i)
    if (tenants_[i].name == name) return static_cast<int>(i);
  return 0;
}

void FileSystem::SetQosPolicy(const QosPolicy& policy) {
  std::lock_guard<std::mutex> lk(mu_);
  qos_ = policy;
}

QosPolicy FileSystem::qos_policy() const {
  std::lock_guard<std::mutex> lk(mu_);
  return qos_;
}

std::vector<TenantUsage> FileSystem::TenantUsageSnapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TenantUsage> out;
  out.reserve(tenants_.size());
  for (std::size_t i = 0; i < tenants_.size(); ++i)
    out.push_back(TenantUsage{tenants_[i], tenant_ctrs_[i]});
  return out;
}

double FileSystem::AdmissionEligible(int tenant, std::uint64_t len,
                                     double arrival_ns) {
  const TenantClass& cls = tenants_[static_cast<std::size_t>(tenant)];
  if (cls.max_outstanding_bytes == 0) return arrival_ns;
  TenantFlow& flow = tenant_flows_[static_cast<std::size_t>(tenant)];
  double eligible = arrival_ns;
  // Retire in-flight requests that completed before this arrival.
  while (!flow.inflight.empty() &&
         flow.inflight.begin()->first <= eligible) {
    flow.bytes -= flow.inflight.begin()->second;
    flow.inflight.erase(flow.inflight.begin());
  }
  // Hold the request until enough of the tenant's bytes drain under the cap;
  // the wait surfaces as queue time, never as an error.
  while (flow.bytes + len > cls.max_outstanding_bytes &&
         !flow.inflight.empty()) {
    eligible = std::max(eligible, flow.inflight.begin()->first);
    flow.bytes -= flow.inflight.begin()->second;
    flow.inflight.erase(flow.inflight.begin());
  }
  return eligible;
}

ServerSched::PolicyContext FileSystem::PolicyCtx() const {
  ServerSched::PolicyContext ctx;
  ctx.discipline = qos_.discipline;
  ctx.edf_background_share = qos_.edf_background_share;
  for (const TenantClass& t : tenants_) {
    ctx.max_weight = std::max(ctx.max_weight, t.weight);
    if (t.deadline_ns > 0.0) ctx.any_deadline = true;
  }
  return ctx;
}

void FileSystem::SetFaultPolicy(const FaultPolicy& policy) {
  injector_->SetPolicy(policy);
}

FaultPolicy FileSystem::fault_policy() const { return injector_->policy(); }

bool FileSystem::crashed() const { return injector_->crashed(); }

int FileSystem::PrimaryServer(std::uint64_t offset) const {
  return static_cast<int>((offset / cfg_.stripe_size) %
                          static_cast<std::uint64_t>(cfg_.num_servers));
}

void FileSystem::RecordRetry(bool is_write) {
  PNC_OBSERVE(kPfsRetry);
  std::lock_guard<std::mutex> lk(mu_);
  (is_write ? stats_.write_retries : stats_.read_retries) += 1;
}

void FileSystem::ResetTime() {
  std::lock_guard<std::mutex> lk(mu_);
  for (ServerSched& s : sched_) s.Reset();
  for (TenantFlow& f : tenant_flows_) {
    f.inflight.clear();
    f.bytes = 0;
  }
  for (TenantPacer& p : tenant_pacers_) p.Reset();
}

double FileSystem::ServeRequest(std::uint64_t offset, std::uint64_t len,
                                bool is_write, double start_ns, int tenant) {
  const double per_byte =
      is_write ? cfg_.server_write_ns_per_byte : cfg_.server_read_ns_per_byte;

  // Decompose [offset, offset+len) into per-server byte totals according to
  // the round-robin stripe map; each involved server serves one event.
  // Writes that cover only part of a stripe are charged the whole stripe
  // when write_partial_stripe_rmw is on (block read-modify-write).
  std::vector<std::uint64_t> bytes_per_server(
      static_cast<std::size_t>(cfg_.num_servers), 0);
  std::uint64_t pos = offset;
  std::uint64_t remaining = len;
  while (remaining > 0) {
    const std::uint64_t stripe = pos / cfg_.stripe_size;
    const auto server =
        static_cast<std::size_t>(stripe % static_cast<std::uint64_t>(
                                              cfg_.num_servers));
    const std::uint64_t in_stripe = pos % cfg_.stripe_size;
    const std::uint64_t n =
        std::min<std::uint64_t>(cfg_.stripe_size - in_stripe, remaining);
    const bool partial = n < cfg_.stripe_size;
    bytes_per_server[server] +=
        (is_write && partial && cfg_.write_partial_stripe_rmw)
            ? cfg_.stripe_size
            : n;
    pos += n;
    remaining -= n;
  }

  // The client injects the request and streams data over its own link.
  const double client_ns_per_byte =
      is_write ? cfg_.client_write_ns_per_byte : cfg_.client_read_ns_per_byte;
  const double client_done = start_ns + cfg_.client_request_ns +
                             client_ns_per_byte * static_cast<double>(len);
  const double arrival = start_ns + cfg_.client_request_ns;

  PNC_OBSERVE(kPfsRequest, .len = len,
              .n = static_cast<std::uint64_t>(cfg_.num_servers),
              .is_write = is_write);

  double completion = client_done;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (tenant < 0 || tenant >= static_cast<int>(tenants_.size())) tenant = 0;
    const TenantClass& cls = tenants_[static_cast<std::size_t>(tenant)];
    TenantCounters& tc = tenant_ctrs_[static_cast<std::size_t>(tenant)];
    if (is_write) {
      stats_.bytes_written += len;
      stats_.write_requests += 1;
    } else {
      stats_.bytes_read += len;
      stats_.read_requests += 1;
    }
    if (len == 0) {
      // Zero-length flush: a metadata round-trip to server 0 that does not
      // occupy the data pipeline. It observes the queue but must not extend
      // it — collective flushes arrive concurrently from every rank, and a
      // request that mutated the server timeline would make the makespan
      // depend on real-time arrival order (nondeterministic virtual time).
      // Under an armed discipline it may observe a pacing gap instead of the
      // timeline head (a starved tenant's open/sync must not wait behind a
      // paced bulk writer), and the wait it observes is billed to the tenant
      // — this is where a backlogged server surfaces in open/close latency.
      const double begin =
          sched_[0].FlushBeginAt(arrival, cfg_.server_request_ns);
      const double done = begin + cfg_.server_request_ns;
      const double wait = begin - arrival;
      tc.queue_wait_ns += wait;
      if (tc.wait_samples.size() < TenantCounters::kMaxWaitSamples)
        tc.wait_samples.push_back(wait);
      PNC_OBSERVE(kPfsSync, .t_ns = begin, .end_ns = done, .wait_ns = wait,
                  .tenant = cls.name.c_str());
      completion = std::max(completion, done);
    } else {
      // Admission control holds the whole request at the client until the
      // tenant's in-flight bytes fit under its cap.
      const double admitted = AdmissionEligible(tenant, len, arrival);
      if (admitted > arrival) tc.admission_wait_ns += admitted - arrival;
      const ServerSched::PolicyContext ctx = PolicyCtx();
      // Pacing is a per-request decision, charged with the request's total
      // service across its servers: every chunk of a striped request then
      // carries the same artificial delay, so each touched server records a
      // backfillable gap (per-server clocks would pace only the first).
      double eligible = admitted;
      bool paced = false;
      if (ctx.discipline != QosDiscipline::kFcfs) {
        double total_service_ns = 0.0;
        for (const std::uint64_t b : bytes_per_server)
          if (b != 0)
            total_service_ns +=
                cfg_.server_request_ns + per_byte * static_cast<double>(b);
        eligible = tenant_pacers_[static_cast<std::size_t>(tenant)].Release(
            admitted, total_service_ns, QosShare(cls, ctx));
        paced = eligible > admitted;
      }
      double max_wait = 0.0;
      for (std::size_t s = 0; s < bytes_per_server.size(); ++s) {
        if (bytes_per_server[s] == 0) continue;
        const double payload_ns =
            per_byte * static_cast<double>(bytes_per_server[s]);
        const ServerSched::Grant g = sched_[s].Admit(
            ctx, arrival, eligible, cfg_.server_request_ns, payload_ns);
        completion = std::max(completion, g.done_ns);
        const double wait = g.begin_ns - arrival;
        max_wait = std::max(max_wait, wait);
        tc.server_events += 1;
        tc.served_bytes += bytes_per_server[s];
        tc.queue_wait_ns += wait;
        tc.service_ns += g.done_ns - g.begin_ns;
        if (paced) tc.paced_events += 1;
        if (g.backfilled) tc.backfilled_events += 1;
        // Every server of a striped request records the request's offset
        // ("which region was hot"). The deadline verdict is per grant, so a
        // timeline miss_rate stays missed grants / grants in one bucket.
        PNC_OBSERVE(kPfsGrant, .t_ns = g.begin_ns, .end_ns = g.done_ns,
                    .off = offset, .len = bytes_per_server[s],
                    .server = static_cast<int>(s), .depth = g.depth,
                    .wait_ns = wait, .horizon_ns = sched_[s].horizon_ns(),
                    .is_write = is_write,
                    .flag = cls.deadline_ns > 0.0 &&
                            g.done_ns > start_ns + cls.deadline_ns,
                    .tenant = cls.name.c_str());
      }
      if (tc.wait_samples.size() < TenantCounters::kMaxWaitSamples)
        tc.wait_samples.push_back(max_wait);
      if (cls.deadline_ns > 0.0 && completion > start_ns + cls.deadline_ns) {
        tc.deadline_misses += 1;
        PNC_OBSERVE(kDeadlineMiss);
      }
      if (cls.max_outstanding_bytes > 0) {
        TenantFlow& flow = tenant_flows_[static_cast<std::size_t>(tenant)];
        flow.inflight.emplace(completion, len);
        flow.bytes += len;
      }
    }
  }
  return completion;
}

}  // namespace pfs
