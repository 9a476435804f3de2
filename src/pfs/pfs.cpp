#include "pfs/pfs.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cassert>
#include <cstring>
#include <deque>

#include "iostat/observe.hpp"
#include "util/turn.hpp"

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

// --------------------------------------------------------------- SizeStore

void SizeStore::Write(std::uint64_t offset, pnc::ConstByteSpan data) {
  size_ = std::max(size_, offset + data.size());
}

void SizeStore::Read(std::uint64_t, pnc::ByteSpan out) const {
  std::memset(out.data(), 0, out.size());
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

/// RmwLock's state; only the rank holding the turn touches it.
struct RmwMutex {
  bool held = false;
  double released_ns = 0.0;  ///< the last holder's clock at its release
  std::deque<pnc::turn::Hook*> parked;  ///< in the order they asked
};

struct File::Node {
  std::string path;
  std::mutex mu;  ///< serializes data access on this file
  RmwMutex rmw;   ///< RmwLock's state
  std::unique_ptr<ByteStore> store;  ///< always a FaultyByteStore decorator
  FaultyByteStore* faulty = nullptr;  ///< same object, decorated view
};

double File::HarnessRead(std::uint64_t offset, pnc::ByteSpan out,
                         double start_ns) {
  pnc::turn::Request(start_ns);
  {
    std::lock_guard<std::mutex> lk(node_->mu);
    node_->store->Read(offset, out);
  }
  return fs_->ServeRequest(offset, out.size(), /*is_write=*/false,
                           start_ns);
}

double File::HarnessWrite(std::uint64_t offset, pnc::ConstByteSpan data,
                          double start_ns) {
  pnc::turn::Request(start_ns);
  {
    std::lock_guard<std::mutex> lk(node_->mu);
    node_->store->Write(offset, data);
  }
  return fs_->ServeRequest(offset, data.size(), /*is_write=*/true,
                           start_ns);
}

IoResult File::TryRead(std::uint64_t offset, pnc::ByteSpan out,
                       double start_ns) {
  pnc::turn::Request(start_ns);
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
                                        /*is_write=*/false, start_ns);
  return {oc.status, oc.transferred, done};
}

IoResult File::TryWrite(std::uint64_t offset, pnc::ConstByteSpan data,
                        double start_ns) {
  pnc::turn::Request(start_ns);
  FaultyByteStore::Outcome oc;
  {
    std::lock_guard<std::mutex> lk(node_->mu);
    oc = node_->faulty->FaultedWrite(offset, data, fs_->PrimaryServer(offset),
                                     start_ns);
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
                                        /*is_write=*/true, start_ns);
  return {oc.status, oc.transferred, done};
}

IoResult File::TrySync(double start_ns) {
  pnc::turn::Request(start_ns);
  const FaultDecision d =
      fs_->injector_->Decide(/*is_write=*/true, 0, /*server=*/0, start_ns);
  const double done =
      fs_->ServeRequest(0, 0, /*is_write=*/true, start_ns);
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
  return node_->store->size();
}

bool File::discards_data() const { return !node_->store->keeps_bytes(); }

void File::Truncate(std::uint64_t new_size) {
  std::lock_guard<std::mutex> lk(node_->mu);
  node_->store->Truncate(new_size);
}

double File::HarnessSync(double start_ns) {
  pnc::turn::Request(start_ns);
  // A sync is a zero-payload round trip to the servers.
  return fs_->ServeRequest(0, 0, /*is_write=*/true, start_ns);
}

RmwLock::RmwLock(const File& file, simmpi::VirtualClock& clock)
    : mu_(file.node_->rmw), clock_(clock) {
  pnc::turn::Request(clock.now());
  if (mu_.held) {
    pnc::turn::Hook* const self = pnc::turn::CurrentHook();
    assert(self != nullptr && "contended outside a simmpi rank");
    mu_.parked.push_back(self);
    self->Park("the read-modify-write lock of " + file.path());
  }
  mu_.held = true;
  clock.AdvanceTo(mu_.released_ns);
}

RmwLock::~RmwLock() {
  mu_.released_ns = clock_.now();
  mu_.held = !mu_.parked.empty();
  if (!mu_.held) return;
  // Hand over to the earliest request (the lock stays held).
  mu_.parked.front()->Wake(mu_.released_ns);
  mu_.parked.pop_front();
}

const std::string& File::path() const { return node_->path; }

// -------------------------------------------------------------- FileSystem

FileSystem::FileSystem(Config cfg)
    : cfg_(cfg),
      servers_(static_cast<std::size_t>(cfg.num_servers)),
      injector_(std::make_shared<FaultInjector>(cfg.faults)) {}

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
  std::unique_ptr<ByteStore> store;
  if (cfg_.discard_data)
    store = std::make_unique<SizeStore>();
  else
    store = std::make_unique<MemStore>();
  auto node = MakeNode(path, Decorate(std::move(store)));
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
  }
  injector_->ResetCounters();
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
  for (ServerQueue& q : servers_) q = ServerQueue{};
}

double FileSystem::ServeRequest(std::uint64_t offset, std::uint64_t len,
                                bool is_write, double start_ns) {
  const double per_byte =
      is_write ? cfg_.server_write_ns_per_byte : cfg_.server_read_ns_per_byte;

  // Decompose [offset, offset+len) into per-server byte totals according to
  // the round-robin stripe map; each involved server serves one event.
  // Writes that cover only part of a stripe are charged the whole stripe
  // (block-based file systems read-modify-write whole blocks, which is why
  // collective I/O aligns its file domains to stripe boundaries).
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
    bytes_per_server[server] += is_write ? cfg_.stripe_size : n;
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
    if (is_write) {
      stats_.bytes_written += len;
      stats_.write_requests += 1;
    } else {
      stats_.bytes_read += len;
      stats_.read_requests += 1;
    }
    if (len == 0) {
      // Zero-length flush: a metadata round-trip to server 0 that does not
      // occupy the data pipeline. It waits behind the data queued before
      // it but does not extend the queue for the data that follows.
      const double begin = std::max(arrival, servers_[0].next_free);
      const double done = begin + cfg_.server_request_ns;
      PNC_OBSERVE(kPfsSync, .t_ns = begin, .end_ns = done,
                  .wait_ns = begin - arrival,
                  .flag = arrival < servers_[0].latest_arrival);
      completion = std::max(completion, done);
    } else {
      for (std::size_t s = 0; s < bytes_per_server.size(); ++s) {
        if (bytes_per_server[s] == 0) continue;
        ServerQueue& q = servers_[s];
        // Completions the arrival has already passed leave the queue; what
        // remains, plus this event, is the depth it observed.
        std::erase_if(q.outstanding,
                      [arrival](double d) { return d <= arrival; });
        const auto depth = static_cast<std::uint64_t>(q.outstanding.size()) + 1;
        const double begin = std::max(arrival, q.next_free);
        const double done = begin + cfg_.server_request_ns +
                            per_byte * static_cast<double>(bytes_per_server[s]);
        const bool inverted = arrival < q.latest_arrival;
        q.latest_arrival = std::max(q.latest_arrival, arrival);
        q.next_free = done;
        if (q.outstanding.size() < kMaxOutstanding)
          q.outstanding.push_back(done);
        completion = std::max(completion, done);
        // Every server of a striped request records the request's offset
        // ("which region was hot").
        PNC_OBSERVE(kPfsGrant, .t_ns = begin, .end_ns = done, .off = offset,
                    .len = bytes_per_server[s], .server = static_cast<int>(s),
                    .depth = depth, .wait_ns = begin - arrival,
                    .is_write = is_write, .flag = inverted);
      }
    }
  }
  return completion;
}

}  // namespace pfs
