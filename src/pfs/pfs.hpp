// Simulated striped parallel file system (GPFS-like).
//
// The paper's testbeds attach compute nodes to a fixed pool of I/O server
// nodes running GPFS (12 servers at SDSC for Figure 6, 2 at ASCI Frost for
// Figure 7). This module reproduces that architecture: files are striped
// round-robin across `num_servers` servers; every request is decomposed into
// per-server service events with a fixed per-request latency plus a per-byte
// service cost, and each server serves events FCFS along a virtual timeline.
//
// Two properties of this model carry the paper's results:
//   * fixed server pool => aggregate bandwidth saturates as clients grow
//     (Figure 6: "the number of I/O nodes (and disks) is fixed so that the
//     dominating disk access time at I/O nodes is almost fixed");
//   * fixed per-request latency => many small noncontiguous requests are
//     far slower than few large contiguous ones, which is exactly what
//     data sieving and two-phase collective I/O exist to fix.
//
// Bytes are really stored (in sparse memory chunks or a backing POSIX file),
// so correctness tests read back real data; only *time* is simulated.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pfs/fault.hpp"
#include "simmpi/clock.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"

namespace pfs {

/// Cluster configuration. Defaults approximate the SDSC Blue Horizon GPFS
/// deployment used for Figure 6 (see bench/platforms.hpp for presets).
struct Config {
  int num_servers = 12;
  std::uint64_t stripe_size = 256 * 1024;

  // Client side: one compute node's effective data path to the I/O system.
  // Writes are slower than reads for a single client (write protocol,
  // token/consistency management in GPFS-class file systems).
  double client_read_ns_per_byte = 4.0;    ///< ~250 MB/s per client, reads
  double client_write_ns_per_byte = 10.0;  ///< ~100 MB/s per client, writes
  double client_request_ns = 30'000.0;     ///< per-request client software cost

  // Server side: per-server service rates (reads benefit from GPFS
  // read-ahead and caching; writes pay for disk commit).
  double server_read_ns_per_byte = 16.0;   ///< ~62 MB/s per server
  double server_write_ns_per_byte = 40.0;  ///< ~25 MB/s per server
  double server_request_ns = 800'000.0;    ///< per (request, server) overhead

  /// Benchmark mode: files made by FileSystem::Create keep their size but
  /// not their bytes (SizeStore), so reads return zeros; writes take the
  /// same fault path and cost the same virtual time. Correctness runs
  /// (tests, examples) keep this off; large-scale sweeps turn it on so a
  /// simulated multi-gigabyte file costs no host memory.
  bool discard_data = false;

  /// Initial fault-injection schedule (see fault.hpp). Default: no faults.
  /// Can be replaced at runtime with FileSystem::SetFaultPolicy.
  FaultPolicy faults;
};

/// Aggregate traffic counters, useful for tests and the hints example.
/// Fault/retry counters cover the fault-injectable path (File::TryRead/
/// TryWrite/TrySync); retries are recorded by the one client of that path,
/// ncformat::PfsIo (format/pfs_io.hpp), via File::RecordRetry.
struct Stats {
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t read_requests = 0;
  std::uint64_t write_requests = 0;
  std::uint64_t transient_faults = 0;
  std::uint64_t permanent_faults = 0;
  std::uint64_t short_reads = 0;
  std::uint64_t short_writes = 0;
  std::uint64_t bitflips = 0;
  std::uint64_t write_bitflips = 0;
  std::uint64_t at_rest_corruptions = 0;
  std::uint64_t crashes = 0;
  std::uint64_t read_retries = 0;
  std::uint64_t write_retries = 0;
};

/// Where a file's bytes actually live.
class ByteStore {
 public:
  virtual ~ByteStore() = default;
  virtual void Write(std::uint64_t offset, pnc::ConstByteSpan data) = 0;
  /// Reads beyond EOF / in holes yield zero bytes.
  virtual void Read(std::uint64_t offset, pnc::ByteSpan out) const = 0;
  [[nodiscard]] virtual std::uint64_t size() const = 0;
  virtual void Truncate(std::uint64_t new_size) = 0;
  /// False for a store that keeps only the size (reads yield zeros).
  [[nodiscard]] virtual bool keeps_bytes() const { return true; }
};

/// Sparse in-memory store (default). Allocates 4 MiB chunks on first write,
/// so a mostly-hole 1 GB benchmark file does not cost 1 GB of RAM.
class MemStore final : public ByteStore {
 public:
  void Write(std::uint64_t offset, pnc::ConstByteSpan data) override;
  void Read(std::uint64_t offset, pnc::ByteSpan out) const override;
  [[nodiscard]] std::uint64_t size() const override { return size_; }
  void Truncate(std::uint64_t new_size) override;

 private:
  static constexpr std::uint64_t kChunk = 4ULL << 20;
  std::map<std::uint64_t, std::vector<std::byte>> chunks_;
  std::uint64_t size_ = 0;
};

/// Size-only store (Config::discard_data): a write extends the size and
/// keeps no bytes, so reads yield zeros.
class SizeStore final : public ByteStore {
 public:
  void Write(std::uint64_t offset, pnc::ConstByteSpan data) override;
  void Read(std::uint64_t offset, pnc::ByteSpan out) const override;
  [[nodiscard]] std::uint64_t size() const override { return size_; }
  void Truncate(std::uint64_t new_size) override { size_ = new_size; }
  [[nodiscard]] bool keeps_bytes() const override { return false; }

 private:
  std::uint64_t size_ = 0;
};

/// POSIX-file-backed store, used by examples that want a real artifact on
/// disk. Timing still goes through the simulated cluster model.
class FileStore final : public ByteStore {
 public:
  static pnc::Result<std::unique_ptr<FileStore>> Open(const std::string& path,
                                                      bool truncate);
  ~FileStore() override;
  FileStore(const FileStore&) = delete;
  FileStore& operator=(const FileStore&) = delete;

  void Write(std::uint64_t offset, pnc::ConstByteSpan data) override;
  void Read(std::uint64_t offset, pnc::ByteSpan out) const override;
  [[nodiscard]] std::uint64_t size() const override;
  void Truncate(std::uint64_t new_size) override;

 private:
  explicit FileStore(int fd) : fd_(fd) {}
  int fd_;
};

/// ByteStore decorator that injects data-level faults (see fault.hpp for
/// the policy). The plain ByteStore interface (Write/Read/size/Truncate)
/// forwards untouched — that is the harness path used by tests to seed and
/// inspect file contents. The Faulted* entry points consult the shared
/// FaultInjector and are what pfs::File::TryRead/TryWrite route through.
class FaultyByteStore final : public ByteStore {
 public:
  FaultyByteStore(std::unique_ptr<ByteStore> inner,
                  std::shared_ptr<FaultInjector> injector)
      : inner_(std::move(inner)), injector_(std::move(injector)) {}

  // Pass-through harness access (never fault-injected).
  void Write(std::uint64_t offset, pnc::ConstByteSpan data) override {
    inner_->Write(offset, data);
  }
  void Read(std::uint64_t offset, pnc::ByteSpan out) const override {
    inner_->Read(offset, out);
  }
  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }
  void Truncate(std::uint64_t new_size) override { inner_->Truncate(new_size); }
  [[nodiscard]] bool keeps_bytes() const override {
    return inner_->keeps_bytes();
  }

  struct Outcome {
    pnc::Status status;
    std::uint64_t transferred = 0;
  };

  /// Fault-injected write: on a transient/permanent decision nothing is
  /// stored; on a short decision only a prefix is stored and reported.
  Outcome FaultedWrite(std::uint64_t offset, pnc::ConstByteSpan data,
                       int server, double now_ns);
  /// Fault-injected read: may fail, return a prefix, or silently flip a bit
  /// in the returned bytes.
  Outcome FaultedRead(std::uint64_t offset, pnc::ByteSpan out, int server,
                      double now_ns) const;

 private:
  std::unique_ptr<ByteStore> inner_;
  std::shared_ptr<FaultInjector> injector_;
};

class FileSystem;

/// Outcome of a fault-aware I/O call on pfs::File.
struct IoResult {
  pnc::Status status;             ///< kIoTransient: retry may succeed
  std::uint64_t transferred = 0;  ///< bytes actually moved (short transfers)
  double done_ns = 0.0;           ///< virtual completion time of the attempt
  [[nodiscard]] bool ok() const { return status.ok(); }
};

/// An open file handle. Ranks may share one handle: they take turns on one
/// host thread, and timing goes through the server timelines.
class File {
 public:
  /// Perform a contiguous read/write issued at virtual time `start_ns`;
  /// returns the virtual completion time. Bytes are moved for real. These
  /// are the *harness* entry points: they never fail and bypass fault
  /// injection, so tests and benches can seed/inspect files regardless of
  /// the active fault schedule — including the frozen image after a crash
  /// point fires. Production I/O stacks (mpiio, netcdf, pnetcdf) must use
  /// the Try* variants; a CMake lint target greps for Harness* calls in
  /// those trees.
  double HarnessRead(std::uint64_t offset, pnc::ByteSpan out, double start_ns);
  double HarnessWrite(std::uint64_t offset, pnc::ConstByteSpan data,
                      double start_ns);

  /// Fault-aware variants: consult the FileSystem's FaultInjector, may fail
  /// (transiently or permanently) or transfer only a prefix. A failed write
  /// stores nothing — except at a crash point, where the in-flight write is
  /// torn at the scripted byte boundary and the image freezes. Time is
  /// charged for the attempt either way (a failed request still costs a
  /// round trip).
  IoResult TryRead(std::uint64_t offset, pnc::ByteSpan out, double start_ns);
  IoResult TryWrite(std::uint64_t offset, pnc::ConstByteSpan data,
                    double start_ns);
  IoResult TrySync(double start_ns);

  [[nodiscard]] std::uint64_t size() const;
  void Truncate(std::uint64_t new_size);
  /// The file keeps no bytes (Create under Config::discard_data), and reads
  /// return zeros.
  [[nodiscard]] bool discards_data() const;
  /// Flush: charges one request round-trip per server. Harness variant of
  /// TrySync (never fails).
  double HarnessSync(double start_ns);

  /// Let a client layer account one retry of a faulted op in pfs::Stats.
  void RecordRetry(bool is_write);

  [[nodiscard]] const std::string& path() const;

 private:
  friend class FileSystem;
  friend class RmwLock;
  struct Node;
  File(FileSystem* fs, std::shared_ptr<Node> node) : fs_(fs), node_(std::move(node)) {}
  FileSystem* fs_;
  std::shared_ptr<Node> node_;
};

struct RmwMutex;

/// A file's read-modify-write lock, held for one rank: the fcntl lock ROMIO
/// takes around sieved writes, so concurrent RMW windows lose no update.
/// Taking it is a scheduling point at `clock` (pnc::turn): ranks get it in
/// (virtual time, rank) order, a rank that finds it held parks, and `clock`
/// moves up to the previous holder's release. Dropping it releases it at
/// `clock`'s time to the earliest parked rank. No host lock: the ranks of
/// one simmpi::Run take turns (outside one it must not be contended).
class RmwLock {
 public:
  RmwLock(const File& file, simmpi::VirtualClock& clock);
  RmwLock(const RmwLock&) = delete;
  RmwLock& operator=(const RmwLock&) = delete;
  ~RmwLock();

 private:
  RmwMutex& mu_;
  simmpi::VirtualClock& clock_;
};

/// The cluster: a namespace of files plus the shared server timelines.
class FileSystem {
 public:
  explicit FileSystem(Config cfg = Config{});
  ~FileSystem();
  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  /// Create a file (in-memory store; size-only under Config::discard_data).
  /// With `exclusive`, fails if it exists; otherwise truncates any existing
  /// file.
  pnc::Result<File> Create(const std::string& path, bool exclusive);
  /// Create a file whose bytes live in a real POSIX file at `disk_path`.
  pnc::Result<File> CreateOnDisk(const std::string& path,
                                 const std::string& disk_path);
  /// Attach an existing POSIX file (not truncated) under `path`, so real
  /// netCDF files on the host can be read/modified through the library.
  pnc::Result<File> AttachDisk(const std::string& path,
                               const std::string& disk_path);
  pnc::Result<File> Open(const std::string& path);
  [[nodiscard]] bool Exists(const std::string& path) const;
  pnc::Status Remove(const std::string& path);

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] Stats stats() const;
  void ResetStats();
  /// Reset server timelines to idle (used between benchmark repetitions).
  void ResetTime();

  /// Replace the active fault schedule (tests typically create a file
  /// fault-free, then arm faults for the phase under study). Also the
  /// "reboot" after a crash point: the frozen incarnation ends here.
  void SetFaultPolicy(const FaultPolicy& policy);
  [[nodiscard]] FaultPolicy fault_policy() const;
  /// True after a crash point fired and before the next SetFaultPolicy.
  [[nodiscard]] bool crashed() const;

 private:
  friend class File;

  /// Queue one contiguous request's per-server service events FCFS and
  /// return the request's completion time.
  double ServeRequest(std::uint64_t offset, std::uint64_t len, bool is_write,
                      double start_ns);
  /// The server owning the first stripe of [offset, ...): where a request's
  /// fate is decided under per-server outage windows.
  [[nodiscard]] int PrimaryServer(std::uint64_t offset) const;
  void RecordRetry(bool is_write);
  /// Wrap a freshly created store in the fault decorator.
  std::unique_ptr<ByteStore> Decorate(std::unique_ptr<ByteStore> inner);
  static std::shared_ptr<File::Node> MakeNode(
      const std::string& path, std::unique_ptr<ByteStore> decorated);

  /// One server's FCFS timeline. A data event begins at
  /// max(arrival, next_free) and pushes next_free to its completion;
  /// `outstanding` holds completion times no arrival has passed yet, for the
  /// queue-depth gauge. An arrival before `latest_arrival` is a grant
  /// inversion: the simulator served a later request first.
  struct ServerQueue {
    double next_free = 0.0;
    double latest_arrival = 0.0;
    std::vector<double> outstanding;
  };
  /// Completion times kept per server for the queue-depth gauge.
  static constexpr std::size_t kMaxOutstanding = 4096;

  Config cfg_;
  std::map<std::string, std::shared_ptr<File::Node>> files_;
  std::vector<ServerQueue> servers_;  ///< one FCFS timeline per server
  Stats stats_;
  std::shared_ptr<FaultInjector> injector_;
};

}  // namespace pfs
