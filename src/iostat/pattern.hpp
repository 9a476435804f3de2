// Access-pattern profiler: what the I/O looked like, not just how long it
// took.
//
// The counters in iostat.hpp answer "how many bytes / how much time"; this
// module answers "what shape" — the features Thakur/Gropp/Lusk show decide
// whether data sieving and two-phase collective I/O win: extent size, stride,
// contiguity, read/write mix, independent-vs-collective split, and where the
// bytes landed (per-server offset × virtual-time heatmap cells, aggregator
// byte imbalance). The rule-based advisor (advise.hpp) consumes the summary
// and turns it into concrete tuning recommendations; the server × time cells
// back both ASCII renderers, the heatmap and the rate timeline.
//
// The profiler is one sink of PNC_OBSERVE (observe.hpp). Cost discipline
// mirrors the counter registry:
//   * Compile-time: -DPNC_IOSTAT_DISABLED expands PNC_OBSERVE to nothing.
//   * Runtime: recording is ON by default and gated off with PNC_IOSTAT=0 or
//     PNC_IOSTAT_PATTERN=0. A disabled record is one load and a branch.
//     Enabled records take one short accumulate — capture points sit on
//     request boundaries (API calls, sieve windows, pfs grants), never
//     inside per-byte loops.
//
// Determinism: every accumulator is order-independent (sums, maxes, log2
// histogram buckets, fixed-key cells), and recording NEVER advances virtual
// clocks — timestamps are sampled by the caller. Ranks therefore produce
// the same snapshot whatever the order of their turns,
// which is what lets bench baselines freeze pattern-derived verdicts at zero
// tolerance.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "iostat/iostat.hpp"
#include "util/bytes.hpp"

namespace iostat::jsoncur {
struct Cursor;
}

namespace iostat {

/// Log2 histogram of unsigned values. Bucket 0 holds zeros; bucket i >= 1
/// holds values whose bit width is i, i.e. [2^(i-1), 2^i - 1]; the last
/// bucket absorbs everything wider. Merging two histograms is bucket-wise
/// addition, so accumulation order never matters.
struct PatternHist {
  static constexpr int kBuckets = 33;

  std::uint64_t bucket[kBuckets] = {};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< meaningful only when count > 0
  std::uint64_t max = 0;

  void Add(std::uint64_t v);
  [[nodiscard]] double mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }
  friend bool operator==(const PatternHist&, const PatternHist&) = default;
};

/// Per-variable access summary. One call is classified by its flattened
/// extent list: one extent = contig; several extents with constant length
/// and constant start-to-start stride = strided; anything irregular =
/// random. Single-extent calls are additionally classified against the same
/// rank's previous call on the variable (gap-to-last-end), so a sequence of
/// small scattered reads registers as random even though each call is
/// contiguous in isolation.
struct VarPattern {
  std::string var;  ///< variable name; "*other" absorbs past kMaxVars
  std::uint64_t calls = 0;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t indep = 0;
  std::uint64_t coll = 0;
  std::uint64_t contig = 0;   ///< calls classified contiguous
  std::uint64_t strided = 0;  ///< calls classified regular-strided
  std::uint64_t random = 0;   ///< calls classified irregular
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  PatternHist extent_bytes;  ///< flattened extent sizes
  PatternHist stride_bytes;  ///< start-to-start strides / inter-call gaps
};

/// Per-pfs-server service totals (offset histogram = "bucketed offsets").
struct ServerPattern {
  std::uint64_t grants = 0;  ///< per-(request, server) service events
  std::uint64_t bytes = 0;
  double busy_ns = 0.0;
  double queue_wait_ns = 0.0;
  PatternHist offsets;  ///< log2 histogram of request offsets
};

/// One server × virtual-time heatmap cell. `t_bucket * cell_ns` is the cell's
/// start time; busy_ns is the service time granted inside the cell.
struct HeatCell {
  int server = 0;
  std::uint64_t t_bucket = 0;
  double busy_ns = 0.0;
  std::uint64_t bytes = 0;    ///< attributed to the grant's begin cell
  std::uint64_t grants = 0;   ///< ditto
  std::uint64_t depth_max = 0;
};

/// Snapshot of everything the profiler accumulated (the `pnc-pattern-v1`
/// JSON section). Deterministically ordered: vars by name, servers by id,
/// cells by (server, t_bucket), agg ranks ascending.
struct PatternSummary {
  bool present = false;  ///< anything recorded? absent => no JSON emitted

  std::vector<VarPattern> vars;
  std::vector<ServerPattern> servers;

  double cell_ns = 0.0;  ///< heatmap cell width (doubles under pressure)
  std::vector<HeatCell> cells;

  // Two-phase shape: pre = per-rank fragment sizes entering the exchange,
  // post = contiguous window spans the aggregators move at the file.
  PatternHist twophase_pre;
  PatternHist twophase_post;

  // Data sieving: wanted (useful payload) vs file (bytes moved at the file,
  // including RMW pre-reads), split by direction; rd_rereads counts read
  // windows that re-fetched an already-seen 64 KiB block.
  std::uint64_t sieve_rd_windows = 0;
  std::uint64_t sieve_wr_windows = 0;
  std::uint64_t sieve_rd_wanted = 0;
  std::uint64_t sieve_rd_file = 0;
  std::uint64_t sieve_wr_wanted = 0;
  std::uint64_t sieve_wr_file = 0;
  std::uint64_t sieve_rd_rereads = 0;

  /// Two-phase bytes each aggregator rank moved at the file; ranks that
  /// aggregated nothing are omitted.
  std::vector<std::pair<int, std::uint64_t>> agg_bytes;

  // ---- derived features (used by the advisor and the renderers) ----
  /// max aggregator bytes relative to an even split across `nranks`
  /// participants (1.0 = perfectly balanced); 0 when no aggregation ran.
  [[nodiscard]] double AggImbalance(int nranks) const;
  /// (share of total pfs bytes on the busiest server, its id).
  [[nodiscard]] std::pair<double, int> HottestServer() const;
  [[nodiscard]] double SieveReadAmp() const;
  [[nodiscard]] double SieveWriteAmp() const;
};

/// Process-wide pattern accumulator, a sibling of iostat::Registry with the
/// same lifetime rules (leaked singleton, Reset between bench configs via
/// Registry::Reset), and like it used from one host thread at a time (not
/// thread-safe). Record* methods attribute to the calling rank's bound slot
/// where ranks matter.
class PatternRegistry {
 public:
  static PatternRegistry& Get();

  /// API-boundary capture (pnetcdf): one data-access call's flattened,
  /// offset-sorted extents.
  void RecordAccess(std::string_view var, bool is_write, bool collective,
                    std::span<const pnc::Extent> extents);

  /// mpiio two-phase: per-rank fragment sizes entering the exchange.
  void RecordTwophasePre(std::span<const pnc::Extent> segs);
  /// mpiio two-phase: one contiguous window span an aggregator moved at the
  /// file (attributed to the calling rank for the imbalance feature).
  void RecordAggWindow(std::uint64_t bytes);
  /// mpiio data sieving: one sieve window — useful payload vs bytes moved at
  /// the file (RMW pre-reads included by the caller). `sieved` marks real
  /// multi-segment sieve windows; only those feed read-reread detection.
  void RecordSieveWindow(bool is_write, std::uint64_t wanted,
                         std::uint64_t file_bytes, std::uint64_t span_start,
                         bool sieved);
  /// pfs: one per-server service grant. `offset` is the request's start
  /// offset (requests striped over several servers record the same offset on
  /// each); times are virtual ns sampled by the scheduler.
  void RecordPfsGrant(int server, std::uint64_t offset, std::uint64_t bytes,
                      double begin_ns, double done_ns, std::uint64_t depth,
                      double wait_ns);

  [[nodiscard]] PatternSummary Snapshot() const;
  void Reset();

 private:
  PatternRegistry();

  /// Caps keep the accumulator bounded on adversarial workloads. All are
  /// sized far above what any committed bench produces, so gated runs never
  /// hit them (hitting a cap only loses detail, never correctness).
  static constexpr std::size_t kMaxVars = 64;
  static constexpr std::size_t kMaxCells = 2048;
  static constexpr std::size_t kMaxSeenBlocks = 65536;
  static constexpr double kBaseCellNs = 1 << 20;  ///< ~1 ms
  static constexpr std::uint64_t kRereadBlock = 64 * 1024;

  struct SeqState {
    bool has_last = false;
    std::uint64_t last_end = 0;
    bool has_gap = false;
    std::int64_t last_gap = 0;
  };
  struct VarAcc {
    VarPattern pat;
    std::map<int, SeqState> seq;  ///< per-rank cross-call state
  };
  struct CellAcc {
    double busy_ns = 0.0;
    std::uint64_t bytes = 0;
    std::uint64_t grants = 0;
    std::uint64_t depth_max = 0;
  };

  VarAcc& VarSlot(std::string_view var);
  void CoarsenCells();

  std::map<std::string, VarAcc, std::less<>> vars_;
  std::vector<ServerPattern> servers_;
  double cell_ns_ = kBaseCellNs;
  std::map<std::pair<int, std::uint64_t>, CellAcc> cells_;
  PatternHist twophase_pre_;
  PatternHist twophase_post_;
  std::vector<std::uint64_t> agg_bytes_;  ///< indexed by rank
  std::uint64_t sieve_rd_windows_ = 0, sieve_wr_windows_ = 0;
  std::uint64_t sieve_rd_wanted_ = 0, sieve_rd_file_ = 0;
  std::uint64_t sieve_wr_wanted_ = 0, sieve_wr_file_ = 0;
  std::uint64_t sieve_rd_rereads_ = 0;
  std::set<std::uint64_t> seen_read_blocks_;
};

/// Serialize as the one-line `pnc-pattern-v1` JSON object (the "pattern"
/// member of the iostat report; see docs/API.md for the schema).
std::string PatternToJson(const PatternSummary& s);

/// Parse a `pnc-pattern-v1` object at the cursor (positioned on '{').
/// Unknown members are skipped for forward compatibility.
bool ParsePatternValue(jsoncur::Cursor& cur, PatternSummary* out);

/// ASCII server × virtual-time utilization grid (ncstat --heatmap). One row
/// per server, `max_cols` time columns; glyph density = busy fraction of the
/// column; right margin shows each server's byte share.
std::string RenderHeatmap(const PatternSummary& s, int max_cols = 64);

/// ASCII rate sparklines over the same cells (ncstat --timeline): per server,
/// bytes begun per column as MB/s and the deepest queue seen, over at most
/// `max_cols` columns. Each row scales to its own peak, printed at its end.
std::string RenderTimeline(const PatternSummary& s, int max_cols = 64);

}  // namespace iostat
