// In-process MPI communicator subset.
//
// Ranks are fibers on one host thread (see runtime.hpp) that take turns:
// one runs at a time, picked by virtual time (sched.hpp), so the state
// below needs no locks of its own. The message-passing semantics follow
// MPI: buffered point-to-point sends with
// (source, tag, context) matching, and collectives implemented over
// point-to-point with the classic binomial-tree / dissemination algorithms so
// that virtual-time costs accumulate the way a real MPI library's would.
//
// Every rank carries a VirtualClock; message delivery advances the receiver
// to the message arrival time, which is how blocking collectives synchronize
// virtual clocks exactly where real ranks would block.
#pragma once

#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "simmpi/clock.hpp"
#include "simmpi/rankfault.hpp"
#include "simmpi/sched.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"

namespace simmpi {

constexpr int kAnySource = -1;
/// Wildcard tag: matches any user tag (>= 0), never a collective's.
constexpr int kAnyTag = -1;

class Comm;

namespace detail {

struct Message {
  int world_src = 0;
  int ctx = 0;
  int tag = 0;
  double arrive_time = 0.0;  ///< virtual time at which the payload is available
  std::vector<std::byte> data;
};

using Mailbox = std::deque<Message>;

/// What a rank is blocked on: a send wakes it when the message matches, and
/// the hang watchdog's dump prints it.
struct WaitRecord {
  bool waiting = false;
  int src = 0, tag = 0, ctx = 0;  ///< envelope being waited for
  std::uint64_t recvs = 0;        ///< receives completed so far
};

/// One fault-tolerant agreement monitor, keyed by communicator context.
/// Point-to-point agreement trees diverge when a participant dies mid-round
/// (some peers already consumed its contribution, others fold in a failure),
/// so agreement runs through shared memory instead: a round completes when
/// every live member has arrived, and its outcome — fold, survivor set,
/// fresh context — is computed once and handed to every waiter identically.
/// Virtual cost is charged as if a dissemination allreduce had run.
struct AgreeSlot {
  /// A completed round, shared by every survivor that took part.
  struct Round {
    AgreeOutcome outcome;
    double time = 0.0;  ///< virtual completion time
  };
  std::vector<int> members;           ///< world ranks (fixed per ctx)
  std::vector<std::uint8_t> arrived;  ///< per comm rank, this round
  std::vector<double> times;          ///< arrival clocks, this round
  std::int64_t fold = 0;              ///< running min of arrived values
  /// Per comm rank: the finished round it has yet to collect. A fast rank
  /// may join the next round before a slow one collects this one.
  std::vector<std::shared_ptr<const Round>> outcome;
};

/// Rank-fault injection state (see rankfault.hpp). Armed once, before the
/// ranks start.
struct RankFaultState {
  bool armed = false;
  RankFaultPolicy policy;
  std::vector<std::uint8_t> dead;    ///< indexed by world rank
  std::vector<double> death_ns;      ///< virtual time of each death
  std::vector<std::uint64_t> ops;    ///< per-rank op counter
  std::vector<std::uint64_t> sends;  ///< per-rank send counter
  RankFaultCounters counters;
  std::map<int, AgreeSlot> slots;  ///< agreement monitors, keyed by ctx
};

/// State shared by all ranks of a Runtime instance. Only the rank holding
/// the turn touches it.
struct SharedState {
  explicit SharedState(int world_size, CostModel cm);

  CostModel cost;
  std::vector<Mailbox> mailboxes;    ///< indexed by world rank
  std::vector<VirtualClock> clocks;  ///< indexed by world rank
  int next_ctx = 1;  ///< context 0 is the world communicator

  // Hang watchdog: resolved timeout (CostModel value, PNC_HANG_TIMEOUT_MS
  // env override) and the per-rank wait trace it dumps before aborting.
  double hang_timeout_ms = 0.0;
  std::vector<WaitRecord> waits;  ///< indexed by world rank

  /// Print `what` and every rank's flight-recorder tail, then abort. The
  /// scheduler calls it on a deadlock (`running` == -1: every rank is
  /// parked, so their wait states and mailbox depths are printed too) or on
  /// a turn stalled in rank `running`, whose state is still live.
  [[noreturn]] void DumpHangAndAbort(const char* what, int running);

  Scheduler sched;

  // --- rank-fault injection (inactive until armed) ---
  RankFaultState rfault;

  /// Install a rank-fault schedule. Must be called before the ranks start
  /// (the runtime does this); arming mid-run is not supported.
  void ArmRankFaults(const RankFaultPolicy& policy);

  /// True when `world_rank` has crashed.
  [[nodiscard]] bool RankDeadWorld(int world_rank) const {
    return rfault.armed && rfault.dead[world_rank] != 0;
  }

  /// Flag `world_rank` dead at its clock, wake every blocked receiver, and
  /// re-evaluate every pending agreement round (a round whose only missing
  /// participants just died is now complete). Called by the dying rank
  /// itself.
  void MarkRankDead(int world_rank);

  /// Finalize `slot`'s current round if every live member has arrived, and
  /// wake its waiters.
  void MaybeFinalizeAgree(AgreeSlot& slot);
};

Comm MakeComm(std::shared_ptr<SharedState> state, std::vector<int> members,
              int rank);

}  // namespace detail

/// Reduction combiner: fold `incoming` into `accum` (equal-length buffers).
using ReduceFn =
    std::function<void(pnc::ByteSpan accum, pnc::ConstByteSpan incoming)>;

/// An MPI_Comm-alike. Copyable; copies alias the same communication context
/// (as MPI handles do). Collective calls must be made by every member.
class Comm {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return static_cast<int>(members_.size()); }

  [[nodiscard]] VirtualClock& clock() { return state_->clocks[world_rank_]; }
  [[nodiscard]] const CostModel& cost() const { return state_->cost; }

  // --- point to point ---
  void Send(int dst, int tag, pnc::ConstByteSpan data);
  /// Blocking receive; returns payload. `actual_src`/`actual_tag` report the
  /// matched envelope when wildcards were used.
  std::vector<std::byte> Recv(int src, int tag, int* actual_src = nullptr,
                              int* actual_tag = nullptr);

  // --- collectives ---
  void Barrier();
  /// Barrier() that also agrees on one status, as AgreeStatus does: the
  /// most severe code across the members. A rank with nothing to report
  /// sends empty messages, so when every member is ok it costs exactly
  /// what Barrier() does.
  pnc::Status BarrierStatus(const pnc::Status& local);
  /// Byte-buffer broadcast; non-root buffers are resized to fit.
  void Bcast(std::vector<std::byte>& buf, int root);
  /// In-place fixed-size broadcast.
  void Bcast(pnc::ByteSpan buf, int root);

  /// Gather variable-size blobs; result valid (size()==P) only at root.
  std::vector<std::vector<std::byte>> Gather(pnc::ConstByteSpan mine, int root);
  /// Allgather of variable-size blobs (valid everywhere).
  std::vector<std::vector<std::byte>> Allgather(pnc::ConstByteSpan mine);
  /// Scatter variable-size blobs from root; returns this rank's piece.
  std::vector<std::byte> Scatter(std::vector<std::vector<std::byte>> pieces,
                                 int root);
  /// Sparse personalized exchange of variable-size blobs, ROMIO's
  /// Isend/Irecv/Waitall over the pairs that move bytes: send[r] goes to
  /// every rank r in `to`, and result[r] is what rank r sent, for every r
  /// in `from` (every other slot stays empty). Every send is posted before
  /// any receive, and receives complete in `from` order. The members must
  /// agree on the pairs: s lists r in `to` iff r lists s in `from`, and a
  /// rank listing itself in both keeps send[self] with no message. Listing
  /// every rank in both is a personalized all-to-all. Consecutive exchanges
  /// pass distinct `round`s, which tag their messages.
  std::vector<std::vector<std::byte>> Exchange(
      std::vector<std::vector<std::byte>> send, std::span<const int> to,
      std::span<const int> from, std::uint64_t round);

  /// Binomial-tree reduction of a byte buffer; result valid at root.
  void Reduce(pnc::ByteSpan inout, const ReduceFn& fn, int root);
  void Allreduce(pnc::ByteSpan inout, const ReduceFn& fn);

  // --- typed conveniences ---
  template <typename T>
  void BcastValue(T& v, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bcast(pnc::ByteSpan(reinterpret_cast<std::byte*>(&v), sizeof(T)), root);
  }

  template <typename T>
  T AllreduceMax(T v) {
    return AllreduceWith(v, [](T a, T b) { return a > b ? a : b; });
  }
  template <typename T>
  T AllreduceMin(T v) {
    return AllreduceWith(v, [](T a, T b) { return a < b ? a : b; });
  }
  template <typename T>
  T AllreduceSum(T v) {
    return AllreduceWith(v, [](T a, T b) { return a + b; });
  }
  bool AllreduceAnd(bool v) {
    return AllreduceWith<std::uint8_t>(v ? 1 : 0, [](std::uint8_t a,
                                                     std::uint8_t b) {
             return static_cast<std::uint8_t>(a & b);
           }) != 0;
  }

  /// True on every rank iff all ranks passed bitwise-identical bytes.
  /// Used by PnetCDF's collective define-mode consistency checks.
  bool AllAgree(pnc::ConstByteSpan bytes);

  // --- status collectives ---
  // The collectives the I/O layers are built on. Each one is the single
  // place that decides how it survives a rank death. With no RankFaultPolicy
  // armed it issues exactly the plain collective named in its comment and
  // returns Ok. With a policy armed it runs the fault-tolerant equivalent
  // over AgreeFT, and every survivor returns kRankFailed when a member has
  // died (a crashed rank's own call returns kRankFailed at once). The two
  // exceptions say so: TryExchange's status is local, TryShrink tolerates
  // the death.

  /// Barrier() | AgreeFT(0).
  pnc::Status TryBarrier();
  /// SyncClocksToMax() | AgreeFT(0).
  pnc::Status TrySyncClocks();
  /// BcastValue(v, root) | AgreeFT where peers contribute +inf, so the
  /// min-fold is the root's value. T must be an integer that fits int64.
  template <typename T>
  pnc::Status TryBcastValue(T& v, int root) {
    if (!FaultsArmed()) {
      BcastValue(v, root);
      return pnc::Status::Ok();
    }
    std::int64_t x = rank_ == root ? static_cast<std::int64_t>(v)
                                   : std::numeric_limits<std::int64_t>::max();
    PNC_RETURN_IF_ERROR(FoldMinFT(x));
    v = static_cast<T>(x);
    return pnc::Status::Ok();
  }
  /// Bcast(buf, root) | the root sends to every peer, peers RecvFT, then
  /// AgreeFT on whether every peer received.
  pnc::Status TryBcast(std::vector<std::byte>& buf, int root);
  /// Gather(mine, root) into `out` | every peer sends to the root, the root
  /// RecvFTs each piece, then AgreeFT on whether the root received them
  /// all. `out` is valid (size()==P) only at the root.
  pnc::Status TryGather(pnc::ConstByteSpan mine, int root,
                        std::vector<std::vector<std::byte>>& out);
  /// Allgather(mine) into `out` | TryGather to rank 0, then TryBcast of the
  /// framed pieces from rank 0.
  pnc::Status TryAllgather(pnc::ConstByteSpan mine,
                           std::vector<std::vector<std::byte>>& out);
  /// AllreduceMin(v) | AgreeFT(v). T must be an integer that fits int64.
  template <typename T>
  pnc::Status TryAllreduceMin(T& v) {
    if (!FaultsArmed()) {
      v = AllreduceMin(v);
      return pnc::Status::Ok();
    }
    std::int64_t x = static_cast<std::int64_t>(v);
    PNC_RETURN_IF_ERROR(FoldMinFT(x));
    v = static_cast<T>(x);
    return pnc::Status::Ok();
  }
  /// AllreduceMax(v) | AgreeFT(-v). T must be an integer that fits int64.
  template <typename T>
  pnc::Status TryAllreduceMax(T& v) {
    if (!FaultsArmed()) {
      v = AllreduceMax(v);
      return pnc::Status::Ok();
    }
    std::int64_t x = -static_cast<std::int64_t>(v);
    PNC_RETURN_IF_ERROR(FoldMinFT(x));
    v = static_cast<T>(-x);
    return pnc::Status::Ok();
  }
  /// AllAgree(bytes) | AgreeFT of the min, then the max, of a hash of
  /// `bytes`: the images agree iff the two folds coincide.
  pnc::Status TryAllAgree(pnc::ConstByteSpan bytes, bool& same);
  /// Exchange(send, to, from, round) into `out` | the same sends, then a
  /// RecvFT from each rank in `from`, so a death only leaves holes (the
  /// dead peers' slots of `out` stay empty). The status is local:
  /// kRankFailed when this rank missed a dead peer's piece, Ok on a
  /// survivor that got every piece before the death. Callers keep every
  /// member in step through all their exchanges and settle with
  /// AgreeStatus. The round tag keeps a dropped message from being
  /// mistaken for a later exchange's.
  pnc::Status TryExchange(std::vector<std::vector<std::byte>> send,
                          std::span<const int> to, std::span<const int> from,
                          std::uint64_t round,
                          std::vector<std::vector<std::byte>>& out);
  /// One status for a collective operation: the most severe (most
  /// negative) code across the members. A rank whose own code won keeps
  /// its message; the others report a peer failure. `before_sync`, when
  /// given, sees the agreed status before the clocks settle.
  /// AllreduceMin(code) + SyncClocksToMax() | AgreeFT(code), which already
  /// synchronizes survivor clocks.
  pnc::Status AgreeStatus(
      const pnc::Status& local,
      const std::function<void(const pnc::Status&)>& before_sync = {});
  /// `live` = this communicator minus its dead members.
  /// *this | AgreeFT(0), then LiveSubsetFT when a member has died. A death
  /// is tolerated here (Ok); only a crashed caller gets kRankFailed.
  pnc::Status TryShrink(Comm& live);

  // --- rank-fault tolerance (see rankfault.hpp) ---
  // The public shrink-and-reopen surface. These are meaningful only while a
  // RankFaultPolicy is armed; with no policy armed FaultsArmed() is false
  // and the *FT calls must not be used.

  /// True when a rank-fault schedule is armed for this world.
  [[nodiscard]] bool FaultsArmed() const { return state_->rfault.armed; }
  /// True when communicator rank `rank` has crashed.
  [[nodiscard]] bool RankDead(int rank) const {
    return state_->RankDeadWorld(members_[rank]);
  }
  /// True when this rank has crashed (Comm ops are inert no-ops).
  [[nodiscard]] bool SelfDead() const {
    return state_->RankDeadWorld(world_rank_);
  }

  /// Fault-tolerant receive: blocks until a matching message arrives or
  /// `src` is known dead with nothing matching queued. Messages sent before
  /// the sender died are still delivered. Returns false on a dead source.
  bool RecvFT(int src, int tag, std::vector<std::byte>& out);

  /// Fault-tolerant agreement (models MPI_Comm_agree): every live member
  /// contributes `value`; the round completes when all live members have
  /// arrived (a member dying mid-round completes it too), and every
  /// survivor receives the identical outcome — min-fold of the live
  /// contributions, whether any member is dead, the survivor set, and (when
  /// some member died) a fresh context for LiveSubsetFT. Synchronizes
  /// survivor clocks to the latest arrival. Dead-self returns immediately
  /// with any_dead=true and an empty survivor set.
  AgreeOutcome AgreeFT(std::int64_t value);

  /// The communicator of `o.alive` (an AgreeOutcome with any_dead=true from
  /// this comm). Purely local: every survivor derives the identical member
  /// list and context from the agreed outcome, so no messages are needed.
  /// Caller must be in `o.alive`.
  [[nodiscard]] Comm LiveSubsetFT(const AgreeOutcome& o) const;

  // --- communicator management ---
  Comm Dup();
  Comm Split(int color, int key);

  /// Synchronize all member clocks to the maximum (used at collective I/O
  /// boundaries where the slowest rank gates completion).
  void SyncClocksToMax();

 private:
  friend Comm detail::MakeComm(std::shared_ptr<detail::SharedState>,
                               std::vector<int>, int);
  Comm(std::shared_ptr<detail::SharedState> state, int ctx,
       std::vector<int> members, int rank)
      : state_(std::move(state)),
        ctx_(ctx),
        members_(std::move(members)),
        rank_(rank),
        world_rank_(members_[rank_]) {}

  template <typename T, typename F>
  T AllreduceWith(T v, F op) {
    static_assert(std::is_trivially_copyable_v<T>);
    Allreduce(pnc::ByteSpan(reinterpret_cast<std::byte*>(&v), sizeof(T)),
              [&op](pnc::ByteSpan a, pnc::ConstByteSpan b) {
                T x, y;
                std::memcpy(&x, a.data(), sizeof(T));
                std::memcpy(&y, b.data(), sizeof(T));
                x = op(x, y);
                std::memcpy(a.data(), &x, sizeof(T));
              });
    return v;
  }

  void SendInternal(int dst, int tag, pnc::ConstByteSpan data);
  std::vector<std::byte> RecvInternal(int src, int tag);

  /// The armed half of the status collectives: one AgreeFT round folding
  /// the min of `v` over the live members into `v`. kRankFailed when this
  /// rank or a peer has died.
  pnc::Status FoldMinFT(std::int64_t& v);

  /// Exchange's body; `ft` picks RecvFT receives. False when a receive
  /// found its source dead.
  bool ExchangeImpl(std::vector<std::vector<std::byte>>& send,
                    std::span<const int> to, std::span<const int> from,
                    std::uint64_t round, bool ft,
                    std::vector<std::vector<std::byte>>& out);

  /// Shared blocking-receive machinery. In FT mode a dead source (with no
  /// matching message queued) returns false; otherwise it aborts with a
  /// diagnostic — a non-FT wait on a dead rank is a caller bug under an
  /// armed policy, and aborting beats a 30 s watchdog stall.
  bool RecvImpl(int src, int tag, int* actual_src, int* actual_tag, bool ft,
                std::vector<std::byte>& out);
  /// Injection point: counts this op and crashes (throws RankCrash, after
  /// marking this rank dead) when the armed schedule says so.
  void MaybeCrashSelf();
  [[noreturn]] void CrashSelf();

  std::shared_ptr<detail::SharedState> state_;
  int ctx_;
  std::vector<int> members_;  ///< members_[r] = world rank of communicator rank r
  int rank_;
  int world_rank_;
};

}  // namespace simmpi
