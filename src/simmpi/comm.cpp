#include "simmpi/comm.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "iostat/observe.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace simmpi {

namespace detail {

SharedState::SharedState(int world_size, CostModel cm)
    : cost(cm),
      mailboxes(static_cast<std::size_t>(world_size)),
      clocks(static_cast<std::size_t>(world_size)),
      // Checked parse: "PNC_HANG_TIMEOUT_MS=3O000" must not silently
      // disable the watchdog the way atof's 0.0 fallback would.
      hang_timeout_ms(
          pnc::util::EnvDouble("PNC_HANG_TIMEOUT_MS", cm.hang_timeout_ms)),
      waits(static_cast<std::size_t>(world_size)),
      sched(world_size, clocks, hang_timeout_ms,
            [this](const char* what, int running) {
              DumpHangAndAbort(what, running);
            }) {}

void SharedState::ArmRankFaults(const RankFaultPolicy& policy) {
  const auto n = mailboxes.size();
  rfault.policy = policy;
  rfault.dead.assign(n, 0);
  rfault.death_ns.assign(n, 0.0);
  rfault.ops.assign(n, 0);
  rfault.sends.assign(n, 0);
  rfault.armed = true;
}

void SharedState::MarkRankDead(int world_rank) {
  rfault.dead[world_rank] = 1;
  rfault.death_ns[world_rank] = clocks[world_rank].now();
  // A pending agreement round whose only missing participants just died is
  // now complete; finalize so its waiters wake with the death folded.
  for (auto& [ctx, slot] : rfault.slots) MaybeFinalizeAgree(slot);
  // Wake every blocked receiver so dead-source predicates re-evaluate.
  for (std::size_t r = 0; r < waits.size(); ++r)
    if (waits[r].waiting) sched.Wake(static_cast<int>(r), clocks[r].now());
}

void SharedState::MaybeFinalizeAgree(AgreeSlot& slot) {
  if (slot.members.empty()) return;
  int arrivals = 0;
  for (std::size_t i = 0; i < slot.members.size(); ++i) {
    if (slot.arrived[i]) {
      ++arrivals;
      continue;
    }
    if (!RankDeadWorld(slot.members[i])) return;  // still expected
  }
  if (arrivals == 0) return;  // idle slot poked by MarkRankDead
  auto round = std::make_shared<AgreeSlot::Round>();
  AgreeOutcome& o = round->outcome;
  // The round ends after the last arrival and the last death.
  double tmax = 0.0;
  for (std::size_t i = 0; i < slot.members.size(); ++i) {
    if (RankDeadWorld(slot.members[i])) {
      o.any_dead = true;
      tmax = std::max(tmax, rfault.death_ns[slot.members[i]]);
    } else {
      o.alive.push_back(static_cast<int>(i));
      tmax = std::max(tmax, slot.times[i]);
    }
  }
  o.min_value = slot.fold;
  // Charge what a dissemination allreduce over the survivors would cost.
  int rounds = 0;
  for (std::size_t n = 1; n < o.alive.size(); n <<= 1) ++rounds;
  round->time = tmax + rounds * cost.MessageCost(8) + cost.sw_overhead_ns;
  // Survivors will re-form on a subset communicator; a fresh context keeps
  // any pre-death traffic still queued under the old one from matching into
  // the new group's collectives.
  if (o.any_dead) o.live_ctx = next_ctx++;
  ++rfault.counters.agreements;
  if (o.any_dead) ++rfault.counters.agreements_failed;
  for (const int i : o.alive) {
    slot.outcome[static_cast<std::size_t>(i)] = round;
    sched.Wake(slot.members[static_cast<std::size_t>(i)], round->time);
  }
  slot.arrived.assign(slot.members.size(), 0);
  slot.times.assign(slot.members.size(), 0.0);
  slot.fold = std::numeric_limits<std::int64_t>::max();
}

void SharedState::DumpHangAndAbort(const char* what, int running) {
  std::fprintf(stderr, "simmpi: hang watchdog: %s (PNC_HANG_TIMEOUT_MS=%.0f)",
               what, hang_timeout_ms);
  if (running >= 0)
    std::fprintf(stderr, ": rank %d has run for the whole timeout\n",
                 running);
  else
    std::fprintf(stderr, "; per-rank state:\n");
  for (std::size_t r = 0; running < 0 && r < waits.size(); ++r) {
    const WaitRecord& w = waits[r];
    const std::size_t pending = mailboxes[r].size();
    if (w.waiting) {
      std::fprintf(stderr,
                   "  rank %zu: BLOCKED in Recv(src=%d, tag=%d, ctx=%d), "
                   "%llu receives done, %zu unmatched messages queued\n",
                   r, w.src, w.tag, w.ctx,
                   static_cast<unsigned long long>(w.recvs), pending);
    } else if (const std::string& parked =
                   sched.parked_on(static_cast<int>(r));
               !parked.empty()) {
      std::fprintf(stderr,
                   "  rank %zu: PARKED waiting for %s, %llu receives done, "
                   "%zu unmatched messages queued\n",
                   r, parked.c_str(),
                   static_cast<unsigned long long>(w.recvs), pending);
    } else {
      std::fprintf(stderr,
                   "  rank %zu: not in Recv, %llu receives done, "
                   "%zu unmatched messages queued\n",
                   r, static_cast<unsigned long long>(w.recvs), pending);
    }
  }
  std::fflush(stderr);
  // Black box: dump every rank's flight-recorder tail (pnc-events-v1) so
  // the history leading into the hang survives the abort.
  PNC_IOSTAT_EVENT_DUMP("hang-watchdog");
  std::abort();
}

Comm MakeComm(std::shared_ptr<SharedState> state, std::vector<int> members,
              int rank) {
  return Comm(std::move(state), /*ctx=*/0, std::move(members), rank);
}

}  // namespace detail

namespace {
// Internal collective tags live in negative tag space so they can never
// collide with user point-to-point traffic (user tags must be >= 0).
constexpr int kTagBcast = -10;
constexpr int kTagReduce = -11;
constexpr int kTagGather = -12;
constexpr int kTagScatter = -13;
constexpr int kTagTryBcast = -16;
constexpr int kTagTryGather = -17;
constexpr int kTagBarrierBase = -100;  ///< barrier phase k uses -100 - k
/// Exchange round r uses -1000 - r (mod 2^30), clear of the barrier tags.
constexpr int kTagExchangeBase = -1000;

pnc::Status SelfCrashed() {
  return pnc::Status(pnc::Err::kRankFailed, "this rank crashed");
}
pnc::Status PeerCrashed() {
  return pnc::Status(pnc::Err::kRankFailed, "a peer rank crashed");
}

/// Allgather's broadcast frame: u64 count, then per piece u64 len + bytes.
std::vector<std::byte> FramePieces(
    const std::vector<std::vector<std::byte>>& pieces) {
  std::uint64_t total = 8;
  for (const auto& g : pieces) total += 8 + g.size();
  std::vector<std::byte> frame;
  frame.reserve(total);
  auto put_u64 = [&frame](std::uint64_t v) {
    auto* b = reinterpret_cast<const std::byte*>(&v);
    frame.insert(frame.end(), b, b + 8);
  };
  put_u64(pieces.size());
  for (const auto& g : pieces) {
    put_u64(g.size());
    frame.insert(frame.end(), g.begin(), g.end());
  }
  return frame;
}

std::vector<std::vector<std::byte>> UnframePieces(
    const std::vector<std::byte>& frame) {
  std::size_t pos = 0;
  auto get_u64 = [&frame, &pos]() {
    std::uint64_t v;
    std::memcpy(&v, frame.data() + pos, 8);
    pos += 8;
    return v;
  };
  std::vector<std::vector<std::byte>> pieces(get_u64());
  for (auto& piece : pieces) {
    const auto len = get_u64();
    piece.assign(frame.begin() + static_cast<std::ptrdiff_t>(pos),
                 frame.begin() + static_cast<std::ptrdiff_t>(pos + len));
    pos += len;
  }
  return pieces;
}

/// 64-bit FNV-1a, shifted into the non-negative range so the max fold
/// (a negated min fold) never negates INT64_MIN.
std::int64_t HashBytes(pnc::ConstByteSpan b) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::byte c : b) {
    h ^= static_cast<std::uint64_t>(c);
    h *= 1099511628211ULL;
  }
  return static_cast<std::int64_t>(h >> 1);
}

/// The agreed status for the least `code` across the members: `local` if
/// this rank's own code won, else a peer failure with that code.
pnc::Status Agreed(const pnc::Status& local, std::int64_t code) {
  if (code == local.raw()) return local;
  return pnc::Status(static_cast<pnc::Err>(code), "I/O failed on a peer rank");
}
}  // namespace

void Comm::Send(int dst, int tag, pnc::ConstByteSpan data) {
  assert(tag >= 0 && "user tags must be non-negative");
  SendInternal(dst, tag, data);
}

void Comm::MaybeCrashSelf() {
  auto& rf = state_->rfault;
  const std::uint64_t op = rf.ops[world_rank_]++;
  const double now = clock().now();
  for (const auto& c : rf.policy.crashes) {
    if (c.rank != world_rank_) continue;
    const bool by_op = c.at_op != RankFaultPolicy::kNever && op >= c.at_op;
    const bool by_time = c.at_time_ns >= 0 && now >= c.at_time_ns;
    if (by_op || by_time) CrashSelf();
  }
}

void Comm::CrashSelf() {
  // Record while the request binding is still live: the crash event carries
  // the in-flight request ID, which is how ncstat --blackbox attributes a
  // dead rank's last act to the originating API call.
  PNC_OBSERVE(kRankCrash, .t_ns = clock().now(),
              .off = state_->rfault.ops[world_rank_]);
  ++state_->rfault.counters.crashes;
  state_->MarkRankDead(world_rank_);
  throw RankCrash{world_rank_};
}

void Comm::SendInternal(int dst, int tag, pnc::ConstByteSpan data) {
  assert(dst >= 0 && dst < size());
  double cost_factor = 1.0;
  if (state_->rfault.armed) {
    if (SelfDead()) return;  // inert: the rank is unwinding its crash
    MaybeCrashSelf();
    auto& rf = state_->rfault;
    for (const auto& s : rf.policy.stragglers)
      if (s.rank == world_rank_) cost_factor = s.send_delay_factor;
  }
  PNC_OBSERVE(kMessage, .len = data.size());
  auto& clk = clock();
  clk.Advance(state_->cost.sw_overhead_ns);
  detail::Message msg;
  msg.world_src = rank_;  // communicator-rank of the sender within ctx_
  msg.ctx = ctx_;
  msg.tag = tag;
  msg.arrive_time =
      clk.now() + cost_factor * state_->cost.MessageCost(data.size());
  msg.data.assign(data.begin(), data.end());

  if (state_->rfault.armed) {
    auto& rf = state_->rfault;
    if (cost_factor != 1.0) {
      PNC_OBSERVE(kStraggle, .t_ns = clk.now(), .len = data.size(),
                  .peer = members_[dst]);
      ++rf.counters.straggled_sends;
    }
    const std::uint64_t send_index = rf.sends[world_rank_]++;
    bool drop = false;
    for (const auto& d : rf.policy.drops)
      drop = drop || (d.rank == world_rank_ && d.send_index == send_index);
    if (!drop && rf.policy.drop_prob > 0) {
      // Seeded by (seed, rank, send index): exact under any interleaving.
      pnc::SplitMix64 rng(rf.policy.seed ^
                          (static_cast<std::uint64_t>(world_rank_) << 40) ^
                          send_index);
      drop = rng.NextDouble() < rf.policy.drop_prob;
    }
    if (drop) {
      PNC_OBSERVE(kMsgDrop, .t_ns = clk.now(), .len = data.size(),
                  .peer = members_[dst]);
      ++rf.counters.dropped_messages;
      return;  // vanished in transit; the sender already paid its costs
    }
    if (state_->RankDeadWorld(members_[dst])) return;  // no one to deliver to
  }

  // A receiver parked on this envelope resumes when the payload arrives.
  const int to = members_[dst];
  const detail::WaitRecord& w = state_->waits[to];
  if (w.waiting && w.ctx == ctx_ && (w.src == kAnySource || w.src == rank_) &&
      (w.tag == kAnyTag ? tag >= 0 : w.tag == tag))
    state_->sched.Wake(to, std::max(state_->clocks[to].now(), msg.arrive_time));
  state_->mailboxes[to].push_back(std::move(msg));
}

std::vector<std::byte> Comm::Recv(int src, int tag, int* actual_src,
                                  int* actual_tag) {
  std::vector<std::byte> out;
  RecvImpl(src, tag, actual_src, actual_tag, /*ft=*/false, out);
  return out;
}

bool Comm::RecvFT(int src, int tag, std::vector<std::byte>& out) {
  assert(state_->rfault.armed && "RecvFT requires an armed RankFaultPolicy");
  return RecvImpl(src, tag, nullptr, nullptr, /*ft=*/true, out);
}

bool Comm::RecvImpl(int src, int tag, int* actual_src, int* actual_tag,
                    bool ft, std::vector<std::byte>& out) {
  if (state_->rfault.armed) {
    if (SelfDead()) {
      out.clear();
      return false;  // inert: the rank is unwinding its crash
    }
    MaybeCrashSelf();
  }
  auto& box = state_->mailboxes[world_rank_];
  auto matches = [&](const detail::Message& m) {
    return m.ctx == ctx_ && (src == kAnySource || m.world_src == src) &&
           (tag == kAnyTag ? m.tag >= 0 : m.tag == tag);
  };
  // Under an armed fault policy, a dead source also ends the wait: the
  // queue is drained of anything it sent before dying first, then its death
  // becomes observable.
  auto src_dead = [&] {
    return state_->rfault.armed && src != kAnySource &&
           state_->RankDeadWorld(members_[src]);
  };
  auto it = std::find_if(box.begin(), box.end(), matches);
  if (it == box.end() && !src_dead()) {
    // Scheduling point: park until a matching send (or a death) wakes us.
    auto& w = state_->waits[world_rank_];
    w.waiting = true;
    w.src = src;
    w.tag = tag;
    w.ctx = ctx_;
    do {
      state_->sched.Block(world_rank_);
      it = std::find_if(box.begin(), box.end(), matches);
    } while (it == box.end() && !src_dead());
    w.waiting = false;
  }
  if (it == box.end()) {
    // Woken by the source's death, nothing left to deliver.
    if (!ft) {
      // A non-FT wait on a crashed rank is a caller bug under an armed
      // policy; fail fast with a diagnostic.
      std::fprintf(stderr,
                   "simmpi: rank %d failed while rank %d waited in a "
                   "non-fault-tolerant Recv(src=%d, tag=%d, ctx=%d)\n",
                   members_[src], world_rank_, src, tag, ctx_);
      std::fflush(stderr);
      PNC_IOSTAT_EVENT_DUMP("recv-from-failed-rank");
      std::abort();
    }
    // The death ends the wait when it happened, not before.
    clock().AdvanceTo(state_->rfault.death_ns[members_[src]]);
    out.clear();
    return false;
  }
  detail::Message msg = std::move(*it);
  box.erase(it);
  ++state_->waits[world_rank_].recvs;

  auto& clk = clock();
  clk.AdvanceTo(msg.arrive_time);
  clk.Advance(state_->cost.sw_overhead_ns);
  if (actual_src) *actual_src = msg.world_src;
  if (actual_tag) *actual_tag = msg.tag;
  out = std::move(msg.data);
  return true;
}

std::vector<std::byte> Comm::RecvInternal(int src, int tag) {
  return Recv(src, tag, nullptr, nullptr);
}

void Comm::Barrier() { (void)BarrierStatus(pnc::Status::Ok()); }

pnc::Status Comm::BarrierStatus(const pnc::Status& local) {
  if (state_->rfault.armed && SelfDead()) return local;
  PNC_OBSERVE(kCollective);
  const int p = size();
  // Dissemination barrier: log2(P) rounds of ring-distance exchanges. Clock
  // synchronization falls out of message arrival times. Each message
  // carries the least code its sender has seen, which after the last round
  // is the least of all.
  std::int64_t code = local.raw();
  int phase = 0;
  for (int dist = 1; dist < p; dist <<= 1, ++phase) {
    SendInternal((rank_ + dist) % p, kTagBarrierBase - phase,
                 code == 0 ? pnc::ConstByteSpan{}
                           : pnc::ConstByteSpan(
                                 reinterpret_cast<const std::byte*>(&code),
                                 sizeof(code)));
    const std::vector<std::byte> got =
        RecvInternal((rank_ - dist + p) % p, kTagBarrierBase - phase);
    if (got.size() == sizeof(code)) {
      std::int64_t peer = 0;
      std::memcpy(&peer, got.data(), sizeof(peer));
      code = std::min(code, peer);
    }
  }
  return Agreed(local, code);
}

void Comm::Bcast(pnc::ByteSpan buf, int root) {
  if (state_->rfault.armed && SelfDead()) return;
  PNC_OBSERVE(kCollective);
  const int p = size();
  if (p == 1) return;
  const int r = (rank_ - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (r & mask) {
      auto data = RecvInternal((r - mask + root) % p, kTagBcast);
      assert(data.size() == buf.size());
      std::memcpy(buf.data(), data.data(), buf.size());
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (r + mask < p)
      SendInternal((r + mask + root) % p, kTagBcast,
                   pnc::ConstByteSpan(buf.data(), buf.size()));
    mask >>= 1;
  }
}

void Comm::Bcast(std::vector<std::byte>& buf, int root) {
  if (state_->rfault.armed && SelfDead()) return;
  PNC_OBSERVE(kCollective);
  const int p = size();
  if (p == 1) return;
  const int r = (rank_ - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (r & mask) {
      buf = RecvInternal((r - mask + root) % p, kTagBcast);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (r + mask < p) SendInternal((r + mask + root) % p, kTagBcast, buf);
    mask >>= 1;
  }
}

std::vector<std::vector<std::byte>> Comm::Gather(pnc::ConstByteSpan mine,
                                                 int root) {
  if (state_->rfault.armed && SelfDead()) return {};
  PNC_OBSERVE(kCollective);
  const int p = size();
  std::vector<std::vector<std::byte>> result;
  if (rank_ == root) {
    result.resize(p);
    result[root].assign(mine.begin(), mine.end());
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      result[r] = RecvInternal(r, kTagGather);
    }
  } else {
    SendInternal(root, kTagGather, mine);
  }
  return result;
}

std::vector<std::vector<std::byte>> Comm::Allgather(pnc::ConstByteSpan mine) {
  if (state_->rfault.armed && SelfDead()) return {};
  PNC_OBSERVE(kCollective);
  auto gathered = Gather(mine, 0);
  // Root frames all pieces into one buffer and broadcasts it.
  std::vector<std::byte> frame;
  if (rank_ == 0) frame = FramePieces(gathered);
  Bcast(frame, 0);
  auto result = UnframePieces(frame);
  assert(static_cast<int>(result.size()) == size());
  return result;
}

std::vector<std::byte> Comm::Scatter(
    std::vector<std::vector<std::byte>> pieces, int root) {
  if (state_->rfault.armed && SelfDead()) return {};
  PNC_OBSERVE(kCollective);
  const int p = size();
  if (rank_ == root) {
    assert(static_cast<int>(pieces.size()) == p);
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      SendInternal(r, kTagScatter, pieces[r]);
    }
    return std::move(pieces[root]);
  }
  return RecvInternal(root, kTagScatter);
}

std::vector<std::vector<std::byte>> Comm::Exchange(
    std::vector<std::vector<std::byte>> send, std::span<const int> to,
    std::span<const int> from, std::uint64_t round) {
  std::vector<std::vector<std::byte>> result;
  ExchangeImpl(send, to, from, round, /*ft=*/false, result);
  return result;
}

bool Comm::ExchangeImpl(std::vector<std::vector<std::byte>>& send,
                        std::span<const int> to, std::span<const int> from,
                        std::uint64_t round, bool ft,
                        std::vector<std::vector<std::byte>>& out) {
  out.assign(static_cast<std::size_t>(size()), {});
  if (state_->rfault.armed && SelfDead()) return false;
  PNC_OBSERVE(kCollective);
  assert(static_cast<int>(send.size()) == size());
  const int tag =
      kTagExchangeBase - static_cast<int>(round % (std::uint64_t{1} << 30));
  // Every send goes out before any receive (buffered sends make that
  // legal): no pair waits on another pair's message, and under an armed
  // policy a dead rank leaves holes, never a live peer blocked on a live
  // peer.
  for (const int dst : to) {
    auto& msg = send[static_cast<std::size_t>(dst)];
    if (dst == rank_) {
      out[static_cast<std::size_t>(dst)] = std::move(msg);
    } else {
      SendInternal(dst, tag, msg);
    }
  }
  bool ok = true;
  for (const int src : from)
    if (src != rank_)
      ok = RecvImpl(src, tag, nullptr, nullptr, ft,
                    out[static_cast<std::size_t>(src)]) &&
           ok;
  return ok;
}

void Comm::Reduce(pnc::ByteSpan inout, const ReduceFn& fn, int root) {
  if (state_->rfault.armed && SelfDead()) return;
  PNC_OBSERVE(kCollective);
  const int p = size();
  if (p == 1) return;
  const int r = (rank_ - root + p) % p;
  for (int mask = 1; mask < p; mask <<= 1) {
    if (r & mask) {
      SendInternal((r - mask + root) % p, kTagReduce,
                   pnc::ConstByteSpan(inout.data(), inout.size()));
      break;
    }
    const int src_rel = r + mask;
    if (src_rel < p) {
      auto d = RecvInternal((src_rel + root) % p, kTagReduce);
      assert(d.size() == inout.size());
      fn(inout, d);
    }
  }
}

void Comm::Allreduce(pnc::ByteSpan inout, const ReduceFn& fn) {
  if (state_->rfault.armed && SelfDead()) return;
  PNC_OBSERVE(kCollective);
  Reduce(inout, fn, 0);
  Bcast(inout, 0);
}

bool Comm::AllAgree(pnc::ConstByteSpan bytes) {
  if (state_->rfault.armed && SelfDead()) return false;
  PNC_OBSERVE(kCollective);
  auto gathered = Gather(bytes, 0);
  std::uint8_t same = 1;
  if (rank_ == 0) {
    for (const auto& g : gathered) {
      if (g.size() != bytes.size() ||
          !std::equal(g.begin(), g.end(), bytes.begin())) {
        same = 0;
        break;
      }
    }
  }
  BcastValue(same, 0);
  return same != 0;
}

Comm Comm::Dup() {
  if (state_->rfault.armed && SelfDead())
    return Comm(state_, ctx_, members_, rank_);
  int new_ctx = 0;
  if (rank_ == 0) new_ctx = state_->next_ctx++;
  BcastValue(new_ctx, 0);
  return Comm(state_, new_ctx, members_, rank_);
}

Comm Comm::Split(int color, int key) {
  if (state_->rfault.armed && SelfDead())
    return Comm(state_, ctx_, members_, rank_);
  struct Entry {
    int color, key, old_rank;
  };
  Entry mine{color, key, rank_};
  auto gathered = Allgather(pnc::ConstByteSpan(
      reinterpret_cast<const std::byte*>(&mine), sizeof(Entry)));

  std::vector<Entry> all;
  all.reserve(gathered.size());
  for (const auto& g : gathered) {
    Entry e;
    std::memcpy(&e, g.data(), sizeof(Entry));
    all.push_back(e);
  }
  // Members of my color, ordered by (key, old rank) as MPI_Comm_split does.
  std::vector<Entry> group;
  for (const auto& e : all)
    if (e.color == color) group.push_back(e);
  std::sort(group.begin(), group.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.old_rank < b.old_rank;
  });

  // Rank 0 of the parent allocates one context per distinct color, in sorted
  // color order, so every group lands on a consistent fresh context.
  std::vector<int> colors;
  for (const auto& e : all) colors.push_back(e.color);
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
  int ctx_base = 0;
  if (rank_ == 0) {
    ctx_base = state_->next_ctx;
    state_->next_ctx += static_cast<int>(colors.size());
  }
  BcastValue(ctx_base, 0);
  const auto color_idx = static_cast<int>(
      std::lower_bound(colors.begin(), colors.end(), color) - colors.begin());

  std::vector<int> new_members;
  int new_rank = 0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    new_members.push_back(members_[group[i].old_rank]);
    if (group[i].old_rank == rank_) new_rank = static_cast<int>(i);
  }
  return Comm(state_, ctx_base + color_idx, std::move(new_members), new_rank);
}

void Comm::SyncClocksToMax() {
  if (state_->rfault.armed && SelfDead()) return;
  const double t = AllreduceMax(clock().now());
  clock().AdvanceTo(t);
}

AgreeOutcome Comm::AgreeFT(std::int64_t value) {
  assert(state_->rfault.armed && "AgreeFT requires an armed RankFaultPolicy");
  AgreeOutcome out;
  if (SelfDead()) {
    out.min_value = value;
    out.any_dead = true;
    return out;  // inert: no survivors visible to a dead rank
  }
  MaybeCrashSelf();
  PNC_OBSERVE(kCollective);
  const double t_arrive = clock().now();
  detail::AgreeSlot& slot = state_->rfault.slots[ctx_];
  if (slot.members.empty()) {
    slot.members = members_;
    slot.arrived.assign(members_.size(), 0);
    slot.times.assign(members_.size(), 0.0);
    slot.fold = std::numeric_limits<std::int64_t>::max();
    slot.outcome.resize(members_.size());
  }
  slot.arrived[rank_] = 1;
  slot.times[rank_] = t_arrive;
  slot.fold = std::min(slot.fold, value);
  state_->MaybeFinalizeAgree(slot);
  // Scheduling point: park until the round completes.
  while (!slot.outcome[rank_]) state_->sched.Block(world_rank_);
  const std::shared_ptr<const detail::AgreeSlot::Round> round =
      std::move(slot.outcome[rank_]);
  out = round->outcome;
  const double t_done = round->time;
  clock().AdvanceTo(t_done);
  PNC_OBSERVE(kAgreement, .t_ns = clock().now(),
              .n = static_cast<std::uint64_t>(out.alive.size()),
              .wait_ns = t_done - t_arrive, .flag = out.any_dead);
  return out;
}

Comm Comm::LiveSubsetFT(const AgreeOutcome& o) const {
  std::vector<int> new_members;
  new_members.reserve(o.alive.size());
  int new_rank = -1;
  for (std::size_t i = 0; i < o.alive.size(); ++i) {
    new_members.push_back(members_[o.alive[i]]);
    if (o.alive[i] == rank_) new_rank = static_cast<int>(i);
  }
  assert(new_rank >= 0 && "caller must be in the agreed survivor set");
  const int ctx = o.any_dead ? o.live_ctx : ctx_;
  return Comm(state_, ctx, std::move(new_members), new_rank);
}

// ------------------------------------------------------ status collectives

pnc::Status Comm::FoldMinFT(std::int64_t& v) {
  if (SelfDead()) return SelfCrashed();
  const AgreeOutcome o = AgreeFT(v);
  v = o.min_value;
  return o.any_dead ? PeerCrashed() : pnc::Status::Ok();
}

pnc::Status Comm::TryBarrier() {
  if (!FaultsArmed()) {
    Barrier();
    return pnc::Status::Ok();
  }
  std::int64_t zero = 0;
  return FoldMinFT(zero);
}

pnc::Status Comm::TrySyncClocks() {
  if (!FaultsArmed()) {
    SyncClocksToMax();
    return pnc::Status::Ok();
  }
  std::int64_t zero = 0;
  return FoldMinFT(zero);
}

pnc::Status Comm::TryBcast(std::vector<std::byte>& buf, int root) {
  if (!FaultsArmed()) {
    Bcast(buf, root);
    return pnc::Status::Ok();
  }
  // Plain sends from the root (a send to a dead peer is dropped, never
  // blocks), fault-tolerant receives elsewhere, then an agreement so a
  // mid-broadcast root death reaches every survivor, not just the peers
  // that were still waiting.
  std::int64_t received = 1;
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r)
      if (r != root) SendInternal(r, kTagTryBcast, buf);
  } else if (!RecvImpl(root, kTagTryBcast, nullptr, nullptr, /*ft=*/true,
                       buf)) {
    received = 0;
  }
  PNC_RETURN_IF_ERROR(FoldMinFT(received));
  if (received == 0)
    return pnc::Status(pnc::Err::kRankFailed, "root died mid-broadcast");
  return pnc::Status::Ok();
}

pnc::Status Comm::TryGather(pnc::ConstByteSpan mine, int root,
                            std::vector<std::vector<std::byte>>& out) {
  if (!FaultsArmed()) {
    out = Gather(mine, root);
    return pnc::Status::Ok();
  }
  if (SelfDead()) return SelfCrashed();
  // Plain sends to the root, fault-tolerant receives there, then an
  // agreement so a peer that died before sending reaches every survivor.
  std::int64_t received = 1;
  out.clear();
  if (rank_ == root) {
    out.resize(static_cast<std::size_t>(size()));
    out[static_cast<std::size_t>(root)].assign(mine.begin(), mine.end());
    for (int r = 0; r < size(); ++r)
      if (r != root &&
          !RecvImpl(r, kTagTryGather, nullptr, nullptr, /*ft=*/true,
                    out[static_cast<std::size_t>(r)]))
        received = 0;
  } else {
    SendInternal(root, kTagTryGather, mine);
  }
  PNC_RETURN_IF_ERROR(FoldMinFT(received));
  if (received == 0)
    return pnc::Status(pnc::Err::kRankFailed, "a peer died mid-gather");
  return pnc::Status::Ok();
}

pnc::Status Comm::TryAllAgree(pnc::ConstByteSpan bytes, bool& same) {
  if (!FaultsArmed()) {
    same = AllAgree(bytes);
    return pnc::Status::Ok();
  }
  const std::int64_t h = HashBytes(bytes);
  std::int64_t min = h, neg_max = -h;
  PNC_RETURN_IF_ERROR(FoldMinFT(min));
  PNC_RETURN_IF_ERROR(FoldMinFT(neg_max));
  same = min == -neg_max;
  return pnc::Status::Ok();
}

pnc::Status Comm::TryAllgather(pnc::ConstByteSpan mine,
                               std::vector<std::vector<std::byte>>& out) {
  if (!FaultsArmed()) {
    out = Allgather(mine);
    return pnc::Status::Ok();
  }
  std::vector<std::vector<std::byte>> gathered;
  PNC_RETURN_IF_ERROR(TryGather(mine, 0, gathered));
  std::vector<std::byte> frame;
  if (rank_ == 0) frame = FramePieces(gathered);
  PNC_RETURN_IF_ERROR(TryBcast(frame, 0));
  out = UnframePieces(frame);
  return pnc::Status::Ok();
}

pnc::Status Comm::TryExchange(std::vector<std::vector<std::byte>> send,
                              std::span<const int> to,
                              std::span<const int> from, std::uint64_t round,
                              std::vector<std::vector<std::byte>>& out) {
  if (!FaultsArmed()) {
    out = Exchange(std::move(send), to, from, round);
    return pnc::Status::Ok();
  }
  if (SelfDead()) return SelfCrashed();
  return ExchangeImpl(send, to, from, round, /*ft=*/true, out)
             ? pnc::Status::Ok()
             : PeerCrashed();
}

pnc::Status Comm::AgreeStatus(
    const pnc::Status& local,
    const std::function<void(const pnc::Status&)>& before_sync) {
  std::int64_t code = local.raw();
  pnc::Status st;
  if (FaultsArmed()) {
    // The fold and the survivor set come from one agreement round, so a
    // peer's death outranks any I/O error on every survivor alike.
    st = FoldMinFT(code);
  } else {
    code = AllreduceMin(local.raw());
  }
  if (st.ok()) st = Agreed(local, code);
  if (before_sync) before_sync(st);
  if (!FaultsArmed()) SyncClocksToMax();
  return st;
}

pnc::Status Comm::TryShrink(Comm& live) {
  live = *this;
  if (!FaultsArmed()) return pnc::Status::Ok();
  if (SelfDead()) return SelfCrashed();
  const AgreeOutcome o = AgreeFT(0);
  if (o.any_dead) live = LiveSubsetFT(o);
  return pnc::Status::Ok();
}

}  // namespace simmpi
