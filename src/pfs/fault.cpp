#include "pfs/fault.hpp"

#include <algorithm>

#include "pfs/pfs.hpp"

namespace pfs {

FaultInjector::FaultInjector(FaultPolicy policy)
    : policy_(std::move(policy)), rng_(policy_.seed) {}

FaultDecision FaultInjector::Decide(bool is_write, std::uint64_t len,
                                    int server, double now_ns) {
  const std::uint64_t op = next_op_++;
  ++counters_.faultable_ops;
  FaultDecision d;
  // A crashed incarnation refuses everything until SetPolicy (reboot).
  if (crashed_) {
    ++counters_.crashes;
    d.kind = FaultDecision::Kind::kCrash;
    return d;
  }
  if (!policy_.Any()) return d;

  auto listed = [op](const std::vector<std::uint64_t>& ops) {
    return std::find(ops.begin(), ops.end(), op) != ops.end();
  };

  // Crash points outrank every other fault: once the power fails, nothing
  // else about this op matters.
  if (policy_.crash_after_write_bytes != FaultPolicy::kNever) {
    const std::uint64_t at = policy_.crash_after_write_bytes;
    if (written_bytes_ >= at) {
      // Threshold fell between writes: this op (any kind) dies, no bytes.
      crashed_ = true;
      ++counters_.crashes;
      d.kind = FaultDecision::Kind::kCrash;
      return d;
    }
    if (is_write && len > 0 && written_bytes_ + len >= at) {
      crashed_ = true;
      ++counters_.crashes;
      d.kind = FaultDecision::Kind::kCrash;
      d.torn_bytes = at - written_bytes_;  // may equal len: landed, no ack
      written_bytes_ += d.torn_bytes;
      return d;
    }
  }
  if (op == policy_.crash_op) {
    crashed_ = true;
    ++counters_.crashes;
    d.kind = FaultDecision::Kind::kCrash;
    if (is_write)
      d.torn_bytes = std::min<std::uint64_t>(policy_.crash_write_bytes, len);
    written_bytes_ += d.torn_bytes;
    return d;
  }

  // Precedence: permanent > outage > transient > short > bit flip. One op
  // suffers at most one fault.
  if (op >= policy_.permanent_from || listed(policy_.permanent_ops)) {
    ++counters_.permanent_faults;
    d.kind = FaultDecision::Kind::kPermanent;
    return d;
  }
  bool transient = listed(policy_.transient_ops);
  if (!transient && policy_.transient_every_nth != 0)
    transient = op % policy_.transient_every_nth ==
                policy_.transient_every_nth - 1;
  if (!transient) {
    for (const auto& o : policy_.outages)
      if (o.server == server && now_ns >= o.begin_ns && now_ns < o.end_ns) {
        transient = true;
        break;
      }
  }
  if (!transient) {
    const double p =
        is_write ? policy_.transient_write_prob : policy_.transient_read_prob;
    if (p > 0 && rng_.NextDouble() < p) transient = true;
  }
  if (transient) {
    ++counters_.transient_faults;
    d.kind = FaultDecision::Kind::kTransient;
    return d;
  }

  // Short transfers need at least 2 bytes so the prefix makes progress.
  const double sp =
      is_write ? policy_.short_write_prob : policy_.short_read_prob;
  if (sp > 0 && len >= 2 && rng_.NextDouble() < sp) {
    (is_write ? counters_.short_writes : counters_.short_reads) += 1;
    d.kind = FaultDecision::Kind::kShort;
    d.short_bytes = std::max<std::uint64_t>(1, len / 2);
    if (is_write) written_bytes_ += d.short_bytes;
    return d;
  }

  if (!is_write && policy_.bitflip_read_prob > 0 && len > 0 &&
      rng_.NextDouble() < policy_.bitflip_read_prob) {
    d.kind = FaultDecision::Kind::kBitFlip;
    d.flip_byte = rng_.Below(len);
    d.flip_bit = static_cast<unsigned>(rng_.Below(8));
    return d;
  }
  if (is_write && policy_.bitflip_write_prob > 0 && len > 0 &&
      rng_.NextDouble() < policy_.bitflip_write_prob) {
    d.kind = FaultDecision::Kind::kBitFlip;
    d.flip_byte = rng_.Below(len);
    d.flip_bit = static_cast<unsigned>(rng_.Below(8));
    written_bytes_ += len;  // the (corrupted) write lands in full
    return d;
  }
  if (!is_write && policy_.corrupt_at_rest > 0 && len > 0 &&
      rng_.NextDouble() < policy_.corrupt_at_rest) {
    d.kind = FaultDecision::Kind::kAtRest;
    d.flip_byte = rng_.Below(len);
    d.flip_bit = static_cast<unsigned>(rng_.Below(8));
    return d;
  }
  if (is_write) written_bytes_ += len;
  return d;
}

void FaultInjector::CountBitflip() {
  ++counters_.bitflips;
}

void FaultInjector::CountWriteBitflip() {
  ++counters_.write_bitflips;
}

void FaultInjector::CountAtRestCorruption() {
  ++counters_.at_rest_corruptions;
}

void FaultInjector::SetPolicy(const FaultPolicy& policy) {
  policy_ = policy;
  rng_ = pnc::SplitMix64(policy.seed);
  // Op indices in a policy (transient_ops, permanent_from, ...) are relative
  // to the moment the policy is armed, not to FileSystem construction —
  // otherwise a schedule would silently shift with every unrelated open.
  next_op_ = 0;
  // Arming a policy is a reboot: the frozen incarnation ends, the written-
  // byte odometer (what crash_after_write_bytes counts against) rewinds.
  written_bytes_ = 0;
  crashed_ = false;
}

bool FaultInjector::crashed() const {
  return crashed_;
}

FaultPolicy FaultInjector::policy() const {
  return policy_;
}

FaultCounters FaultInjector::counters() const {
  return counters_;
}

void FaultInjector::ResetCounters() {
  counters_ = FaultCounters{};
}

// --------------------------------------------------------- FaultyByteStore

FaultyByteStore::Outcome FaultyByteStore::FaultedWrite(std::uint64_t offset,
                                                       pnc::ConstByteSpan data,
                                                       int server,
                                                       double now_ns) {
  const FaultDecision d =
      injector_->Decide(/*is_write=*/true, data.size(), server, now_ns);
  switch (d.kind) {
    case FaultDecision::Kind::kTransient:
      return {pnc::Status(pnc::Err::kIoTransient, "injected transient fault"),
              0};
    case FaultDecision::Kind::kPermanent:
      return {pnc::Status(pnc::Err::kIo, "injected permanent fault"), 0};
    case FaultDecision::Kind::kCrash:
      // Power loss mid-write: a torn prefix lands, the ack never arrives.
      if (d.torn_bytes > 0) inner_->Write(offset, data.first(d.torn_bytes));
      return {pnc::Status(pnc::Err::kIo, "injected crash: image frozen"), 0};
    case FaultDecision::Kind::kShort:
      inner_->Write(offset, data.first(d.short_bytes));
      return {pnc::Status::Ok(), d.short_bytes};
    case FaultDecision::Kind::kBitFlip: {
      // The write "succeeds", but the medium stores one flipped bit. The
      // caller's buffer is untouched — only a later read can notice.
      std::vector<std::byte> corrupted(data.begin(), data.end());
      corrupted[static_cast<std::size_t>(d.flip_byte)] ^=
          static_cast<std::byte>(1u << d.flip_bit);
      inner_->Write(offset, corrupted);
      injector_->CountWriteBitflip();
      return {pnc::Status::Ok(), data.size()};
    }
    default:
      inner_->Write(offset, data);
      return {pnc::Status::Ok(), data.size()};
  }
}

FaultyByteStore::Outcome FaultyByteStore::FaultedRead(std::uint64_t offset,
                                                      pnc::ByteSpan out,
                                                      int server,
                                                      double now_ns) const {
  const FaultDecision d =
      injector_->Decide(/*is_write=*/false, out.size(), server, now_ns);
  switch (d.kind) {
    case FaultDecision::Kind::kTransient:
      return {pnc::Status(pnc::Err::kIoTransient, "injected transient fault"),
              0};
    case FaultDecision::Kind::kPermanent:
      return {pnc::Status(pnc::Err::kIo, "injected permanent fault"), 0};
    case FaultDecision::Kind::kCrash:
      return {pnc::Status(pnc::Err::kIo, "injected crash: image frozen"), 0};
    case FaultDecision::Kind::kShort:
      inner_->Read(offset, out.first(d.short_bytes));
      return {pnc::Status::Ok(), d.short_bytes};
    case FaultDecision::Kind::kBitFlip: {
      inner_->Read(offset, out);
      out[static_cast<std::size_t>(d.flip_byte)] ^=
          static_cast<std::byte>(1u << d.flip_bit);
      injector_->CountBitflip();
      return {pnc::Status::Ok(), out.size()};
    }
    case FaultDecision::Kind::kAtRest: {
      // Medium decay: flip the bit on storage itself, then serve the read
      // from the damaged bytes. Retries re-read the same corruption.
      inner_->Read(offset, out);
      out[static_cast<std::size_t>(d.flip_byte)] ^=
          static_cast<std::byte>(1u << d.flip_bit);
      inner_->Write(offset + d.flip_byte,
                    pnc::ConstByteSpan(out.data() + d.flip_byte, 1));
      injector_->CountAtRestCorruption();
      return {pnc::Status::Ok(), out.size()};
    }
    default:
      inner_->Read(offset, out);
      return {pnc::Status::Ok(), out.size()};
  }
}

}  // namespace pfs
