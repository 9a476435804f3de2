// Tests for the in-process MPI subset: point-to-point matching,
// collectives, communicator management, and virtual-clock behaviour.
#include "simmpi/comm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>

#include "simmpi/runtime.hpp"

namespace simmpi {
namespace {

std::vector<std::byte> Bytes(const std::string& s) {
  std::vector<std::byte> b(s.size());
  if (!s.empty()) std::memcpy(b.data(), s.data(), s.size());
  return b;
}

std::string Str(const std::vector<std::byte>& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

std::vector<int> AllRanks(const Comm& c) {
  std::vector<int> all(static_cast<std::size_t>(c.size()));
  std::iota(all.begin(), all.end(), 0);
  return all;
}

/// A sparse pattern: rank r sends to r, r+1 and r+3 (mod P), so it
/// receives from r, r-1 and r-3; fewer distinct peers when P is small.
bool SparsePair(int src, int dst, int p) {
  const int d = (dst - src + p) % p;
  return d == 0 || d == 1 % p || d == 3 % p;
}
std::vector<int> SparseTo(const Comm& c) {
  std::vector<int> to;
  for (int r = 0; r < c.size(); ++r)
    if (SparsePair(c.rank(), r, c.size())) to.push_back(r);
  return to;
}
std::vector<int> SparseFrom(const Comm& c) {
  std::vector<int> from;
  for (int r = 0; r < c.size(); ++r)
    if (SparsePair(r, c.rank(), c.size())) from.push_back(r);
  return from;
}

TEST(Runtime, RunsEveryRankExactlyOnce) {
  std::atomic<int> count{0};
  std::array<std::atomic<bool>, 8> seen{};
  simmpi::Run(8, [&](Comm& c) {
    count.fetch_add(1);
    seen[static_cast<std::size_t>(c.rank())] = true;
    EXPECT_EQ(c.size(), 8);
  });
  EXPECT_EQ(count.load(), 8);
  for (const auto& s : seen) EXPECT_TRUE(s.load());
}

TEST(Runtime, PropagatesExceptions) {
  EXPECT_THROW(simmpi::Run(2, [](Comm& c) {
                 if (c.rank() == 1) throw std::runtime_error("rank 1 died");
                 // rank 0 must not block on a collective here, or join hangs
               }),
               std::runtime_error);
}

TEST(PointToPoint, BasicSendRecv) {
  simmpi::Run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.Send(1, 7, Bytes("ping"));
    } else {
      auto msg = c.Recv(0, 7);
      EXPECT_EQ(Str(msg), "ping");
    }
  });
}

TEST(PointToPoint, TagAndSourceMatching) {
  simmpi::Run(3, [](Comm& c) {
    if (c.rank() == 0) {
      c.Send(2, 5, Bytes("from0tag5"));
    } else if (c.rank() == 1) {
      c.Send(2, 9, Bytes("from1tag9"));
    } else {
      // Receive in the opposite order of arrival likelihood: matching must
      // pick by envelope, not queue position.
      auto a = c.Recv(1, 9);
      auto b = c.Recv(0, 5);
      EXPECT_EQ(Str(a), "from1tag9");
      EXPECT_EQ(Str(b), "from0tag5");
    }
  });
}

TEST(PointToPoint, Wildcards) {
  simmpi::Run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.Send(1, 3, Bytes("x"));
    } else {
      int src = -2, tag = -2;
      auto m = c.Recv(kAnySource, kAnyTag, &src, &tag);
      EXPECT_EQ(src, 0);
      EXPECT_EQ(tag, 3);
      EXPECT_EQ(Str(m), "x");
    }
  });
}

// A wildcard tag matches user tags only. The broadcast root's message sits
// in rank 0's mailbox ahead of the user message; a wildcard receive that
// took it would leave the broadcast waiting on a message that never comes.
// (The root of a broadcast returns as soon as its sends are buffered, so
// rank 1 reaches its Send without rank 0 having joined.)
TEST(PointToPoint, WildcardTagSkipsCollectiveTraffic) {
  CostModel cm;
  cm.hang_timeout_ms = 2000.0;
  int src = -2, tag = -2, value = 0;
  std::string got;
  simmpi::Run(
      2,
      [&](Comm& c) {
        if (c.rank() == 1) {
          int v = 77;
          c.BcastValue(v, 1);
          c.Send(0, 5, Bytes("user"));
        } else {
          got = Str(c.Recv(kAnySource, kAnyTag, &src, &tag));
          c.BcastValue(value, 1);
        }
      },
      cm);
  EXPECT_EQ(got, "user");
  EXPECT_EQ(src, 1);
  EXPECT_EQ(tag, 5);
  EXPECT_EQ(value, 77);
}

TEST(PointToPoint, FifoPerPair) {
  simmpi::Run(2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) c.Send(1, 1, Bytes(std::to_string(i)));
    } else {
      for (int i = 0; i < 10; ++i)
        EXPECT_EQ(Str(c.Recv(0, 1)), std::to_string(i));
    }
  });
}

class CollectiveP : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveP, BcastFixed) {
  simmpi::Run(GetParam(), [](Comm& c) {
    std::uint64_t v = c.rank() == 2 % c.size() ? 0xC0FFEE : 0;
    c.BcastValue(v, 2 % c.size());
    EXPECT_EQ(v, 0xC0FFEEu);
  });
}

TEST_P(CollectiveP, BcastResizing) {
  simmpi::Run(GetParam(), [](Comm& c) {
    std::vector<std::byte> buf;
    if (c.rank() == 0) buf = Bytes("a moderately long broadcast payload");
    c.Bcast(buf, 0);
    EXPECT_EQ(Str(buf), "a moderately long broadcast payload");
  });
}

TEST_P(CollectiveP, AllreduceMaxMinSum) {
  simmpi::Run(GetParam(), [](Comm& c) {
    const int p = c.size();
    EXPECT_EQ(c.AllreduceMax(c.rank()), p - 1);
    EXPECT_EQ(c.AllreduceMin(c.rank()), 0);
    EXPECT_EQ(c.AllreduceSum(c.rank() + 1), p * (p + 1) / 2);
    EXPECT_EQ(c.AllreduceMax(3.5 + c.rank()), 3.5 + p - 1);
  });
}

TEST_P(CollectiveP, GatherAndScatter) {
  simmpi::Run(GetParam(), [](Comm& c) {
    auto gathered = c.Gather(Bytes("r" + std::to_string(c.rank())), 0);
    if (c.rank() == 0) {
      ASSERT_EQ(static_cast<int>(gathered.size()), c.size());
      for (int r = 0; r < c.size(); ++r)
        EXPECT_EQ(Str(gathered[static_cast<std::size_t>(r)]),
                  "r" + std::to_string(r));
    }
    std::vector<std::vector<std::byte>> pieces;
    if (c.rank() == 0) {
      for (int r = 0; r < c.size(); ++r)
        pieces.push_back(Bytes("piece" + std::to_string(r)));
    }
    auto mine = c.Scatter(std::move(pieces), 0);
    EXPECT_EQ(Str(mine), "piece" + std::to_string(c.rank()));
  });
}

TEST_P(CollectiveP, Allgather) {
  simmpi::Run(GetParam(), [](Comm& c) {
    auto all = c.Allgather(Bytes(std::string(1 + c.rank() % 3, 'x') +
                                 std::to_string(c.rank())));
    ASSERT_EQ(static_cast<int>(all.size()), c.size());
    for (int r = 0; r < c.size(); ++r)
      EXPECT_EQ(Str(all[static_cast<std::size_t>(r)]),
                std::string(1 + r % 3, 'x') + std::to_string(r));
  });
}

// A personalized all-to-all: an exchange that lists every pair.
TEST_P(CollectiveP, AlltoallPersonalized) {
  simmpi::Run(GetParam(), [](Comm& c) {
    std::vector<std::vector<std::byte>> send;
    for (int r = 0; r < c.size(); ++r)
      send.push_back(Bytes(std::to_string(c.rank()) + "->" + std::to_string(r)));
    const std::vector<int> all = AllRanks(c);
    auto recv = c.Exchange(std::move(send), all, all, 0);
    for (int r = 0; r < c.size(); ++r)
      EXPECT_EQ(Str(recv[static_cast<std::size_t>(r)]),
                std::to_string(r) + "->" + std::to_string(c.rank()));
  });
}

// Only the listed pairs move a message; every other slot stays empty, and
// rounds reusing a pair keep their messages apart.
TEST_P(CollectiveP, ExchangeMovesOnlyListedPairs) {
  simmpi::Run(GetParam(), [](Comm& c) {
    for (std::uint64_t round = 0; round < 3; ++round) {
      std::vector<std::vector<std::byte>> send(
          static_cast<std::size_t>(c.size()));
      for (const int r : SparseTo(c))
        send[static_cast<std::size_t>(r)] =
            Bytes(std::to_string(c.rank()) + ">" + std::to_string(r) + "#" +
                  std::to_string(round));
      auto recv = c.Exchange(std::move(send), SparseTo(c), SparseFrom(c),
                             round);
      ASSERT_EQ(static_cast<int>(recv.size()), c.size());
      for (int r = 0; r < c.size(); ++r) {
        const std::string want =
            SparsePair(r, c.rank(), c.size())
                ? std::to_string(r) + ">" + std::to_string(c.rank()) + "#" +
                      std::to_string(round)
                : "";
        EXPECT_EQ(Str(recv[static_cast<std::size_t>(r)]), want);
      }
    }
  });
}

TEST_P(CollectiveP, ReduceByteFold) {
  simmpi::Run(GetParam(), [](Comm& c) {
    std::uint32_t v = 1u << c.rank();
    ReduceFn orfn = [](pnc::ByteSpan a, pnc::ConstByteSpan b) {
      std::uint32_t x, y;
      std::memcpy(&x, a.data(), 4);
      std::memcpy(&y, b.data(), 4);
      x |= y;
      std::memcpy(a.data(), &x, 4);
    };
    c.Reduce(pnc::ByteSpan(reinterpret_cast<std::byte*>(&v), 4), orfn, 0);
    if (c.rank() == 0)
      EXPECT_EQ(v, (c.size() >= 32 ? ~0u : (1u << c.size()) - 1));
  });
}

TEST_P(CollectiveP, AllAgree) {
  simmpi::Run(GetParam(), [](Comm& c) {
    int same = 42;
    EXPECT_TRUE(c.AllAgree(
        pnc::ConstByteSpan(reinterpret_cast<std::byte*>(&same), 4)));
    int diff = c.rank() == 0 ? 1 : 2;
    if (c.size() > 1)
      EXPECT_FALSE(c.AllAgree(
          pnc::ConstByteSpan(reinterpret_cast<std::byte*>(&diff), 4)));
  });
}

TEST_P(CollectiveP, BarrierSynchronizesClocks) {
  simmpi::Run(GetParam(), [](Comm& c) {
    // Skew the clocks, then barrier: every clock must be >= the pre-barrier
    // maximum (the barrier cannot complete before the slowest rank arrives).
    const double skew = 1e6 * (c.rank() + 1);
    c.clock().Advance(skew);
    const double pre_max = 1e6 * c.size();
    c.Barrier();
    EXPECT_GE(c.clock().now(), pre_max);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveP, ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST(CommManagement, DupIsolatesTraffic) {
  simmpi::Run(2, [](Comm& c) {
    Comm d = c.Dup();
    if (c.rank() == 0) {
      c.Send(1, 5, Bytes("on-c"));
      d.Send(1, 5, Bytes("on-d"));
    } else {
      // Receive from the dup first: context matching must not hand over the
      // message sent on the parent communicator.
      EXPECT_EQ(Str(d.Recv(0, 5)), "on-d");
      EXPECT_EQ(Str(c.Recv(0, 5)), "on-c");
    }
  });
}

TEST(CommManagement, SplitByParity) {
  simmpi::Run(6, [](Comm& c) {
    Comm sub = c.Split(c.rank() % 2, c.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), c.rank() / 2);
    // Collective inside the split communicator.
    EXPECT_EQ(sub.AllreduceSum(1), 3);
    // Ranks ordered by key.
    auto all = sub.Allgather(Bytes(std::to_string(c.rank())));
    for (int r = 0; r < 3; ++r)
      EXPECT_EQ(Str(all[static_cast<std::size_t>(r)]),
                std::to_string(2 * r + c.rank() % 2));
  });
}

TEST(CommManagement, SplitSingletonColors) {
  simmpi::Run(4, [](Comm& c) {
    Comm solo = c.Split(c.rank(), 0);
    EXPECT_EQ(solo.size(), 1);
    EXPECT_EQ(solo.rank(), 0);
    EXPECT_EQ(solo.AllreduceSum(c.rank()), c.rank());
  });
}

TEST(VirtualTime, MessageDeliveryAdvancesReceiverClock) {
  CostModel cm;
  cm.msg_latency_ns = 1000.0;
  cm.msg_ns_per_byte = 1.0;
  cm.sw_overhead_ns = 0.0;
  simmpi::Run(2,
      [](Comm& c) {
        if (c.rank() == 0) {
          c.Send(1, 1, std::vector<std::byte>(500));
        } else {
          (void)c.Recv(0, 1);
          // Arrival >= latency + 500 bytes * 1 ns.
          EXPECT_GE(c.clock().now(), 1500.0);
        }
      },
      cm);
}

TEST(VirtualTime, RunReportsMakespan) {
  auto result = simmpi::Run(4, [](Comm& c) {
    c.clock().Advance(1e9 * (c.rank() + 1));
  });
  EXPECT_DOUBLE_EQ(result.max_time_ns, 4e9);
  ASSERT_EQ(result.rank_times_ns.size(), 4u);
  EXPECT_DOUBLE_EQ(result.rank_times_ns[0], 1e9);
}

TEST(VirtualTime, SyncClocksToMax) {
  simmpi::Run(3, [](Comm& c) {
    c.clock().Advance(100.0 * c.rank());
    c.SyncClocksToMax();
    EXPECT_GE(c.clock().now(), 200.0);
  });
}

// ------------------------------------------------------ status collectives

// One status collective next to the plain collective it issues when no
// rank-fault policy is armed. Each records this rank's results in `out`.
struct StatusCase {
  const char* name;
  std::function<void(Comm&, std::vector<std::int64_t>&)> plain;
  std::function<pnc::Status(Comm&, std::vector<std::int64_t>&)> tried;
  /// TryShrink tolerates a death (the survivors get the live subset).
  bool tolerates_death = false;
};

void PushBytes(const std::vector<std::byte>& b, std::vector<std::int64_t>& out) {
  out.push_back(static_cast<std::int64_t>(b.size()));
  for (const std::byte x : b) out.push_back(static_cast<std::int64_t>(x));
}

/// Rank `c`'s message to `dst` in `round`; some are empty.
std::vector<std::byte> ExchangePayload(const Comm& c, int dst, int round) {
  return std::vector<std::byte>(
      static_cast<std::size_t>((c.rank() + dst + round) % 3 * (dst + 1)),
      static_cast<std::byte>(16 * c.rank() + dst + round));
}

std::vector<std::vector<std::byte>> ExchangeSend(const Comm& c, int round) {
  std::vector<std::vector<std::byte>> send;
  for (int r = 0; r < c.size(); ++r)
    send.push_back(ExchangePayload(c, r, round));
  return send;
}

void PlainExchangeRounds(Comm& c, const std::vector<int>& to,
                         const std::vector<int>& from,
                         std::vector<std::int64_t>& out) {
  for (int round = 0; round < 2; ++round)
    for (const auto& b :
         c.Exchange(ExchangeSend(c, round), to, from,
                    static_cast<std::uint64_t>(round)))
      PushBytes(b, out);
  out.push_back(c.AllreduceMin(0));
  c.SyncClocksToMax();
}

pnc::Status TriedExchangeRounds(Comm& c, const std::vector<int>& to,
                                const std::vector<int>& from,
                                std::vector<std::int64_t>& out) {
  pnc::Status xst;
  for (int round = 0; round < 2; ++round) {
    std::vector<std::vector<std::byte>> recv;
    const pnc::Status st =
        c.TryExchange(ExchangeSend(c, round), to, from,
                      static_cast<std::uint64_t>(round), recv);
    if (xst.ok()) xst = st;
    for (const auto& b : recv) PushBytes(b, out);
  }
  const pnc::Status st = c.AgreeStatus(xst);
  out.push_back(st.raw());
  return st;
}

const std::vector<StatusCase>& StatusCases() {
  static const std::vector<StatusCase> cases = {
      {"TryBarrier", [](Comm& c, auto&) { c.Barrier(); },
       [](Comm& c, auto&) { return c.TryBarrier(); }},
      {"TrySyncClocks", [](Comm& c, auto&) { c.SyncClocksToMax(); },
       [](Comm& c, auto&) { return c.TrySyncClocks(); }},
      {"TryBcastValue",
       [](Comm& c, auto& out) {
         int v = c.rank() == c.size() - 1 ? 4242 : -1;
         c.BcastValue(v, c.size() - 1);
         out.push_back(v);
       },
       [](Comm& c, auto& out) {
         int v = c.rank() == c.size() - 1 ? 4242 : -1;
         const pnc::Status st = c.TryBcastValue(v, c.size() - 1);
         out.push_back(v);
         return st;
       }},
      {"TryBcast",
       [](Comm& c, auto& out) {
         std::vector<std::byte> b;
         if (c.rank() == c.size() - 1) b = Bytes("header image bytes");
         c.Bcast(b, c.size() - 1);
         PushBytes(b, out);
       },
       [](Comm& c, auto& out) {
         std::vector<std::byte> b;
         if (c.rank() == c.size() - 1) b = Bytes("header image bytes");
         const pnc::Status st = c.TryBcast(b, c.size() - 1);
         PushBytes(b, out);
         return st;
       }},
      {"TryAllreduceMin",
       [](Comm& c, auto& out) {
         out.push_back(c.AllreduceMin(10 * (c.size() - c.rank()) - 3));
       },
       [](Comm& c, auto& out) {
         int v = 10 * (c.size() - c.rank()) - 3;
         const pnc::Status st = c.TryAllreduceMin(v);
         out.push_back(v);
         return st;
       }},
      {"TryAllreduceMax",
       [](Comm& c, auto& out) {
         out.push_back(static_cast<std::int64_t>(
             c.AllreduceMax<std::uint64_t>(1000 + 7 * c.rank())));
       },
       [](Comm& c, auto& out) {
         std::uint64_t v = 1000 + 7 * c.rank();
         const pnc::Status st = c.TryAllreduceMax(v);
         out.push_back(static_cast<std::int64_t>(v));
         return st;
       }},
      {"TryAllAgree",
       [](Comm& c, auto& out) {
         out.push_back(c.AllAgree(Bytes("same")));
         out.push_back(c.AllAgree(Bytes(c.rank() == 0 ? "odd" : "even")));
       },
       [](Comm& c, auto& out) -> pnc::Status {
         bool same = false;
         PNC_RETURN_IF_ERROR(c.TryAllAgree(Bytes("same"), same));
         out.push_back(same);
         PNC_RETURN_IF_ERROR(
             c.TryAllAgree(Bytes(c.rank() == 0 ? "odd" : "even"), same));
         out.push_back(same);
         return pnc::Status::Ok();
       }},
      // The exchange's own status is local (a survivor that got every
      // piece before the death returns Ok), so, as in two-phase I/O, every
      // round runs and one AgreeStatus settles the outcome. This row lists
      // every pair (an all-to-all); TryExchange's row below a sparse set.
      {"TryAlltoall",
       [](Comm& c, auto& out) {
         PlainExchangeRounds(c, AllRanks(c), AllRanks(c), out);
       },
       [](Comm& c, auto& out) {
         return TriedExchangeRounds(c, AllRanks(c), AllRanks(c), out);
       }},
      {"AgreeStatus",
       [](Comm& c, auto& out) {
         const int local = c.rank() == c.size() / 2
                               ? static_cast<int>(pnc::Err::kIo)
                               : 0;
         out.push_back(c.AllreduceMin(local));
         c.SyncClocksToMax();
       },
       [](Comm& c, auto& out) {
         const pnc::Status local =
             c.rank() == c.size() / 2 ? pnc::Status(pnc::Err::kIo, "local")
                                      : pnc::Status::Ok();
         const pnc::Status st = c.AgreeStatus(local);
         out.push_back(st.raw());
         // The agreed I/O error is this case's value, not a failure of the
         // collective itself.
         return st.code() == pnc::Err::kRankFailed ? st : pnc::Status::Ok();
       }},
      {"TryShrink",
       [](Comm& c, auto& out) {
         out.push_back(c.size());
         out.push_back(c.rank());
       },
       [](Comm& c, auto& out) {
         Comm live = c;
         const pnc::Status st = c.TryShrink(live);
         out.push_back(live.size());
         out.push_back(live.rank());
         return st;
       },
       /*tolerates_death=*/true},
      // New cases go last: test names carry each case's index.
      {"TryGather",
       [](Comm& c, auto& out) {
         const auto mine = Bytes(std::string(c.rank() + 1, 'g'));
         for (const auto& b : c.Gather(mine, c.size() - 1)) PushBytes(b, out);
       },
       [](Comm& c, auto& out) {
         std::vector<std::vector<std::byte>> got;
         const pnc::Status st = c.TryGather(
             Bytes(std::string(c.rank() + 1, 'g')), c.size() - 1, got);
         for (const auto& b : got) PushBytes(b, out);
         return st;
       }},
      {"TryExchange",
       [](Comm& c, auto& out) {
         PlainExchangeRounds(c, SparseTo(c), SparseFrom(c), out);
       },
       [](Comm& c, auto& out) {
         return TriedExchangeRounds(c, SparseTo(c), SparseFrom(c), out);
       }},
      {"TryAllgather",
       [](Comm& c, auto& out) {
         const auto mine = Bytes(std::string(c.rank() % 3, 'a'));
         for (const auto& b : c.Allgather(mine)) PushBytes(b, out);
       },
       [](Comm& c, auto& out) {
         std::vector<std::vector<std::byte>> got;
         const pnc::Status st =
             c.TryAllgather(Bytes(std::string(c.rank() % 3, 'a')), got);
         for (const auto& b : got) PushBytes(b, out);
         return st;
       }},
  };
  return cases;
}

struct StatusRun {
  RunResult run;
  std::vector<std::vector<std::int64_t>> out;
  std::vector<pnc::Status> status;
};

/// Run one case on `p` ranks whose clocks start skewed, so any difference
/// in how the collective synchronizes them shows in the final clocks.
StatusRun RunStatusCase(const StatusCase& sc, int p, bool use_plain,
                        const RankFaultPolicy& faults = {}) {
  StatusRun r;
  r.out.resize(static_cast<std::size_t>(p));
  r.status.resize(static_cast<std::size_t>(p));
  r.run = simmpi::Run(
      p,
      [&](Comm& c) {
        c.clock().Advance(1000.0 * ((3 * c.rank()) % 5 + 1));
        const auto i = static_cast<std::size_t>(c.rank());
        if (use_plain) {
          sc.plain(c, r.out[i]);
        } else {
          r.status[i] = sc.tried(c, r.out[i]);
        }
      },
      CostModel{}, faults);
  return r;
}

RankFaultPolicy NeverFiringCrash() {
  RankFaultPolicy p;
  p.crashes.push_back({0, RankFaultPolicy::kNever, -1.0});
  return p;
}

class StatusCollectiveP
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  const StatusCase& sc() const {
    return StatusCases()[static_cast<std::size_t>(std::get<0>(GetParam()))];
  }
  int procs() const { return std::get<1>(GetParam()); }
};

// Unarmed, a status collective is the plain collective: the same values and
// every rank's clock bit-equal.
TEST_P(StatusCollectiveP, UnarmedMatchesPlainCollective) {
  const StatusRun plain = RunStatusCase(sc(), procs(), /*use_plain=*/true);
  const StatusRun tried = RunStatusCase(sc(), procs(), /*use_plain=*/false);
  EXPECT_EQ(tried.out, plain.out);
  EXPECT_EQ(tried.run.rank_times_ns, plain.run.rank_times_ns);
  for (const pnc::Status& st : tried.status) EXPECT_TRUE(st.ok());
}

// Armed with a crash that never fires, the fault-tolerant path produces
// the plain collective's values.
TEST_P(StatusCollectiveP, ArmedWithoutDeathMatchesPlainValues) {
  const StatusRun plain = RunStatusCase(sc(), procs(), /*use_plain=*/true);
  const StatusRun armed = RunStatusCase(sc(), procs(), /*use_plain=*/false,
                                        NeverFiringCrash());
  EXPECT_TRUE(armed.run.crashed_ranks.empty());
  EXPECT_EQ(armed.out, plain.out);
  for (const pnc::Status& st : armed.status) EXPECT_TRUE(st.ok());
}

// A crash at every op inside the call: the run terminates (no hang, no
// abort) and every survivor returns kRankFailed.
TEST_P(StatusCollectiveP, CrashMidCallFailsEverySurvivor) {
  const int p = procs();
  if (p == 1) GTEST_SKIP() << "no survivor to observe a single rank's death";
  const int dying = p - 1;  // the broadcast root, too
  bool swept_past_call = false;
  for (std::uint64_t op = 0; op < 64; ++op) {
    SCOPED_TRACE("crash at op " + std::to_string(op));
    RankFaultPolicy faults;
    faults.crashes.push_back({dying, op, -1.0});
    const StatusRun r = RunStatusCase(sc(), p, /*use_plain=*/false, faults);
    if (r.run.crashed_ranks.empty()) {
      swept_past_call = true;
      break;
    }
    ASSERT_EQ(r.run.crashed_ranks, (std::vector<int>{dying}));
    for (int rank = 0; rank < dying; ++rank) {
      SCOPED_TRACE("rank " + std::to_string(rank));
      const auto i = static_cast<std::size_t>(rank);
      if (sc().tolerates_death) {
        EXPECT_TRUE(r.status[i].ok());
        EXPECT_EQ(r.out[i], (std::vector<std::int64_t>{p - 1, rank}));
      } else {
        EXPECT_EQ(r.status[i].code(), pnc::Err::kRankFailed);
      }
    }
  }
  EXPECT_TRUE(swept_past_call);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, StatusCollectiveP,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(StatusCases().size())),
        ::testing::Values(1, 3, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return std::string(StatusCases()[static_cast<std::size_t>(
                             std::get<0>(info.param))]
                             .name) +
             "_p" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace simmpi
