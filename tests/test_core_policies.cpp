// Scheduler policy tests against a scripted PathContext double: selection
// logic, flowlet stickiness, redundancy, adaptivity, hedge budgets, and
// the never-pick-a-down-path property across all policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "core/scheduler.hpp"
#include "net/flow_key.hpp"
#include "net/packet_pool.hpp"

namespace mdp::core {
namespace {

class FakeContext final : public PathContext {
 public:
  explicit FakeContext(std::size_t n) : n_(n) {
    backlog.assign(n, 0);
    ewma.assign(n, 0);
    depth.assign(n, 0);
    inflight_v.assign(n, 0);
    up_v.assign(n, true);
  }
  std::size_t num_paths() const override { return n_; }
  bool up(std::size_t p) const override { return up_v[p]; }
  sim::TimeNs backlog_ns(std::size_t p) const override { return backlog[p]; }
  std::size_t queue_depth(std::size_t p) const override { return depth[p]; }
  std::uint64_t inflight(std::size_t p) const override {
    return inflight_v[p];
  }
  double ewma_latency_ns(std::size_t p) const override { return ewma[p]; }
  sim::TimeNs now() const override { return now_v; }

  std::size_t n_;
  std::vector<sim::TimeNs> backlog;
  std::vector<double> ewma;
  std::vector<std::size_t> depth;
  std::vector<std::uint64_t> inflight_v;
  std::vector<bool> up_v;
  sim::TimeNs now_v = 0;
};

struct PolicyFixture : ::testing::Test {
  net::PacketPool pool{16, 2048};
  sim::Rng rng{1};

  net::PacketPtr pkt(std::uint32_t flow_id = 1,
                     net::TrafficClass tc = net::TrafficClass::kBestEffort) {
    auto p = pool.alloc();
    p->set_length(100);
    p->anno().flow_id = flow_id;
    p->anno().flow_hash = net::mix64(flow_id * 2654435761u + 17);
    p->anno().traffic_class = tc;
    return p;
  }

  PathVec select(Scheduler& s, const PathContext& ctx, net::Packet& p) {
    PathVec out;
    s.select(p, ctx, rng, out);
    return out;
  }
};

TEST_F(PolicyFixture, SinglePathAlwaysPinned) {
  FakeContext ctx(4);
  SinglePathScheduler s(2);
  auto p = pkt();
  for (int i = 0; i < 5; ++i) {
    auto out = select(s, ctx, *p);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 2);
  }
}

TEST_F(PolicyFixture, SinglePathFallsBackWhenPinnedDown) {
  FakeContext ctx(4);
  ctx.up_v[2] = false;
  SinglePathScheduler s(2);
  auto p = pkt();
  auto out = select(s, ctx, *p);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0);
}

TEST_F(PolicyFixture, RssIsFlowStableAndFlowSpread) {
  FakeContext ctx(4);
  RssHashScheduler s;
  auto p = pkt(42);
  auto first = select(s, ctx, *p);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(select(s, ctx, *p), first) << "same flow, same path";
  std::set<std::uint16_t> used;
  for (std::uint32_t f = 0; f < 64; ++f) {
    auto q = pkt(f);
    used.insert(select(s, ctx, *q)[0]);
  }
  EXPECT_EQ(used.size(), 4u) << "64 flows must cover all 4 paths";
}

TEST_F(PolicyFixture, RoundRobinCyclesThroughUpPaths) {
  FakeContext ctx(3);
  RoundRobinScheduler s;
  auto p = pkt();
  std::vector<std::uint16_t> seq;
  for (int i = 0; i < 6; ++i) seq.push_back(select(s, ctx, *p)[0]);
  EXPECT_EQ(seq, (std::vector<std::uint16_t>{0, 1, 2, 0, 1, 2}));
}

TEST_F(PolicyFixture, JsqPicksMinimumBacklog) {
  FakeContext ctx(4);
  ctx.backlog = {500, 100, 900, 100};
  JsqScheduler s;
  auto p = pkt();
  EXPECT_EQ(select(s, ctx, *p)[0], 1) << "ties break to lowest id";
  ctx.backlog[1] = 2000;
  EXPECT_EQ(select(s, ctx, *p)[0], 3);
}

TEST_F(PolicyFixture, LeastLatencyCombinesEwmaAndBacklog) {
  FakeContext ctx(2);
  ctx.ewma = {10'000, 1'000};
  LeastLatencyScheduler s(/*epsilon=*/0.0);
  auto p = pkt();
  EXPECT_EQ(select(s, ctx, *p)[0], 1);
  // Bury path 1 in backlog: path 0 wins despite worse EWMA.
  ctx.backlog[1] = 100'000;
  EXPECT_EQ(select(s, ctx, *p)[0], 0);
}

TEST_F(PolicyFixture, FlowletSticksWithinGapAndSwitchesAfter) {
  FakeContext ctx(4);
  ctx.backlog = {100, 0, 0, 0};
  FlowletScheduler s(/*gap_ns=*/1000);
  auto p = pkt(7);
  ctx.now_v = 0;
  auto first = select(s, ctx, *p)[0];
  EXPECT_EQ(first, 1) << "first packet goes to least backlog";
  // Make the chosen path look bad; within the gap the flow must stick.
  ctx.backlog[first] = 1'000'000;
  ctx.now_v = 500;
  EXPECT_EQ(select(s, ctx, *p)[0], first);
  // After an idle gap the flowlet re-routes.
  ctx.now_v = 5000;
  auto next = select(s, ctx, *p)[0];
  EXPECT_NE(next, first);
  EXPECT_GE(s.flowlet_switches(), 1u);
}

TEST_F(PolicyFixture, RedundantSelectsKDistinctLeastLoaded) {
  FakeContext ctx(4);
  ctx.backlog = {400, 100, 300, 200};
  RedundantScheduler s(2);
  auto p = pkt();
  auto out = select(s, ctx, *p);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 3);
  EXPECT_NE(out[0], out[1]);
}

TEST_F(PolicyFixture, RedundantClampsToAvailablePaths) {
  FakeContext ctx(2);
  RedundantScheduler s(4);
  auto p = pkt();
  auto out = select(s, ctx, *p);
  EXPECT_EQ(out.size(), 2u);
}

// k_least_backlog_paths inserts into the caller's buffer; it must agree
// with a sort by (backlog, id) over the up paths on random backlogs with
// frequent ties and down paths, for every k, and append after whatever
// the buffer already held.
TEST(KLeastBacklogPaths, MatchesSortReferenceWithTiesAndDownPaths) {
  sim::Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = 1 + rng.uniform_u64(8);
    FakeContext ctx(n);
    for (std::size_t p = 0; p < n; ++p) {
      ctx.up_v[p] = rng.bernoulli(0.75);
      ctx.backlog[p] = rng.uniform_u64(4) * 1'000;  // few values: ties
    }
    std::vector<std::pair<sim::TimeNs, std::uint16_t>> ref;
    for (std::size_t p = 0; p < n; ++p)
      if (ctx.up_v[p]) ref.emplace_back(ctx.backlog[p], p);
    std::sort(ref.begin(), ref.end());
    for (std::size_t k = 0; k <= n + 1; ++k) {
      PathVec out = {99};
      k_least_backlog_paths(ctx, k, out);
      PathVec want = {99};
      for (std::size_t i = 0; i < ref.size() && i < k; ++i)
        want.push_back(ref[i].second);
      ASSERT_EQ(out, want) << "trial " << trial << " k " << k;
    }
  }
}

TEST_F(PolicyFixture, AdaptiveReplicatesCriticalOnly) {
  FakeContext ctx(4);
  AdaptiveMdpScheduler s;
  auto lc = pkt(1, net::TrafficClass::kLatencyCritical);
  auto be = pkt(2, net::TrafficClass::kBestEffort);
  EXPECT_EQ(select(s, ctx, *lc).size(), 2u);
  EXPECT_EQ(select(s, ctx, *be).size(), 1u);
  EXPECT_EQ(s.replicated(), 1u);
}

TEST_F(PolicyFixture, AdaptiveLoadGateSuppressesReplication) {
  FakeContext ctx(4);
  AdaptiveMdpConfig cfg;
  cfg.replicate_backlog_cap_ns = 10'000;
  AdaptiveMdpScheduler s(cfg);
  auto lc = pkt(1, net::TrafficClass::kLatencyCritical);
  // All paths lightly loaded: replicate.
  EXPECT_EQ(select(s, ctx, *lc).size(), 2u);
  // Every alternate path buried: the gate degrades to a single copy on
  // the least-backlogged path.
  ctx.backlog = {5'000, 50'000, 60'000, 70'000};
  auto out = select(s, ctx, *lc);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0);
  // Gate disabled: always replicate.
  AdaptiveMdpConfig ungated;
  ungated.replicate_backlog_cap_ns = 0;
  AdaptiveMdpScheduler s2(ungated);
  EXPECT_EQ(select(s2, ctx, *lc).size(), 2u);
}

TEST_F(PolicyFixture, AdaptiveSmallFlowReplication) {
  AdaptiveMdpConfig cfg;
  cfg.small_flow_bytes = 10'000;
  AdaptiveMdpScheduler s(cfg);
  FakeContext ctx(4);
  auto small = pkt(1);
  small->anno().flow_bytes = 5'000;
  auto big = pkt(2);
  big->anno().flow_bytes = 1'000'000;
  EXPECT_EQ(select(s, ctx, *small).size(), 2u);
  EXPECT_EQ(select(s, ctx, *big).size(), 1u);
}

TEST_F(PolicyFixture, AdaptiveHedgeBudgetAutoScalesWithEwma) {
  FakeContext ctx(2);
  AdaptiveMdpScheduler s;
  auto be = pkt(1, net::TrafficClass::kBestEffort);
  // No observations yet: floor applies.
  EXPECT_EQ(s.hedge_timeout_ns(*be, ctx), s.config().hedge_min_ns);
  ctx.ewma = {100'000, 300'000};
  EXPECT_EQ(s.hedge_timeout_ns(*be, ctx),
            static_cast<sim::TimeNs>(3.0 * 200'000));
  // Replicated (critical) packets are not hedged.
  auto lc = pkt(2, net::TrafficClass::kLatencyCritical);
  EXPECT_EQ(s.hedge_timeout_ns(*lc, ctx), 0u);
}

TEST_F(PolicyFixture, AdaptiveHedgeDisabledReturnsZero) {
  AdaptiveMdpConfig cfg;
  cfg.hedge_enabled = false;
  AdaptiveMdpScheduler s(cfg);
  FakeContext ctx(2);
  auto p = pkt();
  EXPECT_EQ(s.hedge_timeout_ns(*p, ctx), 0u);
}

// --- select_batch ---------------------------------------------------------------

TEST_F(PolicyFixture, SelectBatchDefaultMatchesPerPacketLoop) {
  // Stateful policy (flowlet), two fresh instances fed the same stream:
  // the default batch path loops select(), so results must be identical.
  FakeContext ctx(4);
  ctx.backlog = {300, 100, 200, 400};
  FlowletScheduler scalar, batch;
  std::vector<net::PacketPtr> pkts;
  std::vector<const net::Packet*> ptrs;
  for (std::uint32_t i = 0; i < 12; ++i) {
    pkts.push_back(pkt(1 + i % 3));
    ptrs.push_back(pkts.back().get());
  }
  std::vector<PathVec> expected;
  sim::Rng rng2{1};
  for (const auto* p : ptrs) {
    PathVec out;
    scalar.select(*p, ctx, rng2, out);
    expected.push_back(out);
  }
  std::vector<PathVec> got;
  sim::Rng rng3{1};
  batch.select_batch(ptrs, ctx, rng3, got);
  EXPECT_EQ(got, expected);
}

TEST_F(PolicyFixture, JsqSelectBatchSizeOneMatchesSelect) {
  FakeContext ctx(4);
  ctx.backlog = {500, 100, 300, 200};
  JsqScheduler s;
  auto p = pkt();
  const net::Packet* ptr = p.get();
  std::vector<PathVec> got;
  s.select_batch({&ptr, 1}, ctx, rng, got);
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].size(), 1u);
  EXPECT_EQ(got[0][0], 1) << "size-1 batch must equal scalar JSQ";
}

TEST_F(PolicyFixture, JsqSelectBatchSpreadsAcrossIdlePaths) {
  // One backlog sample per burst plus local accounting: an idle 4-path
  // system must receive a 8-packet burst evenly, not all on path 0.
  FakeContext ctx(4);
  JsqScheduler s;
  std::vector<net::PacketPtr> pkts;
  std::vector<const net::Packet*> ptrs;
  for (std::uint32_t i = 0; i < 8; ++i) {
    pkts.push_back(pkt(i));
    ptrs.push_back(pkts.back().get());
  }
  std::vector<PathVec> got;
  s.select_batch(ptrs, ctx, rng, got);
  std::vector<int> per_path(4, 0);
  for (const auto& v : got) {
    ASSERT_EQ(v.size(), 1u);
    ++per_path[v[0]];
  }
  for (int p = 0; p < 4; ++p) EXPECT_EQ(per_path[p], 2) << "path " << p;
}

TEST_F(PolicyFixture, JsqSelectBatchNeverPicksDownPath) {
  FakeContext ctx(4);
  ctx.up_v[0] = false;
  ctx.up_v[2] = false;
  JsqScheduler s;
  std::vector<net::PacketPtr> pkts;
  std::vector<const net::Packet*> ptrs;
  for (std::uint32_t i = 0; i < 16; ++i) {
    pkts.push_back(pkt(i));
    ptrs.push_back(pkts.back().get());
  }
  std::vector<PathVec> got;
  s.select_batch(ptrs, ctx, rng, got);
  for (const auto& v : got) {
    ASSERT_EQ(v.size(), 1u);
    EXPECT_TRUE(v[0] == 1 || v[0] == 3);
  }
}

TEST_F(PolicyFixture, AdaptiveSelectBatchReplicatesCriticalOnly) {
  FakeContext ctx(4);
  AdaptiveMdpScheduler s;
  std::vector<net::PacketPtr> pkts;
  std::vector<const net::Packet*> ptrs;
  for (std::uint32_t i = 0; i < 8; ++i) {
    pkts.push_back(pkt(i, i % 2 == 0 ? net::TrafficClass::kLatencyCritical
                                     : net::TrafficClass::kBestEffort));
    ptrs.push_back(pkts.back().get());
  }
  std::vector<PathVec> got;
  s.select_batch(ptrs, ctx, rng, got);
  ASSERT_EQ(got.size(), 8u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(got[i].size(), 2u) << "critical packet " << i;
      EXPECT_NE(got[i][0], got[i][1]);
    } else {
      EXPECT_EQ(got[i].size(), 1u) << "best-effort packet " << i;
    }
  }
  EXPECT_EQ(s.replicated(), 4u);
}

TEST(SchedulerFactory, KnownNamesConstruct) {
  for (const auto& name : evaluation_policy_names()) {
    auto s = make_scheduler(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->name(), name);
  }
  EXPECT_NE(make_scheduler("red3"), nullptr);
  EXPECT_NE(make_scheduler("red4"), nullptr);
  EXPECT_EQ(make_scheduler("bogus"), nullptr);
}

TEST(SchedulerFactory, ParameterizedNamesConstructWithTheParameter) {
  // "<policy>:<param>" names build tuned instances; the parameter must
  // actually land in the scheduler, not just parse.
  auto red = make_scheduler("redundant:3");
  ASSERT_NE(red, nullptr);
  EXPECT_EQ(red->name(), "red3");
  EXPECT_EQ(dynamic_cast<RedundantScheduler*>(red.get())->replicas(), 3u);
  EXPECT_EQ(make_scheduler("red:2")->name(), "red2");

  auto fl = make_scheduler("flowlet:20000");
  ASSERT_NE(fl, nullptr);
  EXPECT_EQ(dynamic_cast<FlowletScheduler*>(fl.get())->gap_ns(), 20'000);

  // single:<path> pins to the requested path.
  auto single = make_scheduler("single:1");
  ASSERT_NE(single, nullptr);
  net::PacketPool pool(4, 2048);
  sim::Rng rng(7);
  FakeContext ctx(4);
  auto pkt = pool.alloc();
  pkt->set_length(64);
  PathVec out;
  single->select(*pkt, ctx, rng, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1u);

  EXPECT_NE(make_scheduler("lla:0.1"), nullptr);
  EXPECT_NE(make_scheduler("adaptive:3"), nullptr);
}

TEST(SchedulerFactory, MalformedParameterizedNamesAreRejected) {
  EXPECT_EQ(make_scheduler("red:"), nullptr);       // empty param
  EXPECT_EQ(make_scheduler("red:0"), nullptr);      // zero replicas
  EXPECT_EQ(make_scheduler("red:65"), nullptr);     // over the cap
  EXPECT_EQ(make_scheduler("flowlet:abc"), nullptr);
  EXPECT_EQ(make_scheduler("flowlet:0"), nullptr);
  EXPECT_EQ(make_scheduler("lla:1.5"), nullptr);    // epsilon > 1
  EXPECT_EQ(make_scheduler("lla:-0.1"), nullptr);
  EXPECT_EQ(make_scheduler("bogus:1"), nullptr);    // unknown base
  EXPECT_EQ(make_scheduler("single:70000"), nullptr);  // > uint16 max
}

// Property: no policy ever selects a down path (while any path is up),
// never returns duplicates, and always returns at least one path.
class DownPathProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(DownPathProperty, NeverSelectsDownPath) {
  auto sched = make_scheduler(GetParam());
  ASSERT_NE(sched, nullptr);
  net::PacketPool pool(16, 2048);
  sim::Rng rng(99);
  FakeContext ctx(6);

  for (int trial = 0; trial < 3000; ++trial) {
    // Random up/down pattern with at least one up path.
    bool any_up = false;
    for (std::size_t p = 0; p < 6; ++p) {
      ctx.up_v[p] = rng.bernoulli(0.7);
      ctx.backlog[p] = rng.uniform_u64(100'000);
      ctx.ewma[p] = static_cast<double>(rng.uniform_u64(100'000));
      any_up |= ctx.up_v[p];
    }
    if (!any_up) ctx.up_v[rng.uniform_u64(6)] = true;
    ctx.now_v += rng.uniform_u64(100'000);

    auto pkt = pool.alloc();
    pkt->set_length(64);
    pkt->anno().flow_id = static_cast<std::uint32_t>(rng.uniform_u64(32));
    pkt->anno().flow_hash = net::mix64(pkt->anno().flow_id + 5);
    pkt->anno().traffic_class = rng.bernoulli(0.3)
                                    ? net::TrafficClass::kLatencyCritical
                                    : net::TrafficClass::kBestEffort;
    PathVec out;
    sched->select(*pkt, ctx, rng, out);
    ASSERT_GE(out.size(), 1u);
    std::set<std::uint16_t> distinct(out.begin(), out.end());
    ASSERT_EQ(distinct.size(), out.size()) << "duplicate paths selected";
    for (auto p : out)
      ASSERT_TRUE(ctx.up_v[p]) << GetParam() << " picked down path " << p
                               << " at trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, DownPathProperty,
                         ::testing::Values("single", "rss", "rr", "jsq",
                                           "lla", "flowlet", "red2", "red3",
                                           "adaptive", "redundant:4",
                                           "flowlet:20000", "lla:0.3",
                                           "adaptive:3"));

}  // namespace
}  // namespace mdp::core
