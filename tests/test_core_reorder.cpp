// ReorderBuffer tests: in-order passthrough, hole buffering, timeout skip,
// late delivery after skip, flush order, flow retirement, detection-only
// mode, and the random-permutation in-order-egress property.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/reorder.hpp"
#include "sim/rng.hpp"

namespace mdp::core {
namespace {

struct ReorderFixture : ::testing::Test {
  sim::EventQueue eq;
  net::PacketPool pool{512, 256};
  std::vector<std::pair<std::uint32_t, std::uint64_t>> egressed;

  std::unique_ptr<ReorderBuffer> make(bool enabled = true,
                                      sim::TimeNs timeout = 10'000) {
    ReorderConfig cfg;
    cfg.enabled = enabled;
    cfg.timeout_ns = timeout;
    return std::make_unique<ReorderBuffer>(
        eq, cfg, [this](net::PacketPtr p) {
          egressed.emplace_back(p->anno().flow_id, p->anno().seq);
        });
  }

  net::PacketPtr pkt(std::uint32_t flow, std::uint64_t seq) {
    auto p = pool.alloc();
    p->set_length(64);
    p->anno().flow_id = flow;
    p->anno().seq = seq;
    return p;
  }
};

TEST_F(ReorderFixture, InOrderPassesThroughImmediately) {
  auto rb = make();
  for (std::uint64_t s = 0; s < 5; ++s) rb->submit(pkt(1, s));
  ASSERT_EQ(egressed.size(), 5u);
  for (std::uint64_t s = 0; s < 5; ++s) EXPECT_EQ(egressed[s].second, s);
  EXPECT_EQ(rb->in_order(), 5u);
  EXPECT_EQ(rb->out_of_order(), 0u);
}

TEST_F(ReorderFixture, EarlyPacketWaitsForPredecessor) {
  auto rb = make();
  rb->submit(pkt(1, 1));  // hole: seq 0 missing
  EXPECT_TRUE(egressed.empty());
  EXPECT_EQ(rb->buffered(), 1u);
  rb->submit(pkt(1, 0));
  ASSERT_EQ(egressed.size(), 2u);
  EXPECT_EQ(egressed[0].second, 0u);
  EXPECT_EQ(egressed[1].second, 1u);
  EXPECT_EQ(rb->buffered(), 0u);
}

TEST_F(ReorderFixture, TimeoutSkipsHole) {
  auto rb = make(true, 10'000);
  rb->submit(pkt(1, 1));
  rb->submit(pkt(1, 2));
  EXPECT_TRUE(egressed.empty());
  eq.run_until(20'000);
  ASSERT_EQ(egressed.size(), 2u) << "timeout must release past the hole";
  EXPECT_EQ(egressed[0].second, 1u);
  EXPECT_EQ(egressed[1].second, 2u);
  EXPECT_GE(rb->timeout_releases(), 1u);
}

TEST_F(ReorderFixture, LatePacketAfterSkipStillDelivered) {
  auto rb = make(true, 10'000);
  rb->submit(pkt(1, 1));
  eq.run_until(20'000);  // skip past seq 0
  ASSERT_EQ(egressed.size(), 1u);
  rb->submit(pkt(1, 0));  // the missing packet finally arrives
  ASSERT_EQ(egressed.size(), 2u);
  EXPECT_EQ(egressed[1].second, 0u);
  EXPECT_EQ(rb->late_after_skip(), 1u);
}

TEST_F(ReorderFixture, FlowsAreIndependent) {
  auto rb = make();
  rb->submit(pkt(1, 0));
  rb->submit(pkt(2, 1));  // flow 2 has a hole; flow 1 must be unaffected
  rb->submit(pkt(1, 1));
  ASSERT_EQ(egressed.size(), 2u);
  EXPECT_EQ(egressed[0].first, 1u);
  EXPECT_EQ(egressed[1].first, 1u);
}

TEST_F(ReorderFixture, FlushAllReleasesFlowsInAscendingId) {
  auto rb = make();
  // Touch flows in an order unrelated to their ids, each left with a hole.
  for (std::uint32_t flow : {907u, 3u, 64u, 12u, 500u}) {
    rb->submit(pkt(flow, 0));
    rb->submit(pkt(flow, 2));
    rb->submit(pkt(flow, 3));
  }
  egressed.clear();
  EXPECT_EQ(rb->flush_all(), 10u);
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> want = {
      {3, 2},  {3, 3},  {12, 2},  {12, 3},  {64, 2},
      {64, 3}, {500, 2}, {500, 3}, {907, 2}, {907, 3}};
  EXPECT_EQ(egressed, want);
}

TEST_F(ReorderFixture, RetireFlowForgetsOnlyIdleWindows) {
  auto rb = make();
  rb->submit(pkt(1, 1));  // arms flow 1's timer...
  rb->submit(pkt(1, 0));  // ...then fills the hole: idle, timer still armed
  rb->submit(pkt(2, 1));  // flow 2 holds a packet behind a hole
  EXPECT_EQ(rb->tracked_flows(), 2u);
  EXPECT_TRUE(rb->retire_flow(1));
  EXPECT_FALSE(rb->retire_flow(2));  // pending: kept for its timeout
  EXPECT_FALSE(rb->retire_flow(9));  // never seen
  EXPECT_EQ(rb->tracked_flows(), 1u);
  eq.run();  // flow 1's stale timer is a no-op; flow 2's releases seq 1
  ASSERT_EQ(egressed.size(), 3u);
  EXPECT_EQ(egressed[2], (std::pair<std::uint32_t, std::uint64_t>{2, 1}));
  EXPECT_EQ(rb->tracked_flows(), 1u);
  EXPECT_TRUE(rb->retire_flow(2));
  EXPECT_EQ(rb->tracked_flows(), 0u);
  EXPECT_EQ(rb->buffered(), 0u);
}

// The plane ends a flow from inside the egress callback of its last
// packet, i.e. while the buffer is still releasing that flow: by an
// in-order arrival, by the hole timeout, or by flush_all.
TEST_F(ReorderFixture, RetireFlowFromInsideItsOwnRelease) {
  for (const char* how : {"in_order", "timeout", "flush_all"}) {
    const std::string mode = how;
    ReorderBuffer* self = nullptr;
    std::vector<std::uint64_t> out;
    ReorderConfig cfg;
    cfg.timeout_ns = 10'000;
    ReorderBuffer rb(eq, cfg, [&](net::PacketPtr p) {
      out.push_back(p->anno().seq);
      if (p->anno().seq == 3) {
        EXPECT_TRUE(self->retire_flow(4)) << mode;
      }
    });
    self = &rb;
    rb.submit(pkt(4, 2));
    rb.submit(pkt(4, 3));
    if (mode == "in_order") {
      rb.submit(pkt(4, 0));
      rb.submit(pkt(4, 1));  // releases 1, then drains 2 and 3
    } else if (mode == "flush_all") {
      EXPECT_EQ(rb.flush_all(), 2u);
    }
    eq.run();  // the timeout releases 2 and drains 3
    EXPECT_EQ(out.size(), mode == "in_order" ? 4u : 2u) << mode;
    EXPECT_EQ(out.back(), 3u) << mode;
    EXPECT_EQ(rb.tracked_flows(), 0u) << mode;
    EXPECT_EQ(rb.buffered(), 0u) << mode;
  }
}

TEST_F(ReorderFixture, DisabledModeDetectsButPassesThrough) {
  auto rb = make(/*enabled=*/false);
  rb->submit(pkt(1, 2));
  rb->submit(pkt(1, 0));  // out of order but must egress immediately
  ASSERT_EQ(egressed.size(), 2u);
  EXPECT_EQ(egressed[0].second, 2u);
  EXPECT_EQ(rb->out_of_order(), 2u)
      << "seq 2 (gap) and seq 0 (below window) both count";
  EXPECT_EQ(rb->buffered(), 0u);
}

TEST_F(ReorderFixture, DwellRecordedForBufferedPackets) {
  auto rb = make(true, 100'000);
  rb->submit(pkt(1, 1));
  eq.run_until(5'000);
  rb->submit(pkt(1, 0));
  ASSERT_EQ(egressed.size(), 2u);
  EXPECT_EQ(rb->dwell().count(), 2u);
  EXPECT_GE(rb->dwell().max(), 5'000u) << "seq 1 dwelled ~5us";
}

TEST_F(ReorderFixture, OooFractionComputed) {
  auto rb = make();
  rb->submit(pkt(1, 0));  // in order
  rb->submit(pkt(1, 2));  // gap: out of order
  rb->submit(pkt(1, 1));  // fills the hole: arrives in (buffer) order
  EXPECT_NEAR(rb->ooo_fraction(), 1.0 / 3.0, 1e-9);
}

TEST_F(ReorderFixture, NoPacketLeaksThroughLifecycle) {
  auto rb = make(true, 1'000);
  sim::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    std::uint32_t flow = static_cast<std::uint32_t>(rng.uniform_u64(4));
    static std::uint64_t next_seq[4] = {0, 0, 0, 0};
    // Randomly drop (skip) some seqs to create permanent holes.
    if (rng.bernoulli(0.1)) next_seq[flow]++;
    rb->submit(pkt(flow, next_seq[flow]++));
    eq.run_until(eq.now() + rng.uniform_u64(500));
  }
  eq.run_until(eq.now() + 100'000);  // drain all timers
  EXPECT_EQ(rb->buffered(), 0u);
  EXPECT_EQ(pool.in_use(), 0u) << "every packet must have been released";
}

// Property: any permutation of a window of packets, submitted with a
// generous timeout, egresses fully and in order.
class ReorderPermutationProperty : public ::testing::TestWithParam<int> {};

TEST_P(ReorderPermutationProperty, PermutedWindowEgressesInOrder) {
  sim::EventQueue eq;
  net::PacketPool pool(256, 256);
  std::vector<std::uint64_t> egressed;
  ReorderConfig cfg;
  cfg.enabled = true;
  cfg.timeout_ns = 1'000'000'000;  // effectively infinite
  ReorderBuffer rb(eq, cfg, [&](net::PacketPtr p) {
    egressed.push_back(p->anno().seq);
  });

  sim::Rng rng(GetParam());
  constexpr std::uint64_t kWindow = 64;
  std::vector<std::uint64_t> seqs(kWindow);
  for (std::uint64_t i = 0; i < kWindow; ++i) seqs[i] = i;
  // Fisher-Yates with our deterministic RNG.
  for (std::size_t i = kWindow - 1; i > 0; --i)
    std::swap(seqs[i], seqs[rng.uniform_u64(i + 1)]);

  for (std::uint64_t s : seqs) {
    auto p = pool.alloc();
    p->set_length(10);
    p->anno().flow_id = 1;
    p->anno().seq = s;
    rb.submit(std::move(p));
  }
  ASSERT_EQ(egressed.size(), kWindow);
  for (std::uint64_t i = 0; i < kWindow; ++i)
    ASSERT_EQ(egressed[i], i) << "out of order at position " << i;
  EXPECT_EQ(pool.in_use(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReorderPermutationProperty,
                         ::testing::Range(1, 9));


TEST_F(ReorderFixture, SubmitBatchSkipsNullsAndResequences) {
  // A dedup-compacted burst: some slots null, survivors out of order.
  // submit_batch must behave exactly like a per-packet submit loop —
  // nulls skipped, holes buffered, drains on arrival of predecessors.
  auto rb = make();
  std::vector<net::PacketPtr> burst;
  burst.push_back(pkt(1, 2));       // early: buffered
  burst.push_back(net::PacketPtr{});  // dedup-dropped slot
  burst.push_back(pkt(1, 0));       // in order: released
  burst.push_back(pkt(1, 1));       // fills the hole: 1 then 2 drain
  burst.push_back(net::PacketPtr{});
  rb->submit_batch(burst);
  ASSERT_EQ(egressed.size(), 3u);
  for (std::uint64_t s = 0; s < 3; ++s) EXPECT_EQ(egressed[s].second, s);
  EXPECT_EQ(rb->buffered(), 0u);
  EXPECT_EQ(rb->out_of_order(), 1u);
}

}  // namespace
}  // namespace mdp::core
