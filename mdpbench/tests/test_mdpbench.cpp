// Tests of the benchmark itself: its statistics, its span tracer, and the
// claim that its self-assembled drivers run exactly the program the
// harness runs (traced or not). Run with `python3 mdpbench/run.py
// --self-test` or `ctest --test-dir .bench_build`.
#include <gtest/gtest.h>

#include <vector>

#include "bench_stats.hpp"
#include "sim_workloads.hpp"
#include "wire_loop.hpp"

namespace mdp::mdpbench {
namespace {

// --- statistics ------------------------------------------------------------------

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4, 1, 3, 2};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0.75), 3.25);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
}

TEST(Percentile, EdgeCases) {
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{7}, 0.99), 7.0);
  const std::vector<double> odd = {5, 1, 9};
  EXPECT_DOUBLE_EQ(percentile(odd, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile(odd, 2.0), 9.0);  // clamped
}

TEST(WindowSeries, MedianAndQuartilesOfWindows) {
  WindowSeries w(8);
  for (double v : {2.0, 1.0, 100.0, 3.0, 2.5}) w.add(v);
  const Quartiles q = w.stats();
  EXPECT_EQ(q.n, 5u);
  EXPECT_DOUBLE_EQ(q.median, 2.5);  // one outlier window does not move it
  EXPECT_DOUBLE_EQ(q.q1, 2.0);
  EXPECT_DOUBLE_EQ(q.q3, 3.0);
}

TEST(WindowSeries, FixedCapacityDropsInsteadOfGrowing) {
  WindowSeries w(2);
  w.add(1);
  w.add(2);
  w.add(3);
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w.dropped(), 1u);
}

TEST(RateWindows, RawRateAndReferenceScaling) {
  RateWindows plain(4, nullptr);
  plain.add(20'000, 40'000'000);  // 20k packets in 40 ms = 0.5 Mpps
  ASSERT_EQ(plain.raw().size(), 1u);
  EXPECT_DOUBLE_EQ(plain.raw().values()[0], 0.5);
  EXPECT_EQ(plain.ref().size(), 0u);  // no probe, no scaled windows

  HostSpeedProbe probe;
  RateWindows scaled(4, &probe);
  scaled.add(20'000, 40'000'000);
  ASSERT_EQ(scaled.ref().size(), 1u);
  const double p = scaled.probe_ns().values()[0];
  EXPECT_GT(p, 0);
  EXPECT_DOUBLE_EQ(scaled.ref().values()[0],
                   0.5 * p / HostSpeedProbe::kNominalNs);
}

// --- spans -------------------------------------------------------------------------

TEST(SpanTracer, SelfTimeSubtractsDirectChildrenOnly) {
  SpanTracer t;
  t.begin(SpanKind::kStep, 1, 0);
  t.begin(SpanKind::kIngress, 2, 10);
  t.begin(SpanKind::kSelect, 2, 20);
  t.end(50);  // select: 30
  t.end(70);  // ingress: 60 inclusive, 30 self
  t.begin(SpanKind::kEgress, 2, 80);
  t.end(90);   // egress: 10
  t.end(100);  // step: 100 inclusive, 100 - 60 - 10 = 30 self
  EXPECT_EQ(t.depth(), 0u);
  EXPECT_EQ(t.agg(SpanKind::kStep).total_ns, 100u);
  EXPECT_EQ(t.agg(SpanKind::kStep).self_ns(), 30u);
  EXPECT_EQ(t.agg(SpanKind::kIngress).total_ns, 60u);
  EXPECT_EQ(t.agg(SpanKind::kIngress).self_ns(), 30u);
  EXPECT_EQ(t.agg(SpanKind::kSelect).self_ns(), 30u);
  EXPECT_EQ(t.agg(SpanKind::kEgress).self_ns(), 10u);
  // Self times of every layer add up to the root's inclusive time.
  std::uint64_t sum = 0;
  for (auto k : {SpanKind::kStep, SpanKind::kIngress, SpanKind::kSelect,
                 SpanKind::kEgress})
    sum += t.agg(k).self_ns();
  EXPECT_EQ(sum, 100u);
}

TEST(SpanTracer, RawSampleKeepsParentsAndIsBounded) {
  SpanTracer t(3);
  t.begin(SpanKind::kTick, 1, 0);  // before arming: aggregated only
  t.end(1);
  t.arm_raw();
  t.begin(SpanKind::kStep, 7, 0);
  t.begin(SpanKind::kIngress, 8, 1);
  t.end(2);
  t.begin(SpanKind::kEgress, 9, 3);
  t.end(4);
  t.end(5);
  t.begin(SpanKind::kStep, 10, 6);  // past the raw capacity
  t.end(7);
  ASSERT_EQ(t.raw().size(), 3u);
  EXPECT_EQ(t.raw()[0].parent, -1);
  EXPECT_EQ(t.raw()[1].parent, 0);
  EXPECT_EQ(t.raw()[2].parent, 0);
  EXPECT_EQ(t.raw()[2].id, 9u);
  EXPECT_EQ(t.raw()[0].end_ns, 5u);
  EXPECT_EQ(t.agg(SpanKind::kStep).calls, 2u);  // aggregates see every call
  EXPECT_EQ(t.agg(SpanKind::kTick).calls, 1u);
}

TEST(SpanTracer, UnbalancedEndIsIgnored) {
  SpanTracer t;
  t.end(5);
  EXPECT_EQ(t.depth(), 0u);
  EXPECT_EQ(t.agg(SpanKind::kStep).calls, 0u);
}

// --- equivalence with the harness ------------------------------------------------

class Equivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Equivalence, SimPacketMatchesRunScenarioTracedOrNot) {
  EXPECT_EQ(check_equivalence_packet(sim_packet_config(GetParam(), 20'000,
                                                       2'000)),
            "");
}

TEST_P(Equivalence, SimFlowsMatchesRunRpcScenarioTracedOrNot) {
  EXPECT_EQ(check_equivalence_flows(sim_flows_config(GetParam()), 400), "");
}

INSTANTIATE_TEST_SUITE_P(TwoSeeds, Equivalence, ::testing::Values(3, 11));

// --- determinism and correctness books ---------------------------------------------

TEST(SimPacket, SameSeedSameCountsOtherSeedOtherCounts) {
  SimOptions opt;
  opt.warmup_packets = 1'000;
  const auto cfg = sim_packet_config(5, 10'000, 1'000);
  const SimRun a = run_sim_packet(cfg, opt);
  const SimRun b = run_sim_packet(cfg, opt);
  EXPECT_EQ(a.counts.digest(), b.counts.digest());
  const SimRun other = run_sim_packet(sim_packet_config(6, 10'000, 1'000), opt);
  EXPECT_NE(a.counts.digest(), other.counts.digest());
  // Exactly-once books and pool accounting at quiesce.
  EXPECT_EQ(a.counts.offered, 10'000u);
  EXPECT_EQ(a.counts.exactly_once, a.counts.offered);
  EXPECT_EQ(a.counts.duplicates + a.counts.missing + a.counts.unknown, 0u);
  EXPECT_EQ(a.counts.pool_in_use_end, 0u);
  EXPECT_EQ(a.counts.pool_allocs, a.counts.pool_recycles);
  EXPECT_GT(a.counts.ctrl_ticks, 0u);
}

TEST(SimFlows, EveryFlowCompletesExactlyOnce) {
  SimOptions opt;
  const SimRun r = run_sim_flows(sim_flows_config(9), 300, opt);
  EXPECT_EQ(r.counts.flows_started, 300u);
  EXPECT_EQ(r.counts.flows_completed, 300u);
  EXPECT_EQ(r.counts.exactly_once, r.counts.offered);
  EXPECT_EQ(r.counts.duplicates + r.counts.missing + r.counts.unknown, 0u);
  EXPECT_GT(r.counts.flows_replicated, 0u);
}

TEST(LayerPass, ReplaysCapturedPacketsThroughAFreshChain) {
  PacketCapture cap(2'000, 1u << 20);
  SimOptions opt;
  opt.capture = &cap;
  opt.warmup_packets = 500;
  run_sim_packet(sim_packet_config(2, 3'000, 500), opt);
  ASSERT_EQ(cap.size(), 2'000u);
  SpanTracer t;
  const LayerPass lp = run_layer_pass(cap, "fw-nat-lb", 1, t);
  EXPECT_EQ(lp.packets, 2'000u);
  EXPECT_EQ(lp.survivors, 2'000u);
  EXPECT_GT(lp.chain_ns_per_pkt, 0);
  EXPECT_GT(lp.parse_ns_per_pkt, 0);
}

TEST(SeqBooks, FrameHeldPastMillionsOfOthersStillCountsOnce) {
  SeqBooks books;
  WireRun r;
  const std::uint64_t n = 3 * SeqBooks::kChunkBits / 2;  // spans two chunks
  books.sent(n);
  for (std::uint64_t s = 1; s < n; ++s) books.returned(s, r);
  EXPECT_EQ(books.outstanding(), 1u);
  books.returned(0, r);  // the frame a stalled worker held all along
  EXPECT_EQ(r.returned_once, n);
  EXPECT_EQ(books.lost(), 0u);
  books.returned(7, r);                      // first chunk: freed, all back
  books.returned(SeqBooks::kChunkBits + 7, r);  // second chunk: still held
  books.returned(n, r);                      // never sent
  EXPECT_EQ(r.duplicates, 2u);
  EXPECT_EQ(r.unknown, 1u);
}

TEST(WireLoop, EveryFrameReturnsExactlyOnce) {
  WireOptions opt;
  opt.seconds = 0.2;
  RateWindows w(64, nullptr);
  opt.windows = &w;
  const WireRun r = run_wire_loop(opt);
  EXPECT_GT(r.sent, 0u);
  EXPECT_EQ(r.returned_once, r.sent);
  EXPECT_EQ(r.duplicates + r.unknown + r.lost + r.rejected, 0u);
  EXPECT_EQ(r.pool_in_use_end, 0u);
  EXPECT_EQ(r.pool_allocs, r.pool_recycles);
  EXPECT_GT(w.raw().size(), 0u);
}

}  // namespace
}  // namespace mdp::mdpbench
