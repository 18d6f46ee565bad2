// MdpDataPlane integration tests: exactly-once end-to-end delivery across
// every policy, functional chain effects (NAT/firewall really applied),
// redundancy accounting, hedging, failover, pool balance, determinism.
#include <gtest/gtest.h>

#include <map>

#include "core/dataplane.hpp"
#include "net/packet_builder.hpp"
#include "nf/load_balancer.hpp"
#include "nf/nat.hpp"
#include "sim/interference.hpp"
#include "workload/flow_size.hpp"
#include "workload/rpc_workload.hpp"

namespace mdp::core {
namespace {

struct DpFixture {
  sim::EventQueue eq;
  net::PacketPool pool{2048, 2048};
  std::unique_ptr<MdpDataPlane> dp;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> egressed;
  stats::LatencyHistogram latency;

  ~DpFixture() {
    // Pending closures may own packets; destroy them before the pool.
    eq.clear();
  }

  explicit DpFixture(const std::string& policy, std::size_t paths = 4,
                     DataPlaneConfig cfg = {}) {
    cfg.num_paths = paths;
    cfg.dedup_sweep_interval_ns = 0;  // keep the event queue drainable
    dp = std::make_unique<MdpDataPlane>(eq, pool, cfg,
                                        make_scheduler(policy));
    dp->set_egress([this](net::PacketPtr p) {
      egressed.emplace_back(p->anno().flow_id, p->anno().seq);
      latency.record(p->anno().egress_ns - p->anno().ingress_ns);
    });
  }

  void send(std::uint32_t flow_id, sim::TimeNs at,
            net::TrafficClass tc = net::TrafficClass::kBestEffort,
            std::uint32_t src_ip = 0x0a010101) {
    eq.schedule_at(at, [this, flow_id, tc, src_ip] {
      net::BuildSpec spec;
      spec.flow = {src_ip, 0x0a006401,
                   static_cast<std::uint16_t>(1024 + flow_id), 80, 0};
      auto pkt = net::build_udp(pool, spec);
      ASSERT_TRUE(pkt);
      pkt->anno().flow_id = flow_id;
      pkt->anno().flow_hash = net::hash_flow(spec.flow);
      pkt->anno().traffic_class = tc;
      dp->ingress(std::move(pkt));
    });
  }
};

class PolicyEndToEnd : public ::testing::TestWithParam<std::string> {};

TEST_P(PolicyEndToEnd, ExactlyOnceInOrderDelivery) {
  DpFixture f(GetParam());
  constexpr int kFlows = 8;
  constexpr int kPerFlow = 100;
  sim::TimeNs t = 0;
  for (int i = 0; i < kPerFlow; ++i)
    for (std::uint32_t fl = 0; fl < kFlows; ++fl)
      f.send(fl, t += 700,
             fl == 0 ? net::TrafficClass::kLatencyCritical
                     : net::TrafficClass::kBestEffort);
  f.eq.run();

  EXPECT_EQ(f.egressed.size(),
            static_cast<std::size_t>(kFlows * kPerFlow))
      << GetParam() << ": every ingress packet must egress exactly once";

  // Exactly-once and per-flow in-order.
  std::map<std::uint32_t, std::uint64_t> next;
  for (auto [flow, seq] : f.egressed) {
    EXPECT_EQ(seq, next[flow]) << GetParam() << " flow " << flow;
    next[flow] = seq + 1;
  }
  EXPECT_EQ(f.pool.in_use(), 0u) << "no packet leaks";
  EXPECT_GT(f.latency.count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyEndToEnd,
                         ::testing::Values("single", "rss", "rr", "jsq",
                                           "lla", "flowlet", "red2", "red3",
                                           "adaptive"));

TEST(DataPlane, FunctionalChainAppliesNatRewrite) {
  sim::EventQueue eq;
  net::PacketPool pool(256, 2048);
  DataPlaneConfig cfg;
  cfg.num_paths = 2;
  cfg.chain = "fw-nat";
  cfg.dedup_sweep_interval_ns = 0;
  MdpDataPlane dp(eq, pool, cfg, make_scheduler("jsq"));
  std::uint32_t seen_src = 0;
  dp.set_egress([&](net::PacketPtr p) {
    auto parsed = net::parse(*p);
    ASSERT_TRUE(parsed);
    seen_src = parsed->flow.src_ip;
  });
  net::BuildSpec spec;
  spec.flow = {0x0a010101, 0x0a006401, 7777, 80, 0};
  auto pkt = net::build_udp(pool, spec);
  pkt->anno().flow_id = 1;
  dp.ingress(std::move(pkt));
  eq.run();
  EXPECT_EQ(seen_src, 0x0a0a0a0au) << "NAT must rewrite at the real chain";
}

TEST(DataPlane, FirewallFiltersDarkTraffic) {
  sim::EventQueue eq;
  net::PacketPool pool(256, 2048);
  DataPlaneConfig cfg;
  cfg.num_paths = 2;
  cfg.chain = "fw";
  cfg.dedup_sweep_interval_ns = 0;
  MdpDataPlane dp(eq, pool, cfg, make_scheduler("jsq"));
  std::uint64_t egressed = 0;
  dp.set_egress([&](net::PacketPtr) { ++egressed; });

  auto send = [&](std::uint32_t src) {
    net::BuildSpec spec;
    spec.flow = {src, 0x0a006401, 1000, 80, 0};
    auto pkt = net::build_udp(pool, spec);
    pkt->anno().flow_id = src;
    dp.ingress(std::move(pkt));
  };
  send(0x7f000001);  // 127.0.0.1 -> denied by preset rules
  send(0x0a010101);  // allowed
  eq.run();
  EXPECT_EQ(egressed, 1u);
  EXPECT_EQ(dp.counters().get("chain_filtered"), 1u);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(DataPlane, RedundantPolicyDropsDuplicatesAtMerge) {
  DpFixture f("red2");
  for (int i = 0; i < 50; ++i) f.send(1, 1000 * (i + 1));
  f.eq.run();
  EXPECT_EQ(f.egressed.size(), 50u);
  const auto& c = f.dp->counters();
  EXPECT_EQ(c.get("replicas"), 50u) << "one extra copy per packet";
  // Each packet's second copy is either deduped or filtered; with the
  // default allow-all flow nothing is filtered, so 50 dup drops.
  EXPECT_EQ(c.get("dup_dropped"), 50u);
  EXPECT_EQ(f.dp->dedup().pending(), 0u);
}

TEST(DataPlane, HedgeFiresWhenPathStalls) {
  sim::EventQueue eq;
  net::PacketPool pool(512, 2048);
  DataPlaneConfig cfg;
  cfg.num_paths = 2;
  cfg.dedup_sweep_interval_ns = 0;
  AdaptiveMdpConfig acfg;
  acfg.hedge_timeout_ns = 5'000;  // fixed, aggressive
  MdpDataPlane dp(eq, pool, cfg,
                  std::make_unique<AdaptiveMdpScheduler>(acfg));
  std::uint64_t egressed = 0;
  dp.set_egress([&](net::PacketPtr) { ++egressed; });

  // Stall path 0 with a long high-priority theft job, then inject a BE
  // packet that JSQ-flowlet will route to... path 0 or 1; stall both is
  // overkill — stall the one the packet lands on by stalling both briefly
  // except path 1 recovers fast.
  dp.core(0).submit(2'000'000, [](sim::TimeNs) {}, true, /*visible=*/false);

  net::BuildSpec spec;
  spec.flow = {0x0a010101, 0x0a006401, 1024, 80, 0};
  auto pkt = net::build_udp(pool, spec);
  pkt->anno().flow_id = 1;
  eq.schedule_at(100, [&, p = std::move(pkt)]() mutable {
    // Force dispatch onto the stalled path by stalling path 1 less: JSQ
    // picks path 1 normally, so instead mark path 1 down.
    dp.set_path_up(1, false);
    dp.ingress(std::move(p));
    dp.set_path_up(1, true);
  });
  eq.run();
  EXPECT_EQ(egressed, 1u);
  EXPECT_EQ(dp.counters().get("hedges"), 1u)
      << "hedge must fire for the stalled path";
  // The hedge copy (path 1) completes long before the stalled original.
  EXPECT_GE(dp.monitor().completed(1), 1u);
}

TEST(DataPlane, LcPriorityJumpsQueueUnderCongestion) {
  auto run = [](bool prio) {
    DataPlaneConfig cfg;
    cfg.lc_priority = prio;
    DpFixture f("single", 1, cfg);
    stats::LatencyHistogram lc, be;
    f.dp->set_egress([&](net::PacketPtr p) {
      auto& h = p->anno().traffic_class ==
                        net::TrafficClass::kLatencyCritical
                    ? lc
                    : be;
      h.record(p->anno().egress_ns - p->anno().ingress_ns);
    });
    // Overload one path briefly so a queue forms; 1 LC packet per 10 BE.
    // LC traffic lives on its own flows (as in TrafficGen) — otherwise
    // in-order delivery makes priority wait for queued same-flow BE seqs.
    sim::TimeNs t = 0;
    for (int i = 0; i < 2000; ++i) {
      bool lc = i % 10 == 0;
      f.send(lc ? 100 + (i / 10) % 4 : i % 16, t += 500,
             lc ? net::TrafficClass::kLatencyCritical
                : net::TrafficClass::kBestEffort);
    }
    f.eq.run();
    return std::make_pair(lc.p99(), be.p99());
  };
  auto [lc_off, be_off] = run(false);
  auto [lc_on, be_on] = run(true);
  EXPECT_LT(lc_on, lc_off / 4)
      << "priority must collapse LC queueing delay";
  EXPECT_LT(lc_on, be_on) << "LC must beat BE when prioritized";
  (void)be_off;
}

TEST(DataPlane, PathDownFailsOverEverything) {
  DpFixture f("jsq");
  f.dp->set_path_up(0, false);
  f.dp->set_path_up(2, false);
  for (int i = 0; i < 40; ++i) f.send(i % 4, 500 * (i + 1));
  f.eq.run();
  EXPECT_EQ(f.egressed.size(), 40u);
  EXPECT_EQ(f.dp->monitor().dispatched(0), 0u);
  EXPECT_EQ(f.dp->monitor().dispatched(2), 0u);
  EXPECT_GT(f.dp->monitor().dispatched(1), 0u);
  EXPECT_GT(f.dp->monitor().dispatched(3), 0u);
}

TEST(DataPlane, InterferenceInflatesSinglePathTail) {
  auto run = [](bool noisy) {
    DpFixture f("single", 1);
    std::unique_ptr<sim::InterferenceModel> noise;
    if (noisy) {
      sim::InterferenceConfig icfg;
      icfg.duty_cycle = 0.3;
      icfg.mean_burst_ns = 200'000;
      noise = std::make_unique<sim::InterferenceModel>(f.eq, f.dp->core(0),
                                                       icfg, 99);
      noise->start();
    }
    sim::TimeNs t = 0;
    for (int i = 0; i < 3000; ++i) f.send(i % 16, t += 4000);
    f.eq.run_until(t + 50 * sim::kMillisecond);
    return f.latency.p999();
  };
  auto quiet = run(false);
  auto noisy = run(true);
  EXPECT_GT(noisy, quiet * 5)
      << "interference must inflate the single-path p99.9 dramatically";
}

TEST(DataPlane, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    DataPlaneConfig cfg;
    cfg.seed = seed;
    DpFixture f("adaptive", 4, cfg);
    sim::TimeNs t = 0;
    for (int i = 0; i < 500; ++i)
      f.send(i % 8, t += 900,
             i % 5 == 0 ? net::TrafficClass::kLatencyCritical
                        : net::TrafficClass::kBestEffort);
    f.eq.run();
    return std::make_pair(f.egressed, f.latency.p999());
  };
  auto a = run(7);
  auto b = run(7);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// Property: even with paths flapping up/down randomly mid-run and an
// aggressive hedging policy, delivery stays exactly-once and in order and
// no packet leaks. (Down paths still *drain* — down only stops new
// dispatches — so nothing strands.)
class FailureFlappingFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FailureFlappingFuzz, ExactlyOnceUnderPathFlapping) {
  sim::EventQueue eq;
  net::PacketPool pool(4096, 2048);
  DataPlaneConfig cfg;
  cfg.num_paths = 4;
  cfg.dedup_sweep_interval_ns = 0;
  cfg.seed = GetParam();
  // Strict order is only guaranteed while the resequencer never times out;
  // give it a budget beyond any stall this run can produce. (With the
  // default 200us timeout, stacked theft bursts legitimately force
  // late-after-skip deliveries — that path is covered in reorder tests.)
  cfg.reorder.timeout_ns = 1 * sim::kSecond;
  AdaptiveMdpConfig acfg;
  acfg.hedge_timeout_ns = 10'000;  // hedge aggressively
  MdpDataPlane dp(eq, pool, cfg,
                  std::make_unique<AdaptiveMdpScheduler>(acfg));

  std::map<std::uint32_t, std::uint64_t> next_seq;
  std::uint64_t egressed = 0;
  bool order_ok = true;
  dp.set_egress([&](net::PacketPtr p) {
    ++egressed;
    if (p->anno().seq != next_seq[p->anno().flow_id]) order_ok = false;
    next_seq[p->anno().flow_id] = p->anno().seq + 1;
  });

  sim::Rng rng(GetParam() * 77 + 5);
  // Random path flapping, always leaving at least path 0 up.
  for (int i = 0; i < 200; ++i) {
    eq.schedule_at(rng.uniform_u64(3'000'000), [&dp, &rng] {
      std::size_t p = 1 + rng.uniform_u64(3);
      dp.set_path_up(p, rng.bernoulli(0.5));
    });
  }
  // Random theft stalls.
  for (int i = 0; i < 30; ++i) {
    eq.schedule_at(rng.uniform_u64(3'000'000), [&dp, &rng] {
      dp.core(rng.uniform_u64(4))
          .submit(10'000 + rng.uniform_u64(100'000), [](sim::TimeNs) {},
                  true, false);
    });
  }

  constexpr int kPackets = 3000;
  for (int i = 0; i < kPackets; ++i) {
    eq.schedule_at(1 + i * 900, [&dp, &pool, i] {
      net::BuildSpec spec;
      spec.flow = {0x0a010101, 0x0a006401,
                   static_cast<std::uint16_t>(1024 + i % 12), 80, 0};
      auto pkt = net::build_udp(pool, spec);
      pkt->anno().flow_id = i % 12;
      pkt->anno().traffic_class = i % 7 == 0
                                      ? net::TrafficClass::kLatencyCritical
                                      : net::TrafficClass::kBestEffort;
      dp.ingress(std::move(pkt));
    });
  }
  eq.run();

  EXPECT_EQ(egressed, static_cast<std::uint64_t>(kPackets))
      << "every packet exactly once despite flapping + hedging";
  EXPECT_TRUE(order_ok) << "per-flow order preserved";
  EXPECT_EQ(pool.in_use(), 0u) << "no leaks";
  EXPECT_EQ(dp.dedup().pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailureFlappingFuzz,
                         ::testing::Range(1, 7));

// Deferred hedges. Two paths and the adaptive policy with a fixed 5 µs
// hedge budget. With the cost-model-only chain (cost_model_only()) egress
// bytes are ingress bytes. Two warm-up packets give flow 7 sequence
// numbers 0 and 1; then send_hedged() ingresses seq 2 onto path 0 with
// path 1 down, so its hedge, if it fires, goes to path 1.
struct HedgeRig {
  struct Seen {
    std::uint32_t flow_id;
    std::uint64_t seq;
    std::uint64_t ingress_ns;
    std::uint16_t path_id;
    std::uint8_t copy_index;
    bool is_replica;
    bool hedged;
    std::vector<std::byte> bytes;
  };

  static constexpr sim::TimeNs kSendAt = 50'000;

  static DataPlaneConfig cost_model_only() {
    DataPlaneConfig cfg;
    cfg.functional_chain = false;
    return cfg;
  }

  sim::EventQueue eq;
  net::PacketPool pool{64, 2048};
  std::unique_ptr<MdpDataPlane> dp;
  std::vector<Seen> egressed;

  explicit HedgeRig(DataPlaneConfig cfg) {
    cfg.num_paths = 2;
    cfg.dedup_sweep_interval_ns = 0;
    AdaptiveMdpConfig acfg;
    acfg.hedge_timeout_ns = 5'000;
    dp = std::make_unique<MdpDataPlane>(
        eq, pool, cfg, std::make_unique<AdaptiveMdpScheduler>(acfg));
    dp->set_egress([this](net::PacketPtr p) {
      const auto& a = p->anno();
      egressed.push_back({a.flow_id, a.seq, a.ingress_ns, a.path_id,
                          a.copy_index, a.is_replica, a.hedged,
                          {p->data(), p->data() + p->length()}});
    });
    for (sim::TimeNs at : {10, 20})
      eq.schedule_at(at, [this] { dp->ingress(make(0x0a010101)); });
  }
  ~HedgeRig() { eq.clear(); }

  net::PacketPtr make(std::uint32_t src_ip) {
    net::BuildSpec spec;
    spec.flow = {src_ip, 0x0a006401, 1024, 80, 0};
    auto pkt = net::build_udp(pool, spec);
    EXPECT_TRUE(pkt);
    pkt->anno().flow_id = 7;
    return pkt;
  }

  /// Ingress seq 2 at kSendAt, first putting `stall_jobs` invisible
  /// 2 ms theft jobs on path 0 (one in service, the rest queued).
  /// Returns the packet's ingress bytes.
  std::vector<std::byte> send_hedged(std::uint32_t src_ip, int stall_jobs) {
    net::PacketPtr pkt = make(src_ip);
    std::vector<std::byte> bytes(pkt->data(), pkt->data() + pkt->length());
    eq.schedule_at(kSendAt, [this, stall_jobs, p = std::move(pkt)]() mutable {
      for (int i = 0; i < stall_jobs; ++i)
        dp->core(0).submit(2'000'000, [](sim::TimeNs) {}, true, false);
      dp->set_path_up(1, false);
      dp->ingress(std::move(p));
      dp->set_path_up(1, true);
    });
    return bytes;
  }

  const Seen* find_seq(std::uint64_t seq) const {
    for (const Seen& s : egressed)
      if (s.seq == seq) return &s;
    return nullptr;
  }

  void expect_pool_balanced() const {
    EXPECT_EQ(dp->parked_hedges(), 0u);
    EXPECT_EQ(dp->dedup().pending(), 0u);
    EXPECT_EQ(pool.in_use(), 0u);
    EXPECT_EQ(pool.total_allocs(), pool.total_recycles());
  }
};

TEST(DataPlane, HedgeClonedAtFireCarriesOriginalIngressState) {
  HedgeRig rig(HedgeRig::cost_model_only());
  const std::vector<std::byte> bytes = rig.send_hedged(0x0a010101, 1);
  // The hedge fires while the original still waits behind the theft.
  rig.eq.run_until(HedgeRig::kSendAt + 5'000);
  EXPECT_EQ(rig.dp->parked_hedges(), 0u);
  EXPECT_EQ(rig.dp->counters().get("hedges"), 1u);
  EXPECT_EQ(rig.dp->core(0).queue_depth(), 1u) << "original still queued";
  rig.eq.run();

  ASSERT_EQ(rig.egressed.size(), 3u);
  const HedgeRig::Seen* h = rig.find_seq(2);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->flow_id, 7u);
  EXPECT_EQ(h->ingress_ns, HedgeRig::kSendAt);
  EXPECT_EQ(h->path_id, 1u);
  EXPECT_TRUE(h->hedged);
  EXPECT_TRUE(h->is_replica);
  EXPECT_EQ(h->copy_index, 1u);
  EXPECT_EQ(h->bytes, bytes);
  EXPECT_EQ(rig.dp->counters().get("dup_dropped"), 1u)
      << "the original completes after the theft and is dropped at merge";
  rig.expect_pool_balanced();
}

TEST(DataPlane, TailDroppedOriginalIsRescuedByItsParkedHedge) {
  DataPlaneConfig cfg = HedgeRig::cost_model_only();
  cfg.path_queue_capacity = 1;
  HedgeRig rig(cfg);
  // One theft job in service and one queued: path 0's queue is full.
  const std::vector<std::byte> bytes = rig.send_hedged(0x0a010101, 2);
  rig.eq.run();

  const auto c = rig.dp->counters();
  EXPECT_EQ(c.get("queue_drops"), 1u);
  EXPECT_EQ(c.get("hedges"), 1u);
  EXPECT_EQ(c.get("dup_dropped"), 0u);
  EXPECT_EQ(rig.dp->dedup().late_drops(), 0u);
  ASSERT_EQ(rig.egressed.size(), 3u) << "delivered exactly once";
  const HedgeRig::Seen* h = rig.find_seq(2);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->path_id, 1u);
  EXPECT_TRUE(h->hedged);
  EXPECT_EQ(h->copy_index, 1u);
  EXPECT_EQ(h->bytes, bytes);
  rig.expect_pool_balanced();
}

TEST(DataPlane, ChainFilteredOriginalCancelsItsHedge) {
  DataPlaneConfig cfg;
  cfg.chain = "fw";
  HedgeRig rig(cfg);
  rig.send_hedged(0x7f000001, 0);  // denied by the preset rules
  rig.eq.run();

  const auto c = rig.dp->counters();
  EXPECT_EQ(c.get("chain_filtered"), 1u);
  EXPECT_EQ(c.get("hedges"), 0u)
      << "the chain's verdict holds for the hedge copy too";
  EXPECT_EQ(rig.egressed.size(), 2u);
  EXPECT_EQ(rig.find_seq(2), nullptr);
  rig.expect_pool_balanced();
}

TEST(DataPlane, BoundedPathQueueDropsUnderOverload) {
  DataPlaneConfig cfg;
  cfg.path_queue_capacity = 8;
  DpFixture f("single", 1, cfg);
  // Arrivals far faster than service: the bounded queue must tail-drop.
  for (int i = 0; i < 500; ++i) f.send(i % 4, 10 * (i + 1));
  f.eq.run();
  const auto& c = f.dp->counters();
  EXPECT_GT(c.get("queue_drops"), 0u);
  EXPECT_EQ(f.egressed.size() + c.get("queue_drops"), 500u)
      << "every packet either egresses or is a counted drop";
  EXPECT_EQ(f.pool.in_use(), 0u);
  EXPECT_EQ(f.dp->dedup().pending(), 0u) << "dropped slots released";
}

TEST(DataPlane, RedundancySurvivesOneCopyQueueDrop) {
  // Path 0's queue is full; red2 sends copies to paths 0 and 1 — the
  // path-1 copy must still deliver exactly once.
  DataPlaneConfig cfg;
  cfg.path_queue_capacity = 4;
  DpFixture f("red2", 2, cfg);
  // Pre-fill path 0's queue with invisible stall + visible packets so it
  // stays the "least backlogged" choice for a while yet drops.
  f.dp->core(0).submit(10'000'000, [](sim::TimeNs) {}, true, false);
  // Arrival pace leaves path 1 comfortably below capacity: only path 0's
  // copies (stuck behind the stall) tail-drop.
  for (int i = 0; i < 40; ++i) f.send(i % 4, 2000 * (i + 1));
  f.eq.run();
  EXPECT_EQ(f.egressed.size(), 40u)
      << "surviving copies must cover the dropped ones";
  EXPECT_EQ(f.dp->dedup().pending(), 0u);
}

TEST(DataPlane, CostModelScalesWithChainLength) {
  sim::EventQueue eq;
  net::PacketPool pool(64, 2048);
  DataPlaneConfig short_cfg;
  short_cfg.chain = "ipcheck";
  short_cfg.dedup_sweep_interval_ns = 0;
  DataPlaneConfig long_cfg;
  long_cfg.chain = "full";
  long_cfg.dedup_sweep_interval_ns = 0;
  MdpDataPlane a(eq, pool, short_cfg, make_scheduler("jsq"));
  MdpDataPlane b(eq, pool, long_cfg, make_scheduler("jsq"));
  EXPECT_GT(b.chain_cost_ns(), a.chain_cost_ns() * 3);
}

// Property: conservation holds for every chain preset — each ingress
// packet either egresses exactly once or is accounted as chain-filtered.
class ChainPresetConservation
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ChainPresetConservation, IngressFullyAccounted) {
  sim::EventQueue eq;
  net::PacketPool pool(2048, 2048);
  DataPlaneConfig cfg;
  cfg.num_paths = 3;
  cfg.chain = GetParam();
  cfg.dedup_sweep_interval_ns = 0;
  MdpDataPlane dp(eq, pool, cfg, make_scheduler("adaptive"));
  std::uint64_t egressed = 0;
  dp.set_egress([&](net::PacketPtr) { ++egressed; });

  sim::Rng rng(99);
  constexpr int kPackets = 400;
  for (int i = 0; i < kPackets; ++i) {
    eq.schedule_at(1 + i * 1500, [&, i] {
      net::BuildSpec spec;
      // Mix of allowed and (for fw chains) denied sources.
      std::uint32_t src = rng.bernoulli(0.1)
                              ? 0x7f000001  // 127.0.0.1: denied by presets
                              : 0x0a010000 + static_cast<std::uint32_t>(
                                                 rng.uniform_u64(1000));
      spec.flow = {src, 0x0a006401,
                   static_cast<std::uint16_t>(1024 + i % 10), 80, 0};
      auto pkt = net::build_udp(pool, spec);
      pkt->anno().flow_id = i % 10;
      if (i % 6 == 0)
        pkt->anno().traffic_class = net::TrafficClass::kLatencyCritical;
      dp.ingress(std::move(pkt));
    });
  }
  eq.run();

  std::uint64_t filtered = dp.counters().get("chain_filtered");
  std::uint64_t dup = dp.counters().get("dup_dropped");
  // Copies of one packet may split between filtered and delivered, so
  // per-PACKET accounting uses the dedup ledger: nothing pending, every
  // packet either egressed once or had every copy filtered.
  EXPECT_EQ(dp.dedup().pending(), 0u) << GetParam();
  EXPECT_LE(egressed, static_cast<std::uint64_t>(kPackets)) << GetParam();
  EXPECT_EQ(dp.counters().get("dispatched"),
            egressed + dup + filtered)
      << GetParam() << ": every dispatched copy accounted";
  EXPECT_EQ(pool.in_use(), 0u) << GetParam();
  if (GetParam() == "ipcheck") {
    EXPECT_EQ(egressed, 400u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllChains, ChainPresetConservation,
    ::testing::Values("ipcheck", "fw", "stateful", "fw-nat", "fw-nat-lb",
                      "fw-nat-lb-mon", "overlay", "full"));

TEST(DataPlane, TeardownMidRunRecyclesEveryPacket) {
  // Packets sit in every holder at once: in service on busy cores, queued
  // behind a stalled core, parked as hedge clones, and pending in event
  // closures. Destroying the plane (before or after clearing the queue)
  // must return each of them to the pool.
  for (bool clear_first : {true, false}) {
    sim::EventQueue eq;
    net::PacketPool pool(256, 2048);
    DataPlaneConfig cfg;
    cfg.num_paths = 4;
    AdaptiveMdpConfig acfg;
    acfg.hedge_timeout_ns = 200'000;  // hedges stay parked at the cut
    auto dp = std::make_unique<MdpDataPlane>(
        eq, pool, cfg, std::make_unique<AdaptiveMdpScheduler>(acfg));
    std::uint64_t egressed = 0;
    dp->set_egress([&](net::PacketPtr) { ++egressed; });
    dp->core(0).submit(5'000'000, [](sim::TimeNs) {}, true, false);

    for (int i = 0; i < 600; ++i) {
      eq.schedule_at(static_cast<sim::TimeNs>(i) * 300, [&, i] {
        net::BuildSpec spec;
        spec.flow = {0x0a010101, 0x0a006401,
                     static_cast<std::uint16_t>(1024 + i % 16), 80, 0};
        auto pkt = net::build_udp(pool, spec);
        ASSERT_TRUE(pkt);
        pkt->anno().flow_id = static_cast<std::uint32_t>(i % 16);
        pkt->anno().traffic_class = i % 4 == 0
                                        ? net::TrafficClass::kLatencyCritical
                                        : net::TrafficClass::kBestEffort;
        dp->ingress(std::move(pkt));
      });
    }
    eq.run_until(120'000);

    std::size_t busy = 0;
    for (std::size_t p = 0; p < 4; ++p) busy += dp->core(p).busy() ? 1 : 0;
    EXPECT_GT(busy, 0u);
    EXPECT_GT(dp->core(0).queue_depth(), 0u) << "stalled core holds jobs";
    EXPECT_GT(dp->parked_hedges(), 0u);
    EXPECT_GT(eq.size(), 0u);
    EXPECT_GT(egressed, 0u);
    EXPECT_GT(pool.in_use(), 0u);

    if (clear_first) {
      eq.clear();
      dp.reset();
    } else {
      dp.reset();
      eq.clear();
    }
    EXPECT_EQ(pool.in_use(), 0u) << "clear_first=" << clear_first;
    EXPECT_EQ(pool.total_allocs(), pool.total_recycles())
        << "clear_first=" << clear_first;
  }
}

struct RpcOutcome {
  std::size_t scheduler_flows = 0;  // flowlet entries (flowlet/adaptive)
  std::uint64_t completed = 0;
  std::uint64_t fct_count = 0, fct_sum = 0, fct_p99 = 0, fct_max = 0;
  std::uint64_t egress = 0;
  std::uint64_t extra_copy_bytes = 0;
  std::size_t tracked_flows = 0;
  std::size_t reorder_flows = 0;
  std::size_t dedup_pending = 0;
  std::size_t registered_flows = 0;
  std::size_t pool_in_use = 0;
};

RpcOutcome run_rpc(const std::string& policy, bool flow_repl,
                   bool end_flows) {
  constexpr std::uint64_t kFlows = 300;
  sim::EventQueue eq;
  net::PacketPool pool(1024, 2048);
  DataPlaneConfig cfg;
  cfg.num_paths = 4;
  cfg.dedup_sweep_interval_ns = 0;  // drainable queue
  cfg.flow_repl.enabled = flow_repl;
  MdpDataPlane dp(eq, pool, cfg, make_scheduler(policy));
  workload::RpcWorkloadConfig rc;
  rc.seed = 11;
  rc.mean_interarrival_ns = 40'000;
  workload::RpcWorkload rpc(
      eq, pool, rc, workload::flow_sizes_by_name("datamining"),
      [&](net::PacketPtr pkt) { dp.ingress(std::move(pkt)); });
  dp.set_egress([&](net::PacketPtr pkt) {
    rpc.on_packet_egress(pkt->anno().flow_id, eq.now());
  });
  if (end_flows)
    rpc.set_flow_done([&](std::uint32_t flow) { dp.end_flow(flow); });
  rpc.start(kFlows);
  eq.run();

  RpcOutcome o;
  o.completed = rpc.flows_completed();
  o.fct_count = rpc.all_fct().count();
  o.fct_sum = rpc.all_fct().sum();
  o.fct_p99 = rpc.all_fct().p99();
  o.fct_max = rpc.all_fct().max();
  o.egress = dp.egress_count();
  o.extra_copy_bytes = dp.extra_copy_bytes();
  o.tracked_flows = dp.tracked_flows();
  o.reorder_flows = dp.reorder().tracked_flows();
  o.dedup_pending = dp.dedup().pending();
  o.registered_flows = dp.dedup().registered_flows();
  o.pool_in_use = pool.in_use();
  if (const auto* f = dynamic_cast<const FlowletScheduler*>(&dp.scheduler()))
    o.scheduler_flows = f->tracked_flows();
  if (const auto* a =
          dynamic_cast<const AdaptiveMdpScheduler*>(&dp.scheduler()))
    o.scheduler_flows = a->tracked_flows();
  EXPECT_EQ(o.completed, kFlows);
  return o;
}

// Retiring state at quiesce changes no delivery and no timing.
void expect_same_results(const RpcOutcome& retired, const RpcOutcome& kept,
                         const std::string& label) {
  EXPECT_EQ(retired.completed, kept.completed) << label;
  EXPECT_EQ(retired.fct_count, kept.fct_count) << label;
  EXPECT_EQ(retired.fct_sum, kept.fct_sum) << label;
  EXPECT_EQ(retired.fct_p99, kept.fct_p99) << label;
  EXPECT_EQ(retired.fct_max, kept.fct_max) << label;
  EXPECT_EQ(retired.egress, kept.egress) << label;
  EXPECT_EQ(retired.extra_copy_bytes, kept.extra_copy_bytes) << label;
}

TEST(DataPlane, EndFlowRetiresSequenceStateWithoutChangingResults) {
  const RpcOutcome kept = run_rpc("rss", true, false);
  const RpcOutcome retired = run_rpc("rss", true, true);
  // Without end_flow the plane keeps one sequence counter and one reorder
  // window per flow seen.
  EXPECT_EQ(kept.tracked_flows, 300u);
  EXPECT_EQ(kept.reorder_flows, 300u);
  EXPECT_EQ(retired.tracked_flows, 0u);
  EXPECT_EQ(retired.reorder_flows, 0u);
  EXPECT_EQ(retired.dedup_pending, 0u);
  EXPECT_EQ(retired.registered_flows, 0u);
  EXPECT_EQ(retired.pool_in_use, 0u);
  expect_same_results(retired, kept, "rss");
}

TEST(DataPlane, EndFlowRetiresFlowletEntriesWithoutChangingResults) {
  for (const std::string policy : {"flowlet", "adaptive"}) {
    const RpcOutcome kept = run_rpc(policy, false, false);
    const RpcOutcome retired = run_rpc(policy, false, true);
    // Without end_flow the flowlet table keeps an entry per flow seen.
    EXPECT_GT(kept.scheduler_flows, 0u) << policy;
    if (policy == "flowlet") {
      EXPECT_EQ(kept.scheduler_flows, 300u);
    }
    EXPECT_EQ(retired.scheduler_flows, 0u) << policy;
    EXPECT_EQ(retired.tracked_flows, 0u) << policy;
    EXPECT_EQ(retired.reorder_flows, 0u) << policy;
    EXPECT_EQ(retired.pool_in_use, 0u) << policy;
    expect_same_results(retired, kept, policy);
  }
}

// Each path runs its own chain replica, so no per-replica table may be
// sized beyond what one replica can fill.
TEST(DataPlane, ChainReplicaTablesFitOneReplica) {
  sim::EventQueue eq;
  net::PacketPool pool(8, 2048);
  DataPlaneConfig cfg;
  cfg.num_paths = 4;
  cfg.chain = "fw-nat-lb";
  cfg.dedup_sweep_interval_ns = 0;
  MdpDataPlane dp(eq, pool, cfg, make_scheduler("jsq"));
  std::size_t nats = 0, lbs = 0;
  for (const auto& e : dp.router().elements()) {
    if (auto* nat = dynamic_cast<nf::Nat*>(e.get())) {
      ++nats;
      EXPECT_GT(nat->table().capacity(), 0u);
      EXPECT_LE(nat->table().capacity(), nf::kReplicaFlowCapacity);
    } else if (auto* lb = dynamic_cast<nf::LoadBalancer*>(e.get())) {
      ++lbs;
      EXPECT_GT(lb->core().affinity_capacity(), 0u);
      EXPECT_LE(lb->core().affinity_capacity(), nf::kReplicaFlowCapacity);
    }
  }
  EXPECT_EQ(nats, cfg.num_paths);
  EXPECT_EQ(lbs, cfg.num_paths);
}

TEST(DataPlane, RejectsInvalidConfig) {
  sim::EventQueue eq;
  net::PacketPool pool(8, 2048);
  DataPlaneConfig cfg;
  cfg.num_paths = 0;
  EXPECT_THROW(MdpDataPlane(eq, pool, cfg, make_scheduler("jsq")),
               std::invalid_argument);
  DataPlaneConfig cfg2;
  EXPECT_THROW(MdpDataPlane(eq, pool, cfg2, nullptr),
               std::invalid_argument);
  DataPlaneConfig cfg3;
  cfg3.chain = "no-such-chain";
  EXPECT_THROW(MdpDataPlane(eq, pool, cfg3, make_scheduler("jsq")),
               std::runtime_error);
}

}  // namespace
}  // namespace mdp::core
