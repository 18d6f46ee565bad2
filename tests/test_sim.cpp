// Simulation substrate tests: event queue ordering/determinism, RNG,
// distributions, the SimCore queueing model, interference duty cycle, and
// the multi-queue NIC.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <queue>
#include <vector>

#include "net/packet_builder.hpp"
#include "sim/distributions.hpp"
#include "sim/event_queue.hpp"
#include "sim/interference.hpp"
#include "sim/nic.hpp"
#include "sim/rng.hpp"
#include "sim/sim_core.hpp"

namespace mdp::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(300, [&] { order.push_back(3); });
  eq.schedule_at(100, [&] { order.push_back(1); });
  eq.schedule_at(200, [&] { order.push_back(2); });
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.now(), 300u);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    eq.schedule_at(500, [&order, i] { order.push_back(i); });
  eq.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NestedSchedulingFromCallbacks) {
  EventQueue eq;
  std::vector<std::uint64_t> times;
  eq.schedule_at(10, [&] {
    times.push_back(eq.now());
    eq.schedule_in(5, [&] { times.push_back(eq.now()); });
  });
  eq.run();
  EXPECT_EQ(times, (std::vector<std::uint64_t>{10, 15}));
}

TEST(EventQueue, PastSchedulingClampsToNow) {
  EventQueue eq;
  eq.schedule_at(100, [&] {
    eq.schedule_at(50, [&] { EXPECT_EQ(eq.now(), 100u); });
  });
  eq.run();
}

TEST(EventQueue, RunUntilAdvancesClockEvenWhenIdle) {
  EventQueue eq;
  eq.run_until(12345);
  EXPECT_EQ(eq.now(), 12345u);
}

TEST(EventQueue, ClearDiscardsWithoutExecuting) {
  EventQueue eq;
  bool fired = false;
  // The closure owns a resource; clear() must destroy (not run) it.
  auto owned = std::make_unique<int>(1);
  eq.schedule_at(5, [&fired, o = std::move(owned)] { fired = true; });
  eq.clear();
  EXPECT_TRUE(eq.empty());
  eq.run();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, MoveOnlyCaptures) {
  EventQueue eq;
  auto p = std::make_unique<int>(7);
  int got = 0;
  eq.schedule_at(1, [p = std::move(p), &got] { got = *p; });
  eq.run();
  EXPECT_EQ(got, 7);
}

TEST(EventQueue, LaneKeepsTimeThenInsertionOrder) {
  EventQueue eq;
  const EventQueue::Lane lane = eq.add_lane();
  std::vector<int> order;
  auto push = [&order](int v) { return [&order, v] { order.push_back(v); }; };
  eq.schedule_lane_at(lane, 100, push(1));
  eq.schedule_at(100, push(2));             // equal time, heap: after 1
  eq.schedule_lane_at(lane, 200, push(5));
  eq.schedule_lane_at(lane, 150, push(4));  // steps back: second run
  eq.schedule_lane_at(lane, 120, push(3));  // back again: heap fallback
  eq.schedule_lane_at(lane, 200, push(6));  // equal to run one's tail
  EXPECT_EQ(eq.lane_size(lane), 4u);
  EXPECT_EQ(eq.size(), 6u);
  eq.run_until(150);  // a run-head boundary: fires the event at 150
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(eq.size(), 2u);
  EXPECT_EQ(eq.now(), 150u);
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(eq.empty());
  EXPECT_EQ(eq.events_processed(), 6u);
}

TEST(EventQueue, ClearEmptiesLanesButKeepsThemOpen) {
  EventQueue eq;
  const EventQueue::Lane lane = eq.add_lane();
  bool fired = false;
  auto owned = std::make_unique<int>(1);
  eq.schedule_lane_in(lane, 5, [&fired, o = std::move(owned)] {
    fired = true;
  });
  eq.clear();
  EXPECT_TRUE(eq.empty());
  EXPECT_EQ(eq.lane_size(lane), 0u);
  eq.run();
  EXPECT_FALSE(fired);
  eq.schedule_lane_in(lane, 5, [&fired] { fired = true; });
  EXPECT_EQ(eq.lane_size(lane), 1u);
  eq.run();
  EXPECT_TRUE(fired);
}

// Differential property test: the slab-backed queue, with its heap and
// FIFO timer lanes, against a reference std::priority_queue model of the
// (time, insertion-seq) contract. Both receive the same operation
// stream; fired callbacks schedule children (some in the past, some at
// equal times) through the same pure rule. The reference has no lanes:
// which store an event waits in must never show in the order.
class RefQueue {
 public:
  void schedule_at(TimeNs at, std::uint64_t id) {
    if (at < now_) at = now_;
    heap_.push(Ev{at, seq_++, id});
  }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  TimeNs now() const { return now_; }
  bool next_at_most(TimeNs t) const {
    return !heap_.empty() && heap_.top().at <= t;
  }
  void advance_to(TimeNs t) {
    if (now_ < t) now_ = t;
  }
  void clear() { heap_ = {}; }
  std::uint64_t pop() {
    Ev e = heap_.top();
    heap_.pop();
    now_ = e.at;
    return e.id;
  }

 private:
  struct Ev {
    TimeNs at;
    std::uint64_t seq;
    std::uint64_t id;
    bool operator<(const Ev& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  std::priority_queue<Ev> heap_;
  TimeNs now_ = 0;
  std::uint64_t seq_ = 0;
};

// Children an event spawns when it fires: a pure function of its id.
// Offsets are relative to now(); negative ones exercise the past clamp.
std::vector<std::int64_t> child_offsets(std::uint64_t id) {
  std::uint64_t h = (id + 1) * 0x9E3779B97F4A7C15ull;
  h ^= h >> 29;
  std::vector<std::int64_t> out;
  const std::uint64_t n = (h & 7) < 5 ? 0 : (h & 7) - 4;  // 0..3
  for (std::uint64_t c = 0; c < n; ++c) {
    h = h * 6364136223846793005ull + 1442695040888963407ull;
    out.push_back(static_cast<std::int64_t>((h >> 33) % 40) - 10);
  }
  return out;
}

TimeNs offset_time(TimeNs now, std::int64_t off) {
  return off < 0 && static_cast<TimeNs>(-off) > now
             ? 0
             : static_cast<TimeNs>(static_cast<std::int64_t>(now) + off);
}

// Where a child event is scheduled: -1 = heap, 0 / 1 = that lane.
int child_store(std::uint64_t id) { return static_cast<int>(id / 5 % 3) - 1; }

struct QueueUnderTest {
  EventQueue eq;
  std::array<EventQueue::Lane, 2> lanes{eq.add_lane(), eq.add_lane()};
  std::uint64_t next_id = 0;
  std::uint64_t lane_hits = 0;       // lane schedules a run took
  std::uint64_t lane_fallbacks = 0;  // lane schedules the heap took
  std::vector<std::pair<std::uint64_t, TimeNs>> fired;

  void schedule(TimeNs at, int store) { schedule_id(at, next_id++, store); }
  void schedule_id(TimeNs at, std::uint64_t id, int store) {
    auto on_fire = [this, id] {
      fired.emplace_back(id, eq.now());
      for (std::int64_t off : child_offsets(id)) {
        const std::uint64_t child = next_id++;
        schedule_id(offset_time(eq.now(), off), child, child_store(child));
      }
    };
    EventQueue::Callback cb;
    if (id % 5 == 0) {
      // A capture too large for the inline buffer (heap fallback).
      std::array<std::uint64_t, 8> pad{};
      pad[7] = id;
      cb = [on_fire, pad]() mutable {
        ASSERT_EQ(pad[7] % 5, 0u);
        on_fire();
      };
    } else if (id % 5 == 1) {
      auto owned = std::make_unique<std::uint64_t>(id);
      cb = [on_fire, o = std::move(owned)]() mutable {
        ASSERT_EQ(*o % 5, 1u);
        on_fire();
      };
    } else {
      cb = on_fire;
    }
    if (store < 0) {
      eq.schedule_at(at, std::move(cb));
      return;
    }
    const EventQueue::Lane lane = lanes[static_cast<std::size_t>(store)];
    const std::size_t before = eq.lane_size(lane);
    eq.schedule_lane_at(lane, at, std::move(cb));
    ++(eq.lane_size(lane) > before ? lane_hits : lane_fallbacks);
  }
};

TEST(EventQueue, MatchesReferenceModelOnRandomSchedules) {
  for (std::uint64_t seed : {1u, 5u, 977u}) {
    Rng rng(seed);
    QueueUnderTest real;
    RefQueue ref;
    std::uint64_t ref_next_id = 0;
    std::vector<std::pair<std::uint64_t, TimeNs>> ref_fired;
    auto ref_step = [&] {
      const std::uint64_t id = ref.pop();
      ref_fired.emplace_back(id, ref.now());
      for (std::int64_t off : child_offsets(id))
        ref.schedule_at(offset_time(ref.now(), off), ref_next_id++);
    };

    TimeNs last_lane_at = 0;
    for (int op = 0; op < 100'000; ++op) {
      const TimeNs now = real.eq.now();
      TimeNs at;
      int store = -1;
      if (rng.uniform_u64(10) < 4) {
        // Heap: times cluster near now(), so equal times are common
        // (with lane deadlines too) and some land in the past.
        const auto off = static_cast<std::int64_t>(rng.uniform_u64(64)) - 16;
        at = offset_time(now, off);
      } else {
        // A fixed-delay timer on one of two lanes; one in eight steps
        // back with a shorter delay (second run or heap fallback).
        store = static_cast<int>(rng.uniform_u64(2));
        TimeNs delay = store == 0 ? 24 : 40;
        if (rng.uniform_u64(8) == 0) delay -= rng.uniform_u64(delay + 1);
        at = now + delay;
        last_lane_at = at;
      }
      real.schedule(at, store);
      ref.schedule_at(at, ref_next_id++);

      if (op % 997 == 0) {
        // run_until exactly at a lane deadline, or just before it.
        const TimeNs until = last_lane_at - (last_lane_at > 0 ? op % 2 : 0);
        real.eq.run_until(until);
        while (ref.next_at_most(until)) ref_step();
        ref.advance_to(until);
      } else if (op == 50'000) {
        real.eq.clear();
        ref.clear();
      } else {
        const std::uint64_t steps = rng.uniform_u64(3);
        for (std::uint64_t s = 0; s < steps && !ref.empty(); ++s) {
          ASSERT_TRUE(real.eq.step());
          ref_step();
        }
      }
      ASSERT_EQ(real.eq.now(), ref.now()) << "seed " << seed << " op " << op;
      ASSERT_EQ(real.eq.size(), ref.size()) << "seed " << seed << " op " << op;
      ASSERT_EQ(real.eq.empty(), ref.empty()) << "seed " << seed;
    }
    while (!ref.empty()) {
      ASSERT_TRUE(real.eq.step());
      ref_step();
    }
    EXPECT_FALSE(real.eq.step());
    EXPECT_EQ(real.fired, ref_fired) << "seed " << seed;
    EXPECT_EQ(real.eq.events_processed(), ref_fired.size());
    EXPECT_EQ(real.eq.now(), ref.now());
    EXPECT_GT(ref_fired.size(), 100'000u);  // children fired too
    // Both lane outcomes were exercised, on top of the plain heap.
    EXPECT_GT(real.lane_hits, 10'000u) << "seed " << seed;
    EXPECT_GT(real.lane_fallbacks, 100u) << "seed " << seed;
  }
}

// Counts destructions of live (not moved-from) instances.
struct DtorCounter {
  int* count;
  bool live = true;
  explicit DtorCounter(int* c) : count(c) {}
  DtorCounter(DtorCounter&& o) noexcept : count(o.count) { o.live = false; }
  DtorCounter& operator=(DtorCounter&&) = delete;
  ~DtorCounter() {
    if (live) ++*count;
  }
};

TEST(UniqueFunction, InlineAndHeapCapturesCall) {
  using Fn = UniqueFunction<int(int)>;
  std::array<char, 40> small{};
  small[39] = 3;
  auto inline_fn = [small](int x) { return x + small[39]; };
  std::array<char, 200> big{};
  big[199] = 9;
  auto heap_fn = [big](int x) { return x + big[199]; };
  static_assert(Fn::stores_inline<decltype(inline_fn)>());
  static_assert(!Fn::stores_inline<decltype(heap_fn)>());

  Fn a = inline_fn;
  Fn b = heap_fn;
  EXPECT_EQ(a(1), 4);
  EXPECT_EQ(b(1), 10);
  Fn c = std::move(a);
  Fn d = std::move(b);
  EXPECT_FALSE(a);
  EXPECT_FALSE(b);
  EXPECT_EQ(c(2), 5);
  EXPECT_EQ(d(2), 11);
  std::swap(c, d);
  EXPECT_EQ(c(0), 9);
  EXPECT_EQ(d(0), 3);
}

TEST(UniqueFunction, MoveOnlyCaptures) {
  UniqueFunction<int()> f = [p = std::make_unique<int>(42)] { return *p; };
  UniqueFunction<int()> g = std::move(f);
  EXPECT_EQ(g(), 42);
}

TEST(UniqueFunction, DestructorRunsExactlyOnce) {
  // Inline and heap-fallback captures, through move construction, move
  // assignment onto empty and onto occupied targets, and destruction.
  for (bool heap : {false, true}) {
    int dtors = 0;
    {
      UniqueFunction<void()> f;
      if (heap) {
        std::array<char, 100> pad{};
        f = [t = DtorCounter(&dtors), pad] { (void)pad; };
      } else {
        f = [t = DtorCounter(&dtors)] {};
      }
      EXPECT_EQ(dtors, 0);
      UniqueFunction<void()> g = std::move(f);
      UniqueFunction<void()> h;
      h = std::move(g);
      g = std::move(h);
      g();
      EXPECT_EQ(dtors, 0) << "heap=" << heap;
    }
    EXPECT_EQ(dtors, 1) << "heap=" << heap;
  }

  int replaced = 0, kept = 0;
  {
    UniqueFunction<void()> a = [t = DtorCounter(&replaced)] {};
    UniqueFunction<void()> b = [t = DtorCounter(&kept)] {};
    a = std::move(b);  // destroys a's old callable now
    EXPECT_EQ(replaced, 1);
    EXPECT_EQ(kept, 0);
  }
  EXPECT_EQ(replaced, 1);
  EXPECT_EQ(kept, 1);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(Rng(123).next_u64(), c.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 10'000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    ASSERT_LT(rng.uniform_u64(17), 17u);
  }
}

// Distribution means converge to the configured value.
struct DistCase {
  const char* name;
  std::function<DistributionPtr()> make;
  double expected_mean;
  double tolerance;  // relative
};

class DistributionMean : public ::testing::TestWithParam<int> {};

TEST_P(DistributionMean, SampleMeanMatchesAnalyticMean) {
  static const DistCase cases[] = {
      {"constant", [] { return std::make_unique<Constant>(42.0); }, 42.0,
       0.001},
      {"uniform", [] { return std::make_unique<Uniform>(10, 30); }, 20.0,
       0.02},
      {"exponential", [] { return std::make_unique<Exponential>(1000.0); },
       1000.0, 0.03},
      {"lognormal", [] { return std::make_unique<LogNormal>(0.0, 0.5); },
       std::exp(0.125), 0.03},
      {"pareto",
       [] { return std::make_unique<BoundedPareto>(1.3, 1.0, 1000.0); },
       0.0 /* use dist->mean() */, 0.05},
  };
  const DistCase& c = cases[GetParam()];
  auto dist = c.make();
  double expected = c.expected_mean > 0 ? c.expected_mean : dist->mean();

  Rng rng(777);
  double sum = 0;
  constexpr int kN = 400'000;
  for (int i = 0; i < kN; ++i) sum += dist->sample(rng);
  double sample_mean = sum / kN;
  EXPECT_NEAR(sample_mean, expected, expected * c.tolerance)
      << c.name << ": analytic mean " << dist->mean();
}

INSTANTIATE_TEST_SUITE_P(All, DistributionMean, ::testing::Range(0, 5));

TEST(BoundedPareto, SamplesWithinBounds) {
  BoundedPareto p(1.1, 2.0, 500.0);
  Rng rng(1);
  for (int i = 0; i < 50'000; ++i) {
    double v = p.sample(rng);
    ASSERT_GE(v, 2.0 - 1e-9);
    ASSERT_LE(v, 500.0 + 1e-9);
  }
}

TEST(EmpiricalCdf, InterpolatesBetweenKnots) {
  EmpiricalCdf cdf({{0, 0.0}, {100, 0.5}, {1000, 1.0}});
  Rng rng(2);
  int below_100 = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i)
    if (cdf.sample(rng) <= 100.0) ++below_100;
  EXPECT_NEAR(below_100 / static_cast<double>(kN), 0.5, 0.02);
}

TEST(EmpiricalCdf, RejectsBadKnots) {
  EXPECT_THROW(EmpiricalCdf({{1, 0.5}}), std::invalid_argument);
  EXPECT_THROW(EmpiricalCdf({{1, 0.9}, {2, 0.1}}), std::invalid_argument);
}

TEST(SimCore, ServesFifoWithCorrectTimes) {
  EventQueue eq;
  SimCore core(eq);
  std::vector<TimeNs> completions;
  core.submit(100, [&](TimeNs t) { completions.push_back(t); });
  core.submit(50, [&](TimeNs t) { completions.push_back(t); });
  eq.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], 100u);
  EXPECT_EQ(completions[1], 150u);
  EXPECT_EQ(core.busy_ns(), 150u);
  EXPECT_EQ(core.jobs_completed(), 2u);
}

TEST(SimCore, IdleCoreStartsImmediately) {
  EventQueue eq;
  SimCore core(eq);
  eq.schedule_at(1000, [&] {
    core.submit(10, [&](TimeNs t) { EXPECT_EQ(t, 1010u); });
  });
  eq.run();
}

TEST(SimCore, HighPriorityJumpsQueue) {
  EventQueue eq;
  SimCore core(eq);
  std::vector<int> order;
  core.submit(100, [&](TimeNs) { order.push_back(0); });  // in service
  core.submit(100, [&](TimeNs) { order.push_back(1); });  // queued
  core.submit(10, [&](TimeNs) { order.push_back(2); }, /*high=*/true);
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}))
      << "high-priority job must run after the in-service job but before "
         "queued normal jobs";
}

TEST(SimCore, BacklogTracksOutstandingWork) {
  EventQueue eq;
  SimCore core(eq);
  core.submit(100, [](TimeNs) {});
  core.submit(200, [](TimeNs) {});
  // At t=0 (before any event runs) one job is in service (100ns left) and
  // one queued (200ns).
  EXPECT_EQ(core.backlog_ns(), 300u);
  EXPECT_EQ(core.queue_depth(), 1u);
  eq.run();
  EXPECT_EQ(core.backlog_ns(), 0u);
}

TEST(SimCore, TheftIsInvisibleToTheDispatcherView) {
  EventQueue eq;
  SimCore core(eq);
  // A theft burst in service: ground truth sees it, the dispatcher not.
  core.submit(10'000, [](TimeNs) {}, /*high_priority=*/true, /*visible=*/false);
  EXPECT_EQ(core.backlog_ns(), 10'000u);
  EXPECT_EQ(core.visible_backlog_ns(), 0u)
      << "a stolen core must look idle to the scheduler";
  // Packets queued behind the theft ARE visible.
  core.submit(300, [](TimeNs) {});
  EXPECT_EQ(core.visible_backlog_ns(), 300u);
  EXPECT_EQ(core.backlog_ns(), 10'300u);
  eq.run();
  EXPECT_EQ(core.visible_backlog_ns(), 0u);
}

TEST(Interference, DutyCycleConverges) {
  EventQueue eq;
  SimCore core(eq);
  InterferenceConfig cfg;
  cfg.duty_cycle = 0.2;
  cfg.mean_burst_ns = 50'000;
  InterferenceModel noise(eq, core, cfg, /*seed=*/5);
  noise.start();
  constexpr TimeNs kHorizon = 5 * kSecond;
  eq.run_until(kHorizon);
  double duty = static_cast<double>(noise.total_stolen_ns()) /
                static_cast<double>(kHorizon);
  EXPECT_NEAR(duty, 0.2, 0.05);
  EXPECT_GT(noise.bursts_injected(), 1000u);
}

TEST(Interference, ZeroDutyInjectsNothing) {
  EventQueue eq;
  SimCore core(eq);
  InterferenceConfig cfg;
  cfg.duty_cycle = 0.0;
  InterferenceModel noise(eq, core, cfg, 5);
  noise.start();
  eq.run_until(kSecond);
  EXPECT_EQ(noise.bursts_injected(), 0u);
}

TEST(SimNic, RssSteersByFlowHashConsistently) {
  net::PacketPool pool(64, 2048);
  SimNic nic(NicConfig{4, 16});
  net::BuildSpec spec;
  spec.flow = {0x0a000001, 0x0b000001, 1000, 80, 17};
  auto p1 = net::build_udp(pool, spec);
  auto p2 = net::build_udp(pool, spec);
  std::size_t q1 = nic.rss_queue(*p1);
  EXPECT_EQ(q1, nic.rss_queue(*p2)) << "same flow must map to same queue";
  ASSERT_TRUE(nic.rx(std::move(p1)));
  EXPECT_EQ(nic.queue_depth(q1), 1u);
  auto out = nic.poll(q1);
  EXPECT_TRUE(out);
  EXPECT_FALSE(nic.poll(q1));
}

TEST(SimNic, TailDropsWhenQueueFull) {
  net::PacketPool pool(64, 2048);
  SimNic nic(NicConfig{1, 2});
  net::BuildSpec spec;
  spec.flow = {1, 2, 3, 4, 17};
  ASSERT_TRUE(nic.rx_to(0, net::build_udp(pool, spec)));
  ASSERT_TRUE(nic.rx_to(0, net::build_udp(pool, spec)));
  EXPECT_FALSE(nic.rx_to(0, net::build_udp(pool, spec)));
  EXPECT_EQ(nic.total_drops(), 1u);
  EXPECT_EQ(nic.total_received(), 2u);
}

TEST(Determinism, SameSeedSameTrace) {
  auto run = [](std::uint64_t seed) {
    EventQueue eq;
    SimCore core(eq);
    Rng rng(seed);
    Exponential gaps(500);
    std::vector<TimeNs> completions;
    TimeNs t = 0;
    for (int i = 0; i < 200; ++i) {
      t += static_cast<TimeNs>(gaps.sample(rng)) + 1;
      eq.schedule_at(t, [&core, &completions, &rng] {
        core.submit(static_cast<TimeNs>(rng.uniform_u64(300) + 1),
                    [&completions](TimeNs done) {
                      completions.push_back(done);
                    });
      });
    }
    eq.run();
    return completions;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

}  // namespace
}  // namespace mdp::sim
