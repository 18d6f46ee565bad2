// mdp::telem unit suite: flight-recorder ring semantics (wraparound
// overwrite order, cross-channel merge, window filter, disable gate),
// seqlock safety under concurrent emit/dump (the TSan target), dump_json
// schema conformance, and the snapshot exporter's bounded time series,
// counter deltas, and Prometheus rendering.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "telem/flight_recorder.hpp"
#include "telem/snapshot_exporter.hpp"
#include "trace/json.hpp"
#include "trace/registry.hpp"

namespace mdp {
namespace {

using telem::Event;
using telem::EventType;
using telem::FlightRecorder;
using telem::PathTickStats;
using telem::SnapshotExporter;

// ---------------------------------------------------------------------------
// Flight recorder.

TEST(FlightRecorder, EmptyRecorderDumpsAValidEmptyTimeline) {
  FlightRecorder rec;
  EXPECT_EQ(rec.total_emitted(), 0u);
  EXPECT_TRUE(rec.collect().empty());
  const auto v = trace::JsonValue::parse(rec.dump_json());
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("schema")->as_string(), "mdp.flight_recorder.v1");
  EXPECT_EQ(v->find("emitted")->as_u64(), 0u);
  EXPECT_EQ(v->find("retained")->as_u64(), 0u);
  EXPECT_TRUE(v->find("events")->is_array());
  EXPECT_TRUE(v->find("events")->items().empty());
}

TEST(FlightRecorder, ChannelIsGetOrCreateAndBoundedByMaxChannels) {
  FlightRecorder rec({.events_per_channel = 8, .max_channels = 2});
  auto* a = rec.channel("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(rec.channel("a"), a) << "same name must return the same ring";
  ASSERT_NE(rec.channel("b"), nullptr);
  EXPECT_EQ(rec.channel("c"), nullptr) << "past max_channels";
  EXPECT_EQ(rec.channel_names(), (std::vector<std::string>{"a", "b"}));
  // 2 channels x 8 slots x 5 atomic words.
  EXPECT_EQ(rec.memory_bytes(), 2u * 8u * 5u * sizeof(std::uint64_t));
}

TEST(FlightRecorder, WraparoundRetainsExactlyTheNewestInEmitOrder) {
  FlightRecorder rec({.events_per_channel = 8});
  auto* ch = rec.channel("w");
  for (std::uint64_t i = 0; i < 20; ++i)
    ch->emit(i * 10, EventType::kUser, 0, static_cast<std::uint32_t>(i), i);
  EXPECT_EQ(ch->emitted(), 20u);
  EXPECT_EQ(rec.total_emitted(), 20u);
  const std::vector<Event> ev = rec.collect();
  ASSERT_EQ(ev.size(), 8u) << "ring keeps exactly the last capacity events";
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(ev[i].ts_ns, (12 + i) * 10) << "oldest overwritten first";
    EXPECT_EQ(ev[i].b, 12 + i);
    if (i > 0) {
      EXPECT_LT(ev[i - 1].seq, ev[i].seq);
    }
  }
}

TEST(FlightRecorder, DumpMergesChannelsInTimeOrderWithSeqTiebreak) {
  FlightRecorder rec({.events_per_channel = 16});
  auto* a = rec.channel("a");
  auto* b = rec.channel("b");
  // Interleave timestamps across channels, including an exact tie at
  // t=50: the recorder-wide epoch stamped at emit must break it in emit
  // order (a's event first).
  a->emit(30, EventType::kIngressBurst, 0, 1, 0);
  b->emit(10, EventType::kEgressBurst, 1, 1, 0);
  a->emit(50, EventType::kHedgeFire, 0, 1, 7);
  b->emit(50, EventType::kDedupDrop, 1, 1, 8);
  b->emit(40, EventType::kUser, 1, 0, 0);
  const std::vector<Event> ev = rec.collect();
  ASSERT_EQ(ev.size(), 5u);
  const std::uint64_t want_ts[] = {10, 30, 40, 50, 50};
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(ev[i].ts_ns, want_ts[i]);
  EXPECT_EQ(ev[3].type, EventType::kHedgeFire) << "tie broken by emit seq";
  EXPECT_EQ(ev[4].type, EventType::kDedupDrop);
  for (std::size_t i = 1; i < 5; ++i)
    EXPECT_TRUE(ev[i - 1].ts_ns < ev[i].ts_ns ||
                (ev[i - 1].ts_ns == ev[i].ts_ns && ev[i - 1].seq < ev[i].seq));
}

TEST(FlightRecorder, WindowKeepsOnlyTheSpanBeforeTheNewestEvent) {
  FlightRecorder rec({.events_per_channel = 64});
  auto* ch = rec.channel("w");
  for (std::uint64_t t = 0; t <= 1000; t += 100)
    ch->emit(t, EventType::kUser, 0, 0, t);
  const std::vector<Event> ev = rec.collect(/*window_ns=*/250);
  ASSERT_EQ(ev.size(), 3u) << "newest=1000, cutoff=750: keep 800/900/1000";
  EXPECT_EQ(ev.front().ts_ns, 800u);
  EXPECT_EQ(ev.back().ts_ns, 1000u);
}

TEST(FlightRecorder, DisabledRecorderEmitsNothingUntilReenabled) {
  FlightRecorder rec({.events_per_channel = 8, .max_channels = 4,
                      .enabled = false});
  auto* ch = rec.channel("x");
  ch->emit(1, EventType::kUser, 0, 0, 0);
  EXPECT_EQ(rec.total_emitted(), 0u);
  EXPECT_TRUE(rec.collect().empty());
  rec.set_enabled(true);
  ch->emit(2, EventType::kUser, 0, 0, 0);
  EXPECT_EQ(rec.total_emitted(), 1u);
  EXPECT_EQ(rec.collect().size(), 1u);
}

TEST(FlightRecorder, DumpJsonCarriesDecodedEventFields) {
  FlightRecorder rec({.events_per_channel = 8});
  rec.channel("ing")->emit(123, EventType::kIngressBurst, telem::kAllPaths,
                           32, 456);
  const auto v = trace::JsonValue::parse(rec.dump_json());
  ASSERT_TRUE(v.has_value());
  const trace::JsonValue* events = v->find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 1u);
  const trace::JsonValue& e = events->items()[0];
  EXPECT_EQ(e.find("t")->as_u64(), 123u);
  EXPECT_EQ(e.find("chan")->as_string(), "ing");
  EXPECT_EQ(e.find("type")->as_string(), "ingress_burst");
  EXPECT_EQ(e.find("path")->as_u64(), telem::kAllPaths);
  EXPECT_EQ(e.find("n")->as_u64(), 32u);
  EXPECT_EQ(e.find("data")->as_u64(), 456u);
}

// The TSan target: writers emit full tilt on their own channels while a
// reader dumps concurrently. The seqlock protocol must keep every
// collected event internally consistent (a torn slot would decode to a
// mismatched (index, payload) pair) and the dump loop data-race-free.
TEST(FlightRecorder, ConcurrentEmitAndDumpStaySane) {
  FlightRecorder rec({.events_per_channel = 256, .max_channels = 4});
  constexpr int kWriters = 3;
  constexpr std::uint64_t kPerWriter = 20'000;
  FlightRecorder::Channel* chans[kWriters];
  for (int w = 0; w < kWriters; ++w)
    chans[w] = rec.channel("w" + std::to_string(w));
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i)
        // ts encodes (writer, i) redundantly with b so a torn read is
        // detectable below.
        chans[w]->emit(i, EventType::kUser, static_cast<std::uint16_t>(w),
                       static_cast<std::uint32_t>(w),
                       (static_cast<std::uint64_t>(w) << 32) | i);
    });
  std::uint64_t dumps = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const std::vector<Event> ev = rec.collect();
    ++dumps;
    for (const Event& e : ev) {
      ASSERT_LT(e.path, kWriters) << "torn slot leaked through the seqlock";
      EXPECT_EQ(e.b >> 32, e.path);
      EXPECT_EQ(e.b & 0xffffffffu, e.ts_ns);
      EXPECT_EQ(e.a, e.path);
    }
    bool done = true;
    for (auto* c : chans) done = done && c->emitted() == kPerWriter;
    if (done) stop.store(true, std::memory_order_relaxed);
  }
  for (auto& t : writers) t.join();
  EXPECT_GT(dumps, 0u);
  EXPECT_EQ(rec.total_emitted(), kWriters * kPerWriter);
  // Quiescent now: the final collect sees exactly one full ring per
  // channel, each in order.
  const std::vector<Event> final_ev = rec.collect();
  EXPECT_EQ(final_ev.size(), 3u * 256u);
}

// ---------------------------------------------------------------------------
// Snapshot exporter.

PathTickStats make_path(std::uint16_t path, std::uint64_t base) {
  PathTickStats s;
  s.path = path;
  s.samples = base;
  s.violations = base / 10;
  s.sum_ns = base * 100;
  s.p50_ns = base * 2;
  s.p99_ns = base * 4;
  s.p999_ns = base * 8;
  s.max_ns = base * 16;
  s.stage_sum_ns[2] = base * 50;  // "service"
  return s;
}

TEST(SnapshotExporter, RecordsTicksAndEvictsPastCapacity) {
  SnapshotExporter ex({.capacity_ticks = 4});
  for (std::uint64_t t = 0; t < 10; ++t) {
    ex.begin_tick(t, t * 1000);
    ex.add_path(make_path(0, t + 1));
    ex.end_tick();
  }
  EXPECT_EQ(ex.ticks_recorded(), 10u);
  EXPECT_EQ(ex.ticks_evicted(), 6u);
  const auto v = trace::JsonValue::parse(ex.to_json());
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("schema")->as_string(), "mdp.telem.v1");
  EXPECT_EQ(v->find("capacity_ticks")->as_u64(), 4u);
  const trace::JsonValue* ticks = v->find("ticks");
  ASSERT_NE(ticks, nullptr);
  ASSERT_EQ(ticks->items().size(), 4u) << "oldest rows evicted";
  EXPECT_EQ(ticks->items().front().find("tick")->as_u64(), 6u);
  EXPECT_EQ(ticks->items().back().find("tick")->as_u64(), 9u);
}

TEST(SnapshotExporter, TickRowsCarryPerPathQuantilesAndStageSums) {
  SnapshotExporter ex;
  ex.begin_tick(7, 7000);
  ex.add_path(make_path(0, 100));
  ex.add_path(make_path(1, 200));
  ex.end_tick();
  const auto v = trace::JsonValue::parse(ex.to_json());
  ASSERT_TRUE(v.has_value());
  const trace::JsonValue& row = v->find("ticks")->items().at(0);
  EXPECT_EQ(row.find("now_ns")->as_u64(), 7000u);
  const auto& paths = row.find("paths")->items();
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[1].find("path")->as_u64(), 1u);
  EXPECT_EQ(paths[1].find("samples")->as_u64(), 200u);
  EXPECT_EQ(paths[1].find("p999_ns")->as_u64(), 1600u);
  const trace::JsonValue* stages = paths[1].find("stage_sum_ns");
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(stages->find("service")->as_u64(), 10'000u);
  EXPECT_EQ(stages->find("queue_wait"), nullptr)
      << "zero stages are omitted";
}

TEST(SnapshotExporter, CounterDeltasDiffTheRegistryBetweenTicks) {
  std::uint64_t hits = 0;
  trace::StatsRegistry reg;
  reg.add_counter("dp.hits", [&] { return hits; });
  SnapshotExporter ex({.capacity_ticks = 16, .registry = &reg});
  hits = 5;
  ex.begin_tick(0, 0);
  ex.end_tick();
  hits = 12;
  ex.begin_tick(1, 1000);
  ex.end_tick();
  ex.begin_tick(2, 2000);  // no movement: delta object omitted entirely
  ex.end_tick();
  const auto v = trace::JsonValue::parse(ex.to_json());
  ASSERT_TRUE(v.has_value());
  const auto& ticks = v->find("ticks")->items();
  ASSERT_EQ(ticks.size(), 3u);
  EXPECT_EQ(ticks[0].find_path({"counter_deltas", "dp.hits"})->as_u64(), 5u);
  EXPECT_EQ(ticks[1].find_path({"counter_deltas", "dp.hits"})->as_u64(), 7u);
  EXPECT_EQ(ticks[2].find("counter_deltas"), nullptr);
}

TEST(SnapshotExporter, PrometheusRendersNewestTickAndCumulativeCounters) {
  std::uint64_t q = 0;
  trace::StatsRegistry reg;
  reg.add_counter("ctrl.quarantines", [&] { return q; });
  SnapshotExporter ex({.capacity_ticks = 8, .registry = &reg});
  q = 3;
  ex.begin_tick(41, 41'000);
  ex.add_path(make_path(1, 10));
  ex.end_tick();
  const std::string prom = ex.to_prometheus();
  EXPECT_NE(prom.find("mdp_telem_tick 41\n"), std::string::npos);
  EXPECT_NE(prom.find("mdp_telem_window_p99_ns{path=\"1\"} 40\n"),
            std::string::npos);
  EXPECT_NE(prom.find("mdp_telem_window_stage_sum_ns{path=\"1\","
                      "stage=\"service\"} 500\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE mdp_ctrl_quarantines counter\n"),
            std::string::npos)
      << "registry keys must be mapped to the Prometheus charset";
  EXPECT_NE(prom.find("mdp_ctrl_quarantines 3\n"), std::string::npos);
}

}  // namespace
}  // namespace mdp
