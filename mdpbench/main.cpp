// mdpbench: the repository benchmark. One binary, three workloads:
//
//   sim_packet  the paper's headline on the simulated plane, ctrl online
//   sim_flows   flow-level RPC with flow replication (RepNet's case)
//   wire_loop   64 B frames through the real-thread plane over loopback
//
//   mdpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--spans-out <file>]
//
// Every run checks its outputs (exactly-once delivery, pool accounting,
// flow completion; for the sim workloads also equality with the harness
// and run-to-run determinism) and prints one JSON object as its last line.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// The exit code is 0 only if every check passed. See README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_stats.hpp"
#include "sim_workloads.hpp"
#include "wire_loop.hpp"

namespace mdp::mdpbench {
namespace {

// --- sizes ---------------------------------------------------------------------
// sim_packet: > 1,000 measured samples beyond p99.9.
constexpr std::uint64_t kPacketPackets = 1'200'000;
constexpr std::uint64_t kPacketWarmup = 100'000;
constexpr std::uint64_t kPacketEquivPackets = 60'000;
constexpr std::uint64_t kPacketEquivWarmup = 6'000;
// sim_flows: tens of thousands of flows.
constexpr std::uint64_t kFlows = 20'000;
constexpr std::uint64_t kFlowsWarmupPackets = 50'000;
constexpr std::uint64_t kFlowsEquiv = 1'500;
constexpr std::size_t kMaxReps = 64;
// wire_loop: independent set-ups per run.
constexpr std::size_t kWireSegments = 4;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> errors;

  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

double median(std::vector<double> v) { return percentile(v, 0.5); }

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// p99 of the packets the reorder buffer actually held: every egress
/// records a dwell, and in-order packets record 0.
std::uint64_t held_p99(const stats::LatencyHistogram& dwell) {
  double zero_frac = 0;
  for (const auto& [v, f] : dwell.cdf())
    if (v == 0) zero_frac = f;
  if (zero_frac >= 1.0) return 0;
  return dwell.quantile(zero_frac + 0.99 * (1.0 - zero_frac));
}

std::uint64_t host_deadline(double seconds) {
  return host_now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
}

void print_window_line(const char* label, const WindowSeries& w,
                       const char* unit) {
  const Quartiles q = w.stats();
  std::printf("# windows %s: q1 %.4f median %.4f q3 %.4f %s over %zu "
              "windows (%llu dropped)\n",
              label, q.q1, q.median, q.q3, unit, q.n,
              static_cast<unsigned long long>(w.dropped()));
}

/// Throughput lines and metrics shared by every workload. Returns the
/// gated ref_mpps: the scaled windows when the run probed host speed per
/// window, else the raw ones.
double report_rates(const RateWindows& plain, const RateWindows& traced,
                    bool trace, std::map<std::string, double>& L) {
  const bool scaled = plain.ref().size() > 0;
  print_window_line("host_mpps (untraced, raw)", plain.raw(), "Mpps");
  if (scaled) {
    print_window_line("host speed probe", plain.probe_ns(), "ns/op");
    print_window_line("ref_mpps (untraced, at reference speed)", plain.ref(),
                      "Mpps");
    L["host.probe_ns_per_op"] = plain.probe_ns().stats().median;
  }
  if (trace) print_window_line("host_mpps (traced, raw)", traced.raw(), "Mpps");
  L["host_mpps"] = plain.raw().stats().median;
  if (trace)
    L["trace.overhead_ratio"] =
        ratio(plain.raw().stats().median, traced.raw().stats().median);
  return scaled ? plain.ref().stats().median : plain.raw().stats().median;
}

SpanTracer::Agg sum_agg(const SpanTracer::Agg& a, const SpanTracer::Agg& b) {
  return {a.calls + b.calls, a.total_ns + b.total_ns, a.child_ns + b.child_ns};
}

using SpanTotals =
    std::array<SpanTracer::Agg, static_cast<std::size_t>(SpanKind::kCount)>;

const SpanTracer::Agg& at(const SpanTotals& t, SpanKind k) {
  return t[static_cast<std::size_t>(k)];
}

double per_call(const SpanTracer::Agg& a) {
  return ratio(static_cast<double>(a.total_ns), static_cast<double>(a.calls));
}

/// The per-layer names every traced run reports, in print order, with
/// units. Values a workload does not exercise stay 0.
const std::vector<std::pair<std::string, std::string>>& layer_schema() {
  static const std::vector<std::pair<std::string, std::string>> s = {
      {"host_mpps", "Mpps"},
      {"host.probe_ns_per_op", "ns/op"},
      {"lat_p50_us", "us"},
      {"lat_p999_us", "us"},
      {"lc_lat_p999_us", "us"},
      {"dup_frac", "frac"},
      {"fct_short_p50_us", "us"},
      {"fct_short_p99_us", "us"},
      {"fct_long_p99_us", "us"},
      {"sim.events_per_pkt", "events/pkt"},
      {"sim.step_self_ns", "ns/pkt"},
      {"sim.queue_peak", "count"},
      {"core.ingress_ns", "ns/pkt"},
      {"core.select_ns", "ns/call"},
      {"core.copies_per_pkt", "copies/pkt"},
      {"core.hedges_per_pkt", "hedges/pkt"},
      {"core.dup_drops_per_pkt", "drops/pkt"},
      {"core.ooo_frac", "frac"},
      {"core.reorder_timeouts", "count"},
      {"core.reorder_dwell_p99_us", "us"},
      {"core.flows_replicated_frac", "frac"},
      {"core.late_drops", "count"},
      {"core.queue_drops", "count"},
      {"nf.chain_ns_per_pkt", "ns/pkt"},
      {"nf.setup_s", "s"},
      {"nf.setup_mb", "MB"},
      {"nf.filtered_frac", "frac"},
      {"harness.calibration_s", "s"},
      {"net.parse_ns", "ns/pkt"},
      {"net.pool_allocs_per_pkt", "allocs/pkt"},
      {"net.pool_in_use_end", "count"},
      {"net.build_ns_per_frame", "ns/frame"},
      {"prog.heap_allocs_per_pkt", "allocs/pkt"},
      {"ctrl.tick_ns", "ns/tick"},
      {"ctrl.ticks", "count"},
      {"ctrl.decisions", "count"},
      {"ctrl.quarantines", "count"},
      {"ctrl.hedge_timeout_changes", "count"},
      {"io.tx_ns_per_frame", "ns/frame"},
      {"io.rx_ns_per_frame", "ns/frame"},
      {"core.pump_ns_per_frame", "ns/frame"},
      {"core.pump_fill", "frac"},
      {"core.empty_pump_frac", "frac"},
      {"core.rejected_per_frame", "frac"},
      {"ring.path_inflight_mean", "frames"},
      {"io.rtt_p50_us", "us"},
      {"io.rtt_p99_us", "us"},
      {"trace.host_ns_per_pkt", "ns/pkt"},
      {"trace.layers_ns_per_pkt", "ns/pkt"},
      {"trace.residue_ns_per_pkt", "ns/pkt"},
      {"trace.overhead_ratio", "ratio"},
  };
  return s;
}

/// The per-layer values of an untraced run, as `#` lines with units.
void print_metric_lines(const std::map<std::string, double>& vals) {
  for (const auto& [name, unit] : layer_schema()) {
    auto it = vals.find(name);
    if (it != vals.end())
      std::printf("# metric %s = %.6g %s\n", name.c_str(), it->second,
                  unit.c_str());
  }
}

/// Fill `r.layer` in schema order from `vals` (missing names read 0).
void emit_layers(Report& r, const std::map<std::string, double>& vals) {
  for (const auto& [name, unit] : layer_schema()) {
    auto it = vals.find(name);
    r.layer.push_back({name, it == vals.end() ? 0.0 : it->second, unit});
  }
  for (const auto& [name, v] : vals) {
    bool known = false;
    for (const auto& s : layer_schema()) known = known || s.first == name;
    if (!known) r.fail("internal: unlisted per-layer metric " + name);
  }
}

/// Reconciliation of a traced run: span self times per packet against
/// host ns per packet over the same measured phase.
void reconcile(std::map<std::string, double>& L, const SpanTotals& t,
               double host_ns, double packets,
               std::initializer_list<SpanKind> kinds) {
  double layers = 0;
  std::printf("# reconciliation (ns per packet, traced run):\n");
  for (SpanKind k : kinds) {
    const double self = ratio(static_cast<double>(at(t, k).self_ns()), packets);
    layers += self;
    std::printf("#   %-16s self %10.1f  (%llu calls)\n", span_name(k), self,
                static_cast<unsigned long long>(at(t, k).calls));
  }
  const double host = ratio(host_ns, packets);
  std::printf("#   %-16s      %10.1f\n#   %-16s      %10.1f\n#   %-16s      "
              "%10.1f\n",
              "sum of layers", layers, "host", host, "residue", host - layers);
  L["trace.host_ns_per_pkt"] = host;
  L["trace.layers_ns_per_pkt"] = layers;
  L["trace.residue_ns_per_pkt"] = host - layers;
}

// --- sim workloads -----------------------------------------------------------------

enum class SimKind { kPacket, kFlows };

void run_sim(SimKind kind, std::uint64_t seed, double seconds, bool trace,
             const std::string& spans_out, Report& r) {
  const bool packet = kind == SimKind::kPacket;
  const harness::ScenarioConfig cfg =
      packet ? sim_packet_config(seed, kPacketPackets, kPacketWarmup)
             : sim_flows_config(seed);
  const std::uint64_t warmup = packet ? kPacketWarmup : kFlowsWarmupPackets;

  // Equivalence with the harness (and traced == untraced) at reduced size,
  // on this run's seed. Untimed.
  {
    const std::string err =
        packet ? check_equivalence_packet(sim_packet_config(
                     seed, kPacketEquivPackets, kPacketEquivWarmup))
               : check_equivalence_flows(sim_flows_config(seed), kFlowsEquiv);
    r.check(err.empty(), "equivalence with harness: " + err);
    std::printf("# equivalence with harness::%s at seed %llu: %s\n",
                packet ? "run_scenario" : "run_rpc_scenario",
                static_cast<unsigned long long>(seed),
                err.empty() ? "identical" : err.c_str());
  }

  HostSpeedProbe probe;
  RateWindows plain_w(8192, &probe), traced_w(8192, nullptr);
  std::vector<double> setup, calib;
  SpanTracer tracer(4096);
  PacketCapture capture(trace ? 32768 : 0, trace ? (16u << 20) : 0);
  SpanTotals spans{};
  double traced_ns = 0, traced_pkts = 0;
  std::vector<double> chain_ns, parse_ns, nf_setup_s, nf_setup_mb;
  SimCounts first;
  std::string digest0;
  bool deterministic = true;
  std::size_t reps = 0, traced_reps = 0;
  const std::uint64_t deadline = host_deadline(seconds);

  std::uint64_t last_rep_ns = 0;
  while (reps < kMaxReps) {
    const bool traced = trace && reps % 2 == 1;
    // Stop once another repeat would end past the deadline.
    if (reps >= 2 && (!trace || traced_reps > 0) &&
        host_now_ns() + last_rep_ns >= deadline)
      break;
    const std::uint64_t rep_start = host_now_ns();
    SimOptions opt;
    opt.warmup_packets = warmup;
    opt.windows = traced ? &traced_w : &plain_w;
    if (traced) {
      tracer.reset();
      capture.clear();
      opt.tracer = &tracer;
      opt.capture = &capture;
    }
    SimRun run = packet ? run_sim_packet(cfg, opt)
                        : run_sim_flows(cfg, kFlows, opt);
    const std::string digest = run.counts.digest();
    if (reps == 0) {
      first = run.counts;
      digest0 = digest;
    } else if (digest != digest0) {
      deterministic = false;
      r.fail("determinism: run " + std::to_string(reps) +
             (traced ? " (traced)" : "") + " differs from run 0");
    }
    setup.push_back(run.host.setup_s);
    calib.push_back(run.host.calibration_s);
    if (traced) {
      ++traced_reps;
      if (tracer.depth() != 0) r.fail("tracer: unbalanced spans");
      for (std::size_t i = 0; i < spans.size(); ++i)
        spans[i] = sum_agg(spans[i], run.host.spans[i]);
      traced_ns += static_cast<double>(run.host.measured_ns);
      traced_pkts += static_cast<double>(run.counts.measured_ingress);
      const LayerPass lp =
          run_layer_pass(capture, cfg.chain, cfg.num_paths, tracer);
      chain_ns.push_back(lp.chain_ns_per_pkt);
      parse_ns.push_back(lp.parse_ns_per_pkt);
      nf_setup_s.push_back(lp.setup_s);
      nf_setup_mb.push_back(lp.setup_mb);
      if (traced_reps == 1 && !spans_out.empty()) tracer.write_raw(spans_out);
    }
    ++reps;
    last_rep_ns = host_now_ns() - rep_start;
  }
  std::printf("# %zu runs (%zu traced) of the same seeded work; run-to-run "
              "determinism: %s\n",
              reps, traced_reps, deterministic ? "identical" : "DIFFERS");

  const SimCounts& c = first;
  const double offered = static_cast<double>(c.offered);
  const std::uint64_t filtered = c.counter("dp.chain_filtered");
  const std::uint64_t qdrops = c.counter("dp.queue_drops");

  // Correctness of the outputs.
  r.check(c.pool_in_use_end == 0, "pool: packets still in use at quiesce");
  r.check(c.pool_allocs == c.pool_recycles, "pool: allocs != recycles");
  r.check(c.duplicates == 0, "exactly-once: duplicate egress");
  r.check(c.unknown == 0, "exactly-once: egress of a packet never offered");
  r.check(c.missing == 0, "exactly-once: offered packets never egressed");
  r.check(qdrops == 0, "path queue drops");
  double delivered = 0;
  if (packet) {
    r.attempted = c.offered;
    r.failed = c.duplicates + c.missing + c.unknown;
    delivered = ratio(static_cast<double>(c.exactly_once),
                      static_cast<double>(c.offered - filtered - qdrops));
    r.check(c.offered == cfg.packets, "generator: short of its packet count");
  } else {
    // A flow fails if it never completed or any of its packets egressed
    // twice (or was never offered).
    r.attempted = c.flows_started;
    r.failed = std::min(c.flows_started, (c.flows_started - c.flows_completed) +
                                             c.bad_flows);
    delivered = ratio(static_cast<double>(r.attempted - r.failed),
                      static_cast<double>(r.attempted));
    r.check(c.flows_started == kFlows, "rpc: short of its flow count");
    r.check(c.flows_completed == c.flows_started, "rpc: flows not completed");
  }

  // End-to-end metrics (untraced runs only).
  std::map<std::string, double> L;
  r.e2e = {{"setup_s", median(setup), "s"},
           {"peak_rss_mb", peak_rss_mb(), "MB"},
           {"delivered_frac", delivered, "frac"},
           {"ref_mpps", report_rates(plain_w, traced_w, trace, L), "Mpps"}};

  // The paper's tails: virtual time, deterministic per seed.
  if (packet) {
    L["lat_p50_us"] = us(c.latency.p50());
    L["lat_p999_us"] = us(c.latency.p999());
    L["lc_lat_p999_us"] = us(c.lc_latency.p999());
    std::printf("# paper: %llu measured samples, %llu beyond p99.9 "
                "(%llu LC samples)\n",
                static_cast<unsigned long long>(c.latency.count()),
                static_cast<unsigned long long>(c.latency.count() / 1000),
                static_cast<unsigned long long>(c.lc_latency.count()));
  } else {
    L["fct_short_p50_us"] = us(c.short_fct.p50());
    L["fct_short_p99_us"] = us(c.short_fct.p99());
    L["fct_long_p99_us"] = us(c.long_fct.p99());
    std::printf("# paper: %llu short flows, %llu long flows\n",
                static_cast<unsigned long long>(c.short_fct.count()),
                static_cast<unsigned long long>(c.long_fct.count()));
  }
  L["dup_frac"] = c.dup_byte_frac;

  // Exact counts.
  L["sim.events_per_pkt"] = ratio(static_cast<double>(c.events), offered);
  L["sim.queue_peak"] = static_cast<double>(c.queue_peak);
  L["core.copies_per_pkt"] =
      ratio(static_cast<double>(c.counter("dp.replicas") +
                                c.counter("dp.flow_replicas")),
            offered);
  L["core.hedges_per_pkt"] =
      ratio(static_cast<double>(c.counter("dp.hedges")), offered);
  L["core.dup_drops_per_pkt"] =
      ratio(static_cast<double>(c.counter("dp.dup_dropped")), offered);
  L["core.ooo_frac"] = c.ooo_fraction;
  L["core.reorder_timeouts"] =
      static_cast<double>(c.counter("reorder.timeout_releases"));
  L["core.reorder_dwell_p99_us"] = us(held_p99(c.reorder_dwell));
  L["core.flows_replicated_frac"] =
      ratio(static_cast<double>(c.flows_replicated),
            static_cast<double>(c.flows_seen));
  L["core.late_drops"] = static_cast<double>(c.counter("dedup.late_drops"));
  L["core.queue_drops"] = static_cast<double>(qdrops);
  L["nf.filtered_frac"] =
      ratio(static_cast<double>(filtered),
            static_cast<double>(c.counter("dp.dispatched")));
  L["net.pool_allocs_per_pkt"] =
      ratio(static_cast<double>(c.pool_allocs), offered);
  L["net.pool_in_use_end"] = static_cast<double>(c.pool_in_use_end);
  L["prog.heap_allocs_per_pkt"] =
      ratio(static_cast<double>(c.heap_allocs_measured),
            static_cast<double>(c.measured_ingress));
  L["ctrl.ticks"] = static_cast<double>(c.ctrl_ticks);
  L["ctrl.decisions"] = static_cast<double>(c.ctrl_decisions);
  L["ctrl.quarantines"] = static_cast<double>(c.ctrl_quarantines);
  L["ctrl.hedge_timeout_changes"] =
      static_cast<double>(c.ctrl_hedge_timeout_changes);
  L["harness.calibration_s"] = median(calib);

  if (trace) {
    L["sim.step_self_ns"] = ratio(
        static_cast<double>(at(spans, SpanKind::kStep).self_ns()), traced_pkts);
    L["core.ingress_ns"] = per_call(at(spans, SpanKind::kIngress));
    L["core.select_ns"] = per_call(at(spans, SpanKind::kSelect));
    L["ctrl.tick_ns"] = per_call(at(spans, SpanKind::kTick));
    L["nf.chain_ns_per_pkt"] = median(chain_ns);
    L["net.parse_ns"] = median(parse_ns);
    L["nf.setup_s"] = median(nf_setup_s);
    L["nf.setup_mb"] = median(nf_setup_mb);
    reconcile(L, spans, traced_ns, traced_pkts,
              {SpanKind::kStep, SpanKind::kIngress, SpanKind::kSelect,
               SpanKind::kTick, SpanKind::kEgress});
    emit_layers(r, L);
  } else {
    // Every run prints the paper tails and exact counts for the record.
    print_metric_lines(L);
  }
}

// --- wire_loop ---------------------------------------------------------------------

void run_wire(std::uint64_t seed, double seconds, bool trace,
              const std::string& spans_out, Report& r) {
  // The plane's own three spinning threads share the cores with the driver,
  // so a probe between windows reads them, not the host: the wire's
  // windows stay unscaled, and host speed is read once per segment before
  // the plane starts, as a diagnostic.
  HostSpeedProbe probe;
  RateWindows plain_w(8192, nullptr), traced_w(8192, nullptr);
  std::vector<double> setup, probe_ns;
  SpanTracer tracer(4096);
  SpanTotals spans{};
  stats::LatencyHistogram rtt;
  std::uint64_t sent = 0, failed = 0, rejected = 0, pool_allocs = 0,
                in_use = 0;
  double traced_ns = 0, traced_frames = 0, traced_sent = 0, traced_admitted = 0;
  std::uint64_t pumps = 0, empty = 0, admitted = 0, heap = 0, frames = 0;
  double inflight = 0;
  std::size_t burst = 1;

  for (std::size_t seg = 0; seg < kWireSegments; ++seg) {
    const bool traced = trace && seg % 2 == 1;
    WireOptions opt;
    opt.seed = seed * 1000 + seg;
    opt.seconds = seconds / static_cast<double>(kWireSegments);
    opt.windows = traced ? &traced_w : &plain_w;
    if (traced) {
      tracer.reset();
      opt.tracer = &tracer;
    }
    probe_ns.push_back(probe.ns_per_op());
    const WireRun w = run_wire_loop(opt);
    setup.push_back(w.setup_s);
    sent += w.sent;
    failed += w.lost + w.duplicates + w.unknown;
    rejected += w.rejected;
    pool_allocs += w.pool_allocs;
    in_use += w.pool_in_use_end;
    r.check(w.pool_allocs == w.pool_recycles, "pool: allocs != recycles");
    r.check(w.pool_in_use_end == 0, "pool: frames still in use at quiesce");
    r.check(w.returned_once == w.sent, "exactly-once: frames not returned");
    r.check(w.duplicates == 0, "exactly-once: duplicate frames");
    r.check(w.unknown == 0, "exactly-once: unknown frames");
    rtt.merge(w.rtt);
    pumps += w.pumps;
    empty += w.empty_pumps;
    admitted += w.admitted;
    inflight += w.inflight_sum;
    heap += w.heap_allocs;
    frames += w.measured_frames;
    burst = w.burst;
    if (traced) {
      for (std::size_t i = 0; i < spans.size(); ++i)
        spans[i] = sum_agg(spans[i], w.spans[i]);
      traced_ns += static_cast<double>(w.measured_ns);
      traced_frames += static_cast<double>(w.measured_frames);
      traced_sent += static_cast<double>(w.measured_sent);
      traced_admitted += static_cast<double>(w.admitted);
      if (!spans_out.empty()) tracer.write_raw(spans_out);
    }
  }
  r.attempted = sent;
  r.failed = failed;
  r.check(failed == 0, "exactly-once: frames lost or repeated");

  std::map<std::string, double> L;
  L["host.probe_ns_per_op"] = median(probe_ns);
  r.e2e = {{"setup_s", median(setup), "s"},
           {"peak_rss_mb", peak_rss_mb(), "MB"},
           {"delivered_frac",
            ratio(static_cast<double>(sent - failed), static_cast<double>(sent)),
            "frac"},
           {"ref_mpps", report_rates(plain_w, traced_w, trace, L), "Mpps"}};
  std::printf("# rtt (driver tx -> rx, host clock, diagnostic): p50 %.2f us "
              "p99 %.2f us p99.9 %.2f us over %llu frames\n",
              us(rtt.p50()), us(rtt.p99()), us(rtt.p999()),
              static_cast<unsigned long long>(rtt.count()));

  L["net.pool_allocs_per_pkt"] =
      ratio(static_cast<double>(pool_allocs), static_cast<double>(sent));
  L["net.pool_in_use_end"] = static_cast<double>(in_use);
  L["prog.heap_allocs_per_pkt"] =
      ratio(static_cast<double>(heap), static_cast<double>(frames));
  L["core.pump_fill"] =
      ratio(static_cast<double>(admitted), static_cast<double>(pumps * burst));
  L["core.empty_pump_frac"] =
      ratio(static_cast<double>(empty), static_cast<double>(pumps));
  L["core.rejected_per_frame"] =
      ratio(static_cast<double>(rejected), static_cast<double>(sent));
  L["ring.path_inflight_mean"] = ratio(inflight, static_cast<double>(pumps));
  L["io.rtt_p50_us"] = us(rtt.p50());
  L["io.rtt_p99_us"] = us(rtt.p99());
  if (trace) {
    L["io.tx_ns_per_frame"] = ratio(
        static_cast<double>(at(spans, SpanKind::kTx).total_ns), traced_sent);
    L["io.rx_ns_per_frame"] = ratio(
        static_cast<double>(at(spans, SpanKind::kRx).total_ns), traced_frames);
    L["net.build_ns_per_frame"] = ratio(
        static_cast<double>(at(spans, SpanKind::kBuild).total_ns), traced_sent);
    L["core.pump_ns_per_frame"] =
        ratio(static_cast<double>(at(spans, SpanKind::kPump).total_ns),
              traced_admitted);
    reconcile(L, spans, traced_ns, traced_frames,
              {SpanKind::kPump, SpanKind::kRx, SpanKind::kTx, SpanKind::kBuild});
    emit_layers(r, L);
  } else {
    print_metric_lines(L);
  }
}

// --- output ----------------------------------------------------------------------

void print_json(const Report& r, bool trace) {
  const std::vector<Metric>& ms = trace ? r.layer : r.e2e;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(), v, ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: mdpbench --workload sim_packet|sim_flows|wire_loop "
               "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace mdp::mdpbench

int main(int argc, char** argv) {
  using namespace mdp::mdpbench;
  std::string workload, spans_out;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") seconds = std::strtod(v, nullptr);
    else if (k == "--trace") trace = std::atoi(v);
    else if (k == "--spans-out") spans_out = v;
    else return usage();
  }
  if (argc % 2 == 0 || seconds <= 0 || (trace != 0 && trace != 1))
    return usage();

  Report r;
  std::printf("# mdpbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              seconds, trace);
  try {
    if (workload == "sim_packet")
      run_sim(SimKind::kPacket, seed, seconds, trace == 1, spans_out, r);
    else if (workload == "sim_flows")
      run_sim(SimKind::kFlows, seed, seconds, trace == 1, spans_out, r);
    else if (workload == "wire_loop")
      run_wire(seed, seconds, trace == 1, spans_out, r);
    else
      return usage();
  } catch (const std::exception& e) {
    r.fail(std::string("exception: ") + e.what());
  }
  for (const Metric& m : r.e2e)
    std::printf("# e2e %s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  if (r.attempted == 0) r.fail("no work attempted");
  for (const std::string& e : r.errors)
    std::printf("# CHECK FAILED: %s\n", e.c_str());
  print_json(r, trace == 1);
  return r.correct ? 0 : 1;
}
