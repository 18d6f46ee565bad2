#include "sim_workloads.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "click/router.hpp"
#include "core/path_egress.hpp"
#include "net/packet_builder.hpp"
#include "nf/chain.hpp"
#include "telem/snapshot_exporter.hpp"
#include "workload/flow_size.hpp"

namespace mdp::mdpbench {

harness::ScenarioConfig sim_packet_config(std::uint64_t seed,
                                          std::uint64_t packets,
                                          std::uint64_t warmup_packets) {
  harness::ScenarioConfig cfg;
  cfg.policy = "adaptive";
  cfg.num_paths = 4;
  cfg.chain = "fw-nat-lb";
  cfg.load = 0.7;
  cfg.packets = packets;
  cfg.warmup_packets = warmup_packets;
  cfg.num_flows = 256;
  cfg.lc_fraction = 0.1;
  cfg.mean_payload = 200;
  cfg.interference = true;
  cfg.interference_cfg.duty_cycle = 0.1;
  cfg.interference_cfg.mean_burst_ns = 100'000;
  cfg.interference_paths = {2};
  cfg.seed = seed;

  cfg.ctrl_enabled = true;
  cfg.telem_enabled = true;
  cfg.ctrl_tick_interval_ns = sim::kMillisecond;
  // At 200 us some seeds set off a spiral: tails pass the SLO, the hedger
  // raises copies and a quarantine leaves three paths near saturation, so
  // queues, RSS and host speed depend on the seed. 400 us keeps the PID
  // hedge timeout acting without it.
  cfg.ctrl.slo_target_ns = 400'000;
  cfg.ctrl.violation_threshold = 0.05;
  cfg.ctrl.min_samples = 32;
  cfg.ctrl.backlog_limit = 256;
  cfg.ctrl.path.quarantine_after = 2;
  cfg.ctrl.path.probation_probes = 16;
  cfg.ctrl.probe_grant_per_tick = 16;
  cfg.ctrl.min_serving_paths = 3;
  cfg.ctrl.hedger.enabled = true;
  cfg.ctrl.hedger.max_replicas = 2;
  cfg.ctrl.hedger.raise_threshold = 1.0;
  cfg.ctrl.hedger.lower_threshold = 0.3;
  cfg.ctrl.hedger.sustain_ticks = 2;
  cfg.ctrl.hedger.cooldown_ticks = 10;
  cfg.ctrl.hedger.min_samples = 32;
  cfg.ctrl.hedge_timeout.enabled = true;
  cfg.ctrl.hedge_timeout.min_timeout_ns = 5'000;
  cfg.ctrl.hedge_timeout.min_samples = 32;
  // Large enough that the log never evicts: ctrl.decisions is its length.
  cfg.ctrl.decision_log_capacity = 1u << 16;
  return cfg;
}

harness::ScenarioConfig sim_flows_config(std::uint64_t seed) {
  harness::ScenarioConfig cfg;
  cfg.policy = "rss";
  cfg.num_paths = 4;
  cfg.chain = "fw-nat-lb";
  cfg.load = 0.6;
  cfg.interference = true;
  cfg.interference_cfg.duty_cycle = 0.15;
  cfg.interference_cfg.mean_burst_ns = 120'000;
  cfg.dp.flow_repl.enabled = true;
  cfg.dp.flow_repl.size_cutoff_bytes =
      static_cast<std::uint32_t>(kShortFlowBytes);
  cfg.dp.flow_repl.replicas = 2;
  cfg.seed = seed;
  return cfg;
}

// --- PacketCapture -----------------------------------------------------------

PacketCapture::PacketCapture(std::size_t max_packets, std::size_t arena_bytes)
    : arena_(arena_bytes), recs_(max_packets) {}

void PacketCapture::add(const net::Packet& pkt) noexcept {
  if (n_ == recs_.size() || used_ + pkt.length() > arena_.size()) return;
  std::memcpy(arena_.data() + used_, pkt.data(), pkt.length());
  recs_[n_++] = Rec{used_, pkt.length(), pkt.anno()};
  used_ += pkt.length();
}

net::PacketPtr PacketCapture::materialize(std::size_t i,
                                          net::PacketPool& pool) const {
  net::PacketPtr p = pool.alloc();
  if (!p) return p;
  const Rec& r = recs_[i];
  p->assign(std::span<const std::byte>(arena_.data() + r.offset, r.len));
  p->anno() = r.anno;
  return p;
}

namespace {

constexpr std::size_t kNumSpans = static_cast<std::size_t>(SpanKind::kCount);
constexpr std::uint64_t kWindowPackets = 20'000;
using SpanAggs = std::array<SpanTracer::Agg, kNumSpans>;

SpanAggs snapshot_spans(const SpanTracer* t) {
  SpanAggs out{};
  if (t)
    for (std::size_t i = 0; i < kNumSpans; ++i)
      out[i] = t->agg(static_cast<SpanKind>(i));
  return out;
}

SpanAggs minus(const SpanAggs& a, const SpanAggs& b) {
  SpanAggs out{};
  for (std::size_t i = 0; i < kNumSpans; ++i) {
    out[i].calls = a[i].calls - b[i].calls;
    out[i].total_ns = a[i].total_ns - b[i].total_ns;
    out[i].child_ns = a[i].child_ns - b[i].child_ns;
  }
  return out;
}

/// Forwarding decorator around the policy: every virtual call goes to the
/// wrapped scheduler unchanged; select/select_batch are spans when traced.
class TracedScheduler final : public core::Scheduler {
 public:
  TracedScheduler(core::SchedulerPtr inner, SpanTracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  void select(const net::Packet& pkt, const core::PathContext& ctx,
              sim::Rng& rng, core::PathVec& out) override {
    Span s(tracer_, SpanKind::kSelect, pkt.anno().flow_id);
    inner_->select(pkt, ctx, rng, out);
  }
  void select_batch(std::span<const net::Packet* const> pkts,
                    const core::PathContext& ctx, sim::Rng& rng,
                    std::vector<core::PathVec>& out) override {
    Span s(tracer_, SpanKind::kSelect, pkts.size());
    inner_->select_batch(pkts, ctx, rng, out);
  }
  sim::TimeNs hedge_timeout_ns(const net::Packet& pkt,
                               const core::PathContext& ctx) const override {
    return inner_->hedge_timeout_ns(pkt, ctx);
  }
  void on_complete(std::uint16_t path, sim::TimeNs latency_ns) override {
    inner_->on_complete(path, latency_ns);
  }
  bool set_replication(std::size_t replicas) override {
    return inner_->set_replication(replicas);
  }
  bool set_hedge_timeout_ns(sim::TimeNs timeout_ns) override {
    return inner_->set_hedge_timeout_ns(timeout_ns);
  }

 private:
  core::SchedulerPtr inner_;
  SpanTracer* tracer_;
};

core::SchedulerPtr build_policy(const harness::ScenarioConfig& cfg) {
  auto s = core::make_scheduler(cfg.policy);
  if (!s) throw std::invalid_argument("unknown policy '" + cfg.policy + "'");
  return s;
}

/// Event queue + pool + plane + interference, built in the order and with
/// the seeds harness::run_scenario uses.
struct Plane {
  sim::EventQueue eq;
  net::PacketPool pool{4096, 2048, /*allow_growth=*/true};
  std::unique_ptr<core::MdpDataPlane> dp;
  std::vector<std::unique_ptr<sim::InterferenceModel>> noise;

  Plane(const harness::ScenarioConfig& cfg, SpanTracer* tracer) {
    core::DataPlaneConfig dpc = cfg.dp;
    dpc.num_paths = cfg.num_paths;
    dpc.chain = cfg.chain;
    dpc.seed = cfg.seed * 7919 + 13;
    dp = std::make_unique<core::MdpDataPlane>(
        eq, pool, dpc,
        std::make_unique<TracedScheduler>(build_policy(cfg), tracer));
    if (cfg.interference) {
      std::vector<std::size_t> targets = cfg.interference_paths;
      if (targets.empty())
        for (std::size_t p = 0; p < cfg.num_paths; ++p) targets.push_back(p);
      for (std::size_t p : targets) {
        noise.push_back(std::make_unique<sim::InterferenceModel>(
            eq, dp->core(p), cfg.interference_cfg,
            cfg.seed * 104729 + p * 31 + 1));
        noise.back()->start();
      }
    }
  }
  ~Plane() { eq.clear(); }  // closures own packets: drop them first
};

/// The harness drives the queue in 20 ms virtual slices and checks its
/// done-predicate at each slice end. This reproduces that stop exactly
/// while stepping one event at a time: before an event past the current
/// boundary runs, the predicate sees the state as of that boundary.
class SliceStop {
 public:
  static constexpr sim::TimeNs kSlice = 20 * sim::kMillisecond;
  static constexpr sim::TimeNs kHorizon = 600 * sim::kSecond;

  /// `state` is the (work issued, work finished) pair the predicate reads.
  struct State {
    std::uint64_t issued = 0;
    std::uint64_t finished = 0;
  };

  explicit SliceStop(std::uint64_t target) : target_(target) {}

  /// Called with the state as it stood just before an event at virtual
  /// time `t` runs. Returns true once the run has stopped at a boundary
  /// before `t`.
  bool before(sim::TimeNs t, State s) {
    while (!stopped_ && t > boundary_) {
      if (done(s) || boundary_ >= kHorizon) {
        stopped_ = true;
        stop_ns_ = boundary_;
        break;
      }
      boundary_ += kSlice;
    }
    return stopped_;
  }
  bool stopped() const noexcept { return stopped_; }
  sim::TimeNs stop_ns() const noexcept { return stop_ns_; }
  /// True if the next boundary check would stop the run, should the state
  /// still be `s` then: the next event may be the one the harness never
  /// runs.
  bool would_stop(State s) const noexcept {
    return !stopped_ && s.issued >= target_ && s.finished == last_finished_;
  }

 private:
  // harness drive(): not done until all work is issued; then done once
  // the finished count stayed put for a whole slice.
  bool done(State s) {
    if (s.issued < target_) return false;
    const bool quiet = s.finished == last_finished_;
    last_finished_ = s.finished;
    return quiet;
  }
  std::uint64_t target_;
  std::uint64_t last_finished_ = 0;
  sim::TimeNs boundary_ = kSlice;
  sim::TimeNs stop_ns_ = 0;
  bool stopped_ = false;
};

/// Exactly-once books: one bit per (flow, per-flow sequence number). The
/// rare paths (a repeat, an unknown packet) keep their own state, so the
/// measured path costs one bit test per egress.
class ExactlyOnce {
 public:
  ExactlyOnce(std::size_t flows, std::size_t seqs_per_flow)
      : seen_(flows), offered_(flows, 0) {
    for (auto& b : seen_) b.reserve((seqs_per_flow + 63) / 64);
  }
  void on_ingress(std::uint32_t flow) {
    if (flow >= offered_.size()) {
      seen_.resize(flow + 1);
      offered_.resize(flow + 1, 0);
    }
    const std::uint64_t seq = offered_[flow]++;
    auto& b = seen_[flow];
    if (seq / 64 >= b.size()) b.resize(seq / 64 + 1, 0);
  }
  void on_egress(std::uint32_t flow, std::uint64_t seq) {
    if (flow >= offered_.size() || seq >= offered_[flow]) {
      ++unknown_;
      bad_flows_.insert(flow);
      return;
    }
    std::uint64_t& w = seen_[flow][seq / 64];
    const std::uint64_t m = std::uint64_t{1} << (seq % 64);
    if (w & m) {
      ++dups_;
      bad_flows_.insert(flow);
      repeated_.insert((static_cast<std::uint64_t>(flow) << 40) | seq);
    } else {
      w |= m;
      ++once_;
    }
  }
  /// `filtered`: packets the chain or a queue dropped by policy.
  void finish(std::uint64_t filtered, SimCounts& c) const {
    std::uint64_t offered = 0;
    for (auto n : offered_) offered += n;
    c.exactly_once = once_ - repeated_.size();
    c.duplicates = dups_;
    c.unknown = unknown_;
    c.missing = offered > once_ + filtered ? offered - once_ - filtered : 0;
    c.bad_flows = bad_flows_.size();
  }

 private:
  std::vector<std::vector<std::uint64_t>> seen_;
  std::vector<std::uint64_t> offered_;
  std::uint64_t once_ = 0, dups_ = 0, unknown_ = 0;
  std::set<std::uint64_t> repeated_;    ///< (flow, seq) egressed again
  std::set<std::uint32_t> bad_flows_;   ///< flows with a repeat or unknown
};

/// Host-side bookkeeping at ingress: setup end, rate windows, measured
/// phase boundaries (heap allocations and span totals).
class IngressClock {
 public:
  IngressClock(const SimOptions& opt, std::uint64_t setup_start_ns)
      : opt_(opt), setup_start_ns_(setup_start_ns) {}

  void on_ingress() {
    ++n_;
    if (n_ == 1) setup_end_ns_ = host_now_ns();
    if (n_ == opt_.warmup_packets + 1) {
      warm_ns_ = host_now_ns();
      window_start_ns_ = warm_ns_;
      warm_heap_ = t_heap_allocs;
      warm_spans_ = snapshot_spans(opt_.tracer);
      if (opt_.tracer) opt_.tracer->arm_raw();
    } else if (n_ > opt_.warmup_packets &&
               (n_ - opt_.warmup_packets - 1) % kWindowPackets == 0) {
      if (opt_.windows)
        opt_.windows->add(static_cast<double>(kWindowPackets),
                          host_now_ns() - window_start_ns_);
      window_start_ns_ = host_now_ns();
    }
    pending_last_ = true;
  }
  /// Stamp the end of the measured phase if an ingress happened since the
  /// last stamp; call after every event once all work has been issued, so
  /// the final stamp follows the run's last ingress.
  void mark_last() {
    if (!pending_last_) return;
    pending_last_ = false;
    last_ns_ = host_now_ns();
    last_heap_ = t_heap_allocs;
    last_spans_ = snapshot_spans(opt_.tracer);
  }

  std::uint64_t count() const noexcept { return n_; }
  void finish(SimCounts& c, SimHost& h) const {
    h.setup_s = static_cast<double>(setup_end_ns_ - setup_start_ns_) * 1e-9;
    if (n_ > opt_.warmup_packets && last_ns_) {
      h.measured_ns = last_ns_ - warm_ns_;
      h.spans = minus(last_spans_, warm_spans_);
      c.heap_allocs_measured = last_heap_ - warm_heap_;
      c.measured_ingress = n_ - opt_.warmup_packets;
    }
  }

 private:
  const SimOptions& opt_;
  std::uint64_t setup_start_ns_;
  std::uint64_t n_ = 0;
  std::uint64_t setup_end_ns_ = 0;
  std::uint64_t warm_ns_ = 0, window_start_ns_ = 0, last_ns_ = 0;
  std::uint64_t warm_heap_ = 0, last_heap_ = 0;
  bool pending_last_ = false;
  SpanAggs warm_spans_{}, last_spans_{};
};

/// Step the queue until the harness stop rule fires and return the
/// registry's counters as they stood at the stop boundary. `state` reads
/// the (issued, finished) pair; `after_step` runs after every event. The
/// event that crosses the boundary has already run when the stop is known,
/// so the counters are recorded before each event that may be that one.
template <typename StateFn, typename AfterStep>
std::map<std::string, std::uint64_t> drive(sim::EventQueue& eq,
                                           SliceStop& stop, SpanTracer* tracer,
                                           const trace::StatsRegistry& reg,
                                           StateFn state, AfterStep after_step) {
  std::map<std::string, std::uint64_t> at_stop;
  bool recorded = false;
  while (!stop.stopped()) {
    const SliceStop::State pre = state();
    if (stop.would_stop(pre)) {
      at_stop = reg.snapshot().counters;
      recorded = true;
    }
    bool ran;
    {
      Span s(tracer, SpanKind::kStep, eq.events_processed());
      ran = eq.step();
    }
    if (!ran) {
      stop.before(SliceStop::kHorizon + 1, pre);
      break;
    }
    stop.before(eq.now(), pre);
    after_step();
  }
  if (!recorded) at_stop = reg.snapshot().counters;  // stopped at the horizon
  return at_stop;
}

void fill_plane_counts(const Plane& a, SimCounts& c) {
  const auto& dp = *a.dp;
  c.offered = dp.ingress_count();
  c.egressed = dp.egress_count();
  c.ingress_bytes = dp.ingress_bytes();
  c.extra_copy_bytes = dp.extra_copy_bytes();
  c.dup_byte_frac = dp.duplicate_byte_fraction();
  c.ooo_fraction = dp.reorder().ooo_fraction();
  c.reorder_dwell.merge(dp.reorder().dwell());
  if (const core::FlowReplicator* r = dp.flow_replicator()) {
    c.flows_seen = r->flows_seen();
    c.flows_replicated = r->flows_replicated();
  }
  for (std::size_t p = 0; p < dp.num_paths(); ++p)
    c.per_path_dispatched.push_back(dp.monitor().dispatched(p));
  c.events = a.eq.events_processed();
  c.pool_allocs = a.pool.total_allocs();
  c.pool_recycles = a.pool.total_recycles();
  c.pool_in_use_end = a.pool.in_use();
}

}  // namespace

// --- sim_packet --------------------------------------------------------------

SimRun run_sim_packet(const harness::ScenarioConfig& cfg,
                      const SimOptions& opt) {
  SimRun run;
  SimCounts& c = run.counts;
  SpanTracer* tr = opt.tracer;
  ExactlyOnce books(cfg.num_flows, 2 * cfg.packets / cfg.num_flows + 256);

  const std::uint64_t setup_start = host_now_ns();
  IngressClock clock(opt, setup_start);
  Plane a(cfg, tr);
  trace::StatsRegistry reg;
  a.dp->register_stats(reg);

  // Control plane with telemetry, as run_scenario wires it for the
  // sim_packet_config() settings, with the benchmark owning the ticker.
  ctrl::SloMonitor slo_mon(cfg.num_paths, cfg.ctrl.slo_target_ns);
  ctrl::SimPlaneActuator actuator(a.eq, *a.dp, slo_mon);
  ctrl::Controller controller(cfg.ctrl, actuator, slo_mon);
  controller.register_stats(reg);
  slo_mon.register_stats(reg);
  telem::SnapshotExporter::Config tec;
  tec.capacity_ticks = cfg.telem_capacity_ticks;
  tec.registry = &reg;
  telem::SnapshotExporter telem_exporter(tec);
  controller.set_telem_exporter(&telem_exporter);

  std::unique_ptr<workload::TrafficGen> gen;
  SliceStop stop(cfg.packets);
  auto state = [&] {
    return SliceStop::State{gen ? gen->emitted() : 0, a.dp->egress_count()};
  };
  std::function<void()> arm_tick = [&] {
    a.eq.schedule_in(cfg.ctrl_tick_interval_ns, [&] {
      // A tick past the stop boundary never runs in the harness.
      if (stop.before(a.eq.now(), state())) return;
      {
        Span s(tr, SpanKind::kTick, controller.ticks());
        controller.tick(static_cast<std::uint64_t>(a.eq.now()));
      }
      arm_tick();
    });
  };
  arm_tick();

  a.dp->set_egress([&](net::PacketPtr pkt) {
    Span s(tr, SpanKind::kEgress, pkt->anno().flow_id);
    const auto& an = pkt->anno();
    slo_mon.observe(an.path_id, an.egress_ns - an.ingress_ns);
    books.on_egress(an.flow_id, an.seq);
    if (a.dp->egress_count() <= cfg.warmup_packets) return;
    const sim::TimeNs lat = an.egress_ns - an.ingress_ns;
    c.latency.record(lat);
    if (an.traffic_class == net::TrafficClass::kLatencyCritical)
      c.lc_latency.record(lat);
    ++c.measured;
  });

  const std::uint64_t calib_start = host_now_ns();
  const double svc = harness::mean_service_ns(cfg);
  run.host.calibration_s =
      static_cast<double>(host_now_ns() - calib_start) * 1e-9;
  const double mean_gap = svc / (static_cast<double>(cfg.num_paths) * cfg.load);
  workload::TrafficGenConfig tg;
  tg.seed = cfg.seed;
  tg.num_flows = cfg.num_flows;
  tg.latency_critical_fraction = cfg.lc_fraction;
  tg.mean_payload = cfg.mean_payload;
  gen = std::make_unique<workload::TrafficGen>(
      a.eq, a.pool, tg,
      std::make_unique<workload::PoissonArrivals>(mean_gap),
      [&](net::PacketPtr pkt) {
        clock.on_ingress();
        if (opt.capture && clock.count() > opt.warmup_packets)
          opt.capture->add(*pkt);
        books.on_ingress(pkt->anno().flow_id);
        Span s(tr, SpanKind::kIngress, pkt->anno().flow_id);
        a.dp->ingress(std::move(pkt));
      });

  gen->start(cfg.packets);
  std::uint64_t peak = 0;
  c.registry = drive(a.eq, stop, tr, reg, state, [&] {
    peak = std::max<std::uint64_t>(peak, a.eq.size());
    if (gen->emitted() == cfg.packets) clock.mark_last();
  });

  c.queue_peak = peak;
  fill_plane_counts(a, c);
  c.sim_duration_ns = stop.stop_ns();
  c.ctrl_ticks = controller.ticks();
  c.ctrl_decisions = controller.decisions().size();
  c.ctrl_quarantines = controller.quarantines();
  c.ctrl_reinstatements = controller.reinstatements();
  c.ctrl_hedge_timeout_changes = controller.hedge_timeout_adjustments();
  books.finish(c.counter("dp.chain_filtered") + c.counter("dp.queue_drops"),
               c);
  clock.finish(c, run.host);
  return run;
}

// --- sim_flows ---------------------------------------------------------------

SimRun run_sim_flows(const harness::ScenarioConfig& cfg,
                     std::uint64_t num_flows, const SimOptions& opt) {
  SimRun run;
  SimCounts& c = run.counts;
  SpanTracer* tr = opt.tracer;
  workload::RpcWorkloadConfig rc;
  ExactlyOnce books(num_flows + 1, rc.max_packets_per_flow);

  const std::uint64_t setup_start = host_now_ns();
  IngressClock clock(opt, setup_start);
  Plane a(cfg, tr);
  trace::StatsRegistry reg;
  a.dp->register_stats(reg);
  auto sizes = workload::flow_sizes_by_name(kFlowsCdf);

  const std::uint64_t calib_start = host_now_ns();
  const double svc = harness::mean_service_ns(cfg);
  run.host.calibration_s =
      static_cast<double>(host_now_ns() - calib_start) * 1e-9;
  const double pkt_rate = static_cast<double>(cfg.num_paths) * cfg.load / svc;
  rc.seed = cfg.seed;
  const double mean_pkts = std::min<double>(
      std::max(1.0, sizes->mean() / static_cast<double>(rc.mss)),
      static_cast<double>(rc.max_packets_per_flow));
  rc.mean_interarrival_ns = mean_pkts / pkt_rate;

  workload::RpcWorkload* rpc_ptr = nullptr;
  a.dp->set_egress([&](net::PacketPtr pkt) {
    Span s(tr, SpanKind::kEgress, pkt->anno().flow_id);
    books.on_egress(pkt->anno().flow_id, pkt->anno().seq);
    if (rpc_ptr) rpc_ptr->on_packet_egress(pkt->anno().flow_id, a.eq.now());
  });
  workload::RpcWorkload rpc(
      a.eq, a.pool, rc, std::move(sizes), [&](net::PacketPtr pkt) {
        clock.on_ingress();
        if (opt.capture && clock.count() > opt.warmup_packets)
          opt.capture->add(*pkt);
        books.on_ingress(pkt->anno().flow_id);
        Span s(tr, SpanKind::kIngress, pkt->anno().flow_id);
        a.dp->ingress(std::move(pkt));
      });
  rpc_ptr = &rpc;
  rpc.set_flow_done([&](std::uint32_t flow_id) { a.dp->end_flow(flow_id); });

  rpc.start(num_flows);
  SliceStop stop(num_flows);
  auto state = [&] {
    return SliceStop::State{rpc.flows_started(), rpc.flows_completed()};
  };
  std::uint64_t peak = 0;
  c.registry = drive(a.eq, stop, tr, reg, state, [&] {
    peak = std::max<std::uint64_t>(peak, a.eq.size());
    if (rpc.flows_started() == num_flows) clock.mark_last();
  });

  c.queue_peak = peak;
  fill_plane_counts(a, c);
  c.sim_duration_ns = stop.stop_ns();
  c.short_fct.merge(rpc.short_fct());
  c.long_fct.merge(rpc.long_fct());
  c.all_fct.merge(rpc.all_fct());
  c.flows_started = rpc.flows_started();
  c.flows_completed = rpc.flows_completed();
  books.finish(c.counter("dp.chain_filtered") + c.counter("dp.queue_drops"),
               c);
  clock.finish(c, run.host);
  return run;
}

// --- digests and harness comparison -----------------------------------------

namespace {

void put_hist(std::ostringstream& o, const char* name,
              const stats::LatencyHistogram& h) {
  o << name << '=' << h.count() << ',' << h.sum() << ',' << h.min() << ','
    << h.max();
  for (const auto& [v, f] : h.cdf()) o << ';' << v << ':' << f;
  o << '\n';
}

bool same_hist(const stats::LatencyHistogram& a,
               const stats::LatencyHistogram& b) {
  return a.count() == b.count() && a.sum() == b.sum() && a.min() == b.min() &&
         a.max() == b.max() && a.cdf() == b.cdf();
}

struct Differ {
  std::ostringstream out;
  template <typename T>
  void eq(const char* what, const T& h, const T& mine) {
    if (!(h == mine)) out << what << ": harness " << h << " vs " << mine << "; ";
  }
  void hist(const char* what, const stats::LatencyHistogram& h,
            const stats::LatencyHistogram& mine) {
    if (!same_hist(h, mine))
      out << what << ": harness " << h.summary() << " vs " << mine.summary()
          << "; ";
  }
};

}  // namespace

std::string SimCounts::digest() const {
  std::ostringstream o;
  o.precision(17);
  put_hist(o, "latency", latency);
  put_hist(o, "lc_latency", lc_latency);
  put_hist(o, "reorder_dwell", reorder_dwell);
  put_hist(o, "short_fct", short_fct);
  put_hist(o, "long_fct", long_fct);
  put_hist(o, "all_fct", all_fct);
  o << "offered=" << offered << " egressed=" << egressed
    << " measured=" << measured << " once=" << exactly_once
    << " dups=" << duplicates << '/' << bad_flows << " missing=" << missing
    << " unknown=" << unknown << " flows=" << flows_started << '/'
    << flows_completed << " seen=" << flows_seen
    << " replicated=" << flows_replicated << " bytes=" << ingress_bytes << '+'
    << extra_copy_bytes << " dupfrac=" << dup_byte_frac
    << " events=" << events << " qpeak=" << queue_peak
    << " pool=" << pool_allocs << '/' << pool_recycles << '/'
    << pool_in_use_end << " heap=" << heap_allocs_measured << '/'
    << measured_ingress << " ctrl=" << ctrl_ticks << '/' << ctrl_decisions
    << '/' << ctrl_quarantines << '/' << ctrl_reinstatements << '/'
    << ctrl_hedge_timeout_changes << " ooo=" << ooo_fraction
    << " dur=" << sim_duration_ns << " paths=";
  for (auto d : per_path_dispatched) o << d << ',';
  o << '\n';
  for (const auto& [k, v] : registry) o << k << '=' << v << '\n';
  return o.str();
}

namespace {

/// Differences between a harness result and the benchmark's own run of
/// the same config; empty iff they agree exactly.
std::string diff_vs_harness(const harness::ScenarioResult& h,
                            const SimCounts& c) {
  Differ d;
  d.hist("latency", h.latency, c.latency);
  d.hist("lc_latency", h.lc_latency, c.lc_latency);
  d.hist("reorder_dwell", h.reorder_dwell, c.reorder_dwell);
  d.eq("emitted", h.emitted, c.offered);
  d.eq("egressed", h.egressed, c.egressed);
  d.eq("measured", h.measured, c.measured);
  d.eq("hedges", h.hedges, c.counter("dp.hedges"));
  d.eq("chain_filtered", h.chain_filtered, c.counter("dp.chain_filtered"));
  d.eq("queue_drops", h.queue_drops, c.counter("dp.queue_drops"));
  d.eq("ooo_fraction", h.ooo_fraction, c.ooo_fraction);
  d.eq("reorder_timeouts", h.reorder_timeout_releases,
       c.counter("reorder.timeout_releases"));
  d.eq("sim_duration_ns", h.sim_duration_ns, c.sim_duration_ns);
  d.eq("ctrl_quarantines", h.ctrl_quarantines, c.ctrl_quarantines);
  d.eq("ctrl_reinstatements", h.ctrl_reinstatements, c.ctrl_reinstatements);
  if (h.per_path_dispatched != c.per_path_dispatched)
    d.out << "per_path_dispatched differs; ";
  // Every registry counter (data plane, dedup, reorder, ctrl, SLO monitor).
  for (const auto& [k, v] : h.stats.counters) {
    if (k.rfind("trace.", 0) == 0) continue;  // the harness tracer's own
    auto it = c.registry.find(k);
    if (it == c.registry.end())
      d.out << k << ": missing; ";
    else if (it->second != v)
      d.out << k << ": harness " << v << " vs " << it->second << "; ";
  }
  return d.out.str();
}

std::string diff_vs_harness(const harness::RpcScenarioResult& h,
                            const SimCounts& c) {
  Differ d;
  d.hist("short_fct", h.short_fct, c.short_fct);
  d.hist("long_fct", h.long_fct, c.long_fct);
  d.hist("all_fct", h.all_fct, c.all_fct);
  d.eq("flows_started", h.flows_started, c.flows_started);
  d.eq("flows_completed", h.flows_completed, c.flows_completed);
  d.eq("ingress_bytes", h.ingress_bytes, c.ingress_bytes);
  d.eq("extra_copy_bytes", h.extra_copy_bytes, c.extra_copy_bytes);
  d.eq("duplicate_byte_fraction", h.duplicate_byte_fraction, c.dup_byte_frac);
  d.eq("flows_replicated", h.flows_replicated, c.flows_replicated);
  d.eq("hedges_fired", h.hedges_fired, c.counter("dp.hedges"));
  return d.out.str();
}

std::string traced_vs_untraced(const SimCounts& plain,
                               const SimCounts& traced) {
  if (plain.digest() == traced.digest()) return "";
  return "traced run differs from untraced run";
}

}  // namespace

std::string check_equivalence_packet(const harness::ScenarioConfig& cfg) {
  const harness::ScenarioResult h = harness::run_scenario(cfg);
  SimOptions plain;
  plain.warmup_packets = cfg.warmup_packets;
  const SimRun mine = run_sim_packet(cfg, plain);
  std::string err = diff_vs_harness(h, mine.counts);
  SpanTracer tracer;
  SimOptions traced = plain;
  traced.tracer = &tracer;
  const SimRun mine_traced = run_sim_packet(cfg, traced);
  err += traced_vs_untraced(mine.counts, mine_traced.counts);
  if (tracer.depth() != 0) err += "unbalanced spans; ";
  return err;
}

std::string check_equivalence_flows(const harness::ScenarioConfig& cfg,
                                    std::uint64_t num_flows) {
  const harness::RpcScenarioResult h =
      harness::run_rpc_scenario(cfg, kFlowsCdf, num_flows);
  SimOptions plain;
  const SimRun mine = run_sim_flows(cfg, num_flows, plain);
  std::string err = diff_vs_harness(h, mine.counts);
  SpanTracer tracer;
  SimOptions traced = plain;
  traced.tracer = &tracer;
  const SimRun mine_traced = run_sim_flows(cfg, num_flows, traced);
  err += traced_vs_untraced(mine.counts, mine_traced.counts);
  if (tracer.depth() != 0) err += "unbalanced spans; ";
  return err;
}

// --- layer passes --------------------------------------------------------------

LayerPass run_layer_pass(const PacketCapture& cap, const std::string& chain,
                         std::size_t replicas, SpanTracer& tracer) {
  LayerPass out;
  sim::EventQueue eq;
  net::PacketPool pool(512, 2048);
  std::uint64_t survivors = 0;

  // Build `replicas` chain replicas into one router, as MdpDataPlane does.
  const std::uint64_t heap0 = t_heap_bytes;
  const std::uint64_t t0 = host_now_ns();
  click::Router router(click::Router::Context{&eq, &pool});
  const nf::ChainSpec spec = nf::ChainSpec::preset(chain);
  std::string err;
  click::Element* head = nullptr;
  for (std::size_t p = 0; p < replicas; ++p) {
    auto built =
        nf::build_chain(router, "pass" + std::to_string(p), spec, &err);
    if (!built) throw std::runtime_error("chain build failed: " + err);
    click::Element* sink = router.adopt(
        std::make_unique<core::PathEgress>(
            [&survivors](net::PacketPtr) { ++survivors; }),
        "pass" + std::to_string(p) + "_sink");
    if (!router.connect(built->tail, 0, sink, 0, &err))
      throw std::runtime_error("chain wiring failed: " + err);
    if (!head) head = built->head;
  }
  if (!router.initialize(&err))
    throw std::runtime_error("router init failed: " + err);
  out.setup_s = static_cast<double>(host_now_ns() - t0) * 1e-9;
  out.setup_mb = static_cast<double>(t_heap_bytes - heap0) / (1 << 20);

  // Replay in bursts: materializing is untimed, the pass is one span.
  constexpr std::size_t kBurst = 256;
  std::vector<net::PacketPtr> burst;
  burst.reserve(kBurst);
  const auto parse_before = tracer.agg(SpanKind::kParsePass).total_ns;
  const auto chain_before = tracer.agg(SpanKind::kChainPass).total_ns;
  std::uint64_t parsed_ok = 0;
  for (std::size_t i = 0; i < cap.size(); i += kBurst) {
    const std::size_t n = std::min(kBurst, cap.size() - i);
    burst.clear();
    for (std::size_t k = 0; k < n; ++k)
      burst.push_back(cap.materialize(i + k, pool));
    {
      Span s(&tracer, SpanKind::kParsePass, i);
      for (const auto& p : burst)
        if (p && net::parse(*p)) ++parsed_ok;
    }
    {
      Span s(&tracer, SpanKind::kChainPass, i);
      for (auto& p : burst)
        if (p) head->push(0, std::move(p));
    }
  }
  out.packets = cap.size();
  out.survivors = survivors;
  if (out.packets) {
    const double n = static_cast<double>(out.packets);
    out.parse_ns_per_pkt =
        static_cast<double>(tracer.agg(SpanKind::kParsePass).total_ns -
                            parse_before) / n;
    out.chain_ns_per_pkt =
        static_cast<double>(tracer.agg(SpanKind::kChainPass).total_ns -
                            chain_before) / n;
  }
  if (parsed_ok != out.packets)
    throw std::runtime_error("layer pass: a captured packet failed to parse");
  eq.clear();
  return out;
}

}  // namespace mdp::mdpbench
