#include "ctrl/controller.hpp"

#include <cstring>
#include <iterator>

#include "trace/json.hpp"

namespace mdp::ctrl {

std::uint32_t decision_reason_code(const char* reason) noexcept {
  static constexpr const char* kReasons[] = {
      "slo_breach",       "backlog_breach",   "slo+backlog_breach",
      "probe_breach",     "drain_start",      "drained",
      "probation_passed", "hedge_raise",      "hedge_lower",
      "hedge_timeout",    "tenant_throttle",  "tenant_shed",
      "tenant_probation", "tenant_reinstate", "granularity_shift",
      "forecast_prehedge", "forecast_probe",  "forecast_prequarantine",
      "forecast_restore"};
  for (std::uint32_t i = 0; i < std::size(kReasons); ++i)
    if (std::strcmp(reason, kReasons[i]) == 0) return i + 1;
  return 0;
}

/// One path's evidence for the current tick, threaded through its stages.
struct Controller::PathTick {
  std::size_t p = 0;
  PathState before = PathState::kActive;  ///< FSM state at tick start
  WindowStats w;
  std::uint64_t backlog = 0;
  forecast::Forecast fc;  ///< never actionable while forecasting is off
  /// Stage verdict of this window ("" without span evidence).
  const char* dominant_stage = "";
  std::uint64_t dominant_ns = 0;
  TickInput in;  ///< the judge's verdict, fed to the FSM
  /// A decision on this path (from = to = `before`) carrying the
  /// window evidence.
  Decision decision(const char* reason) const {
    Decision d;
    d.path = static_cast<std::uint16_t>(p);
    d.from = before;
    d.to = before;
    d.reason = reason;
    d.p99_ns = w.p99_ns;
    d.samples = w.samples;
    d.violations = w.violations;
    d.backlog = backlog;
    return d;
  }
};

/// The worst serving path's evidence, summed over the per-path stages
/// and read by the plane-wide ones.
struct Controller::ServingTail {
  std::uint64_t p99_ns = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t samples = 0;
  const char* dominant_stage = "";
  std::uint64_t dominant_ns = 0;
  /// Worst actionable forecast (not actionable: there is none).
  forecast::Forecast fc_worst;
  std::uint16_t fc_worst_path = 0;
  void add(const PathTick& t) {
    if (t.w.p99_ns > p99_ns) {
      p99_ns = t.w.p99_ns;
      p50_ns = t.w.p50_ns;
      dominant_stage = t.dominant_stage;
      dominant_ns = t.dominant_ns;
    }
    samples += t.w.samples;
    if (t.fc.actionable &&
        (!fc_worst.actionable || t.fc.p999_ns > fc_worst.p999_ns)) {
      fc_worst = t.fc;
      fc_worst_path = static_cast<std::uint16_t>(t.p);
    }
  }
  /// A decision on `target` carrying the tail's p99 and sample count,
  /// plus the worst path's stage verdict when `attributed`.
  Decision decision(std::uint16_t target, const char* reason,
                    bool attributed) const {
    Decision d;
    d.path = target;
    d.reason = reason;
    d.p99_ns = p99_ns;
    d.samples = samples;
    if (attributed) {
      d.dominant_stage = dominant_stage;
      d.dominant_stage_ns = dominant_ns;
    }
    return d;
  }
};

Controller::Controller(Config cfg, Actuator& actuator, SloMonitor& monitor)
    : cfg_(cfg),
      act_(actuator),
      mon_(monitor),
      hedger_(cfg.hedger),
      hedge_timeout_(cfg.hedge_timeout),
      gran_(cfg.granularity),
      decisions_(cfg.decision_log_capacity) {
  mon_.set_slo_target_ns(cfg_.slo_target_ns);
  paths_.assign(act_.num_paths(), PathCtl{PathStateMachine(cfg_.path)});
  if (cfg_.forecast.enabled) {
    ForecastConfig& fc = cfg_.forecast;
    if (fc.prehedge_threshold <= 0.0) fc.prehedge_threshold = 0.9;
    if (fc.prequarantine_threshold <= fc.prehedge_threshold)
      fc.prequarantine_threshold = fc.prehedge_threshold * 1.5;
    if (fc.restore_threshold >= fc.prehedge_threshold)
      fc.restore_threshold = fc.prehedge_threshold * 0.75;
    if (fc.max_hold_ticks == 0) fc.max_hold_ticks = 1;
    if (fc.probe_grant == 0) fc.probe_grant = cfg_.probe_grant_per_tick;
    est_ = std::make_unique<forecast::TailEstimator>(paths_.size(),
                                                     fc.estimator);
  }
}

void Controller::set_slo_target_ns(std::uint64_t t) {
  cfg_.slo_target_ns = t;
  mon_.set_slo_target_ns(t);
}

std::size_t Controller::active_count() const {
  std::size_t n = 0;
  for (const auto& p : paths_)
    if (p.fsm.state() == PathState::kActive) ++n;
  return n;
}

bool Controller::serving(std::size_t p) const {
  return paths_[p].fsm.state() == PathState::kActive &&
         !paths_[p].pre_quarantined;
}

std::size_t Controller::serving_count() const {
  std::size_t n = 0;
  for (std::size_t p = 0; p < paths_.size(); ++p) n += serving(p) ? 1 : 0;
  return n;
}

void Controller::attach_recorder(telem::FlightRecorder* rec,
                                 std::uint64_t dump_window_ns) {
  recorder_ = rec;
  rec_chan_ = rec ? rec->channel("ctrl") : nullptr;
  dump_window_ns_ = dump_window_ns;
}

void Controller::log_decision(Decision d, const forecast::Forecast* fc) {
  if (fc) {
    d.fc_p99_ns = fc->p99_ns;
    d.fc_p999_ns = fc->p999_ns;
    d.fc_confidence = fc->confidence;
    d.fc_horizon_ticks = fc->horizon_ticks;
    d.forecast_logged = true;
  }
  d.tick = tick_;
  d.now_ns = now_ns_;
  d.replicas = hedger_.replicas();
  d.hedge_timeout_ns = hedge_timeout_.timeout_ns();
  // Every decision records the granularity in force while the lever is
  // enabled — the log then shows which regime each action happened in.
  d.granularity = gran_.granularity();
  d.granularity_logged = cfg_.granularity.enabled;
  if (decisions_.push(d)) ++decisions_evicted_;
  if (rec_chan_)
    rec_chan_->emit(
        d.now_ns, telem::EventType::kCtrlDecision,
        d.path < Decision::kGranularity ? d.path : telem::kAllPaths,
        decision_reason_code(d.reason), d.p99_ns);
  // Quarantine post-mortem: snapshot the merged event timeline as it
  // stood at the moment the path was cut. The dump INCLUDES the
  // kCtrlDecision event just emitted, so the artifact is self-dating.
  // Cutting a TENANT (kShed) is the same severity of action and gets the
  // same artifact.
  const bool cut_path = d.path < Decision::kGranularity &&
                        d.to == PathState::kQuarantined;
  const bool cut_tenant = d.path == Decision::kTenant &&
                          d.tenant_to == TenantState::kShed;
  if (recorder_ && (cut_path || cut_tenant)) {
    last_quarantine_dump_ = recorder_->dump_json(dump_window_ns_);
    ++auto_dumps_;
  }
}

void Controller::tick(std::uint64_t now_ns) {
  ++tick_;
  now_ns_ = now_ns;
  if (exporter_) exporter_->begin_tick(tick_, now_ns);
  ServingTail tail;
  for (std::size_t p = 0; p < paths_.size(); ++p) {
    PathTick t = harvest(p);
    forecast_path(t);
    judge(t);
    run_fsm(t);
    if (serving(p)) tail.add(t);
  }
  forecast_prehedge(tail);
  hedge(tail);
  pid_deadline(tail);
  granularity(tail);
  admit_tenants();
  if (exporter_) exporter_->end_tick();
}

Controller::PathTick Controller::harvest(std::size_t p) {
  PathTick t;
  t.p = p;
  t.before = paths_[p].fsm.state();
  t.w = mon_.harvest(p);
  t.backlog = act_.path_backlog(p);

  // Absorb the window (interpolated quantiles — the estimator
  // differentiates the series, and the quantized upper edges would turn
  // its trend term into staircase noise) and read the path's forecast
  // before anything else judges the window.
  if (est_) {
    forecast::WindowSample s;
    s.samples = t.w.samples;
    s.p99_ns = t.w.quantile_ns(0.99);
    s.p999_ns = t.w.quantile_ns(0.999);
    s.stage_sum_ns = t.w.stage_sum_ns;
    est_->observe(p, s);
    t.fc = est_->forecast(p);
  }

  if (exporter_) {
    telem::PathTickStats ts;
    ts.path = static_cast<std::uint16_t>(p);
    ts.samples = t.w.samples;
    ts.violations = t.w.violations;
    ts.sum_ns = t.w.sum_ns;
    ts.p50_ns = t.w.p50_ns;
    ts.p99_ns = t.w.p99_ns;
    ts.p999_ns = t.w.p999_ns;
    ts.max_ns = t.w.max_ns;
    ts.stage_sum_ns = t.w.stage_sum_ns;
    if (est_ && est_->windows_seen(p) > 0) {
      ts.has_forecast = true;
      ts.fc_p99_ns = t.fc.p99_ns;
      ts.fc_p999_ns = t.fc.p999_ns;
      ts.fc_confidence = t.fc.confidence;
      ts.fc_horizon_ticks = t.fc.horizon_ticks;
      ts.fc_actionable = t.fc.actionable;
      if (t.fc.has_stage && t.fc.dominant_stage_slope > 0.0)
        ts.fc_stage = trace::stage_name(t.fc.dominant_stage);
    }
    exporter_->add_path(ts);
  }

  // Stage verdict: WHERE this window's latency went, when the feeder
  // supplied spans (observe_span) rather than bare scalars.
  if (t.w.has_stage_evidence()) {
    t.dominant_stage = trace::stage_name(t.w.dominant_stage());
    t.dominant_ns = t.w.dominant_stage_ns();
  }
  return t;
}

void Controller::forecast_path(const PathTick& t) {
  // The proactive per-path actions, BEFORE the reactive judge sees the
  // window. A forecast may soften admission (kProbeOnly) and schedule
  // probes; it may never hard-quarantine — that stays the reactive FSM's
  // exclusive call, fed by the probe evidence this very actuation keeps
  // flowing.
  if (!est_ || t.before != PathState::kActive) return;
  const ForecastConfig& fc_cfg = cfg_.forecast;
  PathCtl& pc = paths_[t.p];
  const double slo = static_cast<double>(cfg_.slo_target_ns);
  const double fc999 = static_cast<double>(t.fc.p999_ns);
  Decision d;
  if (pc.pre_quarantined) {
    const bool calmed = est_->windows_seen(t.p) > 0 &&
                        fc999 < fc_cfg.restore_threshold * slo;
    const bool expired =
        tick_ - pc.pre_quarantined_since >= fc_cfg.max_hold_ticks;
    if (!calmed && !expired) {
      act_.grant_probes(t.p, fc_cfg.probe_grant);
      return;
    }
    // Probe-first means release-first too: without reactive confirmation
    // inside the hold window the path goes back to full admission (and
    // the episode resolves as a false positive unless a breach landed
    // meanwhile).
    act_.set_admission(t.p, Admission::kEnabled);
    pc.pre_quarantined = false;
    ++forecast_restores_;
    d = t.decision("forecast_restore");
  } else if (!t.fc.actionable) {
    return;
  } else if (fc999 >= fc_cfg.prequarantine_threshold * slo &&
             serving_count() > cfg_.min_serving_paths) {
    act_.set_admission(t.p, Admission::kProbeOnly);
    act_.grant_probes(t.p, fc_cfg.probe_grant);
    pc.pre_quarantined = true;
    pc.pre_quarantined_since = tick_;
    ++forecast_prequarantines_;
    pc.open_fp_episode(tick_);
    d = t.decision("forecast_prequarantine");
    d.dominant_stage = t.dominant_stage;
    d.dominant_stage_ns = t.dominant_ns;
  } else if (fc999 >= fc_cfg.prehedge_threshold * slo && t.fc.has_stage &&
             t.fc.dominant_stage_slope > 0.0 &&
             (pc.last_forecast_probe_tick == 0 ||
              tick_ - pc.last_forecast_probe_tick >=
                  fc_cfg.probe_cooldown_ticks)) {
    // Stage-aware early evidence: the path whose TRENDING stage is
    // worsening gets probe credits now, so by the time the tail arrives
    // the reactive judge has samples to rule on.
    act_.grant_probes(t.p, fc_cfg.probe_grant);
    pc.last_forecast_probe_tick = tick_;
    ++forecast_probes_;
    pc.open_fp_episode(tick_);
    d = t.decision("forecast_probe");
    d.dominant_stage = trace::stage_name(t.fc.dominant_stage);
    d.dominant_stage_ns =
        static_cast<std::uint64_t>(t.fc.dominant_stage_slope);
  } else {
    return;
  }
  log_decision(d, &t.fc);
}

void Controller::judge(PathTick& t) {
  PathCtl& pc = paths_[t.p];
  t.in.has_signal = t.w.samples >= cfg_.min_samples;
  const bool slo_breach =
      t.in.has_signal && t.w.violation_fraction() > cfg_.violation_threshold;
  const bool backlog_breach =
      cfg_.backlog_limit > 0 && t.backlog > cfg_.backlog_limit;
  t.in.breach = slo_breach || backlog_breach;
  if (slo_breach) ++breach_windows_;
  // Resolve forecast confirmation episodes against this verdict — a
  // breach inside the window confirms the earlier actuation, expiry books
  // it as a false positive.
  if (est_ && pc.fp_pending) {
    if (slo_breach) {
      ++forecast_confirmed_;
      pc.fp_pending = false;
    } else if (tick_ - pc.fp_since > cfg_.forecast.confirm_window_ticks) {
      ++forecast_false_positives_;
      pc.fp_pending = false;
    }
  }
  if (t.in.breach) {
    // Backlog evidence needs no sample minimum — a silent blackhole's
    // whole signature is completions that never arrive. When both causes
    // fired in the same window the label says so; a backlog-only
    // quarantine is never mislabeled "slo_breach".
    t.in.has_signal = true;
    pc.last_breach_reason = slo_breach && backlog_breach
                                ? "slo+backlog_breach"
                                : slo_breach ? "slo_breach"
                                             : "backlog_breach";
    pc.last_dominant_stage = t.dominant_stage;
    pc.last_dominant_ns = t.dominant_ns;
  } else if (t.in.has_signal) {
    // First clean window ends the breach episode: refresh the deferral
    // budget for the next one.
    pc.service_defers_used = 0;
  }
  if (t.before != PathState::kActive) return;
  // Stage-aware actuation: a service-dominated SLO breach means the
  // path's core is slow, not its queue deep — masking just moves the load
  // while the hedger can rescue the stragglers. Defer the quarantine for a
  // bounded budget of ticks (counted) and let the hedge act; backlog
  // evidence always counts immediately.
  if (t.in.breach && slo_breach && !backlog_breach &&
      cfg_.service_defer_ticks > 0 && t.w.has_stage_evidence() &&
      t.w.dominant_stage() == trace::Stage::kService &&
      pc.service_defers_used < cfg_.service_defer_ticks) {
    t.in.breach = false;
    ++pc.service_defers_used;
    ++service_deferrals_;
  }
  // Capacity guard: losing this path would leave fewer than
  // min_serving_paths serving (forecast pre-quarantined paths are already
  // not serving; earlier paths' transitions this tick count). A contained
  // tail beats a masked fleet; the breach is suppressed (and counted),
  // not queued.
  if (t.in.breach && serving_count() <= cfg_.min_serving_paths) {
    t.in.breach = false;
    ++suppressed_quarantines_;
  }
}

void Controller::run_fsm(PathTick& t) {
  PathCtl& pc = paths_[t.p];
  if (t.before == PathState::kDraining) {
    act_.flush_path(t.p);
    t.in.drained = act_.path_backlog(t.p) == 0;
  } else if (t.before == PathState::kReinstated) {
    // Every probation observation is a verdict: in-SLO counts toward
    // graduation, out-of-SLO re-quarantines (handled by the FSM).
    t.in.clean_probes = t.w.samples - t.w.violations;
    t.in.violated_probes = t.w.violations;
  }

  if (pc.fsm.on_tick(t.in)) {
    // Reactive takeover: once the FSM moves, its transition actuation
    // owns the path's admission — the forecast hold dissolves without
    // touching anything.
    pc.pre_quarantined = false;
    Decision d = t.decision("");
    d.to = pc.fsm.state();
    // A quarantine's stage verdict is the breaching window's — which may
    // be a tick or two old by the time the FSM trips (hysteresis); the
    // transition window itself can even be empty (masked tick).
    const bool cut = d.to == PathState::kQuarantined;
    d.dominant_stage = cut ? pc.last_dominant_stage : t.dominant_stage;
    d.dominant_stage_ns = cut ? pc.last_dominant_ns : t.dominant_ns;
    switch (d.to) {
      case PathState::kQuarantined:
        d.reason = t.before == PathState::kReinstated ? "probe_breach"
                                                      : pc.last_breach_reason;
        act_.set_admission(t.p, Admission::kDisabled);
        break;
      case PathState::kDraining:
        d.reason = "drain_start";
        act_.flush_path(t.p);
        break;
      case PathState::kReinstated:
        d.reason = "drained";
        act_.set_admission(t.p, Admission::kProbeOnly);
        break;
      case PathState::kActive:
        d.reason = "probation_passed";
        act_.set_admission(t.p, Admission::kEnabled);
        break;
    }
    log_decision(d);
  }

  if (pc.fsm.state() == PathState::kReinstated)
    act_.grant_probes(t.p, cfg_.probe_grant_per_tick);
}

void Controller::forecast_prehedge(const ServingTail& tail) {
  // The global pre-hedge, BEFORE the reactive hedger reads the measured
  // tail. Replication and the hedge deadline are plane-wide levers, so
  // this is driven by the worst actionable forecast across serving paths:
  // raise replication one step inside the budget and bias the PID
  // deadline toward the floor, so the copies are already flowing when the
  // predicted tail lands.
  if (!est_) return;
  const ForecastConfig& fc_cfg = cfg_.forecast;
  const double slo = static_cast<double>(cfg_.slo_target_ns);
  // Without an actionable forecast fc_worst is all zero.
  const double fc999 = static_cast<double>(tail.fc_worst.p999_ns);
  if (prehedge_active_) {
    const bool calmed =
        !tail.fc_worst.actionable || fc999 < fc_cfg.restore_threshold * slo;
    // Past max_hold the episode releases unless the forecast still clears
    // the activation bar — a prediction that stays hot keeps the
    // pre-hedge armed until reactive evidence resolves it.
    const bool stale = tick_ - prehedge_since_ >= fc_cfg.max_hold_ticks &&
                       fc999 < fc_cfg.prehedge_threshold * slo;
    if (!calmed && !stale) return;
    prehedge_active_ = false;
    ++forecast_restores_;
    Decision d = tail.decision(Decision::kHedge, "forecast_restore",
                               /*attributed=*/false);
    log_decision(d, &tail.fc_worst);
    return;
  }
  if (!tail.fc_worst.actionable || fc999 < fc_cfg.prehedge_threshold * slo) return;
  prehedge_active_ = true;
  prehedge_since_ = tick_;
  ++forecast_prehedges_;
  const std::size_t r_before = hedger_.replicas();
  if (hedger_.pre_raise() != r_before) act_.set_replicas(hedger_.replicas());
  hedge_timeout_.pre_tighten(fc_cfg.pretighten_frac);
  paths_[tail.fc_worst_path].open_fp_episode(tick_);
  Decision d = tail.decision(tail.fc_worst_path, "forecast_prehedge",
                             /*attributed=*/false);
  d.from = d.to = paths_[tail.fc_worst_path].fsm.state();
  if (tail.fc_worst.has_stage && tail.fc_worst.dominant_stage_slope > 0.0)
    d.dominant_stage = trace::stage_name(tail.fc_worst.dominant_stage);
  log_decision(d, &tail.fc_worst);
}

void Controller::hedge(const ServingTail& tail) {
  const std::size_t before = hedger_.replicas();
  const std::size_t after =
      hedger_.update(tail.p99_ns, tail.samples, cfg_.slo_target_ns);
  if (after == before) return;
  act_.set_replicas(after);
  log_decision(tail.decision(Decision::kHedge,
                             after > before ? "hedge_raise" : "hedge_lower",
                             /*attributed=*/true));
}

void Controller::pid_deadline(const ServingTail& tail) {
  // The fine lever: move the hedge-fire deadline from measured
  // p50-vs-SLO headroom on the worst serving path. Actuated (and logged)
  // only when the PID output survives the deadband.
  const std::uint64_t before = hedge_timeout_.timeout_ns();
  const std::uint64_t after = hedge_timeout_.update(
      tail.p50_ns, tail.p99_ns, tail.samples, cfg_.slo_target_ns);
  if (after == before || after == 0) return;
  act_.set_hedge_timeout(after);
  log_decision(
      tail.decision(Decision::kHedge, "hedge_timeout", /*attributed=*/true));
}

void Controller::granularity(const ServingTail& tail) {
  // The third lever: WHAT gets duplicated. Escalates toward flow replicas
  // when the sustained pain is service-dominant (RepNet: clone the short
  // flow away from the stolen core), toward packet hedging when it is
  // queueing, and steps back to baseline once the tail calms.
  if (!cfg_.granularity.enabled) return;
  if (!gran_actuated_) {
    act_.set_granularity(gran_.granularity());
    gran_actuated_ = true;
  }
  const core::Granularity before = gran_.granularity();
  const core::Granularity after = gran_.update(
      tail.p99_ns, tail.samples, cfg_.slo_target_ns, tail.dominant_stage);
  if (after == before) return;
  act_.set_granularity(after);
  Decision d = tail.decision(Decision::kGranularity, "granularity_shift",
                             /*attributed=*/true);
  d.gran_from = before;
  d.gran_to = after;
  log_decision(d);
}

void Controller::admit_tenants() {
  // Harvest each tenant's window, advance its state machine, and mirror
  // transitions into the plane. The judgment is the ARRIVAL contract, not
  // the tenant's latency — under a storm every tenant's tail degrades, so
  // latency evidence points at victims while the arrival budget points at
  // the perpetrator (docs/TENANCY.md).
  if (!tenants_) return;
  for (std::size_t t = 0; t < tenants_->num_tenants(); ++t) {
    const TenantAdmission::TickResult r = tenants_->tick_tenant(t);
    if (exporter_) {
      telem::TenantTickStats ts;
      ts.tenant = static_cast<std::uint16_t>(t);
      ts.state = tenant_state_name(r.after);
      ts.arrivals = r.arrivals;
      ts.admitted = r.admitted;
      ts.dropped = r.dropped;
      ts.flow_arrivals = r.flow_arrivals;
      ts.samples = r.slo.samples;
      ts.violations = r.slo.violations;
      ts.p50_ns = r.slo.p50_ns;
      ts.p99_ns = r.slo.p99_ns;
      ts.p999_ns = r.slo.p999_ns;
      ts.max_ns = r.slo.max_ns;
      exporter_->add_tenant(ts);
    }
    if (!r.changed) continue;
    act_.set_tenant_admission(static_cast<std::uint16_t>(t), r.after);
    Decision d;
    d.path = Decision::kTenant;
    d.tenant = static_cast<std::uint16_t>(t);
    d.tenant_from = r.before;
    d.tenant_to = r.after;
    d.reason = r.reason;
    d.arrivals = r.arrivals;
    d.p99_ns = r.slo.p99_ns;
    d.samples = r.slo.samples;
    d.violations = r.slo.violations;
    log_decision(d);
  }
}

std::uint64_t Controller::quarantines() const noexcept {
  std::uint64_t n = 0;
  for (const auto& p : paths_) n += p.fsm.quarantines();
  return n;
}

std::uint64_t Controller::reinstatements() const noexcept {
  std::uint64_t n = 0;
  for (const auto& p : paths_) n += p.fsm.reinstatements();
  return n;
}

std::string Controller::report_json() const {
  trace::JsonWriter w;
  w.begin_object();
  w.key("slo_target_ns").value(cfg_.slo_target_ns);
  w.key("violation_threshold").value(cfg_.violation_threshold);
  w.key("backlog_limit").value(cfg_.backlog_limit);
  w.key("quarantine_after").value(cfg_.path.quarantine_after);
  w.key("probation_probes").value(cfg_.path.probation_probes);
  w.key("ticks").value(tick_);
  w.key("quarantines").value(quarantines());
  w.key("reinstatements").value(reinstatements());
  w.key("suppressed_quarantines").value(suppressed_quarantines_);
  w.key("hedge_raises").value(hedger_.raises());
  w.key("hedge_lowers").value(hedger_.lowers());
  w.key("replicas").value(static_cast<std::uint64_t>(hedger_.replicas()));
  w.key("hedge_timeout_ns").value(hedge_timeout_.timeout_ns());
  w.key("hedge_timeout_adjustments").value(hedge_timeout_.adjustments());
  w.key("service_deferrals").value(service_deferrals_);
  if (cfg_.forecast.enabled) {
    w.key("forecast_enabled").value(true);
    w.key("forecast_prehedges").value(forecast_prehedges_);
    w.key("forecast_probes").value(forecast_probes_);
    w.key("forecast_prequarantines").value(forecast_prequarantines_);
    w.key("forecast_restores").value(forecast_restores_);
    w.key("forecast_confirmed").value(forecast_confirmed_);
    w.key("forecast_false_positives").value(forecast_false_positives_);
    w.key("forecast_false_positive_fraction")
        .value(forecast_false_positive_fraction());
    w.key("breach_windows").value(breach_windows_);
  }
  if (cfg_.granularity.enabled) {
    w.key("granularity").value(core::granularity_name(gran_.granularity()));
    w.key("granularity_shifts").value(gran_.shifts());
  }
  w.key("path_states").begin_array();
  for (const auto& p : paths_) w.value(path_state_name(p.fsm.state()));
  w.end_array();
  if (tenants_) {
    w.key("tenant_throttles").value(tenants_->throttles());
    w.key("tenant_sheds").value(tenants_->sheds());
    w.key("tenant_reinstates").value(tenants_->reinstates());
    w.key("tenant_dropped").value(tenants_->total_dropped());
    w.key("tenants").begin_array();
    for (std::size_t t = 0; t < tenants_->num_tenants(); ++t) {
      const TenantSpec& spec = tenants_->spec(t);
      w.begin_object();
      w.key("tenant").value(static_cast<std::uint64_t>(t));
      w.key("name").value(spec.name);
      w.key("state").value(tenant_state_name(
          tenants_->state(static_cast<std::uint16_t>(t))));
      w.key("slo_target_ns").value(tenants_->monitor().slot_target_ns(t));
      w.key("arrival_budget_per_tick").value(spec.arrival_budget_per_tick);
      w.key("hedge_budget_per_tick").value(spec.hedge_budget_per_tick);
      w.key("dropped").value(tenants_->dropped(t));
      w.end_object();
    }
    w.end_array();
  }
  w.key("decisions_evicted").value(decisions_evicted_);
  w.key("decisions").begin_array();
  for (const auto& d : decisions_) {
    w.begin_object();
    w.key("tick").value(d.tick);
    w.key("now_ns").value(d.now_ns);
    if (d.path == Decision::kHedge) {
      w.key("target").value("hedger");
    } else if (d.path == Decision::kGranularity) {
      w.key("target").value("granularity");
      w.key("from").value(core::granularity_name(d.gran_from));
      w.key("to").value(core::granularity_name(d.gran_to));
      w.key("granularity").value(core::granularity_name(d.gran_to));
    } else if (d.path == Decision::kTenant) {
      w.key("target").value("tenant");
      w.key("tenant").value(static_cast<std::uint64_t>(d.tenant));
      w.key("from").value(tenant_state_name(d.tenant_from));
      w.key("to").value(tenant_state_name(d.tenant_to));
      w.key("arrivals").value(d.arrivals);
    } else {
      w.key("path").value(static_cast<std::uint64_t>(d.path));
      w.key("from").value(path_state_name(d.from));
      w.key("to").value(path_state_name(d.to));
    }
    w.key("reason").value(d.reason);
    w.key("p99_ns").value(d.p99_ns);
    w.key("samples").value(d.samples);
    w.key("violations").value(d.violations);
    w.key("backlog").value(d.backlog);
    w.key("replicas").value(static_cast<std::uint64_t>(d.replicas));
    if (d.dominant_stage[0] != '\0') {
      w.key("dominant_stage").value(d.dominant_stage);
      w.key("dominant_stage_ns").value(d.dominant_stage_ns);
    }
    if (d.hedge_timeout_ns != 0)
      w.key("hedge_timeout_ns").value(d.hedge_timeout_ns);
    if (d.granularity_logged && d.path != Decision::kGranularity)
      w.key("granularity").value(core::granularity_name(d.granularity));
    if (d.forecast_logged) {
      w.key("forecast").begin_object();
      w.key("horizon_ticks").value(d.fc_horizon_ticks);
      w.key("p99_ns").value(d.fc_p99_ns);
      w.key("p999_ns").value(d.fc_p999_ns);
      w.key("confidence").value(d.fc_confidence);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

void Controller::register_stats(trace::StatsRegistry& reg) const {
  reg.add_counter("ctrl.ticks", [this] { return tick_; });
  reg.add_counter("ctrl.quarantines", [this] { return quarantines(); });
  reg.add_counter("ctrl.reinstatements",
                  [this] { return reinstatements(); });
  reg.add_counter("ctrl.suppressed_quarantines",
                  [this] { return suppressed_quarantines_; });
  reg.add_counter("ctrl.hedge_raises", [this] { return hedger_.raises(); });
  reg.add_counter("ctrl.hedge_lowers", [this] { return hedger_.lowers(); });
  reg.add_counter("ctrl.hedge_timeout_changes",
                  [this] { return hedge_timeout_.adjustments(); });
  reg.add_counter("ctrl.service_deferrals",
                  [this] { return service_deferrals_; });
  if (cfg_.forecast.enabled) {
    reg.add_counter("ctrl.forecast_prehedges",
                    [this] { return forecast_prehedges_; });
    reg.add_counter("ctrl.forecast_probes",
                    [this] { return forecast_probes_; });
    reg.add_counter("ctrl.forecast_prequarantines",
                    [this] { return forecast_prequarantines_; });
    reg.add_counter("ctrl.forecast_restores",
                    [this] { return forecast_restores_; });
    reg.add_counter("ctrl.forecast_confirmed",
                    [this] { return forecast_confirmed_; });
    reg.add_counter("ctrl.forecast_false_positives",
                    [this] { return forecast_false_positives_; });
    reg.add_counter("ctrl.breach_windows",
                    [this] { return breach_windows_; });
  }
  reg.add_counter("ctrl.granularity_shifts",
                  [this] { return gran_.shifts(); });
  reg.add_gauge("ctrl.granularity", [this] {
    return static_cast<double>(
        static_cast<std::uint8_t>(gran_.granularity()));
  });
  reg.add_gauge("ctrl.hedge_timeout_ns", [this] {
    return static_cast<double>(hedge_timeout_.timeout_ns());
  });
  reg.add_gauge("ctrl.replicas", [this] {
    return static_cast<double>(hedger_.replicas());
  });
  reg.add_gauge("ctrl.paths_active", [this] {
    return static_cast<double>(active_count());
  });
  reg.add_counter("ctrl.tenant_throttles",
                  [this] { return tenant_throttles(); });
  reg.add_counter("ctrl.tenant_sheds", [this] { return tenant_sheds(); });
  reg.add_counter("ctrl.tenant_reinstates",
                  [this] { return tenant_reinstates(); });
  reg.add_counter("ctrl.tenant_dropped",
                  [this] { return tenant_dropped(); });
  reg.add_gauge("ctrl.tenants_shed", [this] {
    return tenants_ ? static_cast<double>(tenants_->shed_count()) : 0.0;
  });
}

}  // namespace mdp::ctrl
