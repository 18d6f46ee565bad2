// AdaptiveHedger: closes the loop on the replication factor.
//
// RepNet's lesson (see PAPERS.md) is that replication must be selective —
// at low load an extra copy erases the tail for free, at high load the
// copies ARE the load and the whole curve collapses. The static choice
// (RedundantScheduler r=2/3, AdaptiveMdpConfig::replicate_k) bakes that
// trade-off in at startup; the hedger moves it at runtime from observed
// tail inflation vs the SLO target:
//
//   inflation = serving-path worst p99 / slo_target
//   inflation > raise_threshold  (sustained)  -> replicas + 1
//   inflation < lower_threshold  (sustained)  -> replicas - 1
//
// Both edges require `sustain_ticks` consecutive out-of-band windows and
// respect a cooldown after every change (HysteresisBand below), so the
// factor ratchets instead of oscillating with one noisy window — the same
// hysteresis discipline as the PathStateMachine. Pure decision logic; the
// Controller actuates the returned factor through Actuator::set_replicas().
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "core/granularity.hpp"

namespace mdp::ctrl {

/// The sustain/cooldown band described above, shared by the replica and the
/// granularity ratchets (it reads the identically named fields of either
/// config). update() returns +1 when the raise edge fires, -1 for the
/// lower edge, 0 otherwise. A fired edge restarts its streak; the caller
/// decides whether it becomes a change.
class HysteresisBand {
 public:
  template <typename Config>
  int update(const Config& c, std::uint64_t worst_p99_ns,
             std::uint64_t samples, std::uint64_t slo_target_ns) {
    if (cooldown_ > 0) --cooldown_;
    // A window below min_samples carries no signal and resets both
    // streaks, so silence never accumulates toward a change (the state
    // machine's has_signal rule); so does an in-band window.
    const double inflation = static_cast<double>(worst_p99_ns) /
                             static_cast<double>(slo_target_ns);
    const bool signal = samples >= c.min_samples;
    const bool up = signal && inflation > c.raise_threshold;
    const bool down = signal && !up && inflation < c.lower_threshold;
    raise_streak_ = up ? raise_streak_ + 1 : 0;
    lower_streak_ = down ? lower_streak_ + 1 : 0;
    if (cooldown_ > 0) return 0;
    if (raise_streak_ >= c.sustain_ticks) {
      raise_streak_ = 0;
      return +1;
    }
    if (lower_streak_ >= c.sustain_ticks) {
      lower_streak_ = 0;
      return -1;
    }
    return 0;
  }

  /// A change was made: hold off the next one for `cooldown_ticks`.
  void restart(int cooldown_ticks) {
    raise_streak_ = 0;
    lower_streak_ = 0;
    cooldown_ = cooldown_ticks;
  }
  bool cooling() const noexcept { return cooldown_ > 0; }

 private:
  int raise_streak_ = 0;
  int lower_streak_ = 0;
  int cooldown_ = 0;
};

struct HedgerConfig {
  bool enabled = true;
  std::size_t min_replicas = 1;
  std::size_t max_replicas = 3;
  /// Raise when p99 exceeds raise_threshold x SLO target.
  double raise_threshold = 1.0;
  /// Lower when p99 falls below lower_threshold x SLO target.
  double lower_threshold = 0.5;
  /// Consecutive qualifying windows before a change.
  int sustain_ticks = 2;
  /// Ticks after a change during which no further change happens.
  int cooldown_ticks = 4;
  /// Windows smaller than this carry no signal.
  std::uint64_t min_samples = 32;
};

class AdaptiveHedger {
 public:
  explicit AdaptiveHedger(HedgerConfig cfg = {});

  /// One controller tick: feed the worst serving-path p99 and the window's
  /// sample count; returns the (possibly updated) replication factor.
  std::size_t update(std::uint64_t worst_p99_ns, std::uint64_t samples,
                     std::uint64_t slo_target_ns);

  /// Forecast-driven raise (mdp::forecast pre-hedge): +1 replica within
  /// max_replicas on predicted — not yet measured — tail inflation. Starts
  /// the same cooldown a measured raise would, so the reactive loop can't
  /// immediately fight the pre-raise; honored cooldowns also mean a
  /// flapping forecast can't ratchet replicas faster than measurement
  /// could. Returns the (possibly unchanged) factor.
  std::size_t pre_raise() {
    if (!cfg_.enabled || band_.cooling() || replicas_ >= cfg_.max_replicas)
      return replicas_;
    ++replicas_;
    band_.restart(cfg_.cooldown_ticks);
    return replicas_;
  }

  std::size_t replicas() const noexcept { return replicas_; }
  std::uint64_t raises() const noexcept { return raises_; }
  std::uint64_t lowers() const noexcept { return lowers_; }

 private:
  HedgerConfig cfg_;
  HysteresisBand band_;
  std::size_t replicas_;
  std::uint64_t raises_ = 0;
  std::uint64_t lowers_ = 0;
};

// --- hedge-timeout control -------------------------------------------------------
//
// The replica count is the coarse lever; the hedge TIMEOUT is the fine
// one. Fire too early and every packet sends two copies (the load doubles,
// RepNet's failure mode); fire too late and the straggler has already
// blown the SLO before its second copy leaves. The controller below moves
// the deadline inside [floor, ceiling] where
//
//   floor   = max(p50, min_timeout_ns)   never hedge before the median —
//                                        half of all packets would hedge
//   ceiling = max_timeout_ns (or the SLO target when 0) — a hedge fired
//                                        at/after the deadline is useless
//
// by a PID loop on the normalized tail error e = (p99 - slo) / slo:
// positive error (tail past the SLO) pushes the deadline down toward the
// median so stragglers get rescued sooner; negative error relaxes it back
// toward the ceiling, shedding duplicate-send load. kp reacts to the
// current window, ki works off persistent offsets (a tail that sits just
// above the SLO for many windows keeps ratcheting the deadline down), kd
// damps reaction to one-window spikes. A deadband suppresses actuation
// for sub-noise changes so the scheduler knob isn't twitched every tick.

struct HedgeTimeoutConfig {
  bool enabled = false;
  std::uint64_t min_timeout_ns = 1'000;
  /// Deadline ceiling; 0 = the SLO target passed to update().
  std::uint64_t max_timeout_ns = 0;
  double kp = 0.5;
  double ki = 0.1;
  double kd = 0.0;
  /// |integral| clamp, in error units (anti-windup).
  double integral_limit = 4.0;
  /// Windows smaller than this carry no signal.
  std::uint64_t min_samples = 32;
  /// Relative deadline change below which no actuation happens.
  double deadband = 0.05;
};

class HedgeTimeoutController {
 public:
  explicit HedgeTimeoutController(HedgeTimeoutConfig cfg = {});

  /// One controller tick: feed the worst serving path's window median and
  /// p99. Returns the hedge deadline to actuate, or 0 while disabled /
  /// before the first adequate window (meaning: leave the scheduler's own
  /// budget in place).
  std::uint64_t update(std::uint64_t p50_ns, std::uint64_t p99_ns,
                       std::uint64_t samples, std::uint64_t slo_target_ns);

  /// The currently actuated deadline (0 = none yet).
  std::uint64_t timeout_ns() const noexcept { return timeout_ns_; }
  std::uint64_t adjustments() const noexcept { return adjustments_; }
  bool enabled() const noexcept { return cfg_.enabled; }

  /// Forecast-driven tightening (mdp::forecast pre-hedge): slide the
  /// deadline position toward the floor by `frac` of its current value
  /// ahead of any measured error. The move flows through the next
  /// update()'s normal deadband/actuation path — the PID stays the single
  /// writer of the actuated deadline, the forecast only biases it.
  void pre_tighten(double frac) {
    if (cfg_.enabled) position_ *= 1.0 - std::clamp(frac, 0.0, 1.0);
  }

 private:
  HedgeTimeoutConfig cfg_;
  /// Normalized deadline position in [0, 1]: 0 = floor, 1 = ceiling.
  /// Starts at the ceiling (conservative: no hedging before evidence).
  double position_ = 1.0;
  double integral_ = 0.0;
  double prev_error_ = 0.0;
  bool primed_ = false;
  std::uint64_t timeout_ns_ = 0;
  std::uint64_t adjustments_ = 0;
};

// --- replication granularity -----------------------------------------------------
//
// The third lever: not how many copies or when, but WHAT gets duplicated.
// Packet hedging reacts after a deadline is already blown — right when
// the pain is queueing (the straggler re-queues elsewhere and wins). But
// when the pain is the service stage itself (a stolen core slows every
// packet it serves), each packet of a short flow eats the slowdown and
// hedges one by one; RepNet's flow-granularity replication — clone the
// whole short flow onto a disjoint path set up front — is the cheaper
// fix. The policy reads the same stage-attribution evidence the breach
// judge produces:
//
//   sustained inflation, service-dominant   -> escalate toward flow
//                                              replicas (kFlowReplica,
//                                              then kBoth if it persists)
//   sustained inflation, queueing-dominant  -> escalate toward packet
//                                              hedging (kBoth covers the
//                                              single-copy remainder)
//   sustained calm                          -> step back down toward the
//                                              configured baseline
//
// Same sustain/cooldown hysteresis as the hedger: one noisy window never
// moves the lever. Pure decision logic; the Controller actuates through
// Actuator::set_granularity() and logs "granularity_shift" decisions.

struct GranularityConfig {
  bool enabled = false;
  /// The resting granularity while the tail is in-band.
  core::Granularity baseline = core::Granularity::kPacketHedge;
  /// Escalate when p99 exceeds raise_threshold x SLO target (sustained).
  double raise_threshold = 1.0;
  /// De-escalate when p99 falls below lower_threshold x SLO (sustained).
  double lower_threshold = 0.5;
  int sustain_ticks = 2;
  int cooldown_ticks = 4;
  std::uint64_t min_samples = 32;
};

class GranularityController {
 public:
  explicit GranularityController(GranularityConfig cfg = {});

  /// One controller tick: worst serving-path p99/samples plus the breach
  /// judge's dominant-stage attribution ("" or nullptr = no stage
  /// evidence). Returns the (possibly updated) granularity.
  core::Granularity update(std::uint64_t worst_p99_ns, std::uint64_t samples,
                           std::uint64_t slo_target_ns,
                           const char* dominant_stage);

  core::Granularity granularity() const noexcept { return granularity_; }
  std::uint64_t shifts() const noexcept { return shifts_; }

 private:
  core::Granularity escalate(const char* dominant_stage) const;
  core::Granularity deescalate() const;

  GranularityConfig cfg_;
  HysteresisBand band_;
  core::Granularity granularity_;
  std::uint64_t shifts_ = 0;
};

}  // namespace mdp::ctrl
