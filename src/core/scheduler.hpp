// Multipath schedulers: the policy layer of the multipath data plane.
//
// Given a packet and a view of path state (PathContext), a scheduler
// returns the set of paths that should carry copies of the packet
// (usually one; >1 for redundancy). The headline AdaptiveMdp policy
// combines three mechanisms:
//   1. replicate latency-critical packets to the 2 least-backlogged paths
//   2. flowlet-consistent JSQ for everything else (bounded reordering)
//   3. hedge: if a single-copy packet hasn't egressed within a budget,
//      issue a late copy on the current best alternate path
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/flat_map.hpp"
#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace mdp::core {

/// Read-only view of path state exposed to policies. Implemented by the
/// data plane; test doubles implement it directly.
class PathContext {
 public:
  virtual ~PathContext() = default;
  virtual std::size_t num_paths() const = 0;
  virtual bool up(std::size_t path) const = 0;
  /// Outstanding work on the path's core (queued + in-service remainder).
  virtual sim::TimeNs backlog_ns(std::size_t path) const = 0;
  virtual std::size_t queue_depth(std::size_t path) const = 0;
  virtual std::uint64_t inflight(std::size_t path) const = 0;
  virtual double ewma_latency_ns(std::size_t path) const = 0;
  virtual sim::TimeNs now() const = 0;
};

using PathVec = std::vector<std::uint16_t>;

/// Snapshot of a PathContext taken once at burst start, with local deltas
/// for the burst's own dispatches. Batch policies read path state through
/// this instead of re-querying the live context per packet — one state
/// sample per burst — and call note_dispatch() after each placement so the
/// burst still spreads instead of dog-piling the momentary best path.
/// With a single-packet burst the snapshot equals the live context, so
/// batch selection degenerates to per-packet selection exactly.
class BatchPathContext final : public PathContext {
 public:
  explicit BatchPathContext(const PathContext& live);

  /// Account a dispatch of estimated cost `est_cost_ns` onto `path`.
  void note_dispatch(std::uint16_t path, sim::TimeNs est_cost_ns) {
    backlog_[path] += est_cost_ns;
    ++depth_[path];
    ++inflight_[path];
  }

  /// Per-dispatch backlog estimate derived from the snapshot (mean
  /// backlog per queued item; 1 µs nominal when queues are empty).
  sim::TimeNs est_dispatch_cost_ns() const noexcept { return est_cost_ns_; }

  // --- PathContext (snapshot + local deltas) -------------------------------
  std::size_t num_paths() const override { return up_.size(); }
  bool up(std::size_t path) const override { return up_[path] != 0; }
  sim::TimeNs backlog_ns(std::size_t path) const override {
    return backlog_[path];
  }
  std::size_t queue_depth(std::size_t path) const override {
    return depth_[path];
  }
  std::uint64_t inflight(std::size_t path) const override {
    return inflight_[path];
  }
  double ewma_latency_ns(std::size_t path) const override {
    return ewma_[path];
  }
  sim::TimeNs now() const override { return now_; }

 private:
  std::vector<std::uint8_t> up_;
  std::vector<sim::TimeNs> backlog_;
  std::vector<std::size_t> depth_;
  std::vector<std::uint64_t> inflight_;
  std::vector<double> ewma_;
  sim::TimeNs now_;
  sim::TimeNs est_cost_ns_;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::string name() const = 0;

  /// Choose >= 1 distinct up paths for this packet's copies. `out` is
  /// cleared by the caller. Must never return a down path when any up
  /// path exists.
  virtual void select(const net::Packet& pkt, const PathContext& ctx,
                      sim::Rng& rng, PathVec& out) = 0;

  /// Batch entry point: choose paths for a whole burst in one call.
  /// `out` is resized to pkts.size(); out[i] receives packet i's paths.
  /// The default loops select() per packet — bit-identical to the scalar
  /// path. Load-aware policies (JSQ, adaptive) override it to sample path
  /// state once per burst and track their own dispatches locally via
  /// BatchPathContext, amortizing the state query across the burst.
  virtual void select_batch(std::span<const net::Packet* const> pkts,
                            const PathContext& ctx, sim::Rng& rng,
                            std::vector<PathVec>& out);

  /// Hedge budget for a packet dispatched as a single copy; 0 disables.
  virtual sim::TimeNs hedge_timeout_ns(const net::Packet& pkt,
                                       const PathContext& ctx) const {
    (void)pkt;
    (void)ctx;
    return 0;
  }

  /// Completion feedback (for learning policies).
  virtual void on_complete(std::uint16_t path, sim::TimeNs latency_ns) {
    (void)path;
    (void)latency_ns;
  }

  /// Flow completed (MdpDataPlane::end_flow): drop any per-flow state.
  /// The flow id is not seen again.
  virtual void end_flow(std::uint32_t flow_id) { (void)flow_id; }

  /// Control-plane actuation: set the replication factor at runtime
  /// (ctrl::AdaptiveHedger). Returns false when the policy does not
  /// replicate (the default); replicating policies clamp and apply.
  virtual bool set_replication(std::size_t replicas) {
    (void)replicas;
    return false;
  }

  /// Control-plane actuation: pin the hedge-fire deadline at runtime
  /// (ctrl::HedgeTimeoutController). Returns false when the policy does
  /// not hedge (the default); hedging policies apply it as a fixed
  /// override of whatever budget they would otherwise compute. 0 restores
  /// the policy's own behavior.
  virtual bool set_hedge_timeout_ns(sim::TimeNs timeout_ns) {
    (void)timeout_ns;
    return false;
  }
};

using SchedulerPtr = std::unique_ptr<Scheduler>;

// --- helpers shared by policies ------------------------------------------------

/// First up path (or 0 if none).
std::uint16_t first_up_path(const PathContext& ctx);
/// Up path with the minimum backlog; ties break to the lowest id.
std::uint16_t least_backlog_path(const PathContext& ctx);
/// The k distinct up paths with the smallest backlogs (ascending).
void k_least_backlog_paths(const PathContext& ctx, std::size_t k,
                           PathVec& out);

// --- concrete policies ----------------------------------------------------------

/// Everything on one pinned path: the status quo last mile.
class SinglePathScheduler final : public Scheduler {
 public:
  explicit SinglePathScheduler(std::uint16_t pinned = 0) : pinned_(pinned) {}
  std::string name() const override { return "single"; }
  void select(const net::Packet&, const PathContext& ctx, sim::Rng&,
              PathVec& out) override;

 private:
  std::uint16_t pinned_;
};

/// RSS: static flow-hash spreading (per-flow pinning, no load awareness).
class RssHashScheduler final : public Scheduler {
 public:
  std::string name() const override { return "rss"; }
  void select(const net::Packet& pkt, const PathContext& ctx, sim::Rng&,
              PathVec& out) override;

  /// Per-flow ECMP with a straggler rescue: a fixed hedge deadline makes
  /// "rss:<timeout_ns>" the canonical packet-hedge baseline for the FCT
  /// benches (the flow stays pinned; only stragglers get a second copy).
  bool set_hedge_timeout_ns(sim::TimeNs timeout_ns) override {
    hedge_timeout_ns_ = timeout_ns;
    return true;
  }
  sim::TimeNs hedge_timeout_ns(const net::Packet&,
                               const PathContext&) const override {
    return hedge_timeout_ns_;
  }

 private:
  sim::TimeNs hedge_timeout_ns_ = 0;
};

/// Packet-level round robin (load-oblivious spraying; max reordering).
class RoundRobinScheduler final : public Scheduler {
 public:
  std::string name() const override { return "rr"; }
  void select(const net::Packet&, const PathContext& ctx, sim::Rng&,
              PathVec& out) override;

 private:
  std::size_t next_ = 0;
};

/// Join-shortest-queue by backlog (per-packet, load-aware).
class JsqScheduler final : public Scheduler {
 public:
  std::string name() const override { return "jsq"; }
  void select(const net::Packet&, const PathContext& ctx, sim::Rng&,
              PathVec& out) override;
  /// One backlog sample per burst; each pick charges an estimated
  /// dispatch cost onto its path so the burst spreads across queues.
  void select_batch(std::span<const net::Packet* const> pkts,
                    const PathContext& ctx, sim::Rng& rng,
                    std::vector<PathVec>& out) override;
};

/// Least-EWMA-latency with epsilon-greedy probing (latency-aware; learns
/// asymmetric path speeds that backlog alone cannot see).
class LeastLatencyScheduler final : public Scheduler {
 public:
  explicit LeastLatencyScheduler(double epsilon = 0.05)
      : epsilon_(epsilon) {}
  std::string name() const override { return "lla"; }
  void select(const net::Packet&, const PathContext& ctx, sim::Rng& rng,
              PathVec& out) override;

 private:
  double epsilon_;
};

/// Flowlet switching: a flow stays on its path while packet gaps are below
/// `gap_ns`; an idle gap re-routes the flowlet via JSQ. Bounds reordering
/// to flowlet boundaries.
class FlowletScheduler final : public Scheduler {
 public:
  explicit FlowletScheduler(sim::TimeNs gap_ns = 50'000) : gap_ns_(gap_ns) {}
  std::string name() const override { return "flowlet"; }
  void select(const net::Packet& pkt, const PathContext& ctx, sim::Rng&,
              PathVec& out) override;
  void end_flow(std::uint32_t flow_id) override { table_.erase(flow_id); }

  sim::TimeNs gap_ns() const noexcept { return gap_ns_; }
  std::uint64_t flowlet_switches() const noexcept { return switches_; }
  /// Flows holding a flowlet entry (retired by end_flow).
  std::size_t tracked_flows() const noexcept { return table_.size(); }

 private:
  struct FlowletState {
    std::uint16_t path;
    sim::TimeNs last_seen_ns;
  };
  sim::TimeNs gap_ns_;
  FlatMap<std::uint32_t, FlowletState> table_;
  std::uint64_t switches_ = 0;
};

/// Full redundancy: every packet to the r least-backlogged paths;
/// first copy wins at the dedup stage.
class RedundantScheduler final : public Scheduler {
 public:
  explicit RedundantScheduler(std::size_t replicas = 2) : r_(replicas) {}
  std::string name() const override {
    return "red" + std::to_string(r_);
  }
  void select(const net::Packet&, const PathContext& ctx, sim::Rng&,
              PathVec& out) override;
  /// Runtime knob (ctrl::AdaptiveHedger); clamped to >= 1.
  bool set_replication(std::size_t replicas) override {
    r_ = replicas ? replicas : 1;
    return true;
  }
  std::size_t replicas() const noexcept { return r_; }

  /// Hedge budget for single-copy dispatches (only reachable at r == 1 —
  /// the data plane never hedges replicated packets). Lets the control
  /// plane run redundant:1 as "hedge instead of replicate".
  bool set_hedge_timeout_ns(sim::TimeNs timeout_ns) override {
    hedge_timeout_ns_ = timeout_ns;
    return true;
  }
  sim::TimeNs hedge_timeout_ns(const net::Packet&,
                               const PathContext&) const override {
    return hedge_timeout_ns_;
  }

 private:
  std::size_t r_;
  sim::TimeNs hedge_timeout_ns_ = 0;
};

/// The headline policy (see file comment).
struct AdaptiveMdpConfig {
  std::size_t replicate_k = 2;          ///< copies for latency-critical
  /// Load gate: replicate only while the extra copy's path has at most
  /// this much backlog. This is what makes the policy *adaptive*: at high
  /// load the spare capacity redundancy needs does not exist, so spending
  /// it on copies just moves the whole latency curve up (see Fig 9) —
  /// the gate degrades gracefully into flowlet-JSQ instead. 0 = no gate.
  sim::TimeNs replicate_backlog_cap_ns = 25'000;
  sim::TimeNs flowlet_gap_ns = 50'000;  ///< flowlet idle gap
  bool hedge_enabled = true;
  /// Fixed hedge budget; 0 => auto (hedge_ewma_factor x mean path EWMA).
  sim::TimeNs hedge_timeout_ns = 0;
  double hedge_ewma_factor = 3.0;
  sim::TimeNs hedge_min_ns = 20'000;  ///< auto-hedge floor
  /// Also replicate best-effort packets whose flow is known-small.
  std::uint32_t small_flow_bytes = 0;  ///< 0 disables size-based replication
};

class AdaptiveMdpScheduler final : public Scheduler {
 public:
  explicit AdaptiveMdpScheduler(AdaptiveMdpConfig cfg = {})
      : cfg_(cfg), flowlet_(cfg.flowlet_gap_ns) {}
  std::string name() const override { return "adaptive"; }
  void select(const net::Packet& pkt, const PathContext& ctx, sim::Rng& rng,
              PathVec& out) override;
  /// Samples path state once per burst (BatchPathContext snapshot) and
  /// runs the full per-packet policy — replication gate, flowlet table,
  /// hedging metadata — against the snapshot plus local dispatch deltas.
  void select_batch(std::span<const net::Packet* const> pkts,
                    const PathContext& ctx, sim::Rng& rng,
                    std::vector<PathVec>& out) override;
  sim::TimeNs hedge_timeout_ns(const net::Packet& pkt,
                               const PathContext& ctx) const override;
  /// Runtime knob (ctrl::AdaptiveHedger): copies for latency-critical
  /// packets; 1 degrades to flowlet-JSQ for everything.
  bool set_replication(std::size_t replicas) override {
    cfg_.replicate_k = replicas ? replicas : 1;
    return true;
  }
  /// Runtime knob (ctrl::HedgeTimeoutController): a non-zero value pins
  /// the hedge deadline, overriding the auto EWMA budget; 0 restores it.
  bool set_hedge_timeout_ns(sim::TimeNs timeout_ns) override {
    cfg_.hedge_timeout_ns = timeout_ns;
    return true;
  }
  void end_flow(std::uint32_t flow_id) override { flowlet_.end_flow(flow_id); }

  const AdaptiveMdpConfig& config() const noexcept { return cfg_; }
  /// Flows holding a flowlet entry (retired by end_flow).
  std::size_t tracked_flows() const noexcept {
    return flowlet_.tracked_flows();
  }
  std::uint64_t replicated() const noexcept { return replicated_; }

 private:
  bool is_critical(const net::Packet& pkt) const noexcept;
  AdaptiveMdpConfig cfg_;
  FlowletScheduler flowlet_;
  std::uint64_t replicated_ = 0;
};

/// Factory: "single" | "rss" | "rr" | "jsq" | "lla" | "flowlet" |
/// "red2" | "red3" | "red4" | "adaptive", plus parameterized forms
/// "<policy>:<param>" — "redundant:3" / "red:3" (replicas),
/// "flowlet:20000" (gap ns), "single:1" (pinned path), "lla:0.1"
/// (epsilon), "adaptive:3" (replicate_k). nullptr for unknown names or
/// invalid parameters.
SchedulerPtr make_scheduler(const std::string& name);

/// Canonical policy list for evaluation sweeps.
std::vector<std::string> evaluation_policy_names();

}  // namespace mdp::core
