// The simulated workloads, assembled inside the benchmark from the same
// public constructors harness::run_scenario / run_rpc_scenario use, so the
// benchmark owns every layer boundary: it drives sim::EventQueue::step()
// itself, owns the controller ticker, and routes every scheduling decision
// through a forwarding core::Scheduler decorator.
//
// A run is a fixed, seeded amount of simulated work. Everything in
// SimCounts is a function of (code, config, seed) and repeats bit-exactly;
// host-clock measurements live in SimHost.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_stats.hpp"
#include "harness/experiment.hpp"
#include "net/packet.hpp"
#include "stats/histogram.hpp"

namespace mdp::mdpbench {

/// sim_packet: 4 paths, fw-nat-lb, adaptive policy, Poisson load 0.7 over
/// 256 flows (10% latency-critical), Markov CPU theft on path 2, and the
/// online control plane (quarantine, hedger, PID hedge timeout, telemetry)
/// ticking every 1 ms of virtual time.
harness::ScenarioConfig sim_packet_config(std::uint64_t seed,
                                          std::uint64_t packets,
                                          std::uint64_t warmup_packets);

/// sim_flows: flow-level RPC on the data-mining CDF, rss with flow
/// replication (flows <= 100 kB get 2 paths), 4 paths, load 0.6, 15% theft
/// duty on every path, control plane off.
harness::ScenarioConfig sim_flows_config(std::uint64_t seed);
inline constexpr const char* kFlowsCdf = "datamining";
inline constexpr double kShortFlowBytes = 100'000;

/// Bounded copy of generated packets (bytes + annotations) in a fixed
/// arena, replayed by the nf/net layer passes of the traced run.
class PacketCapture {
 public:
  PacketCapture(std::size_t max_packets, std::size_t arena_bytes);
  void add(const net::Packet& pkt) noexcept;
  std::size_t size() const noexcept { return n_; }
  void clear() noexcept { n_ = used_ = 0; }
  /// Rebuild packet `i` into a packet from `pool`.
  net::PacketPtr materialize(std::size_t i, net::PacketPool& pool) const;

 private:
  struct Rec {
    std::size_t offset;
    std::size_t len;
    net::Annotations anno;
  };
  std::vector<std::byte> arena_;
  std::vector<Rec> recs_;
  std::size_t n_ = 0;
  std::size_t used_ = 0;
};

struct SimOptions {
  SpanTracer* tracer = nullptr;     ///< traced run: spans at every boundary
  PacketCapture* capture = nullptr; ///< traced run: measured-phase packets
  RateWindows* windows = nullptr;   ///< host Mpps per 20,000 ingress
  /// Ingress packets before the measured phase (windows, heap counts and
  /// span totals start here).
  std::uint64_t warmup_packets = 0;
};

/// Deterministic outcome of one simulated run.
struct SimCounts {
  // Virtual-time distributions (ns).
  stats::LatencyHistogram latency;     ///< measured-phase egress - arrival
  stats::LatencyHistogram lc_latency;  ///< latency-critical subset
  stats::LatencyHistogram reorder_dwell;
  stats::LatencyHistogram short_fct, long_fct, all_fct;

  std::uint64_t offered = 0;   ///< packets into MdpDataPlane::ingress
  std::uint64_t egressed = 0;
  std::uint64_t measured = 0;
  std::uint64_t exactly_once = 0;  ///< (flow, seq) egressed exactly once
  std::uint64_t duplicates = 0;    ///< (flow, seq) egressed again
  std::uint64_t missing = 0;       ///< offered, never egressed, not filtered
  std::uint64_t unknown = 0;       ///< egressed (flow, seq) never offered
  std::uint64_t bad_flows = 0;     ///< flows with a duplicate or unknown
  std::uint64_t flows_started = 0, flows_completed = 0;
  std::uint64_t flows_seen = 0, flows_replicated = 0;
  std::uint64_t ingress_bytes = 0, extra_copy_bytes = 0;
  double dup_byte_frac = 0;
  std::uint64_t events = 0, queue_peak = 0;
  std::uint64_t pool_allocs = 0, pool_recycles = 0, pool_in_use_end = 0;
  std::uint64_t heap_allocs_measured = 0;  ///< operator new, measured phase
  std::uint64_t measured_ingress = 0;      ///< ingress in the measured phase
  std::uint64_t ctrl_ticks = 0, ctrl_decisions = 0, ctrl_quarantines = 0,
                ctrl_reinstatements = 0, ctrl_hedge_timeout_changes = 0;
  double ooo_fraction = 0;
  sim::TimeNs sim_duration_ns = 0;
  std::vector<std::uint64_t> per_path_dispatched;
  /// Every counter of the run's trace::StatsRegistry at the stop boundary.
  std::map<std::string, std::uint64_t> registry;

  std::uint64_t counter(const std::string& name) const {
    auto it = registry.find(name);
    return it == registry.end() ? 0 : it->second;
  }
  /// Canonical text of every field above; equal iff the runs are equal.
  std::string digest() const;
};

struct SimHost {
  double setup_s = 0;        ///< first constructor -> first admitted packet
  double calibration_s = 0;  ///< harness::mean_service_ns probe plane
  std::uint64_t measured_ns = 0;  ///< warm-up end -> last ingress
  /// Span totals over the measured phase (traced runs).
  std::array<SpanTracer::Agg, static_cast<std::size_t>(SpanKind::kCount)>
      spans{};
};

struct SimRun {
  SimCounts counts;
  SimHost host;
};

/// `cfg` comes from sim_packet_config() (ctrl and telemetry on, Poisson
/// arrivals, a named policy): the driver builds only that assembly.
SimRun run_sim_packet(const harness::ScenarioConfig& cfg,
                      const SimOptions& opt);
SimRun run_sim_flows(const harness::ScenarioConfig& cfg,
                     std::uint64_t num_flows, const SimOptions& opt);

/// Run the harness, the untraced driver and the traced driver on one
/// reduced-size config and compare them. Empty iff all three agree.
std::string check_equivalence_packet(const harness::ScenarioConfig& cfg);
std::string check_equivalence_flows(const harness::ScenarioConfig& cfg,
                                    std::uint64_t num_flows);

/// Layer passes over captured packets (traced run).
struct LayerPass {
  double chain_ns_per_pkt = 0;  ///< nf::build_chain chain, per packet
  double parse_ns_per_pkt = 0;  ///< net::parse, per packet
  double setup_s = 0;           ///< building `replicas` chain replicas
  double setup_mb = 0;          ///< heap bytes those replicas allocated
  std::uint64_t packets = 0;
  std::uint64_t survivors = 0;  ///< packets the chain passed
};
LayerPass run_layer_pass(const PacketCapture& cap, const std::string& chain,
                         std::size_t replicas, SpanTracer& tracer);

}  // namespace mdp::mdpbench
