// ReorderBuffer: per-flow resequencer at the multipath egress.
//
// Multipath dispatch can deliver a flow's packets out of order (different
// paths drain at different speeds). The buffer holds early packets until
// their predecessors arrive, releasing in sequence; a timeout bounds the
// dwell when a predecessor was dropped in-chain, after which the window
// advances past the hole.
//
// When disabled it still *detects* out-of-order deliveries (Fig 10's
// "no reorder buffer" series) but emits immediately.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <unordered_map>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/event_queue.hpp"
#include "stats/histogram.hpp"

namespace mdp::core {

struct ReorderConfig {
  bool enabled = true;
  sim::TimeNs timeout_ns = 200'000;  ///< max dwell waiting for a hole
};

class ReorderBuffer {
 public:
  using Emit = std::function<void(net::PacketPtr)>;

  ReorderBuffer(sim::EventQueue& eq, ReorderConfig cfg, Emit emit)
      : eq_(eq), lane_(eq.add_lane()), cfg_(cfg), emit_(std::move(emit)) {}

  /// Hand over a deduplicated packet (anno.flow_id / anno.seq valid).
  void submit(net::PacketPtr pkt);

  /// Burst drain: submit each non-null packet in order (null entries —
  /// dedup-dropped burst slots — are skipped). Identical semantics to a
  /// per-packet submit loop.
  void submit_batch(std::span<net::PacketPtr> pkts);

  /// Flow completed: forget its window if nothing of it is buffered.
  /// Returns true if the entry was retired (a flow with pending packets
  /// keeps its entry; its timeout still releases them). The flow id must
  /// not be reused afterwards — its window would restart at seq 0.
  bool retire_flow(std::uint32_t flow_id);

  /// Path-down / teardown flush: release every buffered packet NOW, flow
  /// by flow in ascending flow id (so the output order depends only on
  /// what is buffered, never on the table's history) and in per-flow seq
  /// order, advancing each flow's window past its holes
  /// (predecessors stranded on a dead path will never arrive, so waiting
  /// out the timeout only adds tail latency). Ownership moves through
  /// emit_ — the consumer's drop recycles each PacketPtr into its pool —
  /// and all dwell/arrival bookkeeping is cleared, so a pool-leak audit
  /// (PacketPool::in_use() == 0 at quiesce) passes without manual
  /// inspection. Returns the number of packets released.
  std::size_t flush_all();

  // --- stats --------------------------------------------------------------
  std::uint64_t in_order() const noexcept { return in_order_; }
  std::uint64_t out_of_order() const noexcept { return out_of_order_; }
  std::uint64_t timeout_releases() const noexcept {
    return timeout_releases_;
  }
  std::uint64_t late_after_skip() const noexcept { return late_after_skip_; }
  std::uint64_t flushed() const noexcept { return flushed_; }
  std::size_t buffered() const noexcept { return buffered_count_; }
  /// Flows holding a resequencing window (retired by retire_flow).
  std::size_t tracked_flows() const noexcept { return flows_.size(); }
  const stats::LatencyHistogram& dwell() const noexcept { return dwell_; }
  double ooo_fraction() const noexcept {
    std::uint64_t total = in_order_ + out_of_order_;
    return total ? static_cast<double>(out_of_order_) /
                       static_cast<double>(total)
                 : 0.0;
  }

 private:
  struct FlowState {
    std::uint64_t next_expected = 0;
    std::map<std::uint64_t, net::PacketPtr> pending;  // seq -> packet
    std::map<std::uint64_t, sim::TimeNs> arrival_ns;
    bool timer_armed = false;
    /// Releases of this flow on the stack (emit_ may re-enter us), and
    /// whether retire_flow was called during one of them.
    std::uint32_t holds = 0;
    bool retired = false;
  };

  /// Run fn() while holding `st`: a retire_flow from inside (emit_ may end
  /// the flow) only marks the window, and it is erased once fn returns.
  template <typename Fn>
  void with_held(std::uint32_t flow_id, FlowState& st, Fn fn);
  void drain(FlowState& st);
  void arm_timer(std::uint32_t flow_id, FlowState& st);
  void on_timeout(std::uint32_t flow_id);
  void release(FlowState& st, net::PacketPtr pkt, sim::TimeNs arrived_ns);

  sim::EventQueue& eq_;
  sim::EventQueue::Lane lane_;  // timeouts: always timeout_ns ahead
  ReorderConfig cfg_;
  Emit emit_;
  std::unordered_map<std::uint32_t, FlowState> flows_;
  std::uint64_t in_order_ = 0;
  std::uint64_t out_of_order_ = 0;
  std::uint64_t timeout_releases_ = 0;
  std::uint64_t late_after_skip_ = 0;
  std::uint64_t flushed_ = 0;
  std::size_t buffered_count_ = 0;
  stats::LatencyHistogram dwell_;
};

}  // namespace mdp::core
