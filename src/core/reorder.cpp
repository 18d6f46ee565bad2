#include "core/reorder.hpp"

#include <algorithm>
#include <vector>

namespace mdp::core {

void ReorderBuffer::release(FlowState& st, net::PacketPtr pkt,
                            sim::TimeNs arrived_ns) {
  dwell_.record(eq_.now() - arrived_ns);
  st.next_expected = pkt->anno().seq + 1;
  emit_(std::move(pkt));
}

void ReorderBuffer::drain(FlowState& st) {
  // Release consecutive buffered packets starting at next_expected.
  while (true) {
    auto it = st.pending.find(st.next_expected);
    if (it == st.pending.end()) break;
    net::PacketPtr pkt = std::move(it->second);
    sim::TimeNs arrived = st.arrival_ns[it->first];
    st.arrival_ns.erase(it->first);
    st.pending.erase(it);
    --buffered_count_;
    release(st, std::move(pkt), arrived);
  }
}

void ReorderBuffer::arm_timer(std::uint32_t flow_id, FlowState& st) {
  if (st.timer_armed) return;
  st.timer_armed = true;
  eq_.schedule_lane_in(lane_, cfg_.timeout_ns,
                       [this, flow_id] { on_timeout(flow_id); });
}

template <typename Fn>
void ReorderBuffer::with_held(std::uint32_t flow_id, FlowState& st, Fn fn) {
  ++st.holds;
  fn();
  if (--st.holds == 0 && st.retired) flows_.erase(flow_id);
}

void ReorderBuffer::on_timeout(std::uint32_t flow_id) {
  auto fit = flows_.find(flow_id);
  if (fit == flows_.end()) return;
  FlowState& st = fit->second;
  st.timer_armed = false;
  if (st.pending.empty()) return;
  // Only skip holes that have actually waited the full timeout; packets
  // buffered more recently get a fresh timer.
  sim::TimeNs oldest = st.arrival_ns.begin()->second;
  for (const auto& [seq, t] : st.arrival_ns)
    if (t < oldest) oldest = t;
  with_held(flow_id, st, [&] {
    if (eq_.now() - oldest >= cfg_.timeout_ns) {
      // Advance the window past the hole: release from the smallest
      // buffered seq onward.
      auto it = st.pending.begin();
      ++timeout_releases_;
      net::PacketPtr pkt = std::move(it->second);
      sim::TimeNs arrived = st.arrival_ns[it->first];
      st.arrival_ns.erase(it->first);
      st.pending.erase(it);
      --buffered_count_;
      release(st, std::move(pkt), arrived);
      drain(st);
    }
    if (!st.pending.empty()) arm_timer(flow_id, st);
  });
}

void ReorderBuffer::submit(net::PacketPtr pkt) {
  const auto& a = pkt->anno();
  const std::uint32_t flow_id = a.flow_id;
  FlowState& st = flows_[flow_id];

  if (a.seq == st.next_expected) {
    ++in_order_;
    with_held(flow_id, st, [&] {
      release(st, std::move(pkt), eq_.now());
      drain(st);
    });
    return;
  }

  ++out_of_order_;
  if (a.seq < st.next_expected) {
    // Predecessor already skipped past this seq (timeout); deliver late
    // rather than drop — better a reordered packet than a lost one.
    ++late_after_skip_;
    dwell_.record(0);
    emit_(std::move(pkt));
    return;
  }

  if (!cfg_.enabled) {
    // Detection-only mode: count and pass through immediately.
    st.next_expected = a.seq + 1;
    dwell_.record(0);
    emit_(std::move(pkt));
    return;
  }

  std::uint64_t seq = a.seq;
  st.arrival_ns[seq] = eq_.now();
  st.pending.emplace(seq, std::move(pkt));
  ++buffered_count_;
  arm_timer(flow_id, st);
}

void ReorderBuffer::submit_batch(std::span<net::PacketPtr> pkts) {
  for (auto& pkt : pkts)
    if (pkt) submit(std::move(pkt));
}

bool ReorderBuffer::retire_flow(std::uint32_t flow_id) {
  auto it = flows_.find(flow_id);
  if (it == flows_.end() || !it->second.pending.empty()) return false;
  // Called from emit_ while this flow's packets are being released: the
  // releasing call still uses the window and erases it when done. An armed
  // timer finds no entry on firing and does nothing.
  if (it->second.holds > 0) {
    it->second.retired = true;
  } else {
    flows_.erase(it);
  }
  return true;
}

std::size_t ReorderBuffer::flush_all() {
  std::vector<std::uint32_t> ids;
  for (const auto& [flow_id, st] : flows_)
    if (!st.pending.empty()) ids.push_back(flow_id);
  std::sort(ids.begin(), ids.end());
  std::size_t released = 0;
  for (const std::uint32_t flow_id : ids) {
    FlowState& st = flows_.find(flow_id)->second;
    // pending is seq-ordered (std::map), so releasing front-to-back keeps
    // per-flow order while hopping the holes.
    with_held(flow_id, st, [&] {
      while (!st.pending.empty()) {
        auto it = st.pending.begin();
        net::PacketPtr pkt = std::move(it->second);
        sim::TimeNs arrived = st.arrival_ns[it->first];
        st.arrival_ns.erase(it->first);
        st.pending.erase(it);
        --buffered_count_;
        ++released;
        release(st, std::move(pkt), arrived);
      }
    });
    // Any armed timer now finds pending empty and disarms itself.
  }
  flushed_ += released;
  return released;
}

}  // namespace mdp::core
