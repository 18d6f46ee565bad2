// EventQueue: the discrete-event core. Events fire in (virtual time,
// insertion sequence) order; ties in time break by insertion order so
// runs are fully deterministic for a given seed.
//
// Allocation-free in steady state: the binary heap holds plain
// {at, seq, slot} keys, and the callbacks live in a slab of reused slots
// (UniqueFunction stores every hot-path capture inline). Only growth of
// the heap or the slab past its high-water mark allocates.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "sim/unique_function.hpp"

namespace mdp::sim {

class EventQueue {
 public:
  using Callback = UniqueFunction<void()>;

  TimeNs now() const noexcept { return now_; }

  /// Schedule `cb` at absolute virtual time `at_ns` (clamped to now()).
  void schedule_at(TimeNs at_ns, Callback cb) {
    if (at_ns < now_) at_ns = now_;
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(std::move(cb));
    } else {
      slot = free_.back();
      free_.pop_back();
      slab_[slot] = std::move(cb);
    }
    heap_.push_back(Key{at_ns, seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Schedule `cb` `delay_ns` after now().
  void schedule_in(TimeNs delay_ns, Callback cb) {
    schedule_at(now_ + delay_ns, std::move(cb));
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }
  std::uint64_t events_processed() const noexcept { return processed_; }

  /// Run the next event; returns false if none pending.
  bool step() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Key top = heap_.back();
    heap_.pop_back();
    // Move the callback out before running it: it may schedule, and a
    // slab growth would otherwise relocate it mid-call.
    Callback cb = std::move(slab_[top.slot]);
    free_.push_back(top.slot);
    now_ = top.at;
    ++processed_;
    cb();
    return true;
  }

  /// Run events until the queue is drained.
  void run() {
    while (step()) {
    }
  }

  /// Run events with time <= until_ns; advances now() to until_ns.
  void run_until(TimeNs until_ns) {
    while (!heap_.empty() && heap_.front().at <= until_ns) step();
    if (now_ < until_ns) now_ = until_ns;
  }

  /// Discard all pending events WITHOUT executing them. Call this before
  /// tearing down objects the queued closures reference (packet pools,
  /// cores): closures may own packets whose deleters touch the pool, so
  /// they must be destroyed while it is still alive.
  void clear() {
    heap_.clear();
    free_.clear();
    slab_.clear();
  }

 private:
  struct Key {
    TimeNs at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  // Max-heap comparator that puts the earliest (time, seq) on top.
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  std::vector<Key> heap_;
  std::vector<Callback> slab_;
  std::vector<std::uint32_t> free_;
  TimeNs now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace mdp::sim
