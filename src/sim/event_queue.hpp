// EventQueue: the discrete-event core. Events fire in (virtual time,
// insertion sequence) order; ties in time break by insertion order so
// runs are fully deterministic for a given seed.
//
// Allocation-free in steady state: pending events are plain
// {at, seq, slot} keys, and the callbacks live in a slab of reused slots
// (UniqueFunction stores every hot-path capture inline). Only growth of
// the key stores or the slab past their high-water mark allocates.
//
// Keys wait in one of two kinds of store:
//   - the heap: a binary min-heap on (at, seq), for any event;
//   - FIFO timer lanes, for owners that arm timers a fixed delay ahead
//     (hedge and reorder timeouts). A lane is two rings ("runs").
//     schedule_lane_at appends to a run whose last deadline is not later
//     than the new one, and falls back to the heap when neither run
//     fits. So each run's keys are sorted by (at, seq) as they sit: `at`
//     never decreases along it and `seq` always increases. The second
//     run absorbs a shortened delay (the controller lowering the hedge
//     timeout) while the first drains, instead of the heap.
// step() pops the smallest key over the heap top and the run heads,
// which is exactly the key a single heap holding every event would pop.
// Lanes are therefore invisible in the event order; they only make the
// common fixed-delay timer O(1) instead of O(log n), and keep the heap
// small for everything else.
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
  /// Handle of a FIFO timer lane (see add_lane).
  using Lane = std::uint32_t;

  TimeNs now() const noexcept { return now_; }

  /// Open a FIFO timer lane for one owner's fixed-delay timers. Lanes
  /// live as long as the queue; clear() empties them but keeps them
  /// open. Every lane adds two checks to step(), so owners open one
  /// each, not one per timer.
  Lane add_lane() {
    runs_.resize(runs_.size() + 2);
    return static_cast<Lane>(runs_.size() - 2);
  }

  /// Schedule `cb` at absolute virtual time `at_ns` (clamped to now()).
  void schedule_at(TimeNs at_ns, Callback cb) {
    if (at_ns < now_) at_ns = now_;
    heap_.push_back(Key{at_ns, seq_++, store(std::move(cb))});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Schedule `cb` `delay_ns` after now().
  void schedule_in(TimeNs delay_ns, Callback cb) {
    schedule_at(now_ + delay_ns, std::move(cb));
  }

  /// schedule_at through `lane`: fires in exactly the same order, but
  /// costs O(1) when `at_ns` is not earlier than the last deadline of
  /// one of the lane's runs (a fixed-delay timer's usual case).
  void schedule_lane_at(Lane lane, TimeNs at_ns, Callback cb) {
    if (at_ns < now_) at_ns = now_;
    // Best fit: the run with the latest tail not after at_ns, so the
    // other run stays free for a deadline that steps back.
    Ring* pick = nullptr;
    for (Ring* r : {&runs_[lane], &runs_[lane + 1]}) {
      if (!r->fits(at_ns)) continue;
      if (!pick || (!r->empty() && (pick->empty() ||
                                    r->back().at > pick->back().at)))
        pick = r;
    }
    if (!pick) {
      schedule_at(at_ns, std::move(cb));
      return;
    }
    pick->push(Key{at_ns, seq_++, store(std::move(cb))});
    ++lane_pending_;
  }

  /// schedule_lane_at `delay_ns` after now().
  void schedule_lane_in(Lane lane, TimeNs delay_ns, Callback cb) {
    schedule_lane_at(lane, now_ + delay_ns, std::move(cb));
  }

  bool empty() const noexcept { return heap_.empty() && lane_pending_ == 0; }
  /// Pending events, on the heap and in every lane.
  std::size_t size() const noexcept { return heap_.size() + lane_pending_; }
  /// Pending events waiting in `lane` (not counting heap fallbacks).
  std::size_t lane_size(Lane lane) const noexcept {
    return runs_[lane].count + runs_[lane + 1].count;
  }
  std::uint64_t events_processed() const noexcept { return processed_; }

  /// Run the next event; returns false if none pending.
  bool step() { return step_until(~TimeNs{0}); }

  /// Run events until the queue is drained.
  void run() {
    while (step()) {
    }
  }

  /// Run events with time <= until_ns; advances now() to until_ns.
  void run_until(TimeNs until_ns) {
    while (step_until(until_ns)) {
    }
    if (now_ < until_ns) now_ = until_ns;
  }

  /// Discard all pending events WITHOUT executing them. Call this before
  /// tearing down objects the queued closures reference (packet pools,
  /// cores): closures may own packets whose deleters touch the pool, so
  /// they must be destroyed while it is still alive.
  void clear() {
    heap_.clear();
    for (Ring& r : runs_) r.reset();
    lane_pending_ = 0;
    free_.clear();
    slab_.clear();
  }

 private:
  struct Key {
    TimeNs at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  // Run the next event if it is due at or before `until_ns`.
  bool step_until(TimeNs until_ns) {
    Ring* run = nullptr;
    const Key* next = next_key(&run);
    if (!next || next->at > until_ns) return false;
    const Key top = *next;
    if (run) {
      run->pop();
      --lane_pending_;
    } else {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
    // Move the callback out before running it: it may schedule, and a
    // slab growth would otherwise relocate it mid-call.
    Callback cb = std::move(slab_[top.slot]);
    free_.push_back(top.slot);
    now_ = top.at;
    ++processed_;
    cb();
    return true;
  }

  static bool before(const Key& a, const Key& b) noexcept {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  // Max-heap comparator that puts the earliest (time, seq) on top.
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return before(b, a);
    }
  };

  // One run of a lane: a power-of-two ring of keys. Its storage is kept
  // and reused; it grows only past its high-water mark.
  struct Ring {
    std::vector<Key> keys;
    std::size_t head = 0;
    std::size_t count = 0;

    bool empty() const noexcept { return count == 0; }
    bool fits(TimeNs at) const noexcept { return empty() || back().at <= at; }
    const Key& front() const noexcept { return keys[head]; }
    const Key& back() const noexcept {
      return keys[(head + count - 1) & (keys.size() - 1)];
    }
    void push(const Key& k) {
      if (count == keys.size()) grow();
      keys[(head + count) & (keys.size() - 1)] = k;
      ++count;
    }
    void pop() noexcept {
      head = (head + 1) & (keys.size() - 1);
      --count;
    }
    void reset() noexcept { head = count = 0; }
    void grow() {
      std::vector<Key> bigger(keys.empty() ? 64 : keys.size() * 2);
      for (std::size_t i = 0; i < count; ++i)
        bigger[i] = keys[(head + i) & (keys.size() - 1)];
      keys = std::move(bigger);
      head = 0;
    }
  };

  std::uint32_t store(Callback cb) {
    if (free_.empty()) {
      slab_.push_back(std::move(cb));
      return static_cast<std::uint32_t>(slab_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    slab_[slot] = std::move(cb);
    return slot;
  }

  // The key that fires next, or nullptr when nothing is pending; `*run`
  // is the lane run holding it (nullptr: the heap top).
  const Key* next_key(Ring** run) noexcept {
    const Key* best = heap_.empty() ? nullptr : &heap_.front();
    *run = nullptr;
    if (lane_pending_ == 0) return best;
    for (Ring& r : runs_) {
      if (!r.empty() && (!best || before(r.front(), *best))) {
        best = &r.front();
        *run = &r;
      }
    }
    return best;
  }

  std::vector<Key> heap_;
  std::vector<Ring> runs_;  // lane i owns runs i and i + 1
  std::size_t lane_pending_ = 0;
  std::vector<Callback> slab_;
  std::vector<std::uint32_t> free_;
  TimeNs now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace mdp::sim
