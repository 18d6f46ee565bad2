// FlatMap: the growable open-addressing map behind the data plane's
// per-packet state (sequence counters, parked hedges, dedup entries, the
// flowlet table).
//
// Same probing discipline as nf::FlowTable — linear probing over one slot
// array, backward-shift deletion (no tombstones, probe chains never rot
// under churn) — but it grows on demand and never evicts: dedup must
// never forget a pending packet. Keys are unsigned integers, hashed by
// Fibonacci multiplication. Inserting and erasing allocate nothing once
// the table has reached its high-water size.
//
// There is deliberately no iteration API: slot order depends on the
// table's growth history, so nothing may flow from it into an output.
// erase_if visits every entry, for order-insensitive sweeps only.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace mdp::core {

template <typename Key, typename Value>
class FlatMap {
  static_assert(std::is_unsigned_v<Key> && sizeof(Key) <= 8);
  static_assert(std::is_default_constructible_v<Value>);

 public:
  std::size_t size() const noexcept { return size_; }
  /// Slot count (grows by doubling; never shrinks).
  std::size_t capacity() const noexcept { return slots_.size(); }

  Value* find(Key k) noexcept {
    const std::size_t i = find_slot(k);
    return i == kNone ? nullptr : &slots_[i].value;
  }
  const Value* find(Key k) const noexcept {
    const std::size_t i = find_slot(k);
    return i == kNone ? nullptr : &slots_[i].value;
  }

  /// Insert `v` under `k` unless `k` is present (then `v` is discarded).
  /// Returns the stored value and whether it was inserted. The pointer
  /// is invalidated by any later insert or erase.
  std::pair<Value*, bool> try_emplace(Key k, Value v = Value{}) {
    if (const std::size_t hit = find_slot(k); hit != kNone)
      return {&slots_[hit].value, false};
    if ((size_ + 1) * 2 > slots_.size()) grow();
    Slot& s = slots_[free_slot_for(k)];
    s.key = k;
    s.used = true;
    s.value = std::move(v);
    ++size_;
    return {&s.value, true};
  }

  /// Value under `k`, default-inserted if absent.
  Value& operator[](Key k) { return *try_emplace(k).first; }

  /// Remove `k`; its value is destroyed (reset to Value{}). Returns
  /// whether it was present.
  bool erase(Key k) {
    const std::size_t i = find_slot(k);
    if (i == kNone) return false;
    erase_slot(i);
    return true;
  }

  /// Erase every entry for which `pred(key, value)` returns true. Visits
  /// entries in slot order, so `pred` must not depend on that order.
  /// Returns the number erased.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    if (size_ == 0) return 0;
    // Start just past an empty slot: backward shifts stop at empty slots,
    // so no entry ever moves from the scanned part into the unscanned
    // part or back. An entry shifted into the current slot is re-checked.
    std::size_t start = 0;
    while (slots_[start].used) ++start;
    std::size_t n = 0;
    for (std::size_t i = (start + 1) & mask_; i != start;) {
      Slot& s = slots_[i];
      if (s.used && pred(static_cast<Key>(s.key), s.value)) {
        erase_slot(i);
        ++n;
      } else {
        i = (i + 1) & mask_;
      }
    }
    return n;
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr std::size_t kMinSlots = 16;

  struct Slot {
    Key key{};
    bool used = false;
    Value value{};
  };

  std::size_t home(Key k) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  std::size_t find_slot(Key k) const noexcept {
    if (size_ == 0) return kNone;
    for (std::size_t i = home(k);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (!s.used) return kNone;
      if (s.key == k) return i;
    }
  }

  std::size_t free_slot_for(Key k) const noexcept {
    std::size_t i = home(k);
    while (slots_[i].used) i = (i + 1) & mask_;
    return i;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t n = old.empty() ? kMinSlots : old.size() * 2;
    slots_ = std::vector<Slot>(n);
    mask_ = n - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
    for (Slot& s : old) {
      if (!s.used) continue;
      Slot& d = slots_[free_slot_for(s.key)];
      d.key = s.key;
      d.used = true;
      d.value = std::move(s.value);
    }
  }

  void erase_slot(std::size_t i) {
    --size_;
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (!slots_[j].used) break;
      const std::size_t ideal = home(slots_[j].key);
      // Entry at j may move into the hole at i iff its probe chain from
      // `ideal` covers i: (j - ideal) mod S >= (j - i) mod S.
      if (((j - ideal) & mask_) >= ((j - i) & mask_)) {
        slots_[i].key = slots_[j].key;
        slots_[i].value = std::move(slots_[j].value);
        i = j;
      }
    }
    slots_[i].used = false;
    slots_[i].value = Value{};
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace mdp::core
