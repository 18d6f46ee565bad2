// Deduplicator tests: exactly-once acceptance, expected-count accounting,
// hedge increments, cancellation, and the age sweep; plus the FlatMap
// behind the dedup ledger, churned against std::unordered_map.
#include <gtest/gtest.h>

#include "core/dedup.hpp"
#include "core/flat_map.hpp"
#include "core/reorder.hpp"
#include "sim/rng.hpp"

#include <iterator>
#include <memory>
#include <unordered_map>
#include <vector>

namespace mdp::core {
namespace {

TEST(Dedup, FirstCopyWinsRestDrop) {
  Deduplicator d;
  auto k = Deduplicator::key(1, 1);
  d.expect(k, 3, 0);
  EXPECT_TRUE(d.accept(k));
  EXPECT_FALSE(d.accept(k));
  EXPECT_FALSE(d.accept(k));
  EXPECT_EQ(d.dup_drops(), 2u);
  EXPECT_EQ(d.pending(), 0u) << "entry retires when all copies seen";
}

TEST(Dedup, SingleCopyRetiresImmediately) {
  Deduplicator d;
  auto k = Deduplicator::key(5, 9);
  d.expect(k, 1, 0);
  EXPECT_TRUE(d.accept(k));
  EXPECT_EQ(d.pending(), 0u);
}

TEST(Dedup, UnknownKeyIsLateDrop) {
  Deduplicator d;
  EXPECT_FALSE(d.accept(Deduplicator::key(1, 1)));
  EXPECT_EQ(d.late_drops(), 1u);
}

TEST(Dedup, KeysAreFlowAndSeqScoped) {
  // Distinct (flow, seq) pairs used in practice map to distinct keys.
  Deduplicator d;
  d.expect(Deduplicator::key(1, 0), 1, 0);
  d.expect(Deduplicator::key(2, 0), 1, 0);
  d.expect(Deduplicator::key(1, 1), 1, 0);
  EXPECT_TRUE(d.accept(Deduplicator::key(1, 0)));
  EXPECT_TRUE(d.accept(Deduplicator::key(2, 0)));
  EXPECT_TRUE(d.accept(Deduplicator::key(1, 1)));
}

TEST(Dedup, AddExpectedExtendsLifetime) {
  Deduplicator d;
  auto k = Deduplicator::key(1, 1);
  d.expect(k, 1, 0);
  d.add_expected(k);  // hedge issued
  EXPECT_TRUE(d.accept(k));
  EXPECT_EQ(d.pending(), 1u) << "hedge copy still outstanding";
  EXPECT_FALSE(d.accept(k));
  EXPECT_EQ(d.pending(), 0u);
}

TEST(Dedup, CancelOneReleasesSlot) {
  Deduplicator d;
  auto k = Deduplicator::key(1, 1);
  d.expect(k, 2, 0);
  EXPECT_TRUE(d.accept(k));
  EXPECT_EQ(d.pending(), 1u);
  d.cancel_one(k);  // second copy filtered in-chain
  EXPECT_EQ(d.pending(), 0u);
}

TEST(Dedup, CancelAllCopiesWithoutAcceptRetires) {
  Deduplicator d;
  auto k = Deduplicator::key(3, 3);
  d.expect(k, 2, 0);
  d.cancel_one(k);
  EXPECT_EQ(d.pending(), 1u);
  d.cancel_one(k);
  EXPECT_EQ(d.pending(), 0u);
}

TEST(Dedup, CompletedReflectsFirstAcceptance) {
  Deduplicator d;
  auto k = Deduplicator::key(1, 1);
  d.expect(k, 2, 0);
  EXPECT_FALSE(d.completed(k));
  d.accept(k);
  EXPECT_TRUE(d.completed(k));
  // Retired entries also count as completed.
  d.accept(k);
  EXPECT_TRUE(d.completed(k));
}

TEST(Dedup, SweepRemovesOnlyOldEntries) {
  Deduplicator d;
  d.expect(Deduplicator::key(1, 1), 2, /*now=*/0);
  d.expect(Deduplicator::key(1, 2), 2, /*now=*/900);
  EXPECT_EQ(d.sweep(/*now=*/1000, /*max_age=*/500), 1u);
  EXPECT_EQ(d.pending(), 1u);
  EXPECT_EQ(d.swept(), 1u);
}

TEST(Dedup, RandomizedExactlyOnceProperty) {
  // For random replication factors and arrival patterns, exactly one copy
  // per (flow, seq) is ever accepted.
  sim::Rng rng(31337);
  Deduplicator d;
  std::uint64_t accepted = 0;
  constexpr int kPackets = 20'000;
  for (int i = 0; i < kPackets; ++i) {
    std::uint32_t flow = static_cast<std::uint32_t>(rng.uniform_u64(64));
    auto k = Deduplicator::key(flow, static_cast<std::uint64_t>(i));
    auto copies = static_cast<std::uint8_t>(1 + rng.uniform_u64(4));
    d.expect(k, copies, 0);
    int accepted_here = 0;
    for (std::uint8_t c = 0; c < copies; ++c)
      if (d.accept(k)) ++accepted_here;
    ASSERT_EQ(accepted_here, 1);
    accepted += accepted_here;
  }
  EXPECT_EQ(accepted, static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(d.pending(), 0u);
}


TEST(Dedup, LateDuplicateAfterFlushAllIsReleasedNotLeaked) {
  // Regression: a path-down flush_all() releases a flow's buffered
  // original, the dedup sweep ages the half-open entry out, and only then
  // does the straggler copy limp off its slow path. The merge stage must
  // recycle it as a late drop — not re-egress it, not strand it in the
  // pool.
  sim::EventQueue eq;
  net::PacketPool pool{64, 256};
  Deduplicator d;
  std::vector<std::uint64_t> egressed;
  ReorderBuffer rb(eq, ReorderConfig{}, [&](net::PacketPtr p) {
    egressed.push_back(p->anno().seq);  // PacketPtr recycles on scope exit
  });

  auto make = [&](std::uint64_t seq) {
    auto p = pool.alloc();
    p->set_length(64);
    p->anno().flow_id = 7;
    p->anno().seq = seq;
    return p;
  };
  // Merge-stage contract (MdpDataPlane::on_service_end): dedup verdict
  // first, and only the accepted copy reaches the reorder buffer.
  auto merge = [&](net::PacketPtr p) {
    const auto k = Deduplicator::key(p->anno().flow_id, p->anno().seq);
    if (!d.accept(k)) return;  // duplicate/late copy recycles right here
    rb.submit(std::move(p));
  };

  d.expect(Deduplicator::key(7, 0), 2, /*now=*/0);
  d.expect(Deduplicator::key(7, 1), 2, /*now=*/0);

  merge(make(1));  // out of order: parks in the buffer waiting for seq 0
  EXPECT_EQ(rb.buffered(), 1u);
  EXPECT_EQ(egressed.size(), 0u);

  // Path down: flush everything now; seq 1 egresses past the hole.
  EXPECT_EQ(rb.flush_all(), 1u);
  ASSERT_EQ(egressed.size(), 1u);
  EXPECT_EQ(egressed[0], 1u);
  EXPECT_EQ(pool.in_use(), 0u) << "flush_all leaked the buffered packet";

  // The age sweep retires both half-open entries (seq 0 never arrived at
  // all; seq 1 still owes its second copy)...
  EXPECT_EQ(d.sweep(/*now=*/1'000'000, /*max_age=*/500'000), 2u);
  EXPECT_EQ(d.pending(), 0u);

  // ...and only now do the stragglers arrive: the duplicate of the
  // flushed seq-1 original, and the seq-0 copy whose twin died with the
  // path. Both must be recycled, neither may egress.
  merge(make(1));
  merge(make(0));
  EXPECT_EQ(d.late_drops(), 2u);
  EXPECT_EQ(egressed.size(), 1u) << "a late copy re-egressed after flush";
  EXPECT_EQ(pool.in_use(), 0u) << "late duplicates leaked packets";
}

TEST(Dedup, AcceptBatchMatchesScalarAccept) {
  // Burst drain is a straight loop over accept(): same verdicts, same
  // counters, one call per burst.
  Deduplicator scalar, batch;
  std::vector<std::uint64_t> keys;
  for (std::uint32_t f = 0; f < 4; ++f) {
    auto k = Deduplicator::key(f, 7);
    scalar.expect(k, 2, 0);
    batch.expect(k, 2, 0);
    keys.push_back(k);  // first copy
    keys.push_back(k);  // duplicate copy
  }
  keys.push_back(Deduplicator::key(99, 99));  // never registered: late

  std::vector<bool> expected;
  std::size_t scalar_firsts = 0;
  for (auto k : keys) {
    bool first = scalar.accept(k);
    expected.push_back(first);
    if (first) ++scalar_firsts;
  }

  // std::vector<bool> has no .data(); use a plain bool array as the span.
  bool storage[16];
  ASSERT_LE(keys.size(), std::size(storage));
  std::size_t firsts = batch.accept_batch(keys, {storage, keys.size()});

  EXPECT_EQ(firsts, scalar_firsts);
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(storage[i], expected[i]) << "verdict " << i;
  EXPECT_EQ(batch.dup_drops(), scalar.dup_drops());
  EXPECT_EQ(batch.late_drops(), scalar.late_drops());
  EXPECT_EQ(batch.pending(), scalar.pending());
}

// Differential churn: FlatMap against std::unordered_map over inserts,
// updates, erases, lookups and predicate sweeps, through many growths.
// Keys mix a dense range (hits and erase chains) with sparse 64-bit keys
// and dedup-style (flow << 40 ^ seq) keys.
TEST(FlatMap, ChurnMatchesUnorderedMap) {
  for (std::uint64_t seed : {3u, 17u, 977u}) {
    sim::Rng rng(seed);
    FlatMap<std::uint64_t, std::uint64_t> fm;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    auto rand_key = [&]() -> std::uint64_t {
      switch (rng.uniform_u64(3)) {
        case 0: return rng.uniform_u64(512);
        case 1: return rng.next_u64() | (std::uint64_t{1} << 63);
        default:
          return Deduplicator::key(
              static_cast<std::uint32_t>(rng.uniform_u64(16)),
              rng.uniform_u64(256));
      }
    };
    std::size_t max_size = 0;
    for (int op = 0; op < 10'000; ++op) {
      const std::uint64_t k = rand_key();
      const std::uint64_t r = rng.uniform_u64(100);
      if (r < 40) {  // insert-if-absent
        const std::uint64_t v = rng.next_u64();
        auto [val, inserted] = fm.try_emplace(k, v);
        auto [it, ref_inserted] = ref.try_emplace(k, v);
        ASSERT_EQ(inserted, ref_inserted);
        ASSERT_EQ(*val, it->second);
      } else if (r < 55) {  // update through operator[]
        ++fm[k];
        ++ref[k];
      } else if (r < 80) {
        ASSERT_EQ(fm.erase(k), ref.erase(k) > 0);
      } else if (r < 99) {
        const std::uint64_t* v = fm.find(k);
        auto it = ref.find(k);
        ASSERT_EQ(v != nullptr, it != ref.end());
        if (v) {
          ASSERT_EQ(*v, it->second);
        }
      } else if (rng.uniform_u64(4) == 0) {  // sweep about a third
        const std::uint64_t m = 1 + rng.uniform_u64(3);
        auto pred = [m](std::uint64_t key, std::uint64_t v) {
          return (key ^ v) % 3 == m % 3;
        };
        std::size_t ref_n = 0;
        for (auto it = ref.begin(); it != ref.end();) {
          if (pred(it->first, it->second)) {
            it = ref.erase(it);
            ++ref_n;
          } else {
            ++it;
          }
        }
        ASSERT_EQ(fm.erase_if([&](std::uint64_t key, std::uint64_t& v) {
                    return pred(key, v);
                  }),
                  ref_n);
      }
      ASSERT_EQ(fm.size(), ref.size()) << "seed " << seed << " op " << op;
      max_size = std::max(max_size, ref.size());
      if (op % 1000 == 999) {
        for (const auto& [key, v] : ref) {
          const std::uint64_t* got = fm.find(key);
          ASSERT_TRUE(got) << "lost key " << key;
          ASSERT_EQ(*got, v);
        }
      }
    }
    EXPECT_GE(fm.capacity(), 2 * max_size) << "load factor stays <= 1/2";
    EXPECT_GT(max_size, 500u) << "the churn must force several growths";
  }
}

TEST(FlatMap, EraseDestroysValues) {
  auto token = std::make_shared<int>(0);
  FlatMap<std::uint32_t, std::shared_ptr<int>> fm;
  for (std::uint32_t k = 0; k < 100; ++k) fm.try_emplace(k, token);
  EXPECT_EQ(token.use_count(), 101);
  for (std::uint32_t k = 0; k < 100; k += 2) EXPECT_TRUE(fm.erase(k));
  EXPECT_EQ(token.use_count(), 51);
  EXPECT_EQ(fm.erase_if([](std::uint32_t k, const std::shared_ptr<int>&) {
              return k % 4 == 1;
            }),
            25u);
  EXPECT_EQ(token.use_count(), 26);
  // A second try_emplace on a present key keeps the stored value.
  auto [v, inserted] = fm.try_emplace(3, nullptr);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*v, token);
  EXPECT_EQ(fm.erase_if([](std::uint32_t, const std::shared_ptr<int>&) {
              return true;
            }),
            25u);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(fm.size(), 0u);
}

}  // namespace
}  // namespace mdp::core
