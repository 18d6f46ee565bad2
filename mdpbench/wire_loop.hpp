// wire_loop: bare forwarding of 64 B UDP frames through
// core::ThreadedDataPlane (2 paths, burst 32, jsq) over an in-memory
// io::LoopbackBackend pair, driven closed-loop with a fixed window from
// one driver thread. No NIC, no kernel socket: the driver, the two
// workers and the collector are the only threads.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench_stats.hpp"
#include "stats/histogram.hpp"

namespace mdp::mdpbench {

struct WireOptions {
  std::uint64_t seed = 1;
  double seconds = 2.0;        ///< measured time, after warm-up
  SpanTracer* tracer = nullptr;
  RateWindows* windows = nullptr;  ///< returned Mpps per 50 ms window
};

struct WireRun {
  double setup_s = 0;  ///< first constructor -> first admitted frame
  // Exactly-once books over every frame of the run (warm-up included).
  std::uint64_t sent = 0;
  std::uint64_t returned_once = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t unknown = 0;
  std::uint64_t lost = 0;
  std::uint64_t rejected = 0;  ///< ThreadedDataPlane::rejected()
  std::uint64_t pool_allocs = 0, pool_recycles = 0, pool_in_use_end = 0;
  // Measured phase only.
  std::uint64_t measured_ns = 0;
  std::uint64_t measured_frames = 0;  ///< frames returned
  std::uint64_t measured_sent = 0;
  std::uint64_t heap_allocs = 0;      ///< driver thread operator new
  std::uint64_t pumps = 0, empty_pumps = 0, admitted = 0;
  double inflight_sum = 0;  ///< sum over pumps of sum_p path_inflight(p)
  std::size_t burst = 0;
  stats::LatencyHistogram rtt;  ///< driver tx -> rx, host ns
  std::array<SpanTracer::Agg, static_cast<std::size_t>(SpanKind::kCount)>
      spans{};
};

/// Exactly-once books: one bit per sequence number ever sent. Sequence
/// numbers are dense (a frame the wire refuses gives its number back), so
/// a bit set twice is a duplicate and a number at or past the next one to
/// send was never sent. Bits live in 1 MiB chunks of 8 M frames; a chunk
/// is allocated when its first frame returns and freed once all its frames
/// have, so memory stays at a chunk or two however long the run, and a
/// frame held back for any length of time is still recognised.
class SeqBooks {
 public:
  static constexpr std::size_t kChunkWords = (1u << 20) / 8;
  static constexpr std::uint64_t kChunkBits = kChunkWords * 64;

  void sent(std::uint64_t n) { next_ += n; }
  void returned(std::uint64_t s, WireRun& r) {
    if (s >= next_) {
      ++r.unknown;
      return;
    }
    const std::size_t ci = s / kChunkBits;
    if (chunks_.size() <= ci) chunks_.resize(ci + 1);
    Chunk& c = chunks_[ci];
    if (c.returned == kChunkBits) {  // every frame of the chunk is back
      ++r.duplicates;
      return;
    }
    if (!c.bits) c.bits = std::make_unique<std::uint64_t[]>(kChunkWords);
    std::uint64_t& w = c.bits[(s % kChunkBits) / 64];
    const std::uint64_t m = std::uint64_t{1} << (s % 64);
    if (w & m) {
      ++r.duplicates;
      return;
    }
    w |= m;
    ++once_;
    ++r.returned_once;
    if (++c.returned == kChunkBits) c.bits.reset();
  }
  std::uint64_t outstanding() const noexcept { return next_ - once_; }
  std::uint64_t lost() const noexcept { return next_ - once_; }

 private:
  struct Chunk {
    std::unique_ptr<std::uint64_t[]> bits;
    std::uint64_t returned = 0;
  };
  std::vector<Chunk> chunks_;
  std::uint64_t next_ = 0;
  std::uint64_t once_ = 0;
};

WireRun run_wire_loop(const WireOptions& opt);

}  // namespace mdp::mdpbench
