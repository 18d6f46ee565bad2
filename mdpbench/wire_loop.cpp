#include "wire_loop.hpp"

#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/threaded_dataplane.hpp"
#include "io/loopback_backend.hpp"
#include "net/flow_key.hpp"
#include "net/headers.hpp"
#include "net/packet_builder.hpp"
#include "net/packet_pool.hpp"

namespace mdp::mdpbench {

namespace {

constexpr std::size_t kFrameBytes = 64;
constexpr std::size_t kPayloadBytes =
    kFrameBytes - net::kEthernetHeaderLen - net::kIpv4MinHeaderLen -
    net::kUdpHeaderLen;
static_assert(kPayloadBytes >= 16, "frame too small for seq + timestamp");
constexpr std::size_t kNumFlows = 64;
constexpr std::size_t kTxBurst = 32;
constexpr std::size_t kInflightFrames = 512;  ///< the closed-loop window
constexpr std::uint64_t kWindowNs = 50'000'000;  ///< host-rate window
constexpr std::uint64_t kWarmupNs = 200'000'000;  ///< before measuring

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

WireRun run_wire_loop(const WireOptions& opt) {
  WireRun r;
  SpanTracer* tr = opt.tracer;
  SeqBooks books;

  // Inputs from the seed: the flow 5-tuples the frames cycle through.
  std::uint64_t rng = opt.seed;
  std::array<net::FlowKey, kNumFlows> flows{};
  std::array<std::uint64_t, kNumFlows> hashes{};
  for (std::size_t f = 0; f < kNumFlows; ++f) {
    const std::uint64_t x = splitmix64(rng);
    flows[f] = {0x0b000000u | static_cast<std::uint32_t>(x & 0xffffff),
                0x0a006401u, static_cast<std::uint16_t>(1024 + (x >> 32) % 60000),
                static_cast<std::uint16_t>(5000 + f), 17};
    hashes[f] = net::hash_flow(flows[f]);
  }

  const std::uint64_t setup_start = host_now_ns();
  net::PacketPool pool(4096, 256, /*allow_growth=*/false);
  io::LoopbackConfig lc;
  lc.seed = opt.seed;
  auto [driver, plane_end] = io::LoopbackBackend::make_pair(lc);
  core::ThreadedConfig cfg;
  cfg.num_paths = 2;
  cfg.burst_size = 32;
  cfg.policy = "jsq";
  cfg.payload_bytes = kFrameBytes;
  cfg.work_iterations = 1;
  cfg.backend = plane_end.get();
  core::ThreadedDataPlane dp(cfg, nullptr);
  dp.start();
  r.burst = dp.burst_size();

  std::uint64_t next_seq = 0;
  net::PacketPtr tx[kTxBurst];
  net::PacketPtr got[core::ThreadedDataPlane::kMaxBurst];
  bool measuring = false, sending = true, setup_done = false;
  std::uint64_t warm_end_ns = 0, stop_ns = 0, window_start = 0;
  std::uint64_t measure_start = 0;
  std::uint64_t window_frames = 0, heap0 = 0;
  std::array<SpanTracer::Agg, static_cast<std::size_t>(SpanKind::kCount)>
      spans0{};
  auto snap = [&] {
    std::array<SpanTracer::Agg, static_cast<std::size_t>(SpanKind::kCount)>
        s{};
    if (tr)
      for (std::size_t i = 0; i < s.size(); ++i)
        s[i] = tr->agg(static_cast<SpanKind>(i));
    return s;
  };

  const std::uint64_t drain_deadline_extra = 2'000'000'000ULL;
  while (true) {
    // Refill the window: build, stamp, transmit.
    if (sending) {
      while (books.outstanding() < kInflightFrames) {
        const std::size_t want =
            std::min(kTxBurst, kInflightFrames - books.outstanding());
        std::size_t built = 0;
        {
          Span s(tr, SpanKind::kBuild, next_seq);
          for (; built < want; ++built) {
            const std::uint64_t seq = next_seq + built;
            net::BuildSpec spec;
            spec.flow = flows[seq % kNumFlows];
            spec.payload_len = kPayloadBytes;
            tx[built] = net::build_udp(pool, spec);
            if (!tx[built]) break;
            auto& a = tx[built]->anno();
            a.flow_hash = hashes[seq % kNumFlows];
            a.flow_id = static_cast<std::uint32_t>(seq % kNumFlows);
            a.seq = seq;
          }
        }
        if (built == 0) break;
        const std::uint64_t stamp = host_now_ns();
        for (std::size_t i = 0; i < built; ++i) {
          std::byte* p = tx[i]->data() + (kFrameBytes - kPayloadBytes);
          const std::uint64_t seq = next_seq + i;
          std::memcpy(p, &seq, sizeof(seq));
          std::memcpy(p + 8, &stamp, sizeof(stamp));
        }
        std::size_t sent;
        {
          Span s(tr, SpanKind::kTx, next_seq);
          sent = driver->tx_burst(std::span<net::PacketPtr>(tx, built));
        }
        for (std::size_t i = sent; i < built; ++i) tx[i].reset();
        books.sent(sent);
        next_seq += sent;
        if (measuring) r.measured_sent += sent;
        if (sent < built) break;
      }
    }

    std::size_t admitted;
    {
      Span s(tr, SpanKind::kPump, r.pumps);
      admitted = dp.pump();
    }
    if (!setup_done && admitted > 0) {
      setup_done = true;
      const std::uint64_t now = host_now_ns();
      r.setup_s = static_cast<double>(now - setup_start) * 1e-9;
      warm_end_ns = now + kWarmupNs;
    }
    if (measuring) {
      ++r.pumps;
      r.admitted += admitted;
      if (admitted == 0) ++r.empty_pumps;
      for (std::size_t p = 0; p < cfg.num_paths; ++p)
        r.inflight_sum += static_cast<double>(dp.path_inflight(p));
    }

    std::size_t n;
    {
      Span s(tr, SpanKind::kRx, r.pumps);
      n = driver->rx_burst(std::span<net::PacketPtr>(got, std::size(got)));
    }
    const std::uint64_t now = host_now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      const std::byte* p = got[i]->data() + (kFrameBytes - kPayloadBytes);
      std::uint64_t seq, stamp;
      std::memcpy(&seq, p, sizeof(seq));
      std::memcpy(&stamp, p + 8, sizeof(stamp));
      books.returned(seq, r);
      if (measuring) r.rtt.record(now > stamp ? now - stamp : 0);
      got[i].reset();
    }

    if (measuring) {
      r.measured_frames += n;
      window_frames += n;
      if (now - window_start >= kWindowNs) {
        if (opt.windows)
          opt.windows->add(static_cast<double>(window_frames),
                           now - window_start);
        window_start = host_now_ns();  // the probe is not in the window
        window_frames = 0;
      }
      if (now >= stop_ns) {
        measuring = false;
        sending = false;
        r.measured_ns = now - measure_start;
        r.heap_allocs = t_heap_allocs - heap0;
        const auto spans1 = snap();
        for (std::size_t i = 0; i < spans1.size(); ++i) {
          r.spans[i].calls = spans1[i].calls - spans0[i].calls;
          r.spans[i].total_ns = spans1[i].total_ns - spans0[i].total_ns;
          r.spans[i].child_ns = spans1[i].child_ns - spans0[i].child_ns;
        }
      }
    }
    if (setup_done && !measuring && sending && now >= warm_end_ns) {
      measuring = true;
      window_start = now;
      heap0 = t_heap_allocs;
      spans0 = snap();
      if (tr) tr->arm_raw();
      measure_start = now;
      stop_ns = now + static_cast<std::uint64_t>(opt.seconds * 1e9);
    }
    if (!sending &&
        (books.outstanding() == 0 || now > stop_ns + drain_deadline_extra))
      break;
    if (admitted == 0 && n == 0) std::this_thread::yield();
  }

  // Quiesce: stop the threads, hand back whatever is still on the egress
  // side, and account for every frame.
  dp.stop();
  for (int round = 0; round < 4; ++round) {
    dp.pump();
    std::size_t n;
    while ((n = driver->rx_burst(
                std::span<net::PacketPtr>(got, std::size(got)))) > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::byte* p = got[i]->data() + (kFrameBytes - kPayloadBytes);
        std::uint64_t seq;
        std::memcpy(&seq, p, sizeof(seq));
        books.returned(seq, r);
        got[i].reset();
      }
    }
  }
  r.sent = next_seq;
  r.lost = books.lost();
  r.rejected = dp.rejected();
  r.pool_allocs = pool.total_allocs();
  r.pool_recycles = pool.total_recycles();
  r.pool_in_use_end = pool.in_use();
  driver->stop();
  plane_end->stop();
  return r;
}

}  // namespace mdp::mdpbench
