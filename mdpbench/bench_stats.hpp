// The benchmark's own measurement plumbing: order statistics over host
// windows, a nested span tracer with self-time attribution, and process
// memory probes. Everything here is fixed-size after construction, so
// measuring never allocates on the paths it measures.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

namespace mdp::mdpbench {

/// operator-new calls and bytes made by the calling thread. Bumped only by
/// the benchmark binary's replacement operator new (alloc_count.cpp); they
/// stay 0 in builds that do not link it (the tests). Per thread, so the
/// count costs no atomic on the measured path; the workloads read the
/// counts of the thread that drives them.
extern constinit thread_local std::uint64_t t_heap_allocs;
extern constinit thread_local std::uint64_t t_heap_bytes;

inline std::uint64_t host_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Quantile `q` in [0,1] of `v` by linear interpolation between closest
/// ranks (the "linear" method of numpy and of Python's
/// statistics.quantiles(method="inclusive")). 0 for an empty input.
double percentile(std::span<const double> v, double q);

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  std::size_t n = 0;
};
Quartiles quartiles(std::span<const double> v);

/// Fixed-capacity sample of per-window host rates. Windows beyond the
/// capacity are dropped (and counted) instead of growing the buffer.
class WindowSeries {
 public:
  explicit WindowSeries(std::size_t capacity) : buf_(capacity) {}
  void add(double v) noexcept {
    if (n_ < buf_.size())
      buf_[n_++] = v;
    else
      ++dropped_;
  }
  std::span<const double> values() const noexcept { return {buf_.data(), n_}; }
  std::size_t size() const noexcept { return n_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  Quartiles stats() const { return quartiles(values()); }

 private:
  std::vector<double> buf_;
  std::size_t n_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Boundaries the traced run records. Names follow the src/ module that
/// owns the timed call.
enum class SpanKind : std::uint8_t {
  kStep = 0,    ///< sim::EventQueue::step
  kIngress,     ///< core::MdpDataPlane::ingress
  kSelect,      ///< core::Scheduler::select / select_batch (decorator)
  kTick,        ///< ctrl::Controller::tick
  kEgress,      ///< the benchmark's egress callback (ctrl observe + books)
  kPump,        ///< core::ThreadedDataPlane::pump
  kTx,          ///< io::LoopbackBackend::tx_burst (driver side)
  kRx,          ///< io::LoopbackBackend::rx_burst (driver side)
  kBuild,       ///< net::build_udp (driver side)
  kChainPass,   ///< layer pass: packets through an nf::build_chain chain
  kParsePass,   ///< layer pass: net::parse over the same packets
  kCount,
};
const char* span_name(SpanKind k) noexcept;

/// Nested span tracer. Each span records start, end, parent and a packet
/// or flow id; every call is aggregated in memory (calls, inclusive time,
/// time of direct children), and once armed, the first raw spans up to a
/// fixed capacity are kept for writing out at exit. Self time = inclusive
/// - children.
class SpanTracer {
 public:
  struct Agg {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t child_ns = 0;
    std::uint64_t self_ns() const noexcept {
      return total_ns > child_ns ? total_ns - child_ns : 0;
    }
  };
  struct Raw {
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t id = 0;
    std::int32_t parent = -1;  ///< index into the raw sample, -1 = root
    SpanKind kind = SpanKind::kStep;
  };

  explicit SpanTracer(std::size_t raw_capacity = 4096)
      : raw_(raw_capacity) {}

  /// Open a span at `now_ns`; spans must close in LIFO order.
  void begin(SpanKind kind, std::uint64_t id, std::uint64_t now_ns) noexcept;
  void end(std::uint64_t now_ns) noexcept;
  void begin(SpanKind kind, std::uint64_t id) noexcept {
    begin(kind, id, host_now_ns());
  }
  void end() noexcept { end(host_now_ns()); }

  const Agg& agg(SpanKind k) const noexcept {
    return agg_[static_cast<std::size_t>(k)];
  }
  std::size_t depth() const noexcept { return depth_; }
  std::span<const Raw> raw() const noexcept { return {raw_.data(), raw_n_}; }
  /// Start keeping raw spans (from the measured phase on). Spans open at
  /// this point are not in the sample; their children become roots.
  void arm_raw() noexcept { raw_armed_ = true; }
  void reset() noexcept;

  /// Write the raw sample as JSON lines (one span per line).
  bool write_raw(const std::string& path) const;

 private:
  static constexpr std::size_t kMaxDepth = 16;
  struct Frame {
    SpanKind kind;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::uint64_t id;
    std::int32_t raw_index;
  };
  std::array<Agg, static_cast<std::size_t>(SpanKind::kCount)> agg_{};
  std::array<Frame, kMaxDepth> stack_{};
  std::size_t depth_ = 0;
  std::vector<Raw> raw_;
  std::size_t raw_n_ = 0;
  bool raw_armed_ = false;
};

/// RAII span that is free when no tracer is attached.
class Span {
 public:
  Span(SpanTracer* t, SpanKind kind, std::uint64_t id) noexcept : t_(t) {
    if (t_) t_->begin(kind, id);
  }
  ~Span() {
    if (t_) t_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTracer* t_;
};

/// Peak resident set (VmHWM) of this process, in MB (2^20 bytes).
double peak_rss_mb();

/// A fixed reference kernel that reads the host's current speed: a binary
/// heap and an open-addressing hash table (linear probing, backward-shift
/// erase) under random pushes, pops, inserts and erases, the same kind of
/// work as the simulator's event queue and flow tables. On a shared host,
/// speed moves with neighbours' load by up to 2x within seconds; timing
/// this kernel right after each throughput window lets the benchmark scale
/// the window to a reference speed (see README.md).
///
/// The kernel's state lives in two arrays allocated once, and every line
/// of them is flushed from the caches before each timed pass. So a pass
/// starts from the same state whatever the program did before it: the
/// program's cache footprint and allocator state cannot speed up or slow
/// down the probe.
class HostSpeedProbe {
 public:
  /// The reference speed: throughput is scaled to a host on which one
  /// kernel op takes this long.
  static constexpr double kNominalNs = 50.0;

  HostSpeedProbe();
  /// Run the kernel once (~1 ms) and return host ns per op.
  double ns_per_op();

 private:
  struct Slot {
    std::uint64_t key = 0;  ///< key + 1; 0 marks an empty slot
    std::uint64_t value = 0;
  };
  void toggle(std::uint64_t key, std::uint64_t value) noexcept;
  void flush_caches() const noexcept;

  std::vector<std::uint64_t> heap_;
  std::vector<Slot> table_;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sink_ = 0;
};

/// Host-rate windows of one run: each window's raw rate in M units per
/// host second and, with a probe attached, that rate scaled to the
/// reference speed (raw x probe ns/op / HostSpeedProbe::kNominalNs).
class RateWindows {
 public:
  RateWindows(std::size_t capacity, HostSpeedProbe* probe)
      : raw_(capacity), ref_(capacity), probe_ns_(capacity), probe_(probe) {}
  /// Record a window of `units` over `ns` host ns, then run the probe.
  /// The caller starts its next window after this returns.
  void add(double units, std::uint64_t ns) {
    if (ns == 0) return;
    const double mups = units * 1e3 / static_cast<double>(ns);
    raw_.add(mups);
    if (!probe_) return;
    const double p = probe_->ns_per_op();
    probe_ns_.add(p);
    ref_.add(mups * p / HostSpeedProbe::kNominalNs);
  }
  const WindowSeries& raw() const noexcept { return raw_; }
  const WindowSeries& ref() const noexcept { return ref_; }
  const WindowSeries& probe_ns() const noexcept { return probe_ns_; }

 private:
  WindowSeries raw_, ref_, probe_ns_;
  HostSpeedProbe* probe_;
};

}  // namespace mdp::mdpbench
