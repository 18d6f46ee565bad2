#include "bench_stats.hpp"

#include <fstream>
#include <functional>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace mdp::mdpbench {

constinit thread_local std::uint64_t t_heap_allocs = 0;
constinit thread_local std::uint64_t t_heap_bytes = 0;

double percentile(std::span<const double> v, double q) {
  if (v.empty()) return 0;
  std::vector<double> s(v.begin(), v.end());
  std::sort(s.begin(), s.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] + (s[hi] - s[lo]) * frac;
}

Quartiles quartiles(std::span<const double> v) {
  return {percentile(v, 0.25), percentile(v, 0.5), percentile(v, 0.75),
          v.size()};
}

const char* span_name(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kStep: return "sim.step";
    case SpanKind::kIngress: return "core.ingress";
    case SpanKind::kSelect: return "core.select";
    case SpanKind::kTick: return "ctrl.tick";
    case SpanKind::kEgress: return "bench.egress";
    case SpanKind::kPump: return "core.pump";
    case SpanKind::kTx: return "io.tx_burst";
    case SpanKind::kRx: return "io.rx_burst";
    case SpanKind::kBuild: return "net.build_udp";
    case SpanKind::kChainPass: return "nf.chain_pass";
    case SpanKind::kParsePass: return "net.parse_pass";
    case SpanKind::kCount: break;
  }
  return "?";
}

void SpanTracer::begin(SpanKind kind, std::uint64_t id,
                       std::uint64_t now_ns) noexcept {
  if (depth_ == kMaxDepth) return;  // deeper nesting is not traced
  std::int32_t raw_index = -1;
  if (raw_armed_ && raw_n_ < raw_.size()) {
    raw_index = static_cast<std::int32_t>(raw_n_);
    Raw& r = raw_[raw_n_++];
    r.kind = kind;
    r.id = id;
    r.start_ns = now_ns;
    r.parent = depth_ ? stack_[depth_ - 1].raw_index : -1;
  }
  stack_[depth_++] = Frame{kind, now_ns, 0, id, raw_index};
}

void SpanTracer::end(std::uint64_t now_ns) noexcept {
  if (depth_ == 0) return;
  const Frame f = stack_[--depth_];
  const std::uint64_t dur = now_ns > f.start_ns ? now_ns - f.start_ns : 0;
  Agg& a = agg_[static_cast<std::size_t>(f.kind)];
  ++a.calls;
  a.total_ns += dur;
  a.child_ns += f.child_ns;
  if (depth_) stack_[depth_ - 1].child_ns += dur;
  if (f.raw_index >= 0) raw_[static_cast<std::size_t>(f.raw_index)].end_ns =
      now_ns;
}

void SpanTracer::reset() noexcept {
  agg_ = {};
  depth_ = 0;
  raw_n_ = 0;
  raw_armed_ = false;
}

bool SpanTracer::write_raw(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < raw_n_; ++i) {
    const Raw& r = raw_[i];
    out << "{\"i\":" << i << ",\"name\":\"" << span_name(r.kind)
        << "\",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
        << ",\"parent\":" << r.parent << ",\"id\":" << r.id << "}\n";
  }
  return static_cast<bool>(out);
}

namespace {
constexpr std::size_t kProbeOps = 20'000;
constexpr std::size_t kProbeHeap = 1024;
constexpr std::uint64_t kProbeKeys = 4096;
constexpr int kSlotBits = 13;
constexpr std::size_t kProbeSlots = std::size_t{1} << kSlotBits;
static_assert(kProbeSlots >= 2 * kProbeKeys, "load factor must stay <= 0.5");
constexpr std::size_t kSlotMask = kProbeSlots - 1;
constexpr std::size_t kCacheLine = 64;

std::size_t home_slot(std::uint64_t key) noexcept {
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                  (64 - kSlotBits));
}

template <typename T>
void flush_lines(const std::vector<T>& v) noexcept {
#if defined(__x86_64__) || defined(__i386__)
  const char* p = reinterpret_cast<const char*>(v.data());
  const char* end = p + v.size() * sizeof(T);
  for (; p < end; p += kCacheLine) _mm_clflush(p);
#else
  (void)v;
#endif
}
}  // namespace

HostSpeedProbe::HostSpeedProbe() : table_(kProbeSlots) {
  heap_.reserve(kProbeHeap + 1);
}

/// Erase `key` if present, else insert it.
void HostSpeedProbe::toggle(std::uint64_t key, std::uint64_t value) noexcept {
  std::size_t i = home_slot(key);
  while (table_[i].key != 0 && table_[i].key != key + 1)
    i = (i + 1) & kSlotMask;
  if (table_[i].key == 0) {
    table_[i] = {key + 1, value};
    return;
  }
  sink_ += table_[i].value;
  // Backward-shift erase: pull later entries of the run into the hole
  // unless that would move one before its home slot.
  for (std::size_t j = (i + 1) & kSlotMask; table_[j].key != 0;
       j = (j + 1) & kSlotMask) {
    const std::size_t home = home_slot(table_[j].key - 1);
    if (((j - home) & kSlotMask) >= ((j - i) & kSlotMask)) {
      table_[i] = table_[j];
      i = j;
    }
  }
  table_[i] = {};
}

void HostSpeedProbe::flush_caches() const noexcept {
  flush_lines(heap_);
  flush_lines(table_);
#if defined(__x86_64__) || defined(__i386__)
  _mm_mfence();
#endif
}

double HostSpeedProbe::ns_per_op() {
  flush_caches();
  const std::uint64_t t0 = host_now_ns();
  for (std::size_t i = 0; i < kProbeOps; ++i) {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t x = state_ >> 17;
    heap_.push_back(x);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    if (heap_.size() > kProbeHeap) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      sink_ += heap_.back();
      heap_.pop_back();
    }
    toggle(x % kProbeKeys, x);
  }
  const std::uint64_t t1 = host_now_ns();
  return static_cast<double>(t1 - t0) / static_cast<double>(kProbeOps);
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f)) {
    unsigned long v = 0;
    if (std::sscanf(line, "VmHWM: %lu kB", &v) == 1) {
      kb = static_cast<double>(v);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace mdp::mdpbench
