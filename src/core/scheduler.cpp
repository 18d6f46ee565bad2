#include "core/scheduler.hpp"

#include <algorithm>
#include <optional>

namespace mdp::core {

std::uint16_t first_up_path(const PathContext& ctx) {
  for (std::size_t p = 0; p < ctx.num_paths(); ++p)
    if (ctx.up(p)) return static_cast<std::uint16_t>(p);
  return 0;
}

std::uint16_t least_backlog_path(const PathContext& ctx) {
  std::uint16_t best = first_up_path(ctx);
  sim::TimeNs best_backlog = ctx.up(best) ? ctx.backlog_ns(best)
                                          : UINT64_MAX;
  for (std::size_t p = 0; p < ctx.num_paths(); ++p) {
    if (!ctx.up(p)) continue;
    sim::TimeNs b = ctx.backlog_ns(p);
    if (b < best_backlog) {
      best_backlog = b;
      best = static_cast<std::uint16_t>(p);
    }
  }
  return best;
}

void k_least_backlog_paths(const PathContext& ctx, std::size_t k,
                           PathVec& out) {
  // Insertion into the caller's buffer keeps the best k in (backlog, id)
  // order without a scratch vector: paths arrive in id order, so a tie
  // lands behind the lower id already placed.
  if (k == 0) return;
  const std::size_t base = out.size();
  for (std::size_t p = 0; p < ctx.num_paths(); ++p) {
    if (!ctx.up(p)) continue;
    const sim::TimeNs b = ctx.backlog_ns(p);
    if (out.size() - base == k) {
      if (b >= ctx.backlog_ns(out.back())) continue;
      out.pop_back();
    }
    auto at = out.end();
    while (at != out.begin() + static_cast<std::ptrdiff_t>(base) &&
           ctx.backlog_ns(*(at - 1)) > b)
      --at;
    out.insert(at, static_cast<std::uint16_t>(p));
  }
}

// --- BatchPathContext -----------------------------------------------------------

BatchPathContext::BatchPathContext(const PathContext& live)
    : now_(live.now()) {
  const std::size_t n = live.num_paths();
  up_.resize(n);
  backlog_.resize(n);
  depth_.resize(n);
  inflight_.resize(n);
  ewma_.resize(n);
  sim::TimeNs backlog_sum = 0;
  std::size_t depth_sum = 0;
  for (std::size_t p = 0; p < n; ++p) {
    up_[p] = live.up(p) ? 1 : 0;
    backlog_[p] = live.backlog_ns(p);
    depth_[p] = live.queue_depth(p);
    inflight_[p] = live.inflight(p);
    ewma_[p] = live.ewma_latency_ns(p);
    backlog_sum += backlog_[p];
    depth_sum += depth_[p];
  }
  // Mean backlog per queued item approximates the service cost one more
  // dispatch adds; 1 µs nominal when the system is idle so early picks
  // in a burst still repel later ones.
  est_cost_ns_ = depth_sum > 0 ? backlog_sum / depth_sum : 1'000;
  if (est_cost_ns_ == 0) est_cost_ns_ = 1'000;
}

// --- Scheduler (default batch = per-packet loop) --------------------------------

void Scheduler::select_batch(std::span<const net::Packet* const> pkts,
                             const PathContext& ctx, sim::Rng& rng,
                             std::vector<PathVec>& out) {
  out.resize(pkts.size());
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    out[i].clear();
    select(*pkts[i], ctx, rng, out[i]);
  }
}

// --- SinglePath -----------------------------------------------------------------

void SinglePathScheduler::select(const net::Packet&, const PathContext& ctx,
                                 sim::Rng&, PathVec& out) {
  std::uint16_t p = pinned_;
  if (p >= ctx.num_paths() || !ctx.up(p)) p = first_up_path(ctx);
  out.push_back(p);
}

// --- RssHash --------------------------------------------------------------------

void RssHashScheduler::select(const net::Packet& pkt, const PathContext& ctx,
                              sim::Rng&, PathVec& out) {
  std::size_t n = ctx.num_paths();
  auto start = static_cast<std::size_t>(pkt.anno().flow_hash % n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t p = (start + i) % n;
    if (ctx.up(p)) {
      out.push_back(static_cast<std::uint16_t>(p));
      return;
    }
  }
  out.push_back(0);
}

// --- RoundRobin -----------------------------------------------------------------

void RoundRobinScheduler::select(const net::Packet&, const PathContext& ctx,
                                 sim::Rng&, PathVec& out) {
  std::size_t n = ctx.num_paths();
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t p = (next_ + i) % n;
    if (ctx.up(p)) {
      next_ = (p + 1) % n;
      out.push_back(static_cast<std::uint16_t>(p));
      return;
    }
  }
  out.push_back(0);
}

// --- Jsq ------------------------------------------------------------------------

void JsqScheduler::select(const net::Packet&, const PathContext& ctx,
                          sim::Rng&, PathVec& out) {
  out.push_back(least_backlog_path(ctx));
}

void JsqScheduler::select_batch(std::span<const net::Packet* const> pkts,
                                const PathContext& ctx, sim::Rng&,
                                std::vector<PathVec>& out) {
  BatchPathContext snap(ctx);
  const sim::TimeNs cost = snap.est_dispatch_cost_ns();
  out.resize(pkts.size());
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    out[i].clear();
    const std::uint16_t p = least_backlog_path(snap);
    out[i].push_back(p);
    snap.note_dispatch(p, cost);
  }
}

// --- LeastLatency ---------------------------------------------------------------

void LeastLatencyScheduler::select(const net::Packet&, const PathContext& ctx,
                                   sim::Rng& rng, PathVec& out) {
  // Epsilon-greedy: occasionally probe a random up path so a path whose
  // EWMA went stale (e.g. after an interference burst ended) can recover.
  if (rng.bernoulli(epsilon_)) {
    std::size_t n = ctx.num_paths();
    for (std::size_t tries = 0; tries < n; ++tries) {
      auto p = static_cast<std::size_t>(rng.uniform_u64(n));
      if (ctx.up(p)) {
        out.push_back(static_cast<std::uint16_t>(p));
        return;
      }
    }
  }
  // Score = EWMA latency + current backlog (a path can be historically
  // fast but momentarily buried; backlog captures that).
  double best_score = 0;
  int best = -1;
  for (std::size_t p = 0; p < ctx.num_paths(); ++p) {
    if (!ctx.up(p)) continue;
    double score = ctx.ewma_latency_ns(p) +
                   static_cast<double>(ctx.backlog_ns(p));
    if (best < 0 || score < best_score) {
      best_score = score;
      best = static_cast<int>(p);
    }
  }
  out.push_back(best < 0 ? std::uint16_t{0}
                         : static_cast<std::uint16_t>(best));
}

// --- Flowlet --------------------------------------------------------------------

void FlowletScheduler::select(const net::Packet& pkt, const PathContext& ctx,
                              sim::Rng&, PathVec& out) {
  std::uint32_t flow = pkt.anno().flow_id;
  sim::TimeNs now = ctx.now();
  FlowletState* st = table_.find(flow);
  if (st && ctx.up(st->path) && now - st->last_seen_ns <= gap_ns_) {
    st->last_seen_ns = now;
    out.push_back(st->path);
    return;
  }
  std::uint16_t p = least_backlog_path(ctx);
  if (st && st->path != p) ++switches_;
  table_[flow] = {p, now};
  out.push_back(p);
}

// --- Redundant ------------------------------------------------------------------

void RedundantScheduler::select(const net::Packet&, const PathContext& ctx,
                                sim::Rng&, PathVec& out) {
  k_least_backlog_paths(ctx, r_, out);
  if (out.empty()) out.push_back(0);  // no up paths: pin to 0
}

// --- AdaptiveMdp ----------------------------------------------------------------

bool AdaptiveMdpScheduler::is_critical(const net::Packet& pkt)
    const noexcept {
  const auto& a = pkt.anno();
  if (a.traffic_class == net::TrafficClass::kLatencyCritical) return true;
  if (cfg_.small_flow_bytes > 0 && a.flow_bytes > 0 &&
      a.flow_bytes <= cfg_.small_flow_bytes)
    return true;
  return false;
}

void AdaptiveMdpScheduler::select(const net::Packet& pkt,
                                  const PathContext& ctx, sim::Rng& rng,
                                  PathVec& out) {
  if (is_critical(pkt)) {
    k_least_backlog_paths(ctx, cfg_.replicate_k, out);
    // Load gate: drop extra copies whose target path already has a
    // backlog above the cap — redundancy without spare capacity only
    // adds queueing (the Fig 9 collapse).
    if (cfg_.replicate_backlog_cap_ns > 0) {
      while (out.size() > 1 &&
             ctx.backlog_ns(out.back()) > cfg_.replicate_backlog_cap_ns)
        out.pop_back();
    }
    if (out.empty()) out.push_back(0);
    if (out.size() > 1) ++replicated_;
    return;
  }
  flowlet_.select(pkt, ctx, rng, out);
}

void AdaptiveMdpScheduler::select_batch(
    std::span<const net::Packet* const> pkts, const PathContext& ctx,
    sim::Rng& rng, std::vector<PathVec>& out) {
  BatchPathContext snap(ctx);
  const sim::TimeNs cost = snap.est_dispatch_cost_ns();
  out.resize(pkts.size());
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    out[i].clear();
    select(*pkts[i], snap, rng, out[i]);
    for (std::uint16_t p : out[i]) snap.note_dispatch(p, cost);
  }
}

sim::TimeNs AdaptiveMdpScheduler::hedge_timeout_ns(
    const net::Packet& pkt, const PathContext& ctx) const {
  if (!cfg_.hedge_enabled) return 0;
  // Replicated packets already have redundancy; only hedge single copies.
  if (is_critical(pkt) && cfg_.replicate_k > 1) return 0;
  if (cfg_.hedge_timeout_ns > 0) return cfg_.hedge_timeout_ns;
  double mean = 0;
  std::size_t n = 0;
  for (std::size_t p = 0; p < ctx.num_paths(); ++p) {
    double e = ctx.ewma_latency_ns(p);
    if (e > 0) {
      mean += e;
      ++n;
    }
  }
  if (n == 0) return cfg_.hedge_min_ns;
  auto t = static_cast<sim::TimeNs>(cfg_.hedge_ewma_factor * mean /
                                    static_cast<double>(n));
  return std::max(t, cfg_.hedge_min_ns);
}

// --- factory ---------------------------------------------------------------------

namespace {

/// Parse the text after "name:" as a non-negative integer; nullopt on
/// empty/garbage/overflow (the factory then rejects the whole name).
std::optional<std::uint64_t> parse_param_u64(const std::string& text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    if (v > (UINT64_MAX - 9) / 10) return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

std::optional<double> parse_param_double(const std::string& text) {
  if (text.empty()) return std::nullopt;
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(text, &used);
  } catch (...) {
    return std::nullopt;
  }
  if (used != text.size() || v < 0) return std::nullopt;
  return v;
}

}  // namespace

SchedulerPtr make_scheduler(const std::string& name) {
  // Bare names: the defaults every sweep and doc references.
  if (name == "single") return std::make_unique<SinglePathScheduler>();
  if (name == "rss") return std::make_unique<RssHashScheduler>();
  if (name == "rr") return std::make_unique<RoundRobinScheduler>();
  if (name == "jsq") return std::make_unique<JsqScheduler>();
  if (name == "lla") return std::make_unique<LeastLatencyScheduler>();
  if (name == "flowlet") return std::make_unique<FlowletScheduler>();
  if (name == "red2") return std::make_unique<RedundantScheduler>(2);
  if (name == "red3") return std::make_unique<RedundantScheduler>(3);
  if (name == "red4") return std::make_unique<RedundantScheduler>(4);
  if (name == "adaptive") return std::make_unique<AdaptiveMdpScheduler>();

  // Parameterized names, "<policy>:<param>". Benches and the control
  // plane construct tuned instances without bespoke factory code:
  //   redundant:<r> / red:<r>   r replicas (>= 1)
  //   flowlet:<gap_ns>          flowlet idle gap in ns (> 0)
  //   single:<path>             pin to a specific path
  //   lla:<epsilon>             probe rate in [0, 1]
  //   adaptive:<k>              replicate_k copies for latency-critical
  //   rss:<hedge_timeout_ns>    per-flow ECMP + fixed packet-hedge deadline
  const std::size_t colon = name.find(':');
  if (colon == std::string::npos) return nullptr;
  const std::string base = name.substr(0, colon);
  const std::string param = name.substr(colon + 1);

  if (base == "redundant" || base == "red") {
    auto r = parse_param_u64(param);
    if (!r || *r == 0 || *r > 64) return nullptr;
    return std::make_unique<RedundantScheduler>(
        static_cast<std::size_t>(*r));
  }
  if (base == "flowlet") {
    auto gap = parse_param_u64(param);
    if (!gap || *gap == 0) return nullptr;
    return std::make_unique<FlowletScheduler>(*gap);
  }
  if (base == "single") {
    auto pin = parse_param_u64(param);
    if (!pin || *pin > UINT16_MAX) return nullptr;
    return std::make_unique<SinglePathScheduler>(
        static_cast<std::uint16_t>(*pin));
  }
  if (base == "lla") {
    auto eps = parse_param_double(param);
    if (!eps || *eps > 1.0) return nullptr;
    return std::make_unique<LeastLatencyScheduler>(*eps);
  }
  if (base == "adaptive") {
    auto k = parse_param_u64(param);
    if (!k || *k == 0 || *k > 64) return nullptr;
    AdaptiveMdpConfig cfg;
    cfg.replicate_k = static_cast<std::size_t>(*k);
    return std::make_unique<AdaptiveMdpScheduler>(cfg);
  }
  if (base == "rss") {
    auto t = parse_param_u64(param);
    if (!t) return nullptr;
    auto s = std::make_unique<RssHashScheduler>();
    s->set_hedge_timeout_ns(static_cast<sim::TimeNs>(*t));
    return s;
  }
  return nullptr;
}

std::vector<std::string> evaluation_policy_names() {
  return {"single", "rss", "rr", "jsq", "lla", "flowlet", "red2",
          "adaptive"};
}

}  // namespace mdp::core
