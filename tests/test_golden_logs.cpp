// Golden decision logs: three reduced, deterministic control-loop
// scenarios whose Controller::report_json() must match a committed file
// under tests/golden/ byte for byte. The files pin every logged decision —
// tick, reason, evidence, forecast sub-object, granularity in force — so
// a refactor of the control loop that moves one field of one decision
// fails here, with the full actual log written to the working directory
// (`<name>.json.actual`; ctest runs the binary in build/tests) for
// inspection or, for a change that means to move the log, for copying
// over the golden file.
//
//   sim_thief       the ext3 shape on the simulated plane: a CPU thief on
//                   path 2 under rss, quarantine + hedger + PID deadline
//   chaos_forecast  a ChaosRig delay ramp with the forecast stage and the
//                   granularity lever live
//   chaos_tenants   a ChaosRig connection storm against tenant admission
//
// Each scenario also asserts the exact set of reasons its log carries;
// together they cover all nineteen reasons the loop can emit.
// sim_thief needs span evidence, which the sim harness feeds only while
// tracing is compiled in (MDP_TRACE_ENABLED); the chaos scenarios build
// their own spans and run in every build.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "chaos_harness.hpp"
#include "harness/experiment.hpp"
#include "trace/json.hpp"
#include "trace/span.hpp"

namespace mdp {
namespace {

using Reasons = std::set<std::string>;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Reasons reasons_of(const std::string& report) {
  Reasons out;
  auto doc = trace::JsonValue::parse(report);
  EXPECT_TRUE(doc.has_value()) << "ctrl report does not parse";
  if (!doc) return out;
  if (const trace::JsonValue* ds = doc->find("decisions"))
    for (const auto& d : ds->items()) out.insert(d.find("reason")->as_string());
  return out;
}

/// Byte-compare `actual` with tests/golden/<name>.json; on a mismatch
/// (or a missing file) the actual log lands in ./<name>.json.actual and
/// the first differing byte is reported.
void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(MDP_GOLDEN_DIR) + "/" + name + ".json";
  const std::string golden = read_file(path);
  if (golden == actual) return;
  std::size_t at = 0;
  while (at < golden.size() && at < actual.size() && golden[at] == actual[at])
    ++at;
  const std::string dump = name + ".json.actual";
  std::ofstream(dump, std::ios::binary) << actual;
  ADD_FAILURE() << "decision log drifted from " << path << " at byte " << at
                << " (golden " << golden.size() << " B, actual "
                << actual.size() << " B); actual written to " << dump
                << "\n  golden: ..." << golden.substr(at, 160)
                << "\n  actual: ..." << actual.substr(at, 160);
}

// --- the three scenarios ----------------------------------------------------

const Reasons kSimThiefReasons = {
    "slo_breach",       "backlog_breach", "slo+backlog_breach",
    "probe_breach",     "drain_start",    "drained",
    "probation_passed", "hedge_raise",    "hedge_timeout"};

const Reasons kChaosForecastReasons = {
    "slo_breach",       "probe_breach",      "drain_start",
    "drained",          "probation_passed",  "hedge_raise",
    "hedge_lower",      "hedge_timeout",     "granularity_shift",
    "forecast_prehedge", "forecast_probe",   "forecast_prequarantine",
    "forecast_restore"};

const Reasons kChaosTenantReasons = {"hedge_timeout", "tenant_throttle",
                                     "tenant_shed", "tenant_probation",
                                     "tenant_reinstate"};

/// ext3's quarantine story reduced to one run with every arm live: rss
/// keeps feeding the stolen path, so the FSM walks its whole cycle, while
/// the hedger and the PID deadline act on the serving tail.
harness::ScenarioConfig sim_thief_cfg() {
  harness::ScenarioConfig cfg;
  cfg.policy = "rss";
  cfg.num_paths = 4;
  cfg.load = 0.3;
  cfg.packets = 150'000;
  cfg.warmup_packets = 15'000;
  cfg.seed = 11;
  cfg.trace = true;
  cfg.interference = true;
  cfg.interference_cfg.duty_cycle = 0.6;
  cfg.interference_cfg.mean_burst_ns = 2'000'000;
  cfg.interference_paths = {2};
  cfg.ctrl_enabled = true;
  cfg.ctrl_tick_interval_ns = 2'000'000;
  cfg.ctrl.slo_target_ns = 9'724;  // ext3: 4x the quiet p99
  cfg.ctrl.violation_threshold = 0.05;
  cfg.ctrl.min_samples = 8;
  cfg.ctrl.backlog_limit = 256;
  cfg.ctrl.path.quarantine_after = 2;
  cfg.ctrl.path.probation_probes = 16;
  cfg.ctrl.probe_grant_per_tick = 16;
  cfg.ctrl.min_serving_paths = 2;
  cfg.ctrl.hedger.enabled = true;
  cfg.ctrl.hedger.max_replicas = 2;
  cfg.ctrl.hedger.lower_threshold = 0.3;
  cfg.ctrl.hedger.cooldown_ticks = 10;
  cfg.ctrl.hedge_timeout.enabled = true;
  cfg.ctrl.hedge_timeout.min_timeout_ns = 5'000;
  return cfg;
}

/// test_forecast's delay ramp on path 1 (inside the SLO for four steps,
/// then over it), with the granularity lever and the flow-replica
/// capability on. A third path and a reachable pre-quarantine threshold
/// let the forecast hold path 1 at probe-only and still leave the
/// reactive judge room to quarantine it.
chaos::ChaosScenarioConfig chaos_forecast_cfg() {
  chaos::ChaosScenarioConfig cfg;
  cfg.seed = 21;
  cfg.iterations = 16'000;
  cfg.flows = 4;
  cfg.packets_per_iter = 2;
  cfg.num_paths = 3;
  cfg.drain_per_iter = {8, 8, 8};
  cfg.flow_affinity = true;
  cfg.observe_late_copies = true;
  cfg.flow_replica = true;
  cfg.ctrl.slo_target_ns = 10'000;
  cfg.ctrl.violation_threshold = 0.25;
  cfg.ctrl.min_samples = 16;
  cfg.ctrl.path.quarantine_after = 2;
  cfg.ctrl.path.probation_probes = 8;
  cfg.ctrl.probe_grant_per_tick = 8;
  cfg.ctrl.hedger.enabled = true;
  cfg.ctrl.hedge_timeout.enabled = true;
  cfg.ctrl.hedge_timeout.min_timeout_ns = 1'000;
  cfg.ctrl.hedge_timeout.min_samples = 16;
  cfg.ctrl.granularity.enabled = true;
  cfg.ctrl.granularity.min_samples = 16;
  cfg.ctrl.granularity.cooldown_ticks = 2;
  cfg.ctrl.granularity.sustain_ticks = 1;
  cfg.ctrl.forecast.enabled = true;
  cfg.ctrl.forecast.prequarantine_threshold = 1.2;
  std::uint64_t from = 2'000;
  for (std::uint32_t d : {2u, 4u, 6u, 8u}) {
    cfg.phases.push_back({from, from + 512, 1, {.delay_ticks = d}});
    from += 512;
  }
  cfg.phases.push_back({from, 12'000, 1, {.delay_ticks = 12}});
  return cfg;
}

/// test_chaos_soak's tenant storm, shortened: tenant A storms far past its
/// arrival contract, tenant B stays in budget. The PID deadline is live so
/// tenant decisions carry the hedge deadline in force.
chaos::ChaosScenarioConfig chaos_tenants_cfg() {
  chaos::ChaosScenarioConfig cfg;
  cfg.seed = 5;
  cfg.iterations = 16'000;
  cfg.num_paths = 2;
  cfg.drain_per_iter = {4, 4};
  cfg.packets_per_iter = 0;
  cfg.ctrl.slo_target_ns = 50'000;
  cfg.ctrl.min_samples = 16;
  cfg.ctrl.hedge_timeout.enabled = true;
  cfg.ctrl.hedge_timeout.min_timeout_ns = 1'000;
  cfg.ctrl.hedge_timeout.min_samples = 16;
  cfg.pool_size = 32'768;
  io::LoopbackFaults base_wire;
  base_wire.delay_ticks = 2;
  cfg.phases.push_back({0, 1'000'000, 0, base_wire});
  cfg.phases.push_back({0, 1'000'000, 1, base_wire});
  chaos::ChaosScenarioConfig::TenantTraffic a;
  a.storm.base_arrivals_per_tick = 0.05;
  a.storm.conn_lifetime_ticks = 32;
  a.storm.storm_from = 2'000;
  a.storm.storm_to = 10'000;
  a.storm.storm_peak_arrivals_per_tick = 20.0;
  a.spec.name = "storm";
  a.spec.arrival_budget_per_tick = 320;
  a.spec.throttle_keep_one_in = 8;
  a.packets_per_iter = 2;
  chaos::ChaosScenarioConfig::TenantTraffic b;
  b.storm.base_arrivals_per_tick = 0.2;
  b.storm.conn_lifetime_ticks = 2'000;
  b.spec.name = "steady";
  b.spec.arrival_budget_per_tick = 1'000;
  b.packets_per_iter = 2;
  cfg.tenants = {a, b};
  cfg.tenant_ctrl.throttle_after = 2;
  cfg.tenant_ctrl.shed_after = 2;
  cfg.tenant_ctrl.cooldown_windows = 4;
  cfg.tenant_ctrl.probation_windows = 4;
  return cfg;
}

TEST(GoldenDecisionLog, ScenariosCoverEveryReason) {
  Reasons all = kSimThiefReasons;
  all.insert(kChaosForecastReasons.begin(), kChaosForecastReasons.end());
  all.insert(kChaosTenantReasons.begin(), kChaosTenantReasons.end());
  // decision_reason_code numbers the reasons 1..19 (0 = unknown).
  EXPECT_EQ(all.size(), 19u);
  for (const auto& r : all)
    EXPECT_NE(ctrl::decision_reason_code(r.c_str()), 0u) << r;
}

TEST(GoldenDecisionLog, SimThief) {
#if !MDP_TRACE_ENABLED
  GTEST_SKIP() << "the sim harness feeds scalars, not spans, without "
                  "compiled-in tracing";
#endif
  const harness::ScenarioResult r = harness::run_scenario(sim_thief_cfg());
  EXPECT_EQ(reasons_of(r.ctrl_report), kSimThiefReasons);
  expect_golden("sim_thief", r.ctrl_report);
}

TEST(GoldenDecisionLog, ChaosForecast) {
  const chaos::ChaosResult r = chaos::ChaosRig(chaos_forecast_cfg()).run();
  EXPECT_EQ(reasons_of(r.ctrl_report), kChaosForecastReasons);
  expect_golden("chaos_forecast", r.ctrl_report);
}

TEST(GoldenDecisionLog, ChaosTenants) {
  const chaos::ChaosResult r = chaos::ChaosRig(chaos_tenants_cfg()).run();
  EXPECT_EQ(reasons_of(r.ctrl_report), kChaosTenantReasons);
  expect_golden("chaos_tenants", r.ctrl_report);
}

}  // namespace
}  // namespace mdp
