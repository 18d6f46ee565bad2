#!/usr/bin/env python3
"""Perf-smoke gate: compare a fresh bench --json sweep against its
committed baseline. Dispatches on the report's "bench" id:

    ext2_fastpath  vs BENCH_fastpath.json  (threaded-plane burst sweep)
    ext4_tenants   vs BENCH_tenants.json   (million-flow tenancy tier)
    fig11_fct      vs BENCH_fct.json       (flow-granularity FCT bench)
    ext5_forecast  vs BENCH_forecast.json  (predictive-control A/B bench)
    ext3           vs BENCH_controller.json (online control plane, ext3_controller)

Usage:
    check_perf.py <fresh.json> [<baseline.json>] [--max-regression 2.0]
    check_perf.py --self-test

Fails (exit 1) when any gated row regressed by more than --max-regression
(default 2x — deliberately generous: CI runners are shared and noisy;
this catches "someone made the hot path 5x slower", not 10% drift).

ext2_fastpath extras: the burst-32-vs-burst-1 speedup (>= 1.3x) and the
telem on/off overhead are reported as WARNING-only lines — an
oversubscribed runner can distort them arbitrarily, so they do not gate.
The loopback/synthetic gap at burst 32 DOES gate hard (<= 4x): both rows
come from the same fresh run, so runner speed cancels out, and a fresh
sweep missing either row fails rather than passing by omission.

ext4_tenants extras: rows marked wall_clock=false run on the rig's
LOGICAL clock (deterministic: same seed, same numbers, any machine), so
on top of the ratio rule the gate enforces the tenancy contract hard —
the victim tenant's p99.9 under a storm WITH admission must sit inside
the SLO target the row carries (docs/TENANCY.md). Regenerate baselines
from a Release build:

fig11_fct extras: every row is logical-clock (wall_clock=false), so the
whole report gates hard: each row's duplicate_byte_fraction must stay
<= 0.25 (replication must not degenerate into flooding), and on the
websearch workload the better of flow_replica/combined must beat
single_path short-flow p99 FCT by >= 2x — the PR's headline claim,
replayed from a seeded rig on every CI run.

ext5_forecast extras: every row is logical-clock, so the predictive
plane's A/B wins gate hard: client breach windows and storm-onset p99.9
must be STRICTLY lower with the forecast enabled than reactive-only on
the same seeded storm, the pre-hedge must land >= 1 controller tick
before the reactive quarantine, the calm soak must show zero forecast
actuations (FP <= 0.05), and a majority of storm pre-actuations must be
confirmed by a reactive breach (FP <= 0.5 — a rescue that works erases
some of its own confirming evidence; docs/FORECAST.md).

ext3 (bench/ext3_controller): its two mdp.bench_controller.v1 rows (the
hedge-timeout story: fixed redundant:3 vs the PID deadline) run on the
simulator's virtual clock, so they gate exactly, and a baselined arm
missing from the fresh run fails.

Logical-clock rows are an exact oracle: every row marked
wall_clock=false in a fresh ext4_tenants, fig11_fct, ext5_forecast or
ext3 report must equal its baseline row in every field. These rows replay a
seeded rig bit-identically on any machine, so any drift is a behavior
change; a change that means to move them regenerates the baseline.

Regenerate baselines from a Release build:

    ./build/bench/ext2_fastpath --json BENCH_fastpath.json
    ./build/bench/ext4_tenants  --json BENCH_tenants.json
    ./build/bench/fig11_fct     --json BENCH_fct.json
    ./build/bench/ext5_forecast --json BENCH_forecast.json

BENCH_controller.json keeps only the controller rows of an ext3 report
(the full report carries every run's trace, ~400 KB):

    ./build/bench/ext3_controller --json ext3.json
    python3 -c "import json; d = json.load(open('ext3.json')); \
      d['runs'] = [r for r in d['runs'] if r['label'].startswith( \
      'controller-row:')]; json.dump(d, open('BENCH_controller.json', 'w'))"

--self-test exercises the gate's own failure branches (regression FAIL,
missing baseline row, new ungated row, SLO-breach FAIL, bench mismatch,
unreadable / corrupt / foreign input files) against synthetic tempfile
reports and exits 0 iff every branch behaves. CI runs it before trusting
the real comparison: a gate that cannot fail is worse than no gate.
"""
import argparse
import json
import sys

SUPPORTED = ("ext2_fastpath", "ext4_tenants", "fig11_fct",
             "ext5_forecast", "ext3")
DEFAULT_BASELINE = {"ext2_fastpath": "BENCH_fastpath.json",
                    "ext4_tenants": "BENCH_tenants.json",
                    "fig11_fct": "BENCH_fct.json",
                    "ext5_forecast": "BENCH_forecast.json",
                    "ext3": "BENCH_controller.json"}

# ext2_fastpath hard limit: the in-memory loopback wire must stay
# burst-native — within this factor of the synthetic packet source at
# burst 32, measured within one run so runner speed cancels out.
FASTPATH_MAX_LOOPBACK_GAP = 4.0

# fig11_fct hard limits (deterministic rows; no runner-noise excuse).
FCT_MAX_DUP_BYTE_FRACTION = 0.25
FCT_MIN_WEBSEARCH_SPEEDUP = 2.0

# ext5_forecast false-positive ceilings (docs/FORECAST.md): a calm wire
# must not trip the forecast at all; under a storm a majority of
# pre-actuations must be confirmed by the reactive judge.
FORECAST_MAX_CALM_FP = 0.05
FORECAST_MAX_STORM_FP = 0.5


def load_doc(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        sys.exit(f"{path}: cannot read ({e.strerror}); regenerate with "
                 f"./build/bench/<bench> --json {path}")
    except json.JSONDecodeError as e:
        sys.exit(f"{path}: not valid JSON ({e})")
    if doc.get("bench") not in SUPPORTED:
        sys.exit(f"{path}: not a supported bench report "
                 f"(bench={doc.get('bench')!r}, want one of "
                 f"{', '.join(SUPPORTED)})")
    return doc


def fastpath_rows(doc, path):
    """{(backend, burst): ns_per_packet}. Rows predating the
    pluggable-backend sweep carry no "backend" field -> synthetic."""
    rows = {}
    for run in doc.get("runs", []):
        rep = run.get("report", {})
        if rep.get("schema") != "mdp.bench_fastpath.v1":
            continue
        if "burst" not in rep or "ns_per_packet" not in rep:
            sys.exit(f"{path}: mdp.bench_fastpath.v1 row missing "
                     f"burst/ns_per_packet: {sorted(rep)}")
        rows[(rep.get("backend", "synthetic"), rep["burst"])] = \
            rep["ns_per_packet"]
    if not rows:
        sys.exit(f"{path}: no mdp.bench_fastpath.v1 rows")
    return rows


def tenant_rows(doc, path):
    """{row_name: full row dict} from an ext4_tenants report."""
    rows = {}
    for run in doc.get("runs", []):
        rep = run.get("report", {})
        if rep.get("schema") != "mdp.bench_tenants.v1":
            continue
        if "row" not in rep or "value" not in rep:
            sys.exit(f"{path}: mdp.bench_tenants.v1 row missing "
                     f"row/value: {sorted(rep)}")
        rows[rep["row"]] = rep
    if not rows:
        sys.exit(f"{path}: no mdp.bench_tenants.v1 rows")
    return rows


def fct_rows(doc, path):
    """{(workload, mode): full row dict} from a fig11_fct report."""
    rows = {}
    for run in doc.get("runs", []):
        rep = run.get("report", {})
        if rep.get("schema") != "mdp.bench_fct.v1":
            continue
        for field in ("workload", "mode", "short_p99_fct_ns",
                      "duplicate_byte_fraction"):
            if field not in rep:
                sys.exit(f"{path}: mdp.bench_fct.v1 row missing "
                         f"{field}: {sorted(rep)}")
        rows[(rep["workload"], rep["mode"])] = rep
    if not rows:
        sys.exit(f"{path}: no mdp.bench_fct.v1 rows")
    return rows


def forecast_rows(doc, path):
    """{row_name: full row dict} from an ext5_forecast report."""
    rows = {}
    for run in doc.get("runs", []):
        rep = run.get("report", {})
        if rep.get("schema") != "mdp.bench_forecast.v1":
            continue
        if "row" not in rep or "value" not in rep:
            sys.exit(f"{path}: mdp.bench_forecast.v1 row missing "
                     f"row/value: {sorted(rep)}")
        rows[rep["row"]] = rep
    if not rows:
        sys.exit(f"{path}: no mdp.bench_forecast.v1 rows")
    return rows


def controller_rows(doc, path):
    """{arm: full row dict} from an ext3 (ext3_controller) report."""
    rows = {}
    for run in doc.get("runs", []):
        rep = run.get("report", {})
        if rep.get("schema") != "mdp.bench_controller.v1":
            continue
        if "arm" not in rep:
            sys.exit(f"{path}: mdp.bench_controller.v1 row missing arm: "
                     f"{sorted(rep)}")
        rows[rep["arm"]] = rep
    if not rows:
        sys.exit(f"{path}: no mdp.bench_controller.v1 rows")
    return rows


def gate_missing(fresh, base, key_label):
    """Every baselined row must be present in the fresh run. Returns True
    when one is missing."""
    missing = sorted(set(base) - set(fresh))
    if missing:
        keys = ", ".join(key_label(k) for k in missing)
        print(f"FAIL: baseline rows missing from fresh run: {keys} "
              f"(did the sweep change? regenerate the baseline)")
    return bool(missing)


def gate_ratios(fresh, base, value_of, key_label, max_regression):
    """The shared rule: every baselined row must be present and within
    max_regression of its baseline. Returns True when anything failed."""
    failed = gate_missing(fresh, base, key_label)
    for key in sorted(set(fresh) - set(base)):
        print(f"note: {key_label(key)} is new in the fresh run "
              f"(no baseline row; not gated)")
    for key in sorted(base):
        if key not in fresh:
            continue
        fv, bv = value_of(fresh[key]), value_of(base[key])
        ratio = fv / bv if bv else float("inf") if fv else 1.0
        verdict = "ok"
        if ratio > max_regression:
            verdict = f"FAIL (> {max_regression}x regression)"
            failed = True
        print(f"{key_label(key):>34}: baseline {bv:10.1f}, "
              f"fresh {fv:10.1f}, ratio {ratio:.2f}x [{verdict}]")
    return failed


def gate_exact(fresh, base, key_label):
    """Every logical-clock (wall_clock=false) row present on both sides
    must match its baseline field for field. Returns True on any drift."""
    failed = False
    rows = fields = 0
    for key in sorted(set(fresh) & set(base)):
        f, b = fresh[key], base[key]
        if f.get("wall_clock") is not False and \
                b.get("wall_clock") is not False:
            continue
        names = sorted(set(f) | set(b))
        rows += 1
        fields += len(names)
        drift = [n for n in names if n not in f or n not in b or f[n] != b[n]]
        if drift:
            failed = True
            what = ", ".join(f"{n} {b.get(n)!r} -> {f.get(n)!r}"
                             for n in drift)
            print(f"FAIL: logical row {key_label(key)} drifted from the "
                  f"baseline: {what}")
    verdict = "FAIL" if failed else "ok"
    print(f"logical rows exact: {rows} rows, {fields} fields compared "
          f"[{verdict}]")
    return failed


def check_fastpath(fresh, base, max_regression):
    failed = gate_ratios(fresh, base, lambda v: v,
                         lambda k: f"{k[0]}/burst{k[1]}", max_regression)

    if ("synthetic", 1) in fresh and ("synthetic", 32) in fresh:
        speedup = fresh[("synthetic", 1)] / fresh[("synthetic", 32)]
        tag = "ok" if speedup >= 1.3 else "WARNING (headline claim not " \
              "reproduced on this runner)"
        print(f"burst 32 vs 1 speedup: {speedup:.2f}x [{tag}]")

    # Observability budget: the telem-on twin of the synthetic burst-32
    # row is gated against its own baseline above (the standard 2x rule);
    # this line reports the on-vs-off ratio from the SAME fresh run, which
    # is immune to runner-speed drift between baseline and fresh.
    if ("synthetic", 32) in fresh and ("synthetic_telem", 32) in fresh:
        overhead = fresh[("synthetic_telem", 32)] / fresh[("synthetic", 32)]
        tag = "ok" if overhead <= 2.0 else \
            "WARNING (flight recorder is dominating the hot path)"
        print(f"telem on/off at burst 32: {overhead:.2f}x [{tag}]")

    # Loopback-gap gate: the slab wire's headline. Both rows come from
    # the SAME fresh run, so the ratio is immune to runner-speed drift
    # between baseline and fresh — it gates hard, and a sweep that
    # silently drops either backend fails instead of passing by omission.
    for key in (("synthetic", 32), ("loopback", 32)):
        if key not in fresh:
            print(f"FAIL: {key[0]}/burst{key[1]} row missing from the "
                  f"fresh run (the loopback gap cannot be checked)")
            failed = True
    if ("synthetic", 32) in fresh and ("loopback", 32) in fresh:
        gap = fresh[("loopback", 32)] / fresh[("synthetic", 32)]
        if gap > FASTPATH_MAX_LOOPBACK_GAP:
            print(f"FAIL: loopback/synthetic gap at burst 32 is "
                  f"{gap:.2f}x > {FASTPATH_MAX_LOOPBACK_GAP}x (the "
                  f"wire is no longer burst-native)")
            failed = True
        else:
            print(f"loopback/synthetic gap at burst 32: {gap:.2f}x "
                  f"(<= {FASTPATH_MAX_LOOPBACK_GAP}x) [ok]")
    return failed


def check_tenants(fresh, base, max_regression):
    failed = gate_ratios(fresh, base, lambda r: float(r["value"]),
                         lambda k: k, max_regression)
    failed |= gate_exact(fresh, base, lambda k: k)

    # Hard contract checks on the deterministic (logical-clock) rows: the
    # victim's p99.9 must hold its SLO whenever admission is live. These
    # rows cannot be excused by runner noise — they replay a seeded rig.
    for name in ("victim_p999_storm_off", "victim_p999_storm_on_admission"):
        row = fresh.get(name)
        if not row or "slo_target_ns" not in row:
            continue
        value, slo = float(row["value"]), float(row["slo_target_ns"])
        if value > slo:
            print(f"FAIL: {name} = {value:.0f} logical ns breaches the "
                  f"victim SLO target {slo:.0f} (tenancy contract broken)")
            failed = True
        else:
            print(f"{name}: {value:.0f} <= SLO {slo:.0f} logical ns [ok]")

    on = fresh.get("victim_p999_storm_on_admission")
    off = fresh.get("victim_p999_storm_on_no_admission")
    if on and off and float(on["value"]) > 0:
        contagion = float(off["value"]) / float(on["value"])
        tag = "ok" if contagion >= 2.0 else \
            "WARNING (storm too weak to demonstrate contagion)"
        print(f"contagion factor (no admission / admission): "
              f"{contagion:.1f}x [{tag}]")
    return failed


def check_fct(fresh, base, max_regression):
    failed = gate_ratios(fresh, base,
                         lambda r: float(r["short_p99_fct_ns"]),
                         lambda k: f"{k[0]}/{k[1]}", max_regression)
    failed |= gate_exact(fresh, base, lambda k: f"{k[0]}/{k[1]}")

    # Hard checks. fig11 runs on the event queue's logical clock, so
    # these replay bit-identically on any machine — a breach is a real
    # behavior change, never runner noise.
    for key in sorted(fresh):
        dup = float(fresh[key]["duplicate_byte_fraction"])
        if dup > FCT_MAX_DUP_BYTE_FRACTION:
            print(f"FAIL: {key[0]}/{key[1]} duplicate_byte_fraction "
                  f"{dup:.3f} > {FCT_MAX_DUP_BYTE_FRACTION} "
                  f"(replication degenerated into flooding)")
            failed = True
        else:
            print(f"{key[0]}/{key[1]}: duplicate_byte_fraction {dup:.3f} "
                  f"<= {FCT_MAX_DUP_BYTE_FRACTION} [ok]")

    # Headline claim: flow-granularity replication (or the combined
    # lever) cuts websearch short-flow p99 FCT by >= 2x vs single-path.
    single = fresh.get(("websearch", "single_path"))
    repl = [fresh[k] for k in (("websearch", "flow_replica"),
                               ("websearch", "combined")) if k in fresh]
    if single and repl:
        best = min(float(r["short_p99_fct_ns"]) for r in repl)
        speedup = float(single["short_p99_fct_ns"]) / best if best \
            else float("inf")
        if speedup < FCT_MIN_WEBSEARCH_SPEEDUP:
            print(f"FAIL: websearch short-flow p99 speedup {speedup:.2f}x "
                  f"< {FCT_MIN_WEBSEARCH_SPEEDUP}x (flow replication no "
                  f"longer beats single-path)")
            failed = True
        else:
            print(f"websearch short-flow p99 speedup (best replica mode "
                  f"vs single_path): {speedup:.2f}x [ok]")
    elif single:
        print("FAIL: websearch flow_replica/combined rows missing "
              "(cannot check the headline speedup)")
        failed = True
    return failed


def check_forecast(fresh, base, max_regression):
    failed = gate_ratios(fresh, base, lambda r: float(r["value"]),
                         lambda k: k, max_regression)
    failed |= gate_exact(fresh, base, lambda k: k)

    def val(name):
        row = fresh.get(name)
        return float(row["value"]) if row else None

    # Hard A/B wins. Every ext5 row replays a seeded logical-clock rig,
    # so the predictive plane must STRICTLY beat reactive-only on both
    # client-visible currencies — a tie means the forecast's rescue
    # stopped working, never runner noise.
    for pred, react, what in (
            ("breach_windows_predictive", "breach_windows_reactive",
             "client breach windows"),
            ("onset_p999_predictive", "onset_p999_reactive",
             "storm-onset p99.9")):
        p, r = val(pred), val(react)
        if p is None or r is None:
            print(f"FAIL: {pred}/{react} rows missing "
                  f"(cannot check the A/B {what} win)")
            failed = True
        elif p >= r:
            print(f"FAIL: {pred} = {p:.0f} >= {react} = {r:.0f} "
                  f"(forecast no longer wins the {what} A/B)")
            failed = True
        else:
            print(f"{what}: predictive {p:.0f} < reactive {r:.0f} [ok]")

    lead = val("prehedge_lead_ticks")
    if lead is None or lead < 1:
        print(f"FAIL: prehedge_lead_ticks = {lead} (the pre-hedge must "
              f"land at least one controller tick before the reactive "
              f"quarantine)")
        failed = True
    else:
        print(f"prehedge lead: {lead:.0f} ticks before reactive [ok]")

    # False-positive contract (docs/FORECAST.md): calm wire -> no
    # actuation at all; storm -> a majority of pre-actuations confirmed
    # by a reactive breach (a rescue that works erases some of its own
    # confirming evidence, hence 50% there, not 5%).
    for name, ceiling in (("false_positive_fraction_calm",
                           FORECAST_MAX_CALM_FP),
                          ("false_positive_fraction_storm",
                           FORECAST_MAX_STORM_FP)):
        fp = val(name)
        if fp is None:
            print(f"FAIL: {name} row missing")
            failed = True
        elif fp > ceiling:
            print(f"FAIL: {name} {fp:.3f} > {ceiling} "
                  f"(forecast is actuating on noise)")
            failed = True
        else:
            print(f"{name}: {fp:.3f} <= {ceiling} [ok]")

    calm = val("calm_forecast_actuations")
    if calm is None or calm != 0:
        print(f"FAIL: calm_forecast_actuations = {calm} (a clean wire "
              f"must never trip the forecast)")
        failed = True
    else:
        print("calm_forecast_actuations: 0 [ok]")
    return failed


def check_controller(fresh, base):
    """ext3's controller rows replay the seeded sim plane bit-identically:
    every baselined arm must be present and match field for field."""
    failed = gate_missing(fresh, base, lambda k: k)
    failed |= gate_exact(fresh, base, lambda k: k)
    return failed


def self_test():
    """Drive the gate against synthetic reports covering every verdict
    branch. Returns 0 when all checks pass, 1 otherwise."""
    import contextlib
    import io
    import os
    import tempfile

    def fp_report(rows):
        return {"bench": "ext2_fastpath",
                "runs": [{"report": {"schema": "mdp.bench_fastpath.v1",
                                     "backend": b, "burst": n,
                                     "ns_per_packet": v}}
                         for (b, n), v in rows.items()]}

    def tn_report(rows):
        return {"bench": "ext4_tenants",
                "runs": [{"report": {"schema": "mdp.bench_tenants.v1",
                                     **row}}
                         for row in rows.values()]}

    def fct_report(rows):
        return {"bench": "fig11_fct",
                "runs": [{"report": {"schema": "mdp.bench_fct.v1",
                                     "workload": w, "mode": m,
                                     "wall_clock": False, **row}}
                         for (w, m), row in rows.items()]}

    def fc_report(rows):
        return {"bench": "ext5_forecast",
                "runs": [{"report": {"schema": "mdp.bench_forecast.v1",
                                     "wall_clock": False, **row}}
                         for row in rows.values()]}

    def ctl_report(rows):
        return {"bench": "ext3",
                "runs": [{"label": f"controller-row:{arm}",
                          "report": {"schema": "mdp.bench_controller.v1",
                                     "arm": arm, "wall_clock": False,
                                     **row}}
                         for arm, row in rows.items()]}

    def run_gate(argv):
        """Run main() in-process; return (exit_code, captured_output)."""
        out = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out):
            try:
                main(argv)
            except SystemExit as e:
                if isinstance(e.code, str):   # sys.exit("message")
                    print(e.code)
                    code = 1
                else:
                    code = e.code or 0
        return code, out.getvalue()

    failures = []

    def check(name, cond, output):
        if not cond:
            failures.append(name)
            print(f"self-test FAIL: {name}\n--- gate output ---\n{output}")

    base_rows = {("synthetic", 1): 100.0, ("synthetic", 32): 50.0,
                 ("synthetic_telem", 32): 55.0, ("loopback", 32): 150.0}
    tn_base = {
        "flowtable_insert_1m": {"row": "flowtable_insert_1m",
                                "value": 100.0, "wall_clock": True},
        "victim_p999_storm_on_admission": {
            "row": "victim_p999_storm_on_admission", "value": 2000,
            "slo_target_ns": 50000, "wall_clock": False},
        "victim_p999_storm_on_no_admission": {
            "row": "victim_p999_storm_on_no_admission", "value": 4000000,
            "slo_target_ns": 50000, "wall_clock": False},
    }
    with tempfile.TemporaryDirectory() as d:
        def write(name, obj, raw=None):
            path = os.path.join(d, name)
            with open(path, "w") as f:
                if raw is not None:
                    f.write(raw)
                else:
                    json.dump(obj, f)
            return path

        base = write("base.json", fp_report(base_rows))
        tbase = write("tbase.json", tn_report(tn_base))

        # Clean pass: identical rows gate green, and the telem on/off
        # twin rows produce the observability-budget line.
        code, out = run_gate([write("same.json", fp_report(base_rows)),
                              base])
        check("identical rows pass", code == 0 and "FAIL" not in out, out)
        check("telem on/off ratio reported",
              "telem on/off at burst 32: 1.10x [ok]" in out, out)
        check("loopback gap reported",
              "loopback/synthetic gap at burst 32: 3.00x" in out, out)

        # Regression: a 3x slower row must fail a 2x gate.
        slow = {**base_rows, ("synthetic", 32): 150.0}
        code, out = run_gate([write("slow.json", fp_report(slow)), base])
        check("3x regression fails",
              code == 1 and "FAIL (> 2.0x regression)" in out, out)

        # Missing row: the fresh sweep silently dropping a baselined
        # configuration must fail, not pass by omission.
        only1 = {("synthetic", 1): 100.0}
        code, out = run_gate([write("narrow.json", fp_report(only1)), base])
        check("missing baseline row fails",
              code == 1 and "baseline rows missing" in out, out)

        # New row: an extra fresh configuration is noted but not gated.
        wide = {**base_rows, ("loopback", 64): 80.0}
        code, out = run_gate([write("wide.json", fp_report(wide)), base])
        check("new row noted, not gated",
              code == 0 and "not gated" in out, out)

        # Loopback gap past the ceiling: a hard FAIL even though every
        # row holds its own baseline ratio (same rows on both sides).
        gappy = {**base_rows, ("loopback", 32): 250.0}
        gap_base = write("gapbase.json", fp_report(gappy))
        code, out = run_gate([write("gappy.json", fp_report(gappy)),
                              gap_base])
        check("loopback gap fails",
              code == 1 and "no longer burst-native" in out, out)

        # A sweep that silently drops the loopback backend must fail,
        # not pass by omission (baseline equally thin, so the generic
        # missing-row rule alone would stay green).
        noloop = {k: v for k, v in base_rows.items() if k[0] != "loopback"}
        nl_base = write("noloopbase.json", fp_report(noloop))
        code, out = run_gate([write("noloop.json", fp_report(noloop)),
                              nl_base])
        check("missing loopback row fails",
              code == 1 and "loopback gap cannot be checked" in out, out)

        # Unreadable file.
        code, out = run_gate([os.path.join(d, "absent.json"), base])
        check("unreadable file fails",
              code == 1 and "cannot read" in out, out)

        # Corrupt JSON.
        code, out = run_gate([write("corrupt.json", None, raw="{nope"),
                              base])
        check("corrupt JSON fails",
              code == 1 and "not valid JSON" in out, out)

        # A foreign report (valid JSON, unknown bench).
        code, out = run_gate(
            [write("foreign.json", {"bench": "other", "runs": []}), base])
        check("foreign report fails",
              code == 1 and "not a supported bench report" in out, out)

        # An ext2 report with no usable rows.
        code, out = run_gate(
            [write("empty.json", {"bench": "ext2_fastpath", "runs": []}),
             base])
        check("row-less report fails",
              code == 1 and "no mdp.bench_fastpath.v1 rows" in out, out)

        # --- ext4_tenants branches ---------------------------------------
        # Clean tenants pass: contract line + contagion factor reported.
        code, out = run_gate([write("tsame.json", tn_report(tn_base)),
                              tbase])
        check("tenant rows pass",
              code == 0 and "<= SLO 50000 logical ns [ok]" in out
              and "contagion factor" in out, out)

        check("tenant logical rows exact",
              "logical rows exact: 2 rows, 10 fields compared [ok]" in out,
              out)

        # Logical drift: one field of a logical row moves (well inside
        # the 2x ratio rule and the SLO) -> hard FAIL.
        tdrift = dict(tn_base)
        tdrift["victim_p999_storm_on_admission"] = {
            **tn_base["victim_p999_storm_on_admission"], "value": 2100}
        code, out = run_gate([write("tdrift.json", tn_report(tdrift)),
                              tbase])
        check("tenant logical drift fails",
              code == 1 and "victim_p999_storm_on_admission drifted from "
              "the baseline: value 2000 -> 2100" in out, out)

        # Tenant regression: flowtable row 3x slower fails.
        tslow = {**tn_base,
                 "flowtable_insert_1m": {"row": "flowtable_insert_1m",
                                         "value": 300.0,
                                         "wall_clock": True}}
        code, out = run_gate([write("tslow.json", tn_report(tslow)), tbase])
        check("tenant regression fails",
              code == 1 and "FAIL (> 2.0x regression)" in out, out)

        # SLO breach on the deterministic admission row: hard FAIL even
        # though the ratio rule alone would let a loud baseline pass it.
        tbreach = dict(tn_base)
        tbreach["victim_p999_storm_on_admission"] = {
            "row": "victim_p999_storm_on_admission", "value": 80000,
            "slo_target_ns": 50000, "wall_clock": False}
        loud_base = write("loudbase.json", tn_report(tbreach))
        code, out = run_gate([write("tbreach.json", tn_report(tbreach)),
                              loud_base])
        check("tenant SLO breach fails",
              code == 1 and "breaches the victim SLO target" in out, out)

        # Mismatched bench ids between fresh and baseline must fail.
        code, out = run_gate([write("tok.json", tn_report(tn_base)), base])
        check("bench mismatch fails",
              code == 1 and "bench mismatch" in out, out)

        # --- fig11_fct branches ------------------------------------------
        fct_base = {
            ("websearch", "single_path"):
                {"short_p99_fct_ns": 1000000.0,
                 "duplicate_byte_fraction": 0.0},
            ("websearch", "flow_replica"):
                {"short_p99_fct_ns": 100000.0,
                 "duplicate_byte_fraction": 0.05},
            ("websearch", "combined"):
                {"short_p99_fct_ns": 400000.0,
                 "duplicate_byte_fraction": 0.20},
        }
        fbase = write("fbase.json", fct_report(fct_base))

        # Clean pass: dup-byte lines + the headline speedup line.
        code, out = run_gate([write("fsame.json", fct_report(fct_base)),
                              fbase])
        check("fct rows pass",
              code == 0 and "speedup (best replica mode" in out
              and "10.00x [ok]" in out, out)

        check("fct logical rows exact",
              "logical rows exact: 3 rows, 18 fields compared [ok]" in out,
              out)

        # Logical drift: one completed flow fewer changes no gated ratio
        # but is a behavior change -> hard FAIL.
        fdrift = {k: dict(v) for k, v in fct_base.items()}
        fdrift[("websearch", "single_path")]["flows_completed"] = 3999
        code, out = run_gate([write("fdrift.json", fct_report(fdrift)),
                              fbase])
        check("fct logical drift fails",
              code == 1 and "websearch/single_path drifted from the "
              "baseline: flows_completed None -> 3999" in out, out)

        # Duplicate-byte flood: a row past the ceiling is a hard FAIL
        # even when its p99 ratio is fine.
        fflood = {k: dict(v) for k, v in fct_base.items()}
        fflood[("websearch", "combined")]["duplicate_byte_fraction"] = 0.60
        code, out = run_gate([write("fflood.json", fct_report(fflood)),
                              fbase])
        check("fct duplicate-byte flood fails",
              code == 1 and "degenerated into flooding" in out, out)

        # Lost headline: replica modes regressing to < 2x vs single-path
        # must fail even against an equally-bad baseline.
        fslow = {k: dict(v) for k, v in fct_base.items()}
        fslow[("websearch", "flow_replica")]["short_p99_fct_ns"] = 900000.0
        fslow[("websearch", "combined")]["short_p99_fct_ns"] = 900000.0
        bad_base = write("fbadbase.json", fct_report(fslow))
        code, out = run_gate([write("fslow.json", fct_report(fslow)),
                              bad_base])
        check("fct lost speedup fails",
              code == 1 and "no longer beats single-path" in out, out)

        # Missing replica rows: the claim must be checkable at all.
        fonly = {("websearch", "single_path"):
                 fct_base[("websearch", "single_path")]}
        thin_base = write("fthinbase.json", fct_report(fonly))
        code, out = run_gate([write("fonly.json", fct_report(fonly)),
                              thin_base])
        check("fct missing replica rows fails",
              code == 1 and "cannot check the headline speedup" in out, out)

        # --- ext5_forecast branches --------------------------------------
        fc_base = {name: {"row": name, "value": v} for name, v in (
            ("breach_windows_reactive", 2),
            ("breach_windows_predictive", 0),
            ("onset_p999_reactive", 12000),
            ("onset_p999_predictive", 2000),
            ("prehedge_lead_ticks", 30),
            ("false_positive_fraction_storm", 0.33),
            ("false_positive_fraction_calm", 0.0),
            ("calm_forecast_actuations", 0))}
        fcbase = write("fcbase.json", fc_report(fc_base))

        # Clean pass: both A/B win lines, the lead line, FP lines.
        code, out = run_gate([write("fcsame.json", fc_report(fc_base)),
                              fcbase])
        check("forecast rows pass",
              code == 0
              and "client breach windows: predictive 0 < reactive 2" in out
              and "prehedge lead: 30 ticks" in out, out)

        check("forecast logical rows exact",
              "logical rows exact: 8 rows, 32 fields compared [ok]" in out,
              out)

        # Logical drift: a 1 ns move of a row that still wins its A/B.
        fcdrift = {k: dict(v) for k, v in fc_base.items()}
        fcdrift["onset_p999_predictive"]["value"] = 2001
        code, out = run_gate([write("fcdrift.json", fc_report(fcdrift)),
                              fcbase])
        check("forecast logical drift fails",
              code == 1 and "onset_p999_predictive drifted from the "
              "baseline: value 2000 -> 2001" in out, out)

        # Lost A/B win: a predictive tie is a hard FAIL even against an
        # equally-bad baseline (the ratio rule alone would pass it).
        fclost = {k: dict(v) for k, v in fc_base.items()}
        fclost["breach_windows_predictive"]["value"] = 2
        lost_base = write("fclostbase.json", fc_report(fclost))
        code, out = run_gate([write("fclost.json", fc_report(fclost)),
                              lost_base])
        check("forecast lost A/B win fails",
              code == 1 and "no longer wins the client breach windows" in out,
              out)

        # Calm-soak FP past the ceiling: hard FAIL.
        fcnoise = {k: dict(v) for k, v in fc_base.items()}
        fcnoise["false_positive_fraction_calm"]["value"] = 0.2
        noise_base = write("fcnoisebase.json", fc_report(fcnoise))
        code, out = run_gate([write("fcnoise.json", fc_report(fcnoise)),
                              noise_base])
        check("forecast calm FP ceiling fails",
              code == 1 and "actuating on noise" in out, out)

        # Any calm-soak actuation at all: hard FAIL.
        fctrip = {k: dict(v) for k, v in fc_base.items()}
        fctrip["calm_forecast_actuations"]["value"] = 3
        trip_base = write("fctripbase.json", fc_report(fctrip))
        code, out = run_gate([write("fctrip.json", fc_report(fctrip)),
                              trip_base])
        check("forecast calm actuation fails",
              code == 1 and "must never trip the forecast" in out, out)

        # --- ext3 (controller rows) --------------------------------------
        ctl_base = {"red3-fixed": {"p999_ns": 3899391, "hedges": 0},
                    "red1-pid-timeout": {"p999_ns": 1831, "hedges": 60}}
        cbase = write("cbase.json", ctl_report(ctl_base))

        # Clean pass: both rows compared field for field.
        code, out = run_gate([write("csame.json", ctl_report(ctl_base)),
                              cbase])
        check("controller rows pass",
              code == 0 and "logical rows exact: 2 rows, 10 fields "
              "compared [ok]" in out, out)

        # Logical drift: one more hedge fired is a behavior change.
        cdrift = {k: dict(v) for k, v in ctl_base.items()}
        cdrift["red1-pid-timeout"]["hedges"] = 61
        code, out = run_gate([write("cdrift.json", ctl_report(cdrift)),
                              cbase])
        check("controller logical drift fails",
              code == 1 and "red1-pid-timeout drifted from the baseline: "
              "hedges 60 -> 61" in out, out)

        # Missing arm: a fresh run that drops an arm must fail, not pass
        # by omission (gate_exact alone compares only shared rows).
        conly = {"red3-fixed": ctl_base["red3-fixed"]}
        code, out = run_gate([write("conly.json", ctl_report(conly)),
                              cbase])
        check("controller missing row fails",
              code == 1 and "baseline rows missing from fresh run: "
              "red1-pid-timeout" in out, out)

    total = 33
    passed = total - len(failures)
    print(f"self-test: {passed}/{total} checks passed")
    return 1 if failures else 0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("fresh", nargs="?",
                    help="just-generated bench --json file")
    ap.add_argument("baseline", nargs="?", default=None,
                    help="committed baseline (default: per-bench)")
    ap.add_argument("--max-regression", type=float, default=2.0)
    ap.add_argument("--self-test", action="store_true",
                    help="exercise the gate's own failure branches and exit")
    args = ap.parse_args(argv)

    if args.self_test:
        sys.exit(self_test())
    if not args.fresh:
        ap.error("fresh report path required (or --self-test)")

    fresh_doc = load_doc(args.fresh)
    bench = fresh_doc["bench"]
    baseline_path = args.baseline or DEFAULT_BASELINE[bench]
    base_doc = load_doc(baseline_path)
    if base_doc["bench"] != bench:
        sys.exit(f"bench mismatch: fresh is {bench}, baseline "
                 f"{baseline_path} is {base_doc['bench']}")

    if bench == "ext2_fastpath":
        failed = check_fastpath(fastpath_rows(fresh_doc, args.fresh),
                                fastpath_rows(base_doc, baseline_path),
                                args.max_regression)
    elif bench == "fig11_fct":
        failed = check_fct(fct_rows(fresh_doc, args.fresh),
                           fct_rows(base_doc, baseline_path),
                           args.max_regression)
    elif bench == "ext3":
        failed = check_controller(controller_rows(fresh_doc, args.fresh),
                                  controller_rows(base_doc, baseline_path))
    elif bench == "ext5_forecast":
        failed = check_forecast(forecast_rows(fresh_doc, args.fresh),
                                forecast_rows(base_doc, baseline_path),
                                args.max_regression)
    else:
        failed = check_tenants(tenant_rows(fresh_doc, args.fresh),
                               tenant_rows(base_doc, baseline_path),
                               args.max_regression)

    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
